"""Span tracing from outside the program, and the per-layer metrics.

The tracer wraps every public module-level function of each nrdkit layer
module, at every module attribute that names it (so `verify_nrd` is wrapped
in `hypergraph`, and also where `pipeline` and `generators` imported it).
Each call records a span [name, start, end, parent, attrs] in memory; the
spans are written out when the run ends.  A span's self time is its
duration minus the durations of its child spans (one thread, so children
never overlap).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("cli", "pipeline", "hypergraph", "generators", "substructure",
          "sat", "balance", "cancellation", "tables")

# Public methods traced in addition to the module-level functions: the
# shrinking instances hand out their constructed witnesses through these.
METHODS = {"generators": {"ShrinkingInstance": ("witness", "certificate")}}

NAME, START, END, PARENT, ATTRS = range(5)


def _verify_nrd_attrs(args, kwargs, result):
    h = args[0] if args else kwargs["h"]
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "find-witnesses")
    return {"mode": mode, "edges": len(h.edges),
            "found": type(result).__name__ == "NrdCertificate"}


# Attributes read from a call's arguments and result, for the ratios and
# counts that have to be measured where the work happens.
ATTRS_HOOKS = {
    "hypergraph.verify_nrd": _verify_nrd_attrs,
    "substructure.direct_search": lambda a, k, r: {"hit": r is not None},
    "substructure.encode": lambda a, k, r: {"clauses": len(r[0].clauses)},
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        hook = ATTRS_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                rec[ATTRS] = hook(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the layer functions of the imported nrdkit and rebind every
        nrdkit module attribute that refers to one of them."""
        mods = [m for n, m in sys.modules.items()
                if n == "nrdkit" or n.startswith("nrdkit.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"nrdkit.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}",
                                                 vars(cls)[meth]))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\tattrs\n")
            for i, s in enumerate(self.spans):
                attrs = ",".join(f"{k}={v}" for k, v in (s[ATTRS] or {}).items())
                fh.write(f"{i}\t{s[PARENT]}\t{s[NAME]}\t{s[START]:.9f}\t"
                         f"{s[END]:.9f}\t{attrs}\n")


# --- per-layer metrics -----------------------------------------------

PER_LAYER = (
    ("cli.self_s", "s"), ("pipeline.paper_verify_s", "s"),
    ("pipeline.transfer_s", "s"), ("pipeline.transfer_calls", "count"),
    ("pipeline.apply_reduction_self_s", "s"),
    ("hypergraph.search_s", "s"), ("hypergraph.search_calls", "count"),
    ("hypergraph.search_found_ratio", "ratio"),
    ("hypergraph.check_s", "s"), ("hypergraph.check_edges", "count"),
    ("hypergraph.nrd_exact_self_s", "s"),
    ("hypergraph.projection_s", "s"), ("hypergraph.shrink_s", "s"),
    ("generators.build_s", "s"), ("generators.witness_s", "s"),
    ("generators.girth_s", "s"),
    ("substructure.direct_search_s", "s"),
    ("substructure.direct_search_calls", "count"),
    ("substructure.hit_ratio", "ratio"),
    ("substructure.encode_s", "s"), ("substructure.cnf_clauses", "count"),
    ("substructure.verify_certificate_s", "s"),
    ("sat.solve_s", "s"), ("sat.solve_calls", "count"),
    ("balance.s", "s"), ("cancellation.s", "s"), ("tables.s", "s"),
)

_PROJECTION = {"hypergraph.projection_map", "hypergraph.projection_hypergraph",
               "hypergraph.project_instance"}
_BUILD = {"generators.gen_girth6", "generators.build_R1S1_instance",
          "generators.build_R2S2_instance"}
_WITNESS = {"generators.girth6_witness", "generators.c6_certificate",
            "generators.ShrinkingInstance.witness",
            "generators.ShrinkingInstance.certificate"}


def _sums(spans, lo, hi):
    """Additive per-layer quantities over spans[lo:hi]."""
    self_time = {}
    for s in spans[lo:hi]:
        self_time[id(s)] = s[END] - s[START]
    for s in spans[lo:hi]:
        if s[PARENT] >= lo:
            parent = spans[s[PARENT]]
            self_time[id(parent)] -= s[END] - s[START]

    def outer(names_or_pred):
        """Total duration of spans matching, not counting nested matches."""
        match = (names_or_pred if callable(names_or_pred)
                 else lambda s: s[NAME] in names_or_pred)
        total = 0.0
        for s in spans[lo:hi]:
            if not match(s):
                continue
            p = s[PARENT]
            while p >= lo and not match(spans[p]):
                p = spans[p][PARENT]
            if p < lo:
                total += s[END] - s[START]
        return total

    def layer(prefix):
        return lambda s: s[NAME].startswith(prefix + ".")

    def named(name):
        return [s for s in spans[lo:hi] if s[NAME] == name]

    def self_of(pred):
        return sum(self_time[id(s)] for s in spans[lo:hi] if pred(s))

    nrd = named("hypergraph.verify_nrd")
    search = [s for s in nrd if s[ATTRS] and s[ATTRS]["mode"] == "find-witnesses"]
    check = [s for s in nrd if s[ATTRS] and s[ATTRS]["mode"] == "check-given"]
    direct = named("substructure.direct_search")
    encode = named("substructure.encode")
    transfer = named("pipeline.transfer_witness")
    return {
        "cli.self_s": self_of(layer("cli")),
        "pipeline.paper_verify_s": outer({"pipeline.paper_verify"}),
        "pipeline.transfer_s": outer({"pipeline.transfer_witness"}),
        "pipeline.transfer_calls": len(transfer),
        "pipeline.apply_reduction_self_s":
            self_of(lambda s: s[NAME] == "pipeline.apply_reduction"),
        "hypergraph.search_s": sum(s[END] - s[START] for s in search),
        "hypergraph.search_calls": len(search),
        "_search_found": sum(1 for s in search if s[ATTRS]["found"]),
        "hypergraph.check_s": sum(s[END] - s[START] for s in check),
        "hypergraph.check_edges": sum(s[ATTRS]["edges"] for s in check),
        "hypergraph.nrd_exact_self_s":
            self_of(lambda s: s[NAME] == "hypergraph.nrd_exact"),
        "hypergraph.projection_s": outer(_PROJECTION),
        "hypergraph.shrink_s": outer({"hypergraph.shrinking_report"}),
        "generators.build_s": outer(_BUILD),
        "generators.witness_s": outer(_WITNESS),
        "generators.girth_s": outer({"generators.girth"}),
        "substructure.direct_search_s": outer({"substructure.direct_search"}),
        "substructure.direct_search_calls": len(direct),
        "_direct_hits": sum(1 for s in direct if s[ATTRS] and s[ATTRS]["hit"]),
        "substructure.encode_s": outer({"substructure.encode"}),
        "substructure.cnf_clauses":
            sum(s[ATTRS]["clauses"] for s in encode if s[ATTRS]),
        "substructure.verify_certificate_s":
            outer({"substructure.verify_certificate"}),
        "sat.solve_s": outer({"sat.solve"}),
        "sat.solve_calls": len(named("sat.solve")),
        "balance.s": outer(layer("balance")),
        "cancellation.s": outer(layer("cancellation")),
        "tables.s": outer(layer("tables")),
    }


def layer_metrics(spans, rounds_start, rounds):
    """Per-layer metrics for one set-up plus one round: spans before
    `rounds_start` belong to the (last) set-up and count once, spans of the
    timed rounds are averaged over `rounds`."""
    setup = _sums(spans, 0, rounds_start)
    timed = _sums(spans, rounds_start, len(spans))
    per = {k: setup[k] + timed[k] / rounds for k in timed}
    out = {}
    for name, _ in PER_LAYER:
        if name == "hypergraph.search_found_ratio":
            calls = per["hypergraph.search_calls"]
            out[name] = per["_search_found"] / calls if calls else 0.0
        elif name == "substructure.hit_ratio":
            calls = per["substructure.direct_search_calls"]
            out[name] = per["_direct_hits"] / calls if calls else 0.0
        else:
            out[name] = per[name]
    return out
