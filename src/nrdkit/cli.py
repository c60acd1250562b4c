"""Command-line entry point: `nrd <subcommand>`.

Conventions: results go to stdout (text, or JSON with --json); logging goes
to stderr.  Predicates are read from the catalog by name or from JSON files.
Exit codes: 0 success, 1 failed check or exhausted budget (one line on
stderr names the budget and the progress made) or an output pipe that the
reader closed (no traceback), 2 usage error or an input path that cannot
be read (missing, or a directory).  The global budget flags
--search-budget (read by nrd-exact and find-substructure without
--family) and --conflict-budget (read by find-substructure) are a usage
error on any other subcommand, and --search-budget with --family is one
too.  Environment variables NRD_SEARCH_BUDGET and
NRD_CONFLICT_BUDGET give their defaults, on every subcommand; explicit
flags win.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from . import balance, cancellation, catalog, generators, hypergraph, \
    pipeline, predicates, sat, substructure, tables

log = logging.getLogger("nrd")


class UsageError(Exception):
    """Bad command-line input; main prints its message and exits 2."""


# each global budget flag: its environment default and the subcommands
# that read it
BUDGETS = {"search_budget": ("NRD_SEARCH_BUDGET", 2_000_000,
                             ("nrd-exact", "find-substructure")),
           "conflict_budget": ("NRD_CONFLICT_BUDGET", 0, ("find-substructure",))}


def _env_int(name, default):
    val = os.environ.get(name)
    try:
        return int(val) if val else default
    except ValueError:
        raise UsageError(f"nrd: {name} must be an integer, got {val!r}") from None


def load_predicate(spec):
    """Catalog name, or path to a predicate / conditional-pair JSON file."""
    try:
        return catalog.catalog(spec)
    except catalog.CatalogError:
        pass
    if os.path.exists(spec):
        with open(spec) as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise predicates.PredicateError("a predicate file must hold an object")
        if "base" in d:
            return predicates.ConditionalPredicate.from_dict(d)
        return predicates.Predicate.from_dict(d)
    raise UsageError(f"nrd: unknown predicate {spec!r} (not a catalog name or file)")


def load_instance(path):
    with open(path) as fh:
        d = json.load(fh)
    if isinstance(d, dict) and "parts" in d:
        return hypergraph.PartiteHypergraph.from_dict(d)
    return hypergraph.Hypergraph.from_dict(d)


def load_certificate(spec):
    """Bundled certificate name, or path to a certificate JSON file."""
    try:
        return tables.certificate(spec)
    except KeyError:
        pass
    if not os.path.exists(spec):
        raise UsageError(
            f"nrd: unknown certificate {spec!r} (not a bundled name or file)")
    with open(spec) as fh:
        return substructure.SubstructureCertificate.from_dict(json.load(fh))


def parse_coords(text):
    return [int(x) for x in text.replace(" ", "").split(",") if x]


def parse_family(arity, text):
    sets = []
    for part in text.split(";"):
        part = part.strip()
        sets.append(tuple(parse_coords(part)) if part else ())
    return predicates.IndexFamily(arity, tuple(sets))


def emit(args, obj, text=None):
    if getattr(args, "json", False):
        print(json.dumps(obj, sort_keys=True))
    else:
        print(text if text is not None else json.dumps(obj, sort_keys=True))


# --- subcommand handlers ---------------------------------------------


def cmd_project(args):
    p = load_predicate(args.predicate)
    J = parse_coords(args.coords)
    if isinstance(p, predicates.ConditionalPredicate):
        out = predicates.project_conditional(p, J)
    else:
        out = predicates.project(p, J)
    emit(args, out.to_dict())
    return 0


def cmd_permute(args):
    p = load_predicate(args.predicate)
    sigma = parse_coords(args.sigma)
    if isinstance(p, predicates.ConditionalPredicate):
        out = predicates.permute_conditional(p, sigma)
    else:
        out = predicates.permute(p, sigma)
    emit(args, out.to_dict())
    return 0


def cmd_boxprod(args):
    a, b = load_predicate(args.left), load_predicate(args.right)
    for x in (a, b):
        if not isinstance(x, predicates.ConditionalPredicate):
            raise UsageError("nrd boxprod: both operands must be conditional pairs")
    emit(args, predicates.box_product(a, b).to_dict())
    return 0


def cmd_balance(args):
    if args.method == "lattice" and args.k_max is not None:
        raise UsageError("nrd balance: --k-max needs --method bounded")
    p = load_predicate(args.predicate)
    if isinstance(p, predicates.ConditionalPredicate):
        raise UsageError("nrd balance: input must be a plain predicate, not a pair")
    if args.method == "lattice":
        rep = balance.is_balanced_lattice(p)
    else:
        k_max = 3 if args.k_max is None else args.k_max
        rep = balance.is_balanced_bounded(p, k_max)
    verdict = "balanced" if rep.balanced else "imbalanced"
    lines = [verdict]
    if rep.witness:
        lines.append("witness: " + " ".join(
            "".join(map(str, t)) for t in rep.witness))
        lines.append("result: " + "".join(map(str, rep.result)))
    emit(args, rep.to_dict(), "\n".join(lines))
    return 0


def cmd_cancel(args):
    residual = cancellation.cancel(tuple(args.word))
    emit(args, {"residual": list(residual)}, "".join(map(str, residual)))
    return 0


def cmd_catalan_search(args):
    p = load_predicate(args.predicate)
    if isinstance(p, predicates.ConditionalPredicate):
        p = p.ambient
    hits = cancellation.catalan_search(p, args.max_len)
    emit(args, {"violations": [v.to_dict() for v in hits]},
         f"{len(hits)} violation(s)" + "".join(
             "\n  " + json.dumps(v.to_dict()) for v in hits))
    return 0


def cmd_verify_nrd(args):
    if args.mode == "find-witnesses" and args.certificate is not None:
        raise UsageError("nrd verify-nrd: --certificate needs --mode check-given")
    if args.mode == "check-given" and args.max_assignments is not None:
        raise UsageError(
            "nrd verify-nrd: --max-assignments needs --mode find-witnesses")
    h = load_instance(args.instance)
    pq = load_predicate(args.predicate)
    cert = None
    if args.certificate:
        with open(args.certificate) as fh:
            cert = hypergraph.NrdCertificate.from_dict(h, json.load(fh))
    res = hypergraph.verify_nrd(h, pq, mode=args.mode, certificate=cert,
                                max_assignments=args.max_assignments)
    if isinstance(res, hypergraph.NrdCertificate):
        out = {"non_redundant": True}
        if args.emit_witnesses:
            out["witnesses"] = res.to_dict(h)
        emit(args, out, "non-redundant")
        return 0
    emit(args, {"non_redundant": False, "failed_edge": list(res.failed_edge),
                "reason": res.reason},
         f"redundant: edge {res.failed_edge} ({res.reason})")
    return 1


def cmd_nrd_exact(args):
    pq = load_predicate(args.predicate)
    if args.n < 0:
        raise UsageError("nrd nrd-exact: -n must not be negative")
    parts = parse_coords(args.parts) if args.parts else None
    if parts is not None:
        if len(parts) != pq.arity:
            raise UsageError(
                f"nrd nrd-exact: --parts gives {len(parts)} part sizes but "
                f"{args.predicate} has arity {pq.arity}")
        if min(parts) < 0:
            raise UsageError("nrd nrd-exact: --parts sizes must not be negative")
        if sum(parts) != args.n:
            raise UsageError("nrd nrd-exact: --parts sizes must sum to -n")
    value, inst = hypergraph.nrd_exact(pq, args.n, part_sizes=parts,
                                       max_checks=args.search_budget or None)
    emit(args, {"n": args.n, "nrd": value, "instance": inst.to_dict()},
         f"NRD = {value}")
    return 0


def cmd_find_substructure(args):
    for flag in ("sizes", "max_results", "time_budget"):
        if args.family and getattr(args, flag) is not None:
            raise UsageError(f"nrd find-substructure: --{flag.replace('_', '-')}"
                             " applies only without --family")
    src, tgt = load_predicate(args.source), load_predicate(args.target)
    for x in (src, tgt):
        if not isinstance(x, predicates.ConditionalPredicate):
            raise UsageError("nrd find-substructure: inputs must be conditional pairs")
    if args.family:
        fam = parse_family(src.arity, args.family)
        cert = substructure.find_substructure(
            src, tgt, fam, conflict_budget=args.conflict_budget or None)
        if cert is None:
            emit(args, {"found": False}, "no substructure map for this family")
            return 1
        emit(args, {"found": True, "certificate": cert.to_dict()},
             json.dumps(cert.to_dict()))
        return 0
    sizes = tuple(parse_coords(args.sizes)) if args.sizes else None
    res = substructure.search_families(
        src, tgt, sizes=sizes,
        max_results=1 if args.max_results is None else args.max_results,
        max_families=args.search_budget or None, time_budget=args.time_budget,
        conflict_budget=args.conflict_budget or None)
    out = {"found": len(res.certificates), "families_tried": res.families_tried,
           "exhausted": res.exhausted,
           "certificates": [c.to_dict() for c in res.certificates]}
    emit(args, out, "\n".join(
        [f"{len(res.certificates)} found over {res.families_tried} families"] +
        [json.dumps(c.family.to_list()) for c in res.certificates]))
    return 0 if res.certificates else 1


def cmd_verify_substructure(args):
    cert = load_certificate(args.certificate)
    ok, problems = substructure.verify_certificate(cert)
    emit(args, {"valid": ok, "problems": problems},
         "valid" if ok else "invalid:\n  " + "\n  ".join(problems))
    return 0 if ok else 1


def cmd_deps(args):
    cert = load_certificate(args.certificate)
    deps = substructure.dependency_analysis(cert)
    emit(args, {"dependencies": [[list(m) for m in mins] for mins in deps]},
         "; ".join(" or ".join("{" + ",".join(map(str, m)) + "}" for m in mins)
                   for mins in deps))
    return 0


def cmd_gen_girth6(args):
    g = generators.gen_girth6(args.q)
    if args.emit_graph:
        lines = [f"{a} {b}" for a, b in g.edges]
        emit(args, {"edges": [list(e) for e in g.edges]}, "\n".join(lines))
    else:
        emit(args, g.to_dict(),
             json.dumps(g.to_dict()) if not args.json else None)
    log.info("girth = %s", generators.girth(g))
    return 0


def cmd_build_instance(args):
    key = args.name.upper().replace("|", "")
    if key == "R1S1":
        inst = generators.build_R1S1_instance(args.q, args.n3)
    elif key == "R2S2":
        if args.n3 is not None:
            raise UsageError("nrd build-instance: --n3 applies to R1S1 only")
        inst = generators.build_R2S2_instance(args.q)
    else:
        raise UsageError(f"nrd build-instance: unknown family {args.name!r}")
    if args.m is not None:
        inst = inst.truncated(args.m)
    out = {"name": inst.name, "q": inst.q, "n_vertices": inst.n_vertices,
           "n_edges": inst.n_edges, "instance": inst.hypergraph.to_dict()}
    if args.verify:
        res = inst.verify()
        out["verified"] = res is None
        if res is not None:
            emit(args, out, f"verification FAILED at {res.failed_edge}")
            return 1
    if args.output:  # before stdout, so an unwritable path prints nothing
        with open(args.output, "w") as fh:
            json.dump(out["instance"], fh)
    emit(args, out,
         f"{inst.name} q={inst.q}: {inst.n_vertices} vertices, "
         f"{inst.n_edges} edges" + (" (verified)" if args.verify else ""))
    return 0


def cmd_reduce(args):
    h = load_instance(args.instance)
    cert = load_certificate(args.certificate)
    witness_fn = None
    if args.witnesses:
        with open(args.witnesses) as fh:
            ncert = hypergraph.NrdCertificate.from_dict(h, json.load(fh))
        witness_fn = lambda e: ncert.witnesses[e]
    try:
        res = pipeline.apply_reduction(h, cert, witness_fn)
    except pipeline.PipelineError as exc:
        print(f"nrd: {exc}", file=sys.stderr)
        return 1
    out = res.to_dict()
    out["instance"] = res.instance.to_dict()
    if args.output:  # before stdout, so an unwritable path prints nothing
        with open(args.output, "w") as fh:
            json.dump(out["instance"], fh)
    emit(args, out, f"{res.n_edges} edges over {res.n_vertices} vertices"
         + (" (witnesses verified)" if res.verified else ""))
    return 0


def cmd_shrink_report(args):
    h = load_instance(args.instance)
    if not h.edges:
        raise UsageError("nrd shrink-report: the instance has no edges")
    if h.arity < 2:
        raise UsageError("nrd shrink-report: arity 1 has no proper projection")
    rep = hypergraph.shrinking_report(h)
    text = [f"|E| = {rep.edge_count}"]
    for I, (count, lam) in sorted(rep.factors.items()):
        text.append(f"  I={{{','.join(map(str, I))}}}: "
                    f"|pi_I E| = {count}, factor {lam:.3f}")
    text.append(f"shrink factor = {rep.shrink_factor:.3f}")
    emit(args, rep.to_dict(), "\n".join(text))
    return 0


def cmd_fit(args):
    pts = [tuple(map(float, p.split(","))) for p in args.points.split(";")]
    if any(len(p) != 2 for p in pts):
        raise UsageError("nrd fit: each point must be a pair n,m")
    rep = pipeline.fit_exponent(pts)
    emit(args, rep.to_dict(),
         f"exponent = {rep.exponent:.4f} (epsilon = {rep.epsilon:.4f})")
    return 0


def cmd_cond2plain(args):
    pq = load_predicate(args.predicate)
    if not isinstance(pq, predicates.ConditionalPredicate):
        raise UsageError("nrd cond2plain: input must be a conditional pair")
    out = pipeline.conditional_to_plain(pq)
    emit(args, out.to_dict(), f"|R| = {len(out)} over domain "
         f"{out.domain_size}, arity {out.arity}")
    return 0


def cmd_paper_verify(args):
    only = [s.strip() for s in args.only.split(",")] if args.only else None
    rep = pipeline.paper_verify(only=only, deep=not args.shallow)
    if args.json:
        print(json.dumps(rep.to_dict(), sort_keys=True))
    else:
        for item in rep.items:
            print(f"[{item.status.upper():7}] {item.name}")
            if item.status != "pass":
                print("          " + json.dumps(item.detail, sort_keys=True))
        print(f"{len(rep.items)} items, {len(rep.failures)} failures, "
              f"{len(rep.anomalies)} anomalies")
    return rep.exit_code


# --- parser -----------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="nrd",
        description="Non-redundancy toolkit: predicate algebra, witness "
                    "verification, substructure discovery, and instance "
                    "generation with full re-verification of the bundled "
                    "reference tables.")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--conflict-budget", type=int,
                    help="SAT conflict budget of find-substructure "
                         "(0 = unlimited)")
    ap.add_argument("--search-budget", type=int,
                    help="cap on the feasibility checks of nrd-exact, "
                         "counted after its symmetry pruning, and on the "
                         "families find-substructure tries without --family "
                         "(0 = unlimited); default 2000000")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        return p

    p = add("project", cmd_project, "project a predicate onto coordinates")
    p.add_argument("predicate")
    p.add_argument("--coords", required=True, help="e.g. 1,3,4")

    p = add("permute", cmd_permute, "rearrange predicate coordinates")
    p.add_argument("predicate")
    p.add_argument("--sigma", required=True, help="e.g. 2,1,3")

    p = add("boxprod", cmd_boxprod, "box product of two conditional pairs")
    p.add_argument("left")
    p.add_argument("right")

    p = add("balance", cmd_balance,
            "closure under odd alternating sums (Boolean predicates)")
    p.add_argument("predicate")
    p.add_argument("--method", choices=("lattice", "bounded"), default="lattice")
    p.add_argument("--k-max", type=int, help="with --method bounded; default 3")

    p = add("cancel", cmd_cancel, "play the cancellation game on a word")
    p.add_argument("word")

    p = add("catalan-search", cmd_catalan_search,
            "search odd matrices whose rows cancel to a tuple outside")
    p.add_argument("predicate")
    p.add_argument("--max-len", type=int, default=5)

    p = add("verify-nrd", cmd_verify_nrd, "verify instance non-redundancy")
    p.add_argument("--instance", required=True)
    p.add_argument("--predicate", required=True)
    p.add_argument("--mode", choices=("find-witnesses", "check-given"),
                   default="find-witnesses")
    p.add_argument("--certificate", help="witness JSON for check-given mode")
    p.add_argument("--max-assignments", type=int,
                   help="budget of value trials for find-witnesses")
    p.add_argument("--emit-witnesses", action="store_true")

    p = add("nrd-exact", cmd_nrd_exact, "exact maximum non-redundant size")
    p.add_argument("predicate")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--parts", help="partite mode: part sizes, e.g. 2,2")

    p = add("find-substructure", cmd_find_substructure,
            "SAT search for a substructure map")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--family", help='fixed family, e.g. "1,2;1,3;2,3"')
    p.add_argument("--sizes", help="per-coordinate subset sizes for search")
    p.add_argument("--max-results", type=int, help="without --family; default 1")
    p.add_argument("--time-budget", type=float, help="seconds, without --family")

    p = add("verify-substructure", cmd_verify_substructure,
            "check a substructure certificate")
    p.add_argument("certificate", help="bundled name or JSON file")

    p = add("deps", cmd_deps, "actual dependency sets of a certificate")
    p.add_argument("certificate")

    p = add("gen-girth6", cmd_gen_girth6,
            "projective-plane incidence graph (girth 6)")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--emit-graph", action="store_true")

    p = add("build-instance", cmd_build_instance, "build a shrinking instance")
    p.add_argument("name", help="R1S1 or R2S2")
    p.add_argument("-q", type=int, required=True)
    p.add_argument("--n3", type=int, help="third-part size (R1S1)")
    p.add_argument("-m", type=int, help="truncate to exactly m edges")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--output")

    p = add("reduce", cmd_reduce, "project an instance through a certificate")
    p.add_argument("--instance", required=True)
    p.add_argument("--certificate", required=True)
    p.add_argument("--witnesses", help="source witness JSON to transfer+verify")
    p.add_argument("--output")

    p = add("shrink-report", cmd_shrink_report, "projection shrink factors")
    p.add_argument("--instance", required=True)

    p = add("fit", cmd_fit, "fit growth exponent from (n,m) points")
    p.add_argument("points", help='e.g. "119,147;390,676;2083,5766"')

    p = add("cond2plain", cmd_cond2plain,
            "lift a conditional pair to a plain predicate")
    p.add_argument("predicate")

    p = add("paper-verify", cmd_paper_verify,
            "re-verify all bundled reference tables and constructions")
    p.add_argument("--only", help="comma-separated sections")
    p.add_argument("--shallow", action="store_true",
                   help="skip instance/pipeline sections")

    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                            format="%(levelname)s %(name)s: %(message)s")
        for flag, (variable, default, readers) in BUDGETS.items():
            name = flag.replace("_", "-")
            if getattr(args, flag) is None:
                setattr(args, flag, _env_int(variable, default))
            elif args.command not in readers:
                raise UsageError(f"nrd {args.command}: --{name} applies only "
                                 f"to {' and '.join(readers)}")
            elif flag == "search_budget" and getattr(args, "family", None):
                raise UsageError(f"nrd {args.command}: --{name} applies only "
                                 "without --family")
            if getattr(args, flag) < 0:
                raise UsageError(f"nrd: --{name} must not be negative")
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: the flush at exit writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"nrd: {exc}", file=sys.stderr)
        return 2
    except (hypergraph.BudgetExceeded, sat.ConflictBudgetExceeded) as exc:
        print(f"nrd: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
