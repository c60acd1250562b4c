"""End-to-end reductions, exponent fitting, and the bundled-table audit.

Reduction soundness: a non-redundant instance of the source pair plus a
substructure certificate yields a non-redundant projection instance of the
target pair, with witnesses transferred through the certificate map.  A
valid certificate makes the check of a transferred witness the check of
its source witness, so the transfer is the source pair's
`WitnessKernel.check`, the one witness check that check-given also runs,
and builds nothing on the target side.  The audit (`paper_verify`)
re-checks every bundled construction table and the instance pipelines in
one run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from . import catalog, tables
from .balance import is_balanced_bounded, is_balanced_lattice
from .cancellation import cancel, catalan_matrix_check, catalan_search
from .generators import (box_product_instance, build_R1S1_instance,
                         build_R2S2_instance, gen_girth6, girth)
from .hypergraph import (Hypergraph, NrdCertificate, PartiteHypergraph,
                         Projection, WitnessKernel, instance_index, nrd_exact,
                         projection_map, shrinking_report)
from .predicates import ConditionalPredicate, Predicate, PredicateError, \
    box_product
from .substructure import SubstructureCertificate, verify_certificate


class PipelineError(RuntimeError):
    pass


# --- exponent fitting -------------------------------------------------


@dataclass
class FitReport:
    exponent: float      # slope of log m against log n
    epsilon: float       # 1 - 1/exponent
    residuals: list
    growth_ratios: list  # m_{i+1} / m_i

    def to_dict(self):
        return {"exponent": self.exponent, "epsilon": self.epsilon,
                "residuals": self.residuals, "growth_ratios": self.growth_ratios}


def fit_loglog(xs, ys):
    """Least-squares slope/intercept of log y against log x, with residuals.

    Raises ValueError for fewer than two points, a value that is not
    finite and positive, or x values that do not fix a line: fewer than
    two distinct ones, or two so close that polyfit's rank test fails."""
    if len(xs) < 2:
        raise ValueError("need at least 2 data points")
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if not all(np.isfinite(v).all() and (v > 0).all() for v in (xs, ys)):
        raise ValueError("a log-log fit needs finite positive values")
    if len(np.unique(xs)) < 2:  # else polyfit may fail in LAPACK (all x = 1)
        raise ValueError("a log-log fit needs at least 2 distinct x values")
    lx, ly = np.log(xs), np.log(ys)
    (slope, intercept), _, rank, _, _ = np.polyfit(lx, ly, 1, full=True)
    if rank < 2:
        raise ValueError("a log-log fit needs at least 2 distinct x values")
    resid = ly - (slope * lx + intercept)
    return float(slope), float(intercept), [float(r) for r in resid]


def fit_exponent(points) -> FitReport:
    """points = [(n_i, m_i)] with m_i increasing; the exponent is the fitted
    slope of log m against log n, i.e. the implied bound NRD >= n^exponent."""
    ns = [p[0] for p in points]
    ms = [p[1] for p in points]
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError("edge counts must be strictly increasing")
    slope, _, resid = fit_loglog(ns, ms)
    ratios = [ms[i + 1] / ms[i] for i in range(len(ms) - 1)]
    return FitReport(slope, 1 - 1 / slope, resid, ratios)


def fit_shrinkage(points) -> float:
    """Fitted epsilon with lambda ~ m^epsilon, from [(m_i, lambda_i)]."""
    slope, _, _ = fit_loglog([p[0] for p in points], [p[1] for p in points])
    return slope


# --- reduction application -------------------------------------------


@dataclass
class ReductionResult:
    projection: Projection
    verified: bool       # False = counts only (no witnesses requested)
    n_vertices: int
    n_edges: int

    @property
    def instance(self) -> PartiteHypergraph:
        """The labelled projected instance, made on first read."""
        return self.projection.instance

    def to_dict(self):
        return {"n_vertices": self.n_vertices, "n_edges": self.n_edges,
                "verified": self.verified}


def apply_reduction(h: PartiteHypergraph, cert: SubstructureCertificate,
                    witness_fn=None) -> ReductionResult:
    """Project a source instance through a substructure certificate.

    With witness_fn (edge -> violating assignment of the source instance),
    every transferred witness is verified against the target pair; failures
    raise since they would contradict reduction soundness.  Without it only
    the projected instance and its counts are produced.

    The witness psi of source edge e transfers to phi, which sets vertex j
    of each projected edge pi(e') to sigma(psi(e'))_j.  Three conditions,
    checked here before any transfer, make phi's check that of psi:
    `verify_certificate` makes output coordinate j of sigma read only I_j,
    so phi is well defined once every tuple psi(e') lies in Q1, the domain
    of sigma; it makes sigma map P1 into P2 and Q1 \\ P1 into Q2 \\ P2, so
    phi's tuple on pi(e') lies in P2 exactly when psi(e') lies in P1; and
    the projection merges no edges, so pi(e) is the one edge phi must put
    in Q2 \\ P2.  So the transfer is the source pair's `WitnessKernel.check`,
    the check that `verify_nrd`'s check-given runs, and no target-side
    table is built.  witness_fn is called once per edge, in edge order, up
    to the block of the first failing witness, and the error raised is
    that witness's: a malformed witness, else its first tuple outside Q1,
    else the edge itself.
    """
    ok, problems = verify_certificate(cert)
    if not ok:
        raise PipelineError(f"invalid certificate: {problems}")
    proj = projection_map(h, cert.family)
    if proj.index.m != instance_index(h, h.arity).m:
        raise PipelineError(
            "joint projection merges source edges; witnesses cannot transfer")
    result = ReductionResult(proj, False, proj.index.n, proj.index.m)
    if witness_fn is None:
        return result
    edges = h.edges
    bad = WitnessKernel(h, cert.source).check(lambda i: witness_fn(edges[i]))
    if bad is not None:
        if bad.malformed is not None:
            raise PipelineError(f"source witness rejected: {bad.malformed}")
        if bad.outside is not None:
            e, t = bad.outside
            raise PipelineError(f"witness for edge {edges[bad.edge]} gives edge "
                                f"{edges[e]} the tuple {t}, outside the certificate domain")
        raise PipelineError(
            f"transferred witness failed for edge {edges[bad.edge]}")
    result.verified = True
    return result


# --- conditional-to-plain lifting ------------------------------------


def _or_pair(domain_size: int, r: int) -> ConditionalPredicate:
    if domain_size < 2:
        raise PredicateError("lifting needs both 0 and 1 in the domain")
    ors = [t for t in product((0, 1), repeat=r) if any(t)]
    cube = list(product((0, 1), repeat=r))
    return ConditionalPredicate(Predicate(domain_size, r, ors),
                                Predicate(domain_size, r, cube))


def conditional_to_plain_pair(pq: ConditionalPredicate) -> ConditionalPredicate:
    """(P | Q) boxed with (OR_r | Boolean r-cube) over the same domain."""
    return box_product(pq, _or_pair(pq.domain_size, pq.arity))


def conditional_to_plain(pq: ConditionalPredicate) -> Predicate:
    """The plain 2r-ary predicate whose NRD dominates that of P | Q."""
    return conditional_to_plain_pair(pq).base


def build_plain_lb_instance(h: PartiteHypergraph, pq: ConditionalPredicate,
                            witness_fn, v_prime_size: int):
    """Box product of a conditional instance with the r-subsets of fresh
    vertices w0, w1, ... for (OR_r | {0,1}^r).

    Returns (instance of the lifted plain predicate, certificate); the
    witness for (e, w) extends the source witness for e by 0 on w's
    vertices and 1 on the rest of the fresh part.
    """
    r = pq.arity
    if v_prime_size < r:
        raise PipelineError(f"need at least r = {r} fresh vertices")
    vertices, fresh = h.vertices(), [f"w{k}" for k in range(v_prime_size)]
    rows = np.array([[witness_fn(e)[v] for v in vertices] for e in h.edges])
    subsets = list(combinations(range(v_prime_size), r))
    zeros = np.array([[0 if v in w else 1 for v in range(v_prime_size)]
                      for w in subsets])
    inst, witness = box_product_instance((h, rows.__getitem__), (
        Hypergraph.from_index(fresh, np.array(subsets).T), zeros.__getitem__))
    rows = witness(np.arange(len(inst.edges))).tolist()
    vertices = inst.vertices()
    return inst, NrdCertificate({e: dict(zip(vertices, row))
                                 for e, row in zip(inst.edges, rows)})


# --- the audit --------------------------------------------------------


@dataclass
class AuditItem:
    name: str
    status: str  # pass | fail | anomaly
    detail: dict = field(default_factory=dict)

    def to_dict(self):
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class AuditReport:
    items: list

    @property
    def failures(self):
        return [i for i in self.items if i.status == "fail"]

    @property
    def anomalies(self):
        return [i for i in self.items if i.status == "anomaly"]

    @property
    def exit_code(self):
        return 1 if self.failures else 0

    def to_dict(self):
        return {"items": [i.to_dict() for i in self.items],
                "failures": len(self.failures),
                "anomalies": len(self.anomalies)}


def _expect(cond, detail=""):
    if not cond:
        raise PipelineError(detail or "check failed")


AUDIT_SECTIONS = ("catalog", "balance", "tables", "sym", "cancel",
                  "instances", "pipelines")


def paper_verify(only=None, deep=True) -> AuditReport:
    """Re-verify every bundled table and construction.

    only: restrict to section names (AUDIT_SECTIONS).  deep=False skips the
    slow instance/pipeline sections.  ValueError for an unknown section,
    and for a selection that runs no item.
    """
    sections = "the sections are " + ", ".join(AUDIT_SECTIONS)
    unknown = [s for s in only or () if s not in AUDIT_SECTIONS]
    if unknown:
        raise ValueError(f"unknown audit section {unknown[0]!r}; {sections}")
    items = []

    def run(section, name, fn):
        if only and section not in only:
            return
        try:
            detail = fn() or {}
            status = detail.pop("_status", "pass")
            items.append(AuditItem(name, status, detail))
        except Exception as exc:  # collected, not fatal
            items.append(AuditItem(name, "fail", {"error": str(exc)}))

    # catalog integrity
    def catalog_ok():
        sizes = {"EQ": 2, "C6": 6, "C6*": 5, "BOOLBCK": 5, "BOOLBCK+": 6,
                 "CAT5": 5, "CAT5+": 6, "3LIN*R": 8}
        for name, k in sizes.items():
            _expect(len(catalog.catalog(name)) == k, f"{name} size")
        _expect(len(catalog.R2S2.ambient.tuples) == 36, "R2S2 ambient")
        _expect(catalog.R2S2.outside() == ((0, 0, 0, 0),), "R2S2 excluded tuple")
        return {"entries": len(catalog.catalog_names())}
    run("catalog", "catalog integrity", catalog_ok)

    # toy exact-NRD facts
    def eq_facts():
        vals = {n: nrd_exact(catalog.EQ, n)[0] for n in (2, 3, 4)}
        _expect(all(vals[n] == n - 1 for n in vals), f"EQ values {vals}")
        return {"nrd_eq": vals}
    run("catalog", "equality-predicate NRD n-1", eq_facts)

    # balance suite
    def balance_suite():
        detail = {}
        for name, want in [("OR2", False), ("1IN3", True),
                           ("BOOLBCK", False), ("BOOLBCK+", True)]:
            p = catalog.catalog(name)
            lat = is_balanced_lattice(p)
            bnd = is_balanced_bounded(p, 3)
            _expect(lat.balanced == want, f"{name} lattice")
            _expect(bnd.balanced == want, f"{name} bounded")
            detail[name] = "balanced" if want else "imbalanced"
        b1 = is_balanced_bounded(catalog.BOOLBCK, 1)
        b2 = is_balanced_bounded(catalog.BOOLBCK, 2)
        _expect(b1.balanced and not b2.balanced, "BoolBCK k=1 vs k=2")
        _expect(b2.result == (1, 0, 0, 0, 1, 0, 0, 0, 1), "identity-matrix result")
        _expect(len(b2.witness) == 5, "5-term witness")
        return detail
    run("balance", "balance suite", balance_suite)

    # bundled substructure tables
    for name in tables.CERTIFICATE_NAMES:
        def table_ok(name=name):
            cert = tables.certificate(name)
            ok, problems = verify_certificate(cert)
            _expect(ok, "; ".join(problems))
            detail = {"rows": len(cert.sigma)}
            if name == "P2Q2-PRINTED":
                stated_ok, _ = verify_certificate(SubstructureCertificate(
                    cert.source, cert.target, tables.P2Q2_STATED_FAMILY,
                    cert.sigma))
                detail["note"] = ("published output coordinate order is (1,4,2) "
                                  "and published family does not match; "
                                  "verified with machine-derived family")
                detail["published_family_valid"] = stated_ok
            return detail
        run("tables", f"substructure table {name}", table_ok)

    # coordinate-bijection rows
    def sym_audit():
        rows = {}
        anomaly = False
        for i in sorted(tables.SYM_ROWS):
            ok, problems = tables.verify_sym_row(i)
            rows[i] = {"target": tables.SYM_TARGET[i], "ok": ok}
            if not ok:
                anomaly = True
                rows[i]["problems"] = problems
                rows[i]["repairs"] = tables.repair_sym_row(i)
        detail = {"rows": {str(k): v for k, v in rows.items()}}
        bad = [i for i, v in rows.items() if not v["ok"]]
        if bad == [6]:
            detail["_status"] = "anomaly"
            detail["anomaly"] = "row 6 is not a bijection as printed"
        elif bad:
            raise PipelineError(f"unexpected bad rows {bad}")
        return detail
    run("sym", "coordinate-bijection audit", sym_audit)

    # cancellation
    def cancel_suite():
        _expect(cancel("0221221") == ("0",), "worked example")
        cols = [(0, 1, 0, 1, 2), (1, 1, 1, 1, 1), (1, 2, 2, 0, 1),
                (2, 2, 2, 2, 2), (2, 0, 1, 2, 0)]
        residual, member = catalan_matrix_check(catalog.CAT5, cols)
        _expect(residual == (0, 0, 0, 0, 0) and not member, "matrix residual")
        _expect(catalan_search(catalog.CAT5_PLUS, 5) == [], "no violations at 5")
        return {"residual": "00000", "in_predicate": member}
    run("cancel", "cancellation suite", cancel_suite)

    if deep:
        # girth-6 generation and shrinking instances
        def girth_gen():
            out = {}
            for q in (2, 3):
                g = gen_girth6(q)
                n, m = len(g.vertices()), instance_index(g, 2).m
                _expect(n == 2 * (q * q + q + 1), "vertex count")
                _expect(m == (q + 1) * (q * q + q + 1), "edge count")
                _expect(girth(g) == 6, "girth")
                out[f"q={q}"] = {"vertices": n, "edges": m}
            return out
        run("instances", "girth-6 generation", girth_gen)

        # each (family, q) is built, measured and checked once per call, on
        # first use, by builders looked up when the audit runs
        builders = {"R1S1": build_R1S1_instance, "R2S2": build_R2S2_instance}
        instance = functools.cache(lambda family, q: builders[family](q))
        report = functools.cache(
            lambda family, q: shrinking_report(instance(family, q).hypergraph))
        checked = functools.cache(
            lambda family, q: instance(family, q).verify() is None)

        def instances_ok():
            out = {}
            for name in builders:
                for q in (2, 3):
                    inst = instance(name, q)
                    _expect(checked(name, q), f"{name} q={q}")
                    rep = report(name, q)
                    out[f"{name} q={q}"] = {"m": inst.n_edges,
                                            "shrink": rep.shrink_factor}
                    _expect(abs(rep.shrink_factor - (q + 1)) < 1e-9, "factor q+1")
            return out
        run("instances", "shrinking instances verify", instances_ok)

        def shrink_fit():
            out = {}
            for name, eps0, tol in (("R1S1", 0.25, 0.10), ("R2S2", 1 / 6, 0.12)):
                pts = []
                for q in (2, 3, 5):
                    pts.append((instance(name, q).n_edges,
                                report(name, q).shrink_factor))
                eps = fit_shrinkage(pts)
                _expect(abs(eps - eps0) < tol, f"{name} eps {eps}")
                out[name] = {"epsilon": eps, "target": eps0}
            return out
        run("instances", "shrinkage exponents", shrink_fit)

        # witnesses transferred at q = 2, 3, counts only at q = 5: once
        # apply_reduction has checked the certificate and that no edges merge,
        # the transfer is the source pair's check-given, which `checked` holds
        for title, cert_name, family, target in (
                ("product-to-8-ary pipeline", "J1", "R2S2", 6 / 5),
                ("ternary-projection pipeline", "P1Q1", "R1S1", 4 / 3)):
            def pipeline_ok(cert_name=cert_name, family=family, target=target):
                cert = tables.certificate(cert_name)
                entries = []
                for q in (2, 3, 5):
                    inst = instance(family, q)
                    _expect(inst.predicate == cert.source, "certificate source")
                    res = apply_reduction(inst.hypergraph, cert)
                    entries.append({"q": q, "n": res.n_vertices, "m": res.n_edges,
                                    "verified": q < 5 and checked(family, q)})
                fit = fit_exponent([(e["n"], e["m"]) for e in entries])
                _expect(all(e["verified"] for e in entries[:2]), "verification")
                _expect(abs(fit.exponent - target) < 0.15, "exponent")
                return {"fit": fit.to_dict(), "entries": entries}
            run("pipelines", title, pipeline_ok)

    if not items:
        raise ValueError("the sections selected run no audit item (instances "
                         f"and pipelines run only in a deep audit); {sections}")
    return AuditReport(items)
