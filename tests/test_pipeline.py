import hashlib
import json
import random

import pytest

from nrdkit import hypergraph, pipeline, tables
from nrdkit.catalog import C6_COND, catalog
from nrdkit.generators import build_R1S1_instance, build_R2S2_instance
from nrdkit.hypergraph import (Hypergraph, InstanceError, NrdCertificate,
                               PartiteHypergraph, WitnessKernel,
                               instance_index, projection_map, verify_nrd)
from nrdkit.pipeline import (PipelineError, TransferPlan, apply_reduction,
                             build_plain_lb_instance, conditional_to_plain,
                             conditional_to_plain_pair, fit_exponent,
                             fit_shrinkage, paper_verify, reduction_family)
from nrdkit.predicates import ConditionalPredicate, IndexFamily, Predicate
from nrdkit.substructure import SubstructureCertificate


def test_fit_exponent_exact_power_law():
    pts = [(n, n ** 3) for n in (10, 20, 40, 80)]
    rep = fit_exponent(pts)
    assert rep.exponent == pytest.approx(3.0, abs=1e-9)
    assert rep.epsilon == pytest.approx(1 - 1 / 3, abs=1e-9)
    assert all(abs(r) < 1e-9 for r in rep.residuals)
    assert rep.growth_ratios == [8.0, 8.0, 8.0]


def test_fit_exponent_rejects_non_increasing():
    with pytest.raises(ValueError):
        fit_exponent([(10, 100), (20, 100)])
    with pytest.raises(ValueError):
        fit_exponent([(10, 100)])


@pytest.mark.parametrize("points", [[(0, 1), (2, 3)], [(1, 0), (2, 3)],
                                    [(1, 2), (-2, 3)],
                                    [(1, 2), (float("inf"), 3)]])
def test_fit_exponent_rejects_non_positive(points):
    with pytest.raises(ValueError, match="finite positive"):
        fit_exponent(points)


def test_fit_shrinkage_exact():
    pts = [(m, m ** 0.25) for m in (100, 1000, 10000)]
    assert fit_shrinkage(pts) == pytest.approx(0.25, abs=1e-9)


def _boolean_pair(r):
    """A Boolean pair of arity r; a transfer uses only its domain and arity."""
    return ConditionalPredicate(Predicate(2, r, [(0,) * r]), Predicate.full(2, r))


# two edges sharing their first vertex, in the source and in the target
SOURCE = PartiteHypergraph((("a",), ("b", "c")), (("a", "b"), ("a", "c")))
TARGET = PartiteHypergraph((("x",), ("y", "z")), (("x", "y"), ("x", "z")))


def _plan(source, target, sigma):
    return TransferPlan(
        WitnessKernel(instance_index(source, source.arity),
                      _boolean_pair(source.arity), source.vertices()),
        WitnessKernel(instance_index(target, target.arity),
                      _boolean_pair(target.arity), target.vertices()),
        sigma)


def _transfer(plan, psi):
    """The target assignment that one source witness psi induces."""
    _, phi = plan.transfer([psi])
    return dict(zip(plan.target.vertices, phi[0].tolist()))


def test_transfer_witness_consistency_check():
    # sigma maps both source tuples to outputs that disagree on the shared
    # projected vertex -> transfer must fail
    plan = _plan(SOURCE, TARGET, {(0, 0): (0, 0), (0, 1): (1, 0)})
    with pytest.raises(PipelineError, match="coordinate locality"):
        _transfer(plan, {"a": 0, "b": 0, "c": 1})
    plan = _plan(PartiteHypergraph((("a",), ("b",)), (("a", "b"),)),
                 PartiteHypergraph((("x",),), (("x",),)), {(0, 0): (1,)})
    assert _transfer(plan, {"a": 0, "b": 0}) == {"x": 1}


def test_transfer_witness_rejects_malformed_witness():
    plan = _plan(SOURCE, TARGET, {(0, 0): (0, 1), (0, 1): (0, 0), (1, 1): (1, 1)})
    assert _transfer(plan, {"a": 0, "b": 0, "c": 1}) == {"x": 0, "y": 1, "z": 0}
    for bad in ({"a": 0, "b": 0},                     # missing vertex
                {"a": 0, "b": 0, "c": 1, "d": 0},     # extra vertex
                {"a": 0, "b": 0, "c": 2},             # outside the domain
                {"a": 0, "b": 0, "c": -1},
                {"a": 1, "b": 0, "c": 1}):            # (1, 0) not in sigma
        with pytest.raises(PipelineError):
            _transfer(plan, bad)


def test_apply_reduction_rejects_merging_certificate():
    # valid certificate whose family ignores coordinate 3; an instance with
    # two edges differing only there merges under the joint projection
    c6 = catalog("C6")
    c6s = catalog("C6*")
    src = ConditionalPredicate(
        Predicate(3, 3, [t + (z,) for t in c6s.tuples for z in (0, 1)]),
        Predicate(3, 3, [t + (z,) for t in c6.tuples for z in (0, 1)]))
    cert = SubstructureCertificate(src, C6_COND, IndexFamily(3, ((1,), (2,))),
                                   {q: q[:2] for q in src.ambient.tuples})
    from nrdkit.substructure import verify_certificate
    assert verify_certificate(cert)[0]
    h = PartiteHypergraph((("a",), ("b",), ("z0", "z1")),
                          (("a", "b", "z0"), ("a", "b", "z1")))
    with pytest.raises(PipelineError):
        apply_reduction(h, cert)


def test_apply_reduction_p1q1_counts_and_verification():
    inst = build_R1S1_instance(2)
    cert = tables.certificate("P1Q1")
    res = apply_reduction(inst.hypergraph, cert, witness_fn=inst.witness)
    assert res.verified
    assert res.n_edges == inst.n_edges  # injective joint projection
    # and the result is genuinely non-redundant: spot-check by the target
    # pair's own search on a truncated copy
    sub = PartiteHypergraph(res.instance.parts, res.instance.edges[:25])
    out = verify_nrd(sub, cert.target)
    assert isinstance(out, NrdCertificate)


@pytest.mark.parametrize("with_witnesses", [False, True],
                         ids=["counts-only", "witness-transfer"])
def test_apply_reduction_makes_no_labels(monkeypatch, with_witnesses):
    # the counts and the transfer run on integers; labels are made only
    # when the projected instance is read
    def no_labels(*args):
        raise AssertionError("projection_label called")
    monkeypatch.setattr(hypergraph, "projection_label", no_labels)
    inst = build_R2S2_instance(2)
    res = apply_reduction(inst.hypergraph, tables.certificate("J1"),
                          inst.witness if with_witnesses else None)
    assert (res.n_vertices, res.n_edges, res.verified) == (1176, 441,
                                                           with_witnesses)
    with pytest.raises(AssertionError, match="projection_label called"):
        res.instance


@pytest.mark.parametrize("change", [
    lambda psi: psi.__setitem__("p010", 5),    # out of domain
    lambda psi: psi.__setitem__("p010", -1),
    lambda psi: psi.pop("l001"),               # missing vertex
    lambda psi: psi.__setitem__("z999", 0),    # extra vertex
])
def test_apply_reduction_rejects_malformed_source_witness(change):
    inst = build_R1S1_instance(3)
    cert = tables.certificate("P1Q1")
    bad_edge = inst.hypergraph.edges[-1]

    def witness_fn(e):
        psi = inst.witness(e)
        if e == bad_edge:
            change(psi)
        return psi

    with pytest.raises(PipelineError, match="source witness rejected"):
        apply_reduction(inst.hypergraph, cert, witness_fn=witness_fn)


def test_apply_reduction_rejects_wrong_transferred_witness():
    # a valid assignment for another edge transfers cleanly but violates
    # the wrong target edge
    inst = build_R1S1_instance(2)
    cert = tables.certificate("P1Q1")
    edges = inst.hypergraph.edges
    swapped = lambda e: inst.witness(edges[1] if e == edges[0] else e)
    with pytest.raises(PipelineError, match="transferred witness failed"):
        apply_reduction(inst.hypergraph, cert, witness_fn=swapped)


def p1q1_block():
    """P1Q1 on R1S1 q=3: the instance, certificate and transfer block size."""
    inst = build_R1S1_instance(3)
    cert = tables.certificate("P1Q1")
    proj = projection_map(inst.hypergraph, cert.family)
    h = inst.hypergraph
    block = TransferPlan(
        WitnessKernel(instance_index(h, h.arity), cert.source, h.vertices()),
        WitnessKernel(proj.index, cert.target, None), cert.sigma).block
    assert 4 <= block and 3 * block < len(inst.hypergraph.edges)
    return inst, cert, block


def test_apply_reduction_failure_inside_a_block():
    # witnesses swapped in the middle of the second block: the error names
    # the first failing edge; a malformed witness later in the same block
    # does not mask it, and reported on its own it keeps its message
    inst, cert, block = p1q1_block()
    edges = inst.hypergraph.edges
    i = block + block // 2

    def run(changes):
        calls = []

        def witness_fn(e):
            calls.append(e)
            k = edges.index(e)
            return changes[k]() if k in changes else inst.witness(e)
        try:
            apply_reduction(inst.hypergraph, cert, witness_fn=witness_fn)
        finally:
            assert len(calls) == len(set(calls))   # one call per edge

    swapped = lambda: inst.witness(edges[i + 1])
    malformed = lambda: dict(inst.witness(edges[i + 2]), z999=0)
    with pytest.raises(PipelineError) as exc:
        run({i: swapped})
    assert str(exc.value) == f"transferred witness failed for edge {edges[i]}"
    with pytest.raises(PipelineError) as exc:
        run({i: swapped, i + 2: malformed})
    assert str(exc.value) == f"transferred witness failed for edge {edges[i]}"
    with pytest.raises(PipelineError) as exc:
        run({i + 2: malformed, i + 3: swapped})
    assert str(exc.value) == ("source witness rejected: witness assigns "
                              "'z999', which is not a vertex of the instance")


def test_reduction_family_fit():
    cert = tables.certificate("P1Q1")
    runs = [build_R1S1_instance(q) for q in (2, 3)]
    run = reduction_family(cert, runs, verify_flags=[True, False])
    assert [e["verified"] for e in run.entries] == [True, False]
    assert run.fit.exponent > 1.0


def test_random_reduction_soundness():
    # 50 random sub-instances: transferred witnesses always verify
    rng = random.Random(9)
    cert = tables.certificate("P1Q1")
    inst = build_R1S1_instance(2)
    all_edges = list(inst.hypergraph.edges)
    for _ in range(50):
        m = rng.randint(2, 40)
        edges = tuple(rng.sample(all_edges, m))
        sub = PartiteHypergraph(inst.hypergraph.parts, edges)
        res = apply_reduction(sub, cert, witness_fn=inst.witness)
        assert res.verified and res.n_edges == m


def test_conditional_to_plain_c6():
    pair = conditional_to_plain_pair(C6_COND)
    plain = conditional_to_plain(C6_COND)
    assert plain.arity == 4
    assert len(plain) == 23
    assert len(pair.ambient) == 24
    assert pair.outside() == ((0, 0, 0, 0),)


def test_build_plain_lb_instance():
    inst = build_R1S1_instance(2).truncated(6)
    # use the conditional pair directly on a tiny bipartite source instead:
    g = PartiteHypergraph((("a", "b"), ("c", "d")), (("a", "c"), ("b", "d")))
    res = verify_nrd(g, C6_COND)
    assert isinstance(res, NrdCertificate)
    lifted, cert = build_plain_lb_instance(
        g, C6_COND, lambda e: res.witnesses[e], v_prime_size=3)
    plain_pair = conditional_to_plain_pair(C6_COND)
    assert len(lifted.edges) == 2 * 3  # m * C(3,2)
    out = verify_nrd(lifted, plain_pair.base, mode="check-given",
                     certificate=cert)
    assert isinstance(out, NrdCertificate)
    with pytest.raises(PipelineError):
        build_plain_lb_instance(g, C6_COND, lambda e: res.witnesses[e],
                                v_prime_size=1)


def test_build_plain_lb_instance_is_pinned():
    # the toy of the acceptance gate's lifting check
    g = PartiteHypergraph((("a", "b", "c"), ("x", "y", "z")),
                          (("a", "x"), ("b", "y"), ("c", "z"), ("a", "y")))
    res = verify_nrd(g, C6_COND)
    lifted, cert = build_plain_lb_instance(
        g, C6_COND, lambda e: res.witnesses[e], v_prime_size=4)
    sha = lambda obj: hashlib.sha256(json.dumps(obj).encode()).hexdigest()
    assert sha(lifted.to_dict()) == (
        "c92136d9e40ab6ff3184b822143c94fdb81ec69fc1f30799f80ec990bf9ddb84")
    assert sha(cert.to_dict(lifted)) == (
        "4aeb4e212b18c9b2c280befe7428f21a79c7985d158dd8c3a330123d5f8b9206")


def test_build_plain_lb_instance_rejects_a_fresh_vertex_name():
    # a source vertex named like a fresh one used to be merged with it
    g = PartiteHypergraph((("w0", "b"), ("c", "d")), (("w0", "c"), ("b", "d")))
    res = verify_nrd(g, C6_COND)
    with pytest.raises(InstanceError, match="vertex 'w0' is listed twice"):
        build_plain_lb_instance(g, C6_COND, lambda e: res.witnesses[e],
                                v_prime_size=3)


def test_paper_verify_shallow():
    rep = paper_verify(deep=False)
    assert rep.exit_code == 0
    names = [i.name for i in rep.items]
    assert "catalog integrity" in names
    assert any(i.status == "anomaly" for i in rep.items)
    d = rep.to_dict()
    assert d["failures"] == 0 and d["anomalies"] == 1


def test_paper_verify_builds_each_instance_once_per_call(monkeypatch):
    builds, reports = [], []
    for family in ("R1S1", "R2S2"):
        name = f"build_{family}_instance"
        def counted(q, build=getattr(pipeline, name), family=family):
            builds.append((family, q))
            return build(q)
        monkeypatch.setattr(pipeline, name, counted)

    def counted_report(h, report=pipeline.shrinking_report):
        reports.append(h)
        return report(h)
    monkeypatch.setattr(pipeline, "shrinking_report", counted_report)
    pairs = [(family, q) for family in ("R1S1", "R2S2") for q in (2, 3, 5)]
    for _ in range(2):  # every call rebuilds and re-measures from scratch
        builds.clear()
        reports.clear()
        assert paper_verify().exit_code == 0
        assert sorted(builds) == pairs
        assert len(reports) == len(pairs)  # one shrink report per (family, q)


def test_paper_verify_only_filter():
    rep = paper_verify(only=["balance"], deep=False)
    assert rep.exit_code == 0
    assert all("balance" in i.name or i.name == "balance suite"
               for i in rep.items)
    assert len(rep.items) == 1
