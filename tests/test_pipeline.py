import hashlib
import json
import random

import pytest

from nrdkit import generators, hypergraph, pipeline, tables
from nrdkit.catalog import C6_COND, catalog
from nrdkit.generators import build_R1S1_instance, build_R2S2_instance
from nrdkit.hypergraph import (Hypergraph, InstanceError, NrdCertificate,
                               PartiteHypergraph, WitnessKernel, verify_nrd)
from nrdkit.pipeline import (PipelineError, apply_reduction,
                             build_plain_lb_instance, conditional_to_plain,
                             conditional_to_plain_pair, fit_exponent,
                             fit_shrinkage, paper_verify)
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


@pytest.mark.parametrize("xs", [(5, 5), (5, 5, 5), (5, 5 * (1 + 1e-15))])
@pytest.mark.filterwarnings("error")
def test_fits_reject_fewer_than_two_distinct_x(xs):
    # the last x values differ, but too little for polyfit to fix a line
    points = [(x, i + 1) for i, x in enumerate(xs)]
    for fit in (fit_exponent, fit_shrinkage):
        with pytest.raises(ValueError, match="at least 2 distinct x values"):
            fit(points)


def _reference_transfer(h, cert, target, psi):
    """The witness that psi transfers to, built from labels: vertex j of
    the projection of each source edge e' takes sigma(psi(e'))_j.  Asserts
    that every projected vertex gets exactly one value."""
    phi = {}
    for e, t in zip(h.edges, target.edges):
        for v, y in zip(t, cert.sigma[tuple(psi[u] for u in e)]):
            assert phi.setdefault(v, y) == y, f"two values for {v}"
    assert set(phi) == set(target.vertices())
    return phi


def _reference_fails(cert, target, phi, k):
    """Does phi fail as a witness for projected edge k, that is, put edge k
    outside Q2 \\ P2 or another edge outside P2?  Checked tuple by tuple."""
    p2, q2 = set(cert.target.base.tuples), set(cert.target.ambient.tuples)
    for j, t in enumerate(target.edges):
        x = tuple(phi[v] for v in t)
        if not ((x in q2 and x not in p2) if j == k else x in p2):
            return True
    return False


@pytest.mark.parametrize("name, build", [
    ("J1", build_R2S2_instance), ("J2", build_R2S2_instance),
    ("P3Q3", build_R2S2_instance), ("P1Q1", build_R1S1_instance),
    ("P2Q2", build_R1S1_instance)])
def test_transfer_agrees_with_a_reference_route(name, build):
    # apply_reduction checks the source witnesses only; here the witnesses
    # are transferred through sigma and checked on the target by hand: all
    # of them on R1S1 q=2, a sample fixed by a seed on R2S2 q=2
    inst, cert = build(2), tables.certificate(name)
    h, edges = inst.hypergraph, inst.hypergraph.edges
    m = len(edges)
    sample = (range(m) if m < 200
              else sorted(random.Random(18).sample(range(m), 24)))
    res = apply_reduction(h, cert, witness_fn=inst.witness)
    assert res.verified
    target = res.instance
    for k in sample:
        phi = _reference_transfer(h, cert, target, inst.witness(edges[k]))
        assert not _reference_fails(cert, target, phi, k)
    # two witnesses swapped: both routes fail first on the same edge
    i = sample[len(sample) // 2]
    pair = {edges[i]: edges[i + 1], edges[i + 1]: edges[i]}
    swapped = lambda e: inst.witness(pair.get(e, e))
    with pytest.raises(PipelineError) as exc:
        apply_reduction(h, cert, witness_fn=swapped)
    assert str(exc.value) == f"transferred witness failed for edge {edges[i]}"
    first = next(k for k in sorted({*sample, i, i + 1}) if _reference_fails(
        cert, target, _reference_transfer(h, cert, target, swapped(edges[k])),
        k))
    assert first == i


def _changed(rng, psi, touching, q1, d):
    """psi with one value changed, to a value in [0, d): half the time one
    that takes some edge's tuple out of q1, else one that keeps every tuple
    in q1, where such changes exist.  touching maps each vertex to its
    edges."""
    stay, leave = [], []
    for v in sorted(psi):
        for x in range(d):
            if x != psi[v]:
                moved = (tuple(x if u == v else psi[u] for u in e)
                         for e in touching[v])
                (stay if all(t in q1 for t in moved) else leave).append((v, x))
    v, x = rng.choice(leave if leave and (not stay or rng.random() < 0.5)
                      else stay)
    return {**psi, v: x}


@pytest.mark.parametrize("name, build, q", [
    ("P1Q1", build_R1S1_instance, 3), ("J1", build_R2S2_instance, 2)])
def test_transfer_and_check_given_reject_the_same_witness(name, build, q):
    # seeded changes to up to three witnesses, each one value or, a quarter
    # of the time, the witness of the edge before (on J1 every one-value
    # change takes a tuple out of Q1): the transfer fails exactly when
    # check-given does, and both name the first failing witness in edge
    # order, as found here by set lookups; the transfer reads each witness
    # once, in edge order, up to the end of the failing block
    rng = random.Random(20)
    inst, cert = build(q), tables.certificate(name)
    h, pq, edges = inst.hypergraph, cert.source, inst.hypergraph.edges
    block = WitnessKernel(h, pq).block
    base, q1 = set(pq.base.tuples), set(pq.ambient.tuples)
    good = inst.certificate().witnesses
    touching = {v: [e for e in edges if v in e] for v in h.vertices()}
    seen = set()
    for _ in range(30):
        witnesses = dict(good)
        changed = sorted(rng.sample(range(len(edges)), rng.randint(0, 3)))
        for i in changed:
            if rng.random() < 0.25:  # keeps every tuple in Q1 on J1 too
                witnesses[edges[i]] = good[edges[i - 1]]
            else:
                witnesses[edges[i]] = _changed(rng, good[edges[i]], touching,
                                               q1, pq.domain_size)
        ref = None
        for i in changed:
            psi = witnesses[edges[i]]
            tuples = [tuple(psi[v] for v in e) for e in edges]
            wrong = [j for j, t in enumerate(tuples)
                     if t not in (q1 - base if j == i else base)]
            if wrong:
                out = next(((j, t) for j, t in enumerate(tuples)
                            if t not in q1), None)
                ref = i, wrong[0], out
                break
        res = verify_nrd(h, pq, "check-given", NrdCertificate(witnesses))
        calls = []

        def witness_fn(e):
            calls.append(e)
            return witnesses[e]
        try:
            apply_reduction(h, cert, witness_fn=witness_fn)
            raised = None
        except PipelineError as exc:
            raised = str(exc)
        read = len(edges) if ref is None else (ref[0] // block + 1) * block
        assert calls == list(edges[:read])
        if ref is None:
            assert isinstance(res, NrdCertificate) and raised is None
            seen.add("valid")
            continue
        i, j, out = ref
        assert res.failed_edge == edges[i]
        assert res.reason == ("witness does not (Q\\P)-satisfy its edge"
                              if j == i else
                              f"witness fails to P-satisfy {edges[j]}")
        assert raised == (
            f"transferred witness failed for edge {edges[i]}" if out is None
            else f"witness for edge {edges[i]} gives edge {edges[out[0]]} "
            f"the tuple {out[1]}, outside the certificate domain")
        seen.add("failing edge" if out is None else "outside Q1")
    assert seen == {"valid", "failing edge", "outside Q1"}


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


def _p1q1_with(changes):
    """P1Q1 with some images of sigma replaced, applied to R1S1 q=2 with
    its constructed witnesses."""
    inst = build_R1S1_instance(2)
    cert = tables.certificate("P1Q1")
    sigma = {**cert.sigma, **changes}
    return apply_reduction(inst.hypergraph,
                           SubstructureCertificate(cert.source, cert.target,
                                                   cert.family, sigma),
                           witness_fn=inst.witness)


def test_apply_reduction_rejects_non_local_sigma():
    # two tuples of P1 swap their images: sigma stays a membership-preserving
    # map from Q1 into Q2, but no output coordinate is local any more
    sigma = tables.certificate("P1Q1").sigma
    with pytest.raises(PipelineError, match="invalid certificate") as err:
        _p1q1_with({(0, 0, 1): sigma[(0, 1, 0)], (0, 1, 0): sigma[(0, 0, 1)]})
    assert "outside" not in str(err.value)
    assert "breaks membership" not in str(err.value)
    assert "output coordinate 1 depends on more than I_1" in str(err.value)


def test_apply_reduction_rejects_image_outside_target_ambient():
    with pytest.raises(PipelineError, match=r"invalid certificate: .*"
                       r"sigma\(\(0, 0, 0\)\) = \(0, 0, 2\) outside the "
                       r"target ambient"):
        _p1q1_with({(0, 0, 0): (0, 0, 2)})


def test_apply_reduction_rejects_source_tuple_outside_q1():
    # the value 2 is in the domain, but under the last edge's witness the
    # tuple (2, 0, 1) of an earlier edge through the changed vertex is not
    # in Q1, the domain of sigma; the error names both edges
    inst = build_R1S1_instance(2)
    last = inst.hypergraph.edges[-1]

    def witness_fn(e):
        psi = inst.witness(e)
        if e == last:
            psi[last[0]] = 2
        return psi

    with pytest.raises(PipelineError, match=(
            r"^witness for edge \('p111', 'l110', 'z6'\) gives edge "
            r"\('p111', 'l110', 'z0'\) the tuple \(2, 0, 1\), outside the "
            r"certificate domain$")):
        apply_reduction(inst.hypergraph, tables.certificate("P1Q1"),
                        witness_fn=witness_fn)


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
    h = inst.hypergraph
    block = WitnessKernel(h, cert.source).block
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
    checks = []
    def counted_check(kernel, values, check=hypergraph.WitnessKernel.check_values):
        checks.append(kernel.m)
        return check(kernel, values)
    monkeypatch.setattr(hypergraph.WitnessKernel, "check_values", counted_check)
    pairs = [(family, q) for family in ("R1S1", "R2S2") for q in (2, 3, 5)]
    for _ in range(2):  # every call rebuilds and re-measures from scratch
        builds.clear()
        reports.clear()
        checks.clear()
        assert paper_verify().exit_code == 0
        assert sorted(builds) == pairs
        assert len(reports) == len(pairs)  # one shrink report per (family, q)
        # one check of each source certificate at q = 2, 3, which the
        # pipelines' witness transfer reads too
        assert sorted(checks) == [147, 441, 676, 2704]
    checks.clear()
    assert paper_verify(only=["pipelines"]).exit_code == 0
    assert sorted(checks) == [147, 441, 676, 2704]


def test_constructed_witnesses_are_checked_without_a_certificate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a certificate was built")
    monkeypatch.setattr(generators.ShrinkingInstance, "certificate", refuse)
    monkeypatch.setattr(NrdCertificate, "__init__", refuse)
    rep = paper_verify(only=["instances", "pipelines"])
    assert [i.status for i in rep.items] == ["pass"] * 5
    assert build_R2S2_instance(3).verify() is None


def test_paper_verify_only_filter():
    rep = paper_verify(only=["balance"], deep=False)
    assert rep.exit_code == 0
    assert all("balance" in i.name or i.name == "balance suite"
               for i in rep.items)
    assert len(rep.items) == 1
