"""Acceptance gate: the ten headline checks, with pinned tolerances and wall
clocks.  Each test is independent; a red here means the library no longer
reproduces the bundled reference constructions."""

import math
import random
import time

import pytest

from nrdkit import tables
from nrdkit.balance import is_balanced_bounded, is_balanced_lattice
from nrdkit.cancellation import (cancel, cancel_random_order,
                                 catalan_matrix_check, catalan_search)
from nrdkit.catalog import (BOOLBCK, BOOLBCK_PLUS, C6_COND, CAT5, CAT5_PLUS,
                            EQ, ONE_IN_THREE, catalog, or_k)
from nrdkit.generators import (build_R1S1_instance, build_R2S2_instance,
                               girth)
from nrdkit.hypergraph import (Hypergraph, NrdCertificate, PartiteHypergraph,
                               nrd_exact, nrd_exact_exhaustive,
                               shrinking_report, verify_nrd)
from nrdkit.pipeline import (apply_reduction, build_plain_lb_instance,
                             conditional_to_plain_pair, fit_exponent,
                             fit_shrinkage, paper_verify)
from nrdkit.predicates import ConditionalPredicate, Predicate
from nrdkit.substructure import (SubstructureCertificate, search_families,
                                 verify_certificate)


def test_01_reference_table_suite():
    start = time.monotonic()
    for name in ("3LIN*", "J1", "J2", "P1Q1", "P2Q2", "P3Q3"):
        cert = tables.certificate(name)
        ok, problems = verify_certificate(cert)
        assert ok, (name, problems)
    assert time.monotonic() - start < 1.0
    # known discrepancy, kept visible: the family printed next to the C.4
    # table does not satisfy the dependency condition for its own rows;
    # the bundled P2Q2 certificates carry the corrected family instead
    printed = tables.certificate("P2Q2-PRINTED")
    ok, _ = verify_certificate(SubstructureCertificate(
        printed.source, printed.target, tables.P2Q2_STATED_FAMILY,
        printed.sigma))
    assert not ok
    assert {len(c.sigma) for c in map(tables.certificate,
                                      ("J1", "J2", "P3Q3"))} == {36}
    assert len(tables.certificate("P1Q1").sigma) == 18
    assert len(tables.certificate("P2Q2").sigma) == 18


def test_02_balance_suite():
    rep = is_balanced_lattice(or_k(2))
    assert not rep.balanced and len(rep.witness) == 3
    assert is_balanced_lattice(ONE_IN_THREE).balanced
    assert is_balanced_bounded(BOOLBCK, 1).balanced
    rep2 = is_balanced_bounded(BOOLBCK, 2)
    assert not rep2.balanced
    assert len(rep2.witness) == 5
    assert rep2.result == (1, 0, 0, 0, 1, 0, 0, 0, 1)  # the identity matrix
    assert rep2.result not in BOOLBCK
    assert is_balanced_lattice(BOOLBCK_PLUS).balanced
    # both methods agree on all four
    for p in (or_k(2), ONE_IN_THREE, BOOLBCK, BOOLBCK_PLUS):
        assert is_balanced_lattice(p).balanced == \
            is_balanced_bounded(p, 3).balanced


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_03a_exact_nrd_equality(n):
    start = time.monotonic()
    assert nrd_exact(EQ, n)[0] == n - 1
    assert time.monotonic() - start < 60


def test_03b_exact_nrd_or2_vs_oracle():
    start = time.monotonic()
    got = nrd_exact(or_k(2), 4)[0]
    oracle = nrd_exact_exhaustive(or_k(2), 4)
    assert got == oracle == 6
    assert time.monotonic() - start < 60


def test_04_witness_search_matches_girth():
    rng = random.Random(20260824)
    disagreements = 0
    for _ in range(500):
        na = rng.randint(1, 4)
        nb = rng.randint(1, 9 - na)
        a = tuple(f"a{i}" for i in range(na))
        b = tuple(f"b{i}" for i in range(nb))
        cands = [(x, y) for x in a for y in b]
        edges = tuple(rng.sample(cands, rng.randint(1, len(cands))))
        g = PartiteHypergraph((a, b), edges)
        got = isinstance(verify_nrd(g, C6_COND), NrdCertificate)
        if got != (girth(g) >= 6):
            disagreements += 1
    assert disagreements == 0


def test_05a_rediscover_pairwise_family():
    src = ConditionalPredicate(or_k(3), Predicate.full(2, 3))
    tgt = catalog("3LIN*")
    start = time.monotonic()
    res = search_families(src, tgt, sizes=(2, 2, 2), max_results=10)
    assert time.monotonic() - start < 120
    fams = {c.family.sets for c in res.certificates}
    assert ((1, 2), (1, 3), (2, 3)) in fams


@pytest.mark.parametrize("name", ["J1", "J2"])
def test_05b_size3_families_for_products(name):
    cert = tables.certificate(name)
    start = time.monotonic()
    res = search_families(cert.source, cert.target,
                          sizes=(3,) * cert.target.arity, max_results=1)
    assert time.monotonic() - start < 120
    assert res.certificates
    assert verify_certificate(res.certificates[0])[0]


def test_05c_exhaustive_negative_stratum():
    # no map reads only two source coordinates per J1 output coordinate;
    # nearly all of the 6^8 families are ruled out through relaxations
    cert = tables.certificate("J1")
    start = time.monotonic()
    res = search_families(cert.source, cert.target, sizes=(2,) * 8,
                          max_results=1)
    assert time.monotonic() - start < 5
    assert res.certificates == []
    assert res.families_tried == 6 ** 8
    assert res.exhausted is True


@pytest.mark.parametrize("builder,eps0,tol",
                         [(build_R1S1_instance, 0.25, 0.10),
                          (build_R2S2_instance, 1 / 6, 0.12)])
def test_06_shrinking_instances(builder, eps0, tol):
    pts = []
    for q in (2, 3, 5):
        inst = builder(q)
        if q in (2, 3):
            # constructed witnesses AND independent search must both verify
            assert inst.verify() is None
            assert isinstance(verify_nrd(inst.hypergraph, inst.predicate),
                              NrdCertificate)
        rep = shrinking_report(inst.hypergraph)
        assert rep.shrink_factor == pytest.approx(q + 1)
        pts.append((inst.n_edges, rep.shrink_factor))
    assert abs(fit_shrinkage(pts) - eps0) < tol


@pytest.mark.parametrize("cert_name,builder,target",
                         [("J1", build_R2S2_instance, 6 / 5),
                          ("P1Q1", build_R1S1_instance, 4 / 3)])
def test_07_end_to_end_pipelines(cert_name, builder, target):
    cert = tables.certificate(cert_name)
    results = []
    for q in (2, 3, 5):  # witnesses transferred at q = 2, 3
        inst = builder(q)
        results.append(apply_reduction(inst.hypergraph, cert,
                                       inst.witness if q < 5 else None))
    assert all(res.verified for res in results[:2])
    fit = fit_exponent([(res.n_vertices, res.n_edges) for res in results])
    assert abs(fit.exponent - target) < 0.15


def test_08_plain_lifting_toy():
    # toy conditional pair with r = 2, d = 3
    pq = C6_COND
    g = PartiteHypergraph((("a", "b", "c"), ("x", "y", "z")),
                          (("a", "x"), ("b", "y"), ("c", "z"), ("a", "y")))
    res = verify_nrd(g, pq)
    assert isinstance(res, NrdCertificate)
    lifted, cert = build_plain_lb_instance(g, pq, lambda e: res.witnesses[e],
                                           v_prime_size=4)
    plain_pair = conditional_to_plain_pair(pq)
    assert len(lifted.edges) == len(g.edges) * math.comb(4, 2)
    out = verify_nrd(lifted, plain_pair.base, mode="check-given",
                     certificate=cert)
    assert isinstance(out, NrdCertificate)


def test_09_cancellation_suite():
    assert cancel("0221221") == ("0",)
    cols = [(0, 1, 0, 1, 2), (1, 1, 1, 1, 1), (1, 2, 2, 0, 1),
            (2, 2, 2, 2, 2), (2, 0, 1, 2, 0)]
    residual, member = catalan_matrix_check(CAT5, cols)
    assert residual == (0, 0, 0, 0, 0) and not member
    assert catalan_search(CAT5_PLUS, 5) == []
    rng = random.Random(1)
    for _ in range(1000):
        word = [rng.randint(0, 2) for _ in range(rng.randint(0, 16))]
        assert cancel(word) == cancel_random_order(word, rng)


def test_10_coordinate_bijection_audit():
    start = time.monotonic()
    rep = paper_verify(only=["sym"], deep=False)
    assert time.monotonic() - start < 30
    assert rep.exit_code == 0
    (item,) = rep.items
    assert item.status == "anomaly"
    rows = item.detail["rows"]
    assert sum(1 for v in rows.values() if v["ok"]) == 6
    assert not rows["6"]["ok"]
    assert rows["6"]["repairs"] == [(7, 7)]  # machine-found repair
