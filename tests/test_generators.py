import hashlib
import json
import math
import random

import numpy as np
import pytest

from nrdkit import catalog
from nrdkit.catalog import C6_COND, EQ, ONE_TWO_COND, or_k
from nrdkit.generators import (GeneratorError, ShrinkingInstance,
                               box_product_instance, build_R1S1_instance,
                               build_R2S2_instance, gen_girth6, girth,
                               girth6_witness)
from nrdkit.hypergraph import (Hypergraph, InstanceError, NrdCertificate,
                               NrdFailure, PartiteHypergraph, as_conditional,
                               instance_index, nrd_exact, shrinking_report,
                               verify_nrd)
from nrdkit.predicates import box_product


@pytest.mark.parametrize("q", [2, 3, 5])
def test_plane_parameters(q):
    g = gen_girth6(q)
    n1 = q * q + q + 1
    assert len(g.parts[0]) == n1 and len(g.parts[1]) == n1
    assert len(g.edges) == (q + 1) * n1
    # (q+1)-regular on both sides
    degree = np.bincount(instance_index(g, 2).cols.ravel())
    assert len(degree) == 2 * n1 and (degree == q + 1).all()


@pytest.mark.parametrize("q", [2, 3])
def test_girth_is_six(q):
    assert girth(gen_girth6(q)) == 6


def test_girth_of_forest_and_small_cycle():
    tree = PartiteHypergraph((("a", "b"), ("c",)), (("a", "c"), ("b", "c")))
    assert girth(tree) == math.inf
    c4 = PartiteHypergraph((("a", "b"), ("c", "d")),
                           (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")))
    assert girth(c4) == 4


def test_non_prime_rejected():
    for q in (0, 1, 4, 6, 9):
        with pytest.raises(GeneratorError):
            gen_girth6(q)


def test_girth6_witness_fano():
    g = gen_girth6(2)
    base = set(C6_COND.base.tuples)
    for e, row in zip(g.edges, girth6_witness(g).tolist()):
        w = dict(zip(g.vertices(), row))
        assert (w[e[0]], w[e[1]]) == (0, 0)
        for e2 in g.edges:
            if e2 != e:
                assert (w[e2[0]], w[e2[1]]) in base


def test_girth6_witness_refuses_short_cycles():
    c4 = PartiteHypergraph((("a", "b"), ("c", "d")),
                           (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")))
    with pytest.raises(InstanceError, match="girth below 6"):
        girth6_witness(c4)


def _incidence_graph(cycles, path=0):
    """Disjoint even cycles of the given lengths (points p, lines l) and a
    path of `path` edges, as a (point, line) incidence graph."""
    points, lines, edges = [], [], []
    for c, length in enumerate(cycles):
        k = length // 2
        points += [f"p{c}.{i}" for i in range(k)]
        lines += [f"l{c}.{i}" for i in range(k)]
        for i in range(k):
            edges += [(f"p{c}.{i}", f"l{c}.{i}"),
                      (f"p{c}.{(i + 1) % k}", f"l{c}.{i}")]
    if path:
        points += [f"pp{i}" for i in range(path // 2 + 1)]
        lines += [f"pl{i}" for i in range((path + 1) // 2)]
        edges += [(f"pp{(i + 1) // 2}", f"pl{i // 2}") for i in range(path)]
    return PartiteHypergraph((tuple(points), tuple(lines)), tuple(edges))


# vertices more than 3 steps from the excluded edge, on either side, fold
# onto the far end of the 6-cycle; a vertex the edge cannot reach takes a
# fixed value
@pytest.mark.parametrize("graph", [
    *(_incidence_graph([length]) for length in range(8, 17, 2)),
    _incidence_graph([6, 6]),
    _incidence_graph([], path=13),
], ids=[*(f"C{length}" for length in range(8, 17, 2)), "2C6", "path"])
def test_girth6_witness_far_and_unreachable_vertices(graph):
    cert = c6_certificate(graph)
    assert isinstance(verify_nrd(graph, C6_COND, mode="check-given",
                                 certificate=cert), NrdCertificate)
    assert isinstance(verify_nrd(graph, C6_COND), NrdCertificate)


def c6_certificate(g):
    """The constructed C6*|C6 certificate of a girth >= 6 incidence graph."""
    return NrdCertificate({e: dict(zip(g.vertices(), row)) for e, row
                           in zip(g.edges, girth6_witness(g).tolist())})


def test_c6_certificate_passes_independent_check():
    g = gen_girth6(2)
    cert = c6_certificate(g)
    res = verify_nrd(g, C6_COND, mode="check-given", certificate=cert)
    assert isinstance(res, NrdCertificate)


def test_witness_matches_search_on_fano():
    # search-based verification agrees with the constructive witnesses
    g = gen_girth6(2)
    res = verify_nrd(g, C6_COND, mode="find-witnesses")
    assert isinstance(res, NrdCertificate)


@pytest.mark.parametrize("q", [2, 3])
def test_r1s1_instance(q):
    inst = build_R1S1_instance(q)
    n1 = q * q + q + 1
    assert inst.n_edges == (q + 1) * n1 * n1
    assert inst.n_vertices == 3 * n1
    assert inst.verify() is None
    rep = shrinking_report(inst.hypergraph)
    assert rep.shrink_factor == pytest.approx(q + 1)


def test_r2s2_instance_q2():
    inst = build_R2S2_instance(2)
    assert inst.n_edges == 21 * 21
    assert inst.n_vertices == 4 * 7
    assert inst.verify() is None
    rep = shrinking_report(inst.hypergraph)
    assert rep.shrink_factor == pytest.approx(3)


def test_r1s1_third_part_override():
    inst = build_R1S1_instance(2, third_part_size=2)
    assert inst.n_edges == 21 * 2
    assert inst.verify() is None
    with pytest.raises(GeneratorError):
        build_R1S1_instance(2, third_part_size=0)


def test_truncated_keeps_witnesses_valid():
    inst = build_R1S1_instance(2)
    sub = inst.truncated(40)
    assert sub.n_edges == 40
    assert sub.verify() is None
    with pytest.raises(GeneratorError):
        inst.truncated(0)
    with pytest.raises(GeneratorError):
        inst.truncated(inst.n_edges + 1)


def test_verify_fails_as_check_given_fails():
    # each kind of bad constructed witness: on its own edge, on another edge,
    # and malformed; verify names the edge and reason check-given names
    inst = build_R1S1_instance(2)
    h, edges, good = inst.hypergraph, inst.hypergraph.edges, inst._witness
    reasons = []
    for bad in (lambda k: good(np.where(k == 0, 1, k)),
                lambda k: good(np.where(k == 1, 0, k)),
                lambda k: np.where((np.arange(len(h.vertices())) == 0)
                                   & (np.asarray(k) == 5)[..., None], 7, good(k))):
        broken = ShrinkingInstance(inst.name, inst.q, inst.predicate, h, bad)
        res = broken.verify()
        assert isinstance(res, NrdFailure)
        assert res == verify_nrd(h, inst.predicate, "check-given",
                                 broken.certificate())
        reasons.append((res.failed_edge, res.reason))
    assert reasons == [
        (edges[0], "witness does not (Q\\P)-satisfy its edge"),
        (edges[1], f"witness fails to P-satisfy {edges[0]}"),
        (edges[5], "witness value 7 for vertex 'p001' is not an integer in [0, 3)")]


def _changed(good, changes):
    """A witness function: good's rows, with values[k][v] = x for each
    (k, v, x) of changes."""
    def witness(k):
        rows = np.array(good(k))
        for i, v, x in changes:
            rows[..., v] = np.where(np.asarray(k) == i, x, rows[..., v])
        return rows
    return witness


@pytest.mark.parametrize("build", [lambda: build_R1S1_instance(3),
                                   lambda: build_R2S2_instance(2)],
                         ids=["R1S1-3", "R2S2-2"])
def test_verify_on_value_rows_agrees_with_check_given(build):
    # seeded changes to the constructed witnesses, in the domain and out of
    # it, one at a time and all at once: verify, which checks value rows,
    # names the edge and reason that check-given names for the same
    # witnesses as label dicts
    inst = build()
    h, pq, good = inst.hypergraph, inst.predicate, inst._witness
    d, rng = pq.domain_size, random.Random(29)
    changes = []
    for x in (None, None, None, None, d, -1, d + 5):
        i, v = rng.randrange(inst.n_edges), rng.randrange(inst.n_vertices)
        if x is None:
            x = rng.choice([y for y in range(d) if y != good(i)[v]])
        changes.append((i, v, x))
    results = []
    for change in [[c] for c in changes] + [changes]:
        broken = ShrinkingInstance(inst.name, inst.q, pq, h, _changed(good, change))
        res = broken.verify()
        given = verify_nrd(h, pq, "check-given", broken.certificate())
        assert (res is None) == isinstance(given, NrdCertificate)
        if res is not None:
            assert (res.failed_edge, res.reason) == (given.failed_edge,
                                                     given.reason)
        results.append(res)
    assert sum(res is not None for res in results) >= 5
    for (i, v, x), res in zip(changes[4:], results[4:]):
        assert res == NrdFailure(h.edges[i], (
            f"witness value {x} for vertex {h.vertices()[v]!r} is not an "
            f"integer in [0, {d})"))


def test_r1s1_find_witnesses_agrees_q2():
    inst = build_R1S1_instance(2)
    assert isinstance(verify_nrd(inst.hypergraph, inst.predicate),
                      NrdCertificate)


def test_witness_search_matches_girth_oracle_random_bipartite():
    # random bipartite graphs: C6*|C6 non-redundancy iff girth >= 6
    rng = random.Random(5)
    for _ in range(60):
        na, nb = rng.randint(2, 4), rng.randint(2, 4)
        a = tuple(f"a{i}" for i in range(na))
        b = tuple(f"b{i}" for i in range(nb))
        cands = [(x, y) for x in a for y in b]
        edges = tuple(rng.sample(cands, rng.randint(1, len(cands))))
        g = PartiteHypergraph((a, b), edges)
        got = isinstance(verify_nrd(g, C6_COND), NrdCertificate)
        assert got == (girth(g) >= 6)


def _sha256_of_certificate(h, cert):
    # json.dumps without sort_keys: the witnesses' key order is pinned too
    return hashlib.sha256(json.dumps(cert.to_dict(h)).encode()).hexdigest()


@pytest.mark.parametrize("build, digest", [
    (lambda: build_R1S1_instance(2),
     "dde2286629489633a26bf29a1c99869fb47ffcdc58085aa37d89d0a22d722c12"),
    (lambda: build_R1S1_instance(3),
     "3cd43cbfe843aee7a873496fa5ae60d2974358414eacdd8aae8a0f9b7e55f962"),
    (lambda: build_R1S1_instance(2, third_part_size=4),
     "f37278356f02756317519ad7c96c32a735f2f16d42e216d407f5f378d26f4992"),
    (lambda: build_R2S2_instance(2),
     "81626138ec1a0a8d9198793c61cdc2c5939bc85c68f65b87c73c76978b4ff4af"),
    (lambda: build_R2S2_instance(3),
     "6758d77e961de159f2b424cf1e67a9e746c8cf94061428d05b4a8a3a67a4871e"),
], ids=["R1S1-2", "R1S1-3", "R1S1-2-n3=4", "R2S2-2", "R2S2-3"])
def test_shrinking_certificates_are_pinned(build, digest):
    inst = build()
    assert _sha256_of_certificate(inst.hypergraph, inst.certificate()) == digest


@pytest.mark.parametrize("q, digest", [
    (2, "ace9f6ef1d262b61aad037489203d4296cec250b84d33e45f91cd299670f72bd"),
    (3, "3997f37ba4b3272de05cd5e77afa489d9e5dbf819bd0518d8fedbaf361b29b52")])
def test_c6_certificate_is_pinned(q, digest):
    g = gen_girth6(q)
    assert _sha256_of_certificate(g, c6_certificate(g)) == digest


def test_builder_pairs_are_the_catalog_box_products():
    assert build_R1S1_instance(2).predicate == catalog.R1S1 == box_product(
        C6_COND, ONE_TWO_COND)
    assert build_R2S2_instance(2).predicate == catalog.R2S2 == box_product(
        C6_COND, C6_COND)


def _relabel(h, prefix):
    if isinstance(h, PartiteHypergraph):
        return PartiteHypergraph(
            tuple(tuple(prefix + v for v in p) for p in h.parts),
            tuple(tuple(prefix + v for v in e) for e in h.edges))
    return Hypergraph(tuple(prefix + v for v in h.vertex_set),
                      tuple(tuple(prefix + v for v in e) for e in h.edges))


def _factor(pq, n, parts, prefix):
    """A maximum non-redundant instance of pq, relabelled, with the
    witnesses that find-witnesses gives it."""
    _, h = nrd_exact(pq, n, part_sizes=parts)
    h = _relabel(h, prefix)
    cert = verify_nrd(h, pq, mode="find-witnesses")
    assert isinstance(cert, NrdCertificate)
    return h, np.array([[cert.witnesses[e][v] for v in h.vertices()]
                        for e in h.edges]).__getitem__


def test_box_product_instance_is_non_redundant_for_the_box_product():
    # small non-redundant factors of one domain; the product of their
    # instances must be non-redundant for the product of their pairs
    pairs = {2: [as_conditional(EQ), as_conditional(or_k(2))], 3: [C6_COND]}
    rng = random.Random(10)
    for _ in range(12):
        d = rng.choice((2, 3))
        pa, pb = rng.choice(pairs[d]), rng.choice(pairs[d])
        sides = []
        for pq, prefix in ((pa, "A."), (pb, "B.")):
            n = rng.randint(2, 4)
            parts = (1, n - 1) if rng.random() < 0.5 else None
            sides.append(_factor(pq, n, parts, prefix))
        (ha, _), (hb, _) = sides
        h, witness = box_product_instance(*sides)
        assert len(h.edges) == len(ha.edges) * len(hb.edges)
        assert isinstance(h, PartiteHypergraph) == (
            isinstance(ha, PartiteHypergraph) and isinstance(hb, PartiteHypergraph))
        cert = NrdCertificate({e: dict(zip(h.vertices(), witness(i).tolist()))
                               for i, e in enumerate(h.edges)})
        assert isinstance(verify_nrd(h, box_product(pa, pb), mode="check-given",
                                     certificate=cert), NrdCertificate)


@pytest.mark.parametrize("partite", [True, False], ids=["partite", "plain"])
def test_box_product_instance_rejects_a_shared_vertex(partite):
    if partite:
        a = PartiteHypergraph((("a",), ("x",)), (("a", "x"),))
        b = PartiteHypergraph((("x",),), (("x",),))
    else:
        a = Hypergraph(("a", "x"), (("a", "x"),))
        b = Hypergraph(("x",), (("x",),))
    with pytest.raises(InstanceError, match="'x'"):
        box_product_instance((a, dict), (b, dict))
