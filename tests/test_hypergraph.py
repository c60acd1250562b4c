import functools
import hashlib
import io
import json
import os
import pickle
import random
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nrdkit import hypergraph, tables
from nrdkit.catalog import (C6, C6_COND, C6_STAR, EQ, ONE_IN_THREE,
                            ONE_TWO_COND, R2S2, or_k)
from nrdkit.generators import (ShrinkingInstance, box_product_instance,
                               build_R1S1_instance, build_R2S2_instance)
from nrdkit.hypergraph import (BudgetExceeded, Hypergraph, InstanceError,
                               InstanceIndex, NrdCertificate, NrdFailure,
                               PartiteHypergraph, WitnessKernel,
                               WitnessFailure, WitnessSearch, as_conditional,
                               instance_index, nrd_exact, nrd_exact_exhaustive,
                               projection_label, projection_map,
                               shrinking_report, verify_nrd)
from nrdkit.predicates import (ConditionalPredicate, IndexFamily, Predicate,
                               box_product)


def path_instance(n):
    """EQ-instance: path v1-v2-...-vn (always non-redundant)."""
    vs = tuple(f"v{i}" for i in range(1, n + 1))
    edges = tuple((vs[i], vs[i + 1]) for i in range(n - 1))
    return Hypergraph(vs, edges)


def test_instance_validation():
    with pytest.raises(InstanceError):
        PartiteHypergraph((("a",), ("a",)), ())  # vertex in two parts
    with pytest.raises(InstanceError):
        PartiteHypergraph((("a",), ("b",)), (("a", "b"), ("a", "b")))  # dup edge
    with pytest.raises(InstanceError):
        PartiteHypergraph((("a",), ("b",)), (("b", "a"),))  # wrong part
    with pytest.raises(InstanceError):
        Hypergraph(("a",), (("a", "z"),))
    with pytest.raises(InstanceError, match="vertex 'a' is listed twice"):
        Hypergraph(("a", "b", "a"), (("a", "b"),))


def test_round_trip_dict():
    h = PartiteHypergraph((("a", "b"), ("c",)), (("a", "c"), ("b", "c")))
    assert PartiteHypergraph.from_dict(h.to_dict()) == h


def test_as_conditional_fills_ambient():
    pq = as_conditional(EQ)
    assert isinstance(pq, ConditionalPredicate)
    assert len(pq.ambient) == 4
    assert set(pq.outside()) == {(0, 1), (1, 0)}


def test_eq_path_non_redundant():
    h = path_instance(4)
    cert = verify_nrd(h, EQ)
    assert isinstance(cert, NrdCertificate)
    # every witness violates its own edge and satisfies the others
    again = verify_nrd(h, EQ, mode="check-given", certificate=cert)
    assert again is cert  # returned as given, not copied


def test_eq_triangle_redundant():
    vs = ("a", "b", "c")
    h = Hypergraph(vs, (("a", "b"), ("b", "c"), ("a", "c")))
    res = verify_nrd(h, EQ)
    assert isinstance(res, NrdFailure) and not res


def test_check_given_rejects_corrupted_witness():
    h = path_instance(3)
    cert = verify_nrd(h, EQ)
    bad = NrdCertificate({e: dict(w) for e, w in cert.witnesses.items()})
    e0 = h.edges[0]
    bad.witnesses[e0][e0[0]] = bad.witnesses[e0][e0[1]]  # edge now satisfied
    res = verify_nrd(h, EQ, mode="check-given", certificate=bad)
    assert isinstance(res, NrdFailure)


def test_check_given_needs_full_cover():
    h = path_instance(3)
    cert = verify_nrd(h, EQ)
    del cert.witnesses[h.edges[0]]
    with pytest.raises(InstanceError):
        verify_nrd(h, EQ, mode="check-given", certificate=cert)


def test_conditional_witness_lands_outside_base():
    # single-edge instance for C6*|C6: the witness must hit (0,0)
    h = PartiteHypergraph((("x",), ("y",)), (("x", "y"),))
    cert = verify_nrd(h, C6_COND)
    assert isinstance(cert, NrdCertificate)
    w = cert.witnesses[("x", "y")]
    assert (w["x"], w["y"]) == (0, 0)


def test_budget_trips():
    pq = or_k(3)
    vs = tuple(f"v{i}" for i in range(6))
    edges = tuple((vs[i], vs[(i + 1) % 6], vs[(i + 2) % 6]) for i in range(6))
    with pytest.raises(BudgetExceeded):
        verify_nrd(Hypergraph(vs, edges), pq, max_assignments=1)


def test_empty_base_admits_one_edge_only():
    # with P empty no edge can be satisfied, so a second edge is redundant
    pq = ConditionalPredicate(Predicate(2, 2, []), Predicate(2, 2, [(0, 1)]))
    one = Hypergraph(("a", "b"), (("a", "b"),))
    assert verify_nrd(one, pq).witnesses[("a", "b")] == {"a": 0, "b": 1}
    two = Hypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert verify_nrd(two, pq).failed_edge == ("a", "b")


def test_budget_of_zero_is_a_budget():
    h = path_instance(4)
    with pytest.raises(BudgetExceeded) as info:
        verify_nrd(h, EQ, max_assignments=0)
    assert info.value.partial == 0
    assert isinstance(verify_nrd(h, EQ, max_assignments=None), NrdCertificate)


def test_negative_budget_rejected():
    with pytest.raises(InstanceError):
        verify_nrd(path_instance(3), EQ, max_assignments=-1)


def test_verify_nrd_rejects_bad_calls():
    h = path_instance(3)
    with pytest.raises(InstanceError) as exc:
        verify_nrd(h, EQ, mode="check-given")
    assert str(exc.value) == "check-given mode needs a certificate"
    with pytest.raises(InstanceError) as exc:
        verify_nrd(h, EQ, mode="find-witness")
    assert str(exc.value) == "unknown mode 'find-witness'"
    with pytest.raises(InstanceError) as exc:
        verify_nrd(h, ONE_IN_THREE)
    assert str(exc.value) == "instance arity does not match predicate arity"


def test_plain_instance_rejects_a_repeated_edge():
    with pytest.raises(InstanceError) as exc:
        Hypergraph(("a", "b"), (("a", "b"), ("a", "b")))
    assert str(exc.value) == "duplicate edges are not allowed"


def test_projection_rejects_a_family_of_another_arity():
    h = PartiteHypergraph((("a",), ("b",), ("c",)), (("a", "b", "c"),))
    with pytest.raises(InstanceError) as exc:
        projection_map(h, IndexFamily(2, ((1,), (2,))))
    assert str(exc.value) == "index family arity does not match instance"


def test_check_given_rejects_a_value_past_int64():
    # too large for the kernel's integer array, so it takes the slow path
    h = path_instance(3)
    cert = verify_nrd(h, EQ)
    e = h.edges[1]
    cert.witnesses[e] = dict(cert.witnesses[e], v2=2 ** 70)
    res = verify_nrd(h, EQ, mode="check-given", certificate=cert)
    assert isinstance(res, NrdFailure) and res.failed_edge == e
    assert res.reason == (f"witness value {2 ** 70} for vertex 'v2' "
                          "is not an integer in [0, 2)")


def test_search_deeper_than_the_recursion_limit():
    # 1100 disjoint EQ pairs: the search for the first edge's witness
    # decides one vertex of each edge, so 1100 levels are open at once
    vs = tuple(f"v{i}" for i in range(2200))
    h = Hypergraph(vs, [(vs[2 * i], vs[2 * i + 1]) for i in range(1100)])
    search = WitnessSearch(instance_index(h, 2), EQ, vs)
    assert search.values(0) is not None
    assert search.trials == 1100
    with pytest.raises(BudgetExceeded) as info:
        verify_nrd(h, EQ, max_assignments=2000)
    assert info.value.partial == 1


def test_budget_partial_counts_witnessed_edges():
    inst = build_R1S1_instance(2)
    h, pq = inst.hypergraph, inst.predicate
    search = WitnessSearch(instance_index(h, pq.arity), pq, h.vertices())
    spent = []  # value trials after each edge
    for i in range(len(h.edges)):
        search.values(i)
        spent.append(search.trials)
    budget = spent[9] + (spent[10] - spent[9]) // 2
    with pytest.raises(BudgetExceeded) as info:
        verify_nrd(h, pq, max_assignments=budget)
    assert info.value.partial == 10
    assert isinstance(verify_nrd(h, pq, max_assignments=spent[-1]),
                      NrdCertificate)


def _search_order(vertices, edges, excluded, pq):
    """Vertex and value order of the witness search, from its definition."""
    degree = {v: sum(e.count(v) for e in edges) for v in vertices}
    first = list(dict.fromkeys(edges[excluded]))
    rest = sorted((v for v in vertices if degree[v] and v not in first),
                  key=lambda v: (-degree[v], v))
    values = list(dict.fromkeys(x for t in pq.base.tuples for x in t))
    values += [x for x in range(pq.domain_size) if x not in values]
    isolated = [v for v in vertices if not degree[v]]
    return first + rest, values, isolated


def _first_witness(vertices, edges, excluded, pq):
    """Brute force: the first witness in lexicographic order, or None."""
    order, values, isolated = _search_order(vertices, edges, excluded, pq)
    base, outside = set(pq.base.tuples), set(pq.outside())
    default = pq.base.tuples[0][0] if pq.base.tuples else 0
    for vals in product(values, repeat=len(order)):
        a = dict(zip(order, vals))
        if all(tuple(a[v] for v in e) in (outside if k == excluded else base)
               for k, e in enumerate(edges)):
            a.update((v, default) for v in isolated)
            return a
    return None


@st.composite
def small_searches(draw):
    d = draw(st.integers(2, 3))
    r = draw(st.integers(1, 3 if d == 2 else 2))
    cube = list(product(range(d), repeat=r))
    if draw(st.booleans()):
        ambient = draw(st.lists(st.sampled_from(cube), min_size=1, unique=True))
    else:
        ambient = cube
    base = draw(st.lists(st.sampled_from(ambient), unique=True,
                         max_size=len(ambient) - 1))
    pq = ConditionalPredicate(Predicate(d, r, base), Predicate(d, r, ambient))
    if draw(st.booleans()):
        sizes = [draw(st.integers(1, 3)) for _ in range(r)]
        parts = [tuple(f"p{i}_{j}" for j in range(k)) for i, k in enumerate(sizes)]
        cands = list(product(*parts))
        h_of = lambda es: PartiteHypergraph(tuple(parts), es)
    else:
        # plain instances, with edges that repeat a vertex
        vs = tuple(f"v{i}" for i in range(draw(st.integers(1, 6 if r < 3 else 4))))
        cands = list(product(vs, repeat=r))
        h_of = lambda es: Hypergraph(vs, es)
    edges = tuple(draw(st.lists(st.sampled_from(cands), min_size=1,
                                max_size=min(8, len(cands)), unique=True)))
    return h_of(edges), pq


def test_find_witnesses_decides_high_degree_vertices_first():
    # v1 (degree 2) is decided before v4 (degree 1); the other order would
    # give v1 = 1, v4 = 0
    vs = ("v0", "v1", "v2", "v3", "v4")
    edges = (("v0", "v2"), ("v3", "v0"), ("v4", "v1"), ("v3", "v1"))
    search = WitnessSearch(instance_index(Hypergraph(vs, edges), 2), or_k(2), vs)
    witness = dict(zip(vs, search.values(0)))
    assert witness == {"v0": 0, "v1": 0, "v2": 0, "v3": 1, "v4": 1}
    assert witness == _first_witness(vs, edges, 0, as_conditional(or_k(2)))


def test_trial_count_is_pinned():
    # value trials at decision points over every edge of R1S1 q=2; a change
    # in propagation strength moves this count even when witnesses stay
    inst = build_R1S1_instance(2)
    h = inst.hypergraph
    search = WitnessSearch(instance_index(h, h.arity), inst.predicate,
                           h.vertices())
    for i in range(len(h.edges)):
        search.values(i)
    assert search.trials == 5292


def _search_digest(h, pq):
    """sha256 of every edge's witness values and value trials, and the
    trials in all."""
    search = WitnessSearch(instance_index(h, pq.arity), pq, h.vertices())
    runs = []
    for i in range(len(h.edges)):
        before = search.trials
        runs.append([search.values(i), search.trials - before])
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest(), search.trials


def test_r2s2_witnesses_and_trials_are_pinned():
    # partite: no edge holds a vertex twice
    inst = build_R2S2_instance(2)
    assert _search_digest(inst.hypergraph, inst.predicate) == (
        "930202476db9d968704c76b8443f521f93f0fafe955d3798233fb9346bcd3ca3",
        21168)


# --- find-witnesses split over forked workers ----------------------------


def _no_children():
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _split(h, pq, workers, budget=None):
    """The private split route with a fixed worker count, which must leave
    no child behind, whatever it returns or raises."""
    try:
        return hypergraph._find_witnesses(h, as_conditional(pq), budget, workers)
    finally:
        _no_children()


@functools.cache
def _reference_run(name, q):
    """The instance, and the witnesses and cumulative trials after each
    edge of one search in this process, edge by edge."""
    inst = {"R1S1": build_R1S1_instance, "R2S2": build_R2S2_instance}[name](q)
    h, pq = inst.hypergraph, inst.predicate
    search = WitnessSearch(instance_index(h, pq.arity), pq, h.vertices())
    witnesses, spent = [], []
    for i in range(len(h.edges)):
        witnesses.append(dict(zip(h.vertices(), search.values(i))))
        spent.append(search.trials)
    return h, pq, witnesses, spent


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("name,q", [("R1S1", 3), ("R2S2", 2)])
def test_split_certificate_is_the_sequential_one(name, q, workers):
    h, pq, witnesses, _ = _reference_run(name, q)
    cert = _split(h, pq, workers)
    assert list(cert.witnesses.items()) == list(zip(h.edges, witnesses))


def _pairs_with_triangle(at):
    """700 EQ edges: disjoint pairs, and a triangle at edges at..at+2.  Each
    pair is a bridge and so has a witness, and the triangle's first edge is
    the first without one (under EQ, x != y contradicts y = z = x)."""
    pairs = [(f"a{k}", f"b{k}") for k in range(697)]
    edges = pairs[:at] + [("x", "y"), ("y", "z"), ("x", "z")] + pairs[at:]
    return Hypergraph(tuple(dict.fromkeys(v for e in edges for v in e)), edges)


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("at", [10, 400])  # the parent's range, a child's
def test_split_failure_is_the_sequential_one(at, workers):
    h = _pairs_with_triangle(at)
    assert _split(h, EQ, workers) == NrdFailure(("x", "y"))
    assert h.edges[at] == ("x", "y")


def test_split_budget_is_the_sequential_one():
    # budgets at the cumulative trials of the last edge of each range, and
    # one either side, for 2 and 3 workers: the sequential outcome is the
    # first edge whose cumulative trials pass the budget
    h, pq, witnesses, spent = _reference_run("R1S1", 3)
    m = len(h.edges)
    for workers in (2, 3):
        ends = [m * k // workers - 1 for k in range(1, workers + 1)]
        for budget in {0} | {spent[i] + s for i in ends for s in (-1, 0, 1)}:
            partial = next((i for i, t in enumerate(spent) if t > budget), None)
            if partial is None:
                cert = _split(h, pq, workers, budget)
                assert list(cert.witnesses.values()) == witnesses
                continue
            with pytest.raises(BudgetExceeded) as info:
                _split(h, pq, workers, budget)
            assert info.value.partial == partial
            assert str(info.value) == (
                f"assignment budget of {budget} exceeded with {partial} of "
                f"{m} edges witnessed")


def test_split_survives_a_dying_child(monkeypatch):
    # a child that leaves halfway through its range, before writing a
    # record, leaves the parent to search that range itself
    h, pq, witnesses, _ = _reference_run("R1S1", 3)
    parent, values = os.getpid(), WitnessSearch.values

    def dying(search, i):
        if os.getpid() != parent and i == 500:
            os._exit(3)
        return values(search, i)

    monkeypatch.setattr(WitnessSearch, "values", dying)
    cert = _split(h, pq, 2)
    assert list(cert.witnesses.items()) == list(zip(h.edges, witnesses))


def test_split_searches_a_range_whose_stream_is_cut_short():
    # a child killed while writing leaves part of its pickled list, and one
    # that dies first leaves nothing: either way the parent searches the
    # child's whole range itself
    h, pq, witnesses, spent = _reference_run("R1S1", 3)
    lo, hi = 338, len(h.edges)
    trials = [spent[i] - spent[i - 1] for i in range(lo, hi)]
    whole = pickle.dumps([(bytes(w.values()), t)
                          for w, t in zip(witnesses[lo:], trials)])
    for stream in (whole[:len(whole) // 2], b""):
        search = WitnessSearch(instance_index(h, pq.arity), pq, h.vertices())
        assert [(dict(zip(h.vertices(), w)), t) for w, t in
                hypergraph._read_range(search, io.BytesIO(stream), lo, hi)] == \
            list(zip(witnesses[lo:], trials))


def test_split_interrupted_leaves_no_child(monkeypatch):
    h, pq, _, _ = _reference_run("R1S1", 3)
    parent, values = os.getpid(), WitnessSearch.values

    def interrupted(search, i):
        if os.getpid() == parent and i == 100:
            raise KeyboardInterrupt
        return values(search, i)

    monkeypatch.setattr(WitnessSearch, "values", interrupted)
    with pytest.raises(KeyboardInterrupt):
        _split(h, pq, 3)


def test_split_sizes(monkeypatch):
    # one worker per CPU, each with at least _SPLIT_MIN_EDGES edges
    for cpus, m, workers in ((8, 147, 1), (8, 676, 2), (8, 2704, 8),
                             (1, 2704, 1), (2, 441, 1), (2, 2704, 2)):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)),
                            raising=False)
        assert hypergraph._workers(m) == workers
    monkeypatch.delattr(os, "fork")
    assert hypergraph._workers(2704) == 1


def _random_pair(rng):
    """A random pair P | Q of arity 2 or 3, plain (Q full) half the time."""
    d = rng.choice((2, 3))
    r = rng.randint(2, 3 if d == 2 else 2)
    cube = list(product(range(d), repeat=r))
    ambient = (rng.sample(cube, rng.randint(1, len(cube)))
               if rng.random() < 0.5 else cube)
    base = rng.sample(ambient, rng.randint(0, len(ambient) - 1))
    return ConditionalPredicate(Predicate(d, r, base), Predicate(d, r, ambient))


def _plain_case(k):
    """A small plain instance with at least one edge that holds a vertex
    twice, under a random predicate pair."""
    rng = random.Random(k)
    pq = _random_pair(rng)
    r = pq.arity
    vs = tuple(f"v{i}" for i in range(rng.randint(1, 6 if r < 3 else 4)))
    cands = list(product(vs, repeat=r))
    edges = rng.sample(cands, rng.randint(1, min(8, len(cands))))
    if all(len(set(e)) == r for e in edges):
        edges[rng.randrange(len(edges))] = rng.choice(
            [e for e in cands if len(set(e)) < r])
    return Hypergraph(vs, tuple(dict.fromkeys(edges))), pq


def test_repeated_vertex_witnesses_and_trials_are_pinned():
    digests, trials = zip(*(_search_digest(*_plain_case(k)) for k in range(200)))
    assert (hashlib.sha256("".join(digests).encode()).hexdigest(),
            sum(trials)) == (
        "a465f16411472358f02d76d699687aec348d16c1cf24b71024aed8104c21473a", 997)


@pytest.mark.parametrize("seed", range(60))
def test_grown_search_matches_a_fresh_one(seed):
    # edges pushed and popped one at a time leave the state that a fresh
    # search on the same edge list builds: the same witnesses and trials
    rng = random.Random(seed)
    pq = _random_pair(rng)
    r = pq.arity
    if seed % 2:  # partite
        sizes = [rng.randint(1, 3) for _ in range(r)]
        n = sum(sizes)
        cands = list(product(*(range(sum(sizes[:p]), sum(sizes[:p + 1]))
                               for p in range(r))))
    else:  # one part, so some edges hold a vertex twice
        n = rng.randint(1, 5 if r < 3 else 3)
        cands = list(product(range(n), repeat=r))
    labels = [f"v{k}" for k in rng.sample(range(n), n)]  # ties not by number
    grown = WitnessSearch(InstanceIndex(n, np.empty((r, 0), np.intp)), pq,
                          labels)
    edges = []
    for _ in range(30):
        if edges and (len(edges) == len(cands) or rng.random() < 0.4):
            grown.pop()
            edges.pop()
        else:
            edges.append(rng.choice([c for c in cands if c not in edges]))
            grown.push(edges[-1])
        cols = np.array(edges, dtype=np.intp).reshape(len(edges), r).T
        fresh = WitnessSearch(InstanceIndex(n, cols), pq, labels)
        before = grown.trials
        assert [grown.values(k) for k in range(len(edges))] == \
            [fresh.values(k) for k in range(len(edges))]
        assert grown.trials - before == fresh.trials


@settings(max_examples=300, deadline=None)
@given(small_searches())
def test_find_witnesses_returns_first_solution_in_order(case):
    h, pq = case
    vertices, edges = h.vertices(), h.edges
    search = WitnessSearch(instance_index(h, pq.arity), pq, vertices)
    expected = [_first_witness(vertices, edges, i, pq) for i in range(len(edges))]
    found = [search.values(i) for i in range(len(edges))]
    assert [None if w is None else dict(zip(vertices, w))
            for w in found] == expected
    res = verify_nrd(h, pq)
    if all(w is not None for w in expected):
        assert isinstance(res, NrdCertificate)
        assert [res.witnesses[e] for e in edges] == expected
        assert isinstance(verify_nrd(h, pq, mode="check-given", certificate=res),
                          NrdCertificate)
    else:
        assert res.failed_edge == edges[expected.index(None)]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_find_agrees_with_exhaustive_check(n, data):
    # random small EQ instances: search result matches brute-force existence
    vs = tuple(f"v{i}" for i in range(n))
    cands = [(a, b) for a in vs for b in vs if a != b]
    m = data.draw(st.integers(1, min(5, len(cands))))
    edges = tuple(data.draw(st.permutations(cands))[:m])
    h = Hypergraph(vs, edges)
    got = verify_nrd(h, EQ)
    # oracle: try all assignments per excluded edge
    pq = as_conditional(EQ)
    base, outside = set(pq.base.tuples), set(pq.outside())
    expect = True
    for i, e in enumerate(edges):
        found = False
        for vals in product(range(2), repeat=n):
            a = dict(zip(vs, vals))
            if tuple(a[v] for v in e) not in outside:
                continue
            if all(tuple(a[v] for v in e2) in base
                   for k, e2 in enumerate(edges) if k != i):
                found = True
                break
        if not found:
            expect = False
            break
    assert isinstance(got, NrdCertificate) == expect


def test_nrd_exact_eq_is_n_minus_1():
    for n in range(2, 5):
        size, inst = nrd_exact(EQ, n)
        assert size == n - 1
        assert isinstance(verify_nrd(inst, EQ), NrdCertificate)


def test_nrd_exact_matches_exhaustive_oracle():
    assert nrd_exact(or_k(2), 3)[0] == nrd_exact_exhaustive(or_k(2), 3)
    assert nrd_exact(EQ, 3)[0] == nrd_exact_exhaustive(EQ, 3)


def test_nrd_exact_partite():
    size, inst = nrd_exact(EQ, 4, part_sizes=[2, 2])
    assert isinstance(inst, PartiteHypergraph)
    assert size == 3  # spanning tree of K_{2,2}
    assert isinstance(verify_nrd(inst, EQ), NrdCertificate)


@pytest.mark.parametrize("pq, n", [
    (C6_COND, 3), (ONE_IN_THREE, 2), (or_k(3), 2),
    (ConditionalPredicate(Predicate(2, 2, [(0, 0), (1, 1)]),
                          Predicate(2, 2, [(0, 0), (0, 1), (1, 1)])), 3),
])
def test_nrd_exact_with_reused_witnesses_matches_oracle(pq, n):
    size, inst = nrd_exact(pq, n)
    assert size == nrd_exact_exhaustive(pq, n)
    assert len(inst.edges) == size
    if size:
        assert isinstance(verify_nrd(inst, pq), NrdCertificate)


def test_nrd_exact_budget():
    with pytest.raises(BudgetExceeded) as info:
        nrd_exact(or_k(2), 4, max_checks=3)
    assert info.value.partial == 1  # only {(v1, v1)} was feasible



def test_nrd_exact_skips_relabelled_copies():
    # 6574 feasibility checks with symmetry breaking, 340 689 without
    assert nrd_exact(EQ, 6, max_checks=6574)[0] == 5
    assert nrd_exact(or_k(2), 5, max_checks=5231)[0] == 10


def test_nrd_exact_builds_one_search(monkeypatch):
    built = []

    class Counted(WitnessSearch):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(hypergraph, "WitnessSearch", Counted)
    for pq, n, parts, size in ((EQ, 5, None, 4), (or_k(2), 5, (2, 3), 6)):
        built.clear()
        assert nrd_exact(pq, n, part_sizes=parts)[0] == size
        assert len(built) == 1


def _edges(spec):
    """'12 13' -> (('v1', 'v2'), ('v1', 'v3'))."""
    return tuple(tuple(f"v{c}" for c in e) for e in spec.split())


# (size, edges) of nrd_exact before its symmetry breaking, which must not
# change them: the search returns the lexicographically first maximum list.
@pytest.mark.parametrize("pq, n, parts, size, edges", [
    (EQ, 2, None, 1, "12"),
    (EQ, 3, None, 2, "12 13"),
    (EQ, 4, None, 3, "12 13 14"),
    (EQ, 5, None, 4, "12 13 14 15"),
    (EQ, 6, None, 5, "12 13 14 15 16"),
    (or_k(2), 2, None, 2, "11 22"),
    (or_k(2), 3, None, 3, "11 22 33"),
    (or_k(2), 4, None, 6, "12 13 14 23 24 34"),
    (or_k(2), 5, None, 10, "12 13 14 15 23 24 25 34 35 45"),
    (ONE_IN_THREE, 3, None, 3, "112 113 123"),
    (C6, 3, None, 5, "11 12 13 22 33"),
    (C6_STAR, 3, None, 4, "11 12 13 23"),
    (C6_COND, 3, None, 3, "11 22 33"),
    (or_k(3), 3, None, 3, "111 222 333"),
    (EQ, 4, (2, 2), 3, "13 14 23"),
    (EQ, 5, (2, 3), 4, "13 14 15 23"),
    (or_k(2), 5, (2, 3), 6, "13 14 15 23 24 25"),
    (ONE_IN_THREE, 4, (1, 1, 2), 2, "123 124"),
    (ONE_IN_THREE, 6, (2, 2, 2), 4, "135 136 145 235"),
], ids=[f"EQ-{n}" for n in range(2, 7)] + [f"OR2-{n}" for n in range(2, 6)]
   + ["1IN3-3", "C6-3", "C6STAR-3", "C6COND-3", "OR3-3", "EQ-2,2", "EQ-2,3",
      "OR2-2,3", "1IN3-1,1,2", "1IN3-2,2,2"])
def test_nrd_exact_pinned(pq, n, parts, size, edges):
    got, inst = nrd_exact(pq, n, part_sizes=parts)
    assert (got, inst.edges) == (size, _edges(edges))
    if parts is None:
        assert inst.vertices() == [f"v{i + 1}" for i in range(n)]
    else:
        assert isinstance(inst, PartiteHypergraph)
        assert list(map(len, inst.parts)) == list(parts)


@pytest.mark.parametrize("pq, n, parts", [
    (EQ, 4, (2, 2)), (EQ, 5, (2, 3)), (or_k(2), 5, (2, 3)),
    (ONE_IN_THREE, 4, (1, 1, 2)), (ONE_IN_THREE, 6, (2, 2, 2)),
])
def test_nrd_exact_partite_matches_oracle(pq, n, parts):
    assert nrd_exact(pq, n, part_sizes=parts)[0] == \
        nrd_exact_exhaustive(pq, n, part_sizes=parts)


def test_nrd_exact_oracle_reads_part_sizes():
    # OR2 on two parts of one vertex allows only the edge (v1, v2); on one
    # part of two vertices also (v1, v1) and (v2, v2)
    assert nrd_exact_exhaustive(or_k(2), 2, part_sizes=(1, 1)) == 1
    assert nrd_exact_exhaustive(or_k(2), 2) == 2


def test_nrd_exact_oracle_drops_single_redundant_edges(monkeypatch):
    # 27 candidates are too many subsets, so the oracle first drops the 21
    # edges with a repeated vertex, which can never take the tuple (0, 1, 2)
    p = Predicate(3, 3, [t for t in product(range(3), repeat=3)
                         if t != (0, 1, 2)])
    assert nrd_exact_exhaustive(p, 3) == nrd_exact(p, 3)[0] == 6
    monkeypatch.setattr(hypergraph, "_EXHAUSTIVE_SUBSETS", 1 << 6)
    assert nrd_exact_exhaustive(p, 3) == 6
    monkeypatch.setattr(hypergraph, "_EXHAUSTIVE_SUBSETS", 1 << 5)
    with pytest.raises(BudgetExceeded, match="exhaustive oracle"):
        nrd_exact_exhaustive(p, 3)


def test_nrd_exact_oracle_budget_exceeded():
    # EQ at n = 5 keeps the 20 edges (u, v) with u != v of its 25
    with pytest.raises(BudgetExceeded, match="exhaustive oracle"):
        nrd_exact_exhaustive(EQ, 5)


@pytest.mark.parametrize("n, parts, match", [
    (-1, None, "negative"), (4, (2, 1), "sum"), (6, (2, 2, 2), "arity"),
    (1, (2, -1), "negative"),
])
def test_nrd_exact_rejects_bad_sizes(n, parts, match):
    for fn in (nrd_exact, nrd_exact_exhaustive):
        with pytest.raises(InstanceError, match=match):
            fn(EQ, n, part_sizes=parts)


def _unpruned_nrd_exact(pq, n, part_sizes=None):
    """nrd_exact without symmetry breaking, as it was before it."""
    pq = as_conditional(pq)
    r = pq.arity
    if part_sizes is not None:
        parts = []
        c = 0
        for k in part_sizes:
            parts.append([f"v{c + j + 1}" for j in range(k)])
            c += k
        vs = [v for p in parts for v in p]
        cands = [tuple(e) for e in product(*parts)]
        make = lambda es: PartiteHypergraph(tuple(tuple(p) for p in parts), tuple(es))
    else:
        vs = [f"v{i + 1}" for i in range(n)]
        cands = [tuple(e) for e in product(vs, repeat=r)]
        make = lambda es: Hypergraph(tuple(vs), tuple(es))
    base = frozenset(pq.base.tuples)
    best = {"size": 0, "edges": ()}

    def feasible(edge_list, witnesses):
        search = WitnessSearch(
            instance_index(Hypergraph(vs, edge_list), r), pq, vs)
        c = search.edges[-1]
        out = []
        for k, w in enumerate(witnesses):
            if tuple(w[j] for j in c) not in base:
                w = search.values(k)
                if w is None:
                    return None
            out.append(w)
        w = search.values(len(witnesses))
        if w is None:
            return None
        out.append(w)
        return out

    def extend(edge_list, witnesses, start):
        if len(edge_list) > best["size"]:
            best["size"] = len(edge_list)
            best["edges"] = tuple(edge_list)
        for i in range(start, len(cands)):
            if len(edge_list) + (len(cands) - i) <= best["size"]:
                break
            nxt = edge_list + [cands[i]]
            ws = feasible(nxt, witnesses)
            if ws is not None:
                extend(nxt, ws, i + 1)

    extend([], [], 0)
    return best["size"], make(best["edges"])


@st.composite
def small_exact_cases(draw):
    """A random conditional pair P | Q with n <= 3 vertices, or with parts
    of at most 2 vertices each."""
    d, r = draw(st.sampled_from([(2, 2), (3, 2), (2, 3)]))
    cube = list(product(range(d), repeat=r))
    ambient = draw(st.lists(st.sampled_from(cube), min_size=1, unique=True))
    base = draw(st.lists(st.sampled_from(ambient), unique=True,
                         max_size=len(ambient) - 1))
    pq = ConditionalPredicate(Predicate(d, r, base), Predicate(d, r, ambient))
    if draw(st.booleans()):
        return pq, draw(st.integers(1, 3)), None
    parts = tuple(draw(st.lists(st.integers(1, 2), min_size=r, max_size=r)))
    return pq, sum(parts), parts


@settings(max_examples=150, deadline=None)
@given(small_exact_cases())
def test_nrd_exact_matches_unpruned_search(case):
    pq, n, parts = case
    size, inst = nrd_exact(pq, n, part_sizes=parts)
    assert (size, inst) == _unpruned_nrd_exact(pq, n, part_sizes=parts)


def test_empty_index_set_gives_shared_vertex():
    h = PartiteHypergraph((("a", "b"), ("c",)), (("a", "c"), ("b", "c")))
    fam = IndexFamily(2, ((), (1,)))
    proj = projection_map(h, fam).instance
    assert len(proj.parts[0]) == 1  # single () vertex shared by all edges


def test_shrinking_report():
    h = PartiteHypergraph((("a", "b"), ("c", "d", "e")),
                          (("a", "c"), ("a", "d"), ("a", "e"),
                           ("b", "c"), ("b", "d"), ("b", "e")))
    rep = shrinking_report(h)
    assert rep.edge_count == 6
    assert rep.factors[(1,)] == (2, 3.0)
    assert rep.factors[(2,)] == (3, 2.0)
    assert rep.shrink_factor == 2.0
    d = rep.to_dict()
    assert d["shrink_factor"] == 2.0


# --- projection and shrink against the per-edge loops they replaced ---


def reference_projection_map(h, fam):
    """The per-edge loop projection_map used to run: (parts, edges)."""
    ell = len(fam.sets)
    part_vertices = [dict() for _ in range(ell)]
    out_edges = []
    for e in h.edges:
        coords = []
        for j, I in enumerate(fam.sets):
            key = tuple(e[i - 1] for i in I)
            lab = part_vertices[j].get(key)
            if lab is None:
                lab = projection_label(j + 1, key)
                part_vertices[j][key] = lab
            coords.append(lab)
        if tuple(coords) not in out_edges:
            out_edges.append(tuple(coords))
    parts = tuple(tuple(part_vertices[j].values()) for j in range(ell))
    return parts, tuple(out_edges)


def reference_shrink_counts(h, families):
    return {tuple(sorted(set(I))): len(set(
        tuple(e[i - 1] for i in sorted(set(I))) for e in h.edges))
        for I in families}


def reference_partite_error(parts, edges):
    """The message of the per-edge validation loop, or None."""
    seen = {}
    for i, p in enumerate(parts):
        for v in p:
            if v in seen:
                return (f"vertex {v!r} appears twice in part {i + 1}"
                        if seen[v] == i else f"vertex {v!r} appears in two parts")
            seen[v] = i
    part_sets = [set(p) for p in parts]
    if len(set(edges)) != len(edges):
        return "duplicate edges are not allowed"
    for e in edges:
        if len(e) != len(parts):
            return f"edge {e} does not match arity {len(parts)}"
        for i, v in enumerate(e):
            if v not in part_sets[i]:
                return f"edge {e}: vertex {v!r} not in part {i + 1}"
    return None


def random_partite(rng):
    r = rng.randint(1, 4)
    parts = [[f"x{i}_{k}" for k in range(rng.randint(1, 4))] for i in range(r)]
    edges = list(dict.fromkeys(tuple(rng.choice(p) for p in parts)
                               for _ in range(rng.randint(0, 40))))
    return parts, edges


def test_projection_map_matches_reference_loop():
    rng = random.Random(5)
    for _ in range(300):
        parts, edges = random_partite(rng)
        h = PartiteHypergraph(parts, edges)
        r = len(parts)
        sets = [tuple(rng.sample(range(1, r + 1), rng.randint(0, r)))
                for _ in range(rng.randint(0, 5))]
        if sets and rng.random() < 0.3:
            sets.append(sets[0])  # a repeated index set
        fam = IndexFamily(r, tuple(sets))
        proj = projection_map(h, fam)
        parts, proj_edges = reference_projection_map(h, fam)
        # the integer projection: counts, and merges seen without labels
        assert proj.index.n == sum(map(len, parts))
        assert proj.index.m == len(proj_edges)
        assert (proj.index.m < len(edges)) == (len(proj_edges) < len(edges))
        proj = proj.instance
        assert (proj.parts, proj.edges) == (parts, proj_edges)
        default = [I for k in range(1, r) for I in combinations(range(1, r + 1), k)]
        assert shrinking_report(h).factors == {
            I: (c, len(edges) / c if c else float("inf"))
            for I, c in reference_shrink_counts(h, default).items()}


def test_partite_validation_matches_reference_loop():
    rng = random.Random(6)
    errors = set()
    for _ in range(400):
        parts, edges = random_partite(rng)
        change = rng.randrange(6)
        if change == 0 and len(parts) > 1:    # a vertex in two parts
            parts[-1].append(rng.choice(parts[0]))
        elif change == 4:                     # a vertex twice in one part
            p = rng.choice(parts)
            p.insert(rng.randrange(len(p) + 1), rng.choice(p))
        elif change == 1 and edges:           # a duplicate edge
            edges.append(rng.choice(edges))
        elif change == 2 and edges:           # a short or long edge
            k = rng.randrange(len(edges))
            edges[k] = edges[k][:-1] if rng.random() < 0.5 else edges[k] + ("y",)
        elif change == 3 and edges:           # a vertex outside its part
            k = rng.randrange(len(edges))
            edges[k] = edges[k][:-1] + (rng.choice(["y", parts[0][0]]),)
        want = reference_partite_error(parts, edges)
        if want is None:
            assert PartiteHypergraph(parts, edges).edges == tuple(edges)
        else:
            with pytest.raises(InstanceError) as exc:
                PartiteHypergraph(parts, edges)
            assert str(exc.value) == want
            errors.add(change)
    assert errors == {0, 1, 2, 3, 4}


# --- the witness kernel on adversarial certificates -------------------


@functools.lru_cache(maxsize=None)
def r1s1(q):
    return build_R1S1_instance(q)


def corrupted(inst, edge, change):
    """The instance's constructed certificate with edge's witness changed."""
    cert = inst.certificate()
    psi = dict(cert.witnesses[edge])
    change(psi)
    cert.witnesses[edge] = psi
    return cert


def reference_check(h, pq, cert):
    """Edge-by-edge set lookups, as (failed edge, first failing edge) or None."""
    base, outside = set(pq.base.tuples), set(pq.outside())
    for e in h.edges:
        psi = cert.witnesses[e]
        for e2 in h.edges:
            t = tuple(psi[v] for v in e2)
            if t not in (outside if e2 == e else base):
                return e, e2
    return None


# The three certificates the earlier numpy checker accepted on R1S1 q=3:
# an out-of-domain value that aliases a valid tuple code, a vertex left out
# (read as 0), and an in-domain change that breaks only edges after the
# excluded one.
UNSOUND_CASES = {
    "alias": (-1, lambda e: lambda psi: psi.__setitem__("l001", 5), "'l001'"),
    "missing": (-1, lambda e: lambda psi: psi.pop(e[0]), None),
    "later-edge": (0, lambda e: lambda psi: psi.__setitem__("p010", 1), None),
}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("case", sorted(UNSOUND_CASES))
def test_check_given_rejects_once_unsound_cases(q, case):
    inst = r1s1(q)
    h = inst.hypergraph
    assert len(h.edges) == {2: 147, 3: 676}[q]
    k, make_change, vertex = UNSOUND_CASES[case]
    edge = h.edges[k]
    if case == "missing":
        vertex = repr(edge[0])
        if q == 3:
            assert edge[0] == "p122"
    res = verify_nrd(h, inst.predicate, mode="check-given",
                     certificate=corrupted(inst, edge, make_change(edge)))
    assert isinstance(res, NrdFailure)
    assert res.failed_edge == edge
    if vertex is not None:
        assert vertex in res.reason
    else:
        cert = corrupted(inst, edge, make_change(edge))
        failed, first = reference_check(h, inst.predicate, cert)
        assert failed == edge
        assert res.reason == f"witness fails to P-satisfy {first}"


@pytest.mark.parametrize("value", [-3, 3, 2.7, 2.0, True, "1", None])
def test_check_given_rejects_values_outside_the_domain(value):
    inst = r1s1(3)
    edge = inst.hypergraph.edges[0]
    cert = corrupted(inst, edge, lambda psi: psi.__setitem__("p010", value))
    res = verify_nrd(inst.hypergraph, inst.predicate, mode="check-given",
                     certificate=cert)
    assert isinstance(res, NrdFailure) and res.failed_edge == edge
    assert "'p010'" in res.reason and "[0, 3)" in res.reason


def test_check_given_rejects_extra_vertex():
    inst = r1s1(3)
    edge = inst.hypergraph.edges[5]
    cert = corrupted(inst, edge, lambda psi: psi.__setitem__("stray", 0))
    res = verify_nrd(inst.hypergraph, inst.predicate, mode="check-given",
                     certificate=cert)
    assert isinstance(res, NrdFailure) and res.failed_edge == edge
    assert "'stray'" in res.reason


def test_check_given_accepts_numpy_integers():
    inst = r1s1(2)
    cert = inst.certificate()
    as_np = NrdCertificate({e: {v: np.int64(x) for v, x in w.items()}
                            for e, w in cert.witnesses.items()})
    res = verify_nrd(inst.hypergraph, inst.predicate, mode="check-given",
                     certificate=as_np)
    assert isinstance(res, NrdCertificate)


def test_check_given_matches_reference_on_random_corruptions():
    # any vertex, any in-domain value: the kernel must name the same edges
    # and the same reason as edge-by-edge set lookups
    rng = random.Random(17)
    inst = r1s1(2)
    h, pq = inst.hypergraph, inst.predicate
    rejected = 0
    for _ in range(40):
        edge = rng.choice(h.edges)
        v = rng.choice(h.vertices())
        cert = corrupted(inst, edge, lambda psi: psi.__setitem__(
            v, rng.choice([x for x in range(3) if x != psi[v]])))
        res = verify_nrd(h, pq, mode="check-given", certificate=cert)
        ref = reference_check(h, pq, cert)
        if ref is None:
            assert isinstance(res, NrdCertificate)
            continue
        rejected += 1
        failed, first = ref
        assert isinstance(res, NrdFailure) and res.failed_edge == failed
        assert res.reason == ("witness does not (Q\\P)-satisfy its edge"
                              if first == failed
                              else f"witness fails to P-satisfy {first}")
    assert rejected >= 10


def test_check_given_arity_mismatch():
    h = Hypergraph(("a", "b"), (("a", "b"),))
    cert = NrdCertificate({("a", "b"): {"a": 0, "b": 0}})
    with pytest.raises(InstanceError):
        verify_nrd(h, or_k(3), mode="check-given", certificate=cert)


def test_kernel_checks_tuples_beyond_64_bit_codes():
    # 3**40 > 2**62: the tuple codes of the old table did not fit
    d, r = 3, 40
    rng = random.Random(40)
    vs = [f"v{i}" for i in range(r + 3)]
    edges = [tuple(vs[i:i + r]) for i in range(4)]
    psis = [{v: rng.randrange(d) for v in vs} for _ in edges]
    base = {tuple(psi[v] for v in e2) for e, psi in zip(edges, psis)
            for e2 in edges if e2 != e}
    outside = {tuple(psi[v] for v in e) for e, psi in zip(edges, psis)}
    assert not base & outside and d ** r >= 1 << 62
    pq = ConditionalPredicate(Predicate(d, r, base), Predicate(d, r, base | outside))
    h = Hypergraph(tuple(vs), tuple(edges))
    cert = NrdCertificate(dict(zip(edges, psis)))
    assert isinstance(verify_nrd(h, pq, mode="check-given", certificate=cert),
                      NrdCertificate)
    for k, v in ((1, "v1"), (2, "v42"), (3, "v20")):
        bad = NrdCertificate(dict(cert.witnesses))
        bad.witnesses[edges[k]] = dict(psis[k])
        bad.witnesses[edges[k]][v] = (psis[k][v] + 1) % d
        res = verify_nrd(h, pq, mode="check-given", certificate=bad)
        failed, first = reference_check(h, pq, bad)
        assert isinstance(res, NrdFailure) and res.failed_edge == failed
        assert res.reason == ("witness does not (Q\\P)-satisfy its edge"
                              if first == failed
                              else f"witness fails to P-satisfy {first}")


def reference_failure(h, pq, psis):
    """The kernel's answer by set lookups: (edge, wrong, outside) of the
    first witness that fails, as in WitnessFailure, or None; every psi
    assigns exactly h's vertices values in [0, d)."""
    base, outside, q = (set(pq.base.tuples), set(pq.outside()),
                        set(pq.ambient.tuples))
    for i, (e, psi) in enumerate(zip(h.edges, psis)):
        tuples = [tuple(psi[v] for v in e2) for e2 in h.edges]
        wrong = [j for j, t in enumerate(tuples)
                 if t not in (outside if j == i else base)]
        if wrong:
            out = next(((j, t) for j, t in enumerate(tuples) if t not in q), None)
            return i, wrong[0], out
    return None


@pytest.mark.parametrize("d, r", [(256, 2), (256, 3), (3, 12), (5, 7), (2, 40)])
def test_kernel_at_the_table_dtype_boundary(d, r):
    # d**r = 2**16 for d = 256, r = 2: the largest pair with a kind table,
    # whose tuples are looked up in it; every other shape has d**r > 2**16,
    # and its block's tuples are coded together with the pair's by _codes
    m = 20
    rng = random.Random(d + r)
    vs = [f"v{i}" for i in range(m + r - 1)]
    edges = [tuple(vs[i:i + r]) for i in range(m)]
    psis = [{v: rng.randrange(d) for v in vs} for _ in edges]
    base = {tuple(psi[v] for v in e2) for e, psi in zip(edges, psis)
            for e2 in edges if e2 != e}
    outside = {tuple(psi[v] for v in e) for e, psi in zip(edges, psis)}
    assert not base & outside and len(base | outside) >= 300
    pq = ConditionalPredicate(Predicate(d, r, base), Predicate(d, r, base | outside))
    h = Hypergraph(tuple(vs), tuple(edges))
    kernel = WitnessKernel(h, pq)
    if d ** r <= 1 << 16:
        assert kernel.tab.kind.dtype == np.uint8 and kernel.tab.kind.size == d ** r
    else:
        assert kernel.tab.kind is None
    assert kernel.check(psis.__getitem__) is None
    failed = 0
    for _ in range(40):
        bad = [dict(psi) for psi in psis]
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(m)
            if rng.random() < 0.3:  # another edge's witness
                bad[i] = dict(psis[rng.randrange(m)])
            else:
                bad[i][rng.choice(vs)] = rng.choice((0, d - 1, rng.randrange(d)))
        got = kernel.check(bad.__getitem__)
        ref = reference_failure(h, pq, bad)
        assert (None if got is None else (got.edge, got.wrong, got.outside)) == ref
        assert got is None or got.malformed is None
        failed += got is not None
    assert failed >= 20


def _failure_key(failure):
    """A WitnessFailure with its MalformedWitness read as its message."""
    if failure is None:
        return None
    return failure._replace(malformed=failure.malformed and str(failure.malformed))


def r2s2_slots(q):
    """R2S2 times two unary slots for ONE_TWO_COND: a box product whose
    second half, (p', l', z), has three positions."""
    inst = build_R2S2_instance(q)
    slots = PartiteHypergraph.from_index([["z0", "z1"]], np.arange(2).reshape(1, 2))
    h, witness = box_product_instance(
        (inst.hypergraph, inst._witness),
        (slots, lambda i: 1 - np.eye(2, dtype=np.intp)[i]))
    return ShrinkingInstance("R2S2xZ", q, box_product(R2S2, ONE_TWO_COND), h,
                             witness)


@pytest.mark.parametrize("builder", [build_R1S1_instance, build_R2S2_instance,
                                     r2s2_slots], ids=["R1S1", "R2S2", "R2S2xZ"])
@pytest.mark.parametrize("q", [2, 3])
def test_product_instances_take_the_split_route(builder, q):
    # edges U x V: witnesses are checked by counts; one edge fewer, or a
    # projected instance, and every edge is looked up
    inst = builder(q)
    kernel = WitnessKernel(inst.hypergraph, inst.predicate)
    assert kernel._split is not None
    # and the constructed witnesses pass by counts, block by block
    for lo in range(0, inst.n_edges, kernel.block):
        rows = inst._witness(np.arange(lo, min(lo + kernel.block, inst.n_edges)))
        assert kernel._split.passes(kernel._in_range(rows)[0], lo)
    cut = inst.truncated(inst.n_edges - 1)
    assert WitnessKernel(cut.hypergraph, cut.predicate)._split is None
    if builder is build_R2S2_instance:
        cert = tables.certificate("J1")
        target = projection_map(inst.hypergraph, cert.family).instance
        assert WitnessKernel(target, cert.target)._split is None


@pytest.mark.parametrize("size", [3, 4, 5])
def test_count_route_on_a_grid(size):
    # edges U x V over [0, 3): d**r < m from 4 x 4 on, and only from 5 x 5
    # on is |U| + |V| + d**r < m.  Witness k is 1 on its edge and 0
    # elsewhere, so its own tuple is (1, 1) and every other is in P; the
    # witness of edge 7 is 2 on its edge instead, a tuple outside Q and its
    # only one outside P
    us, vs = [f"u{i}" for i in range(size)], [f"v{i}" for i in range(size)]
    h = PartiteHypergraph((us, vs), tuple(product(us, vs)))
    base = [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2)]
    pq = ConditionalPredicate(Predicate(3, 2, base), Predicate(3, 2, base + [(1, 1)]))
    psis = [{v: int(v in e) for v in us + vs} for e in h.edges]
    psis[7] = {v: 2 * x for v, x in psis[7].items()}
    kernel = WitnessKernel(h, pq)
    assert (kernel._split is not None) == (size == 5)
    got = kernel.check(psis.__getitem__)
    assert got == WitnessFailure(7, None, 7, (7, (2, 2)))
    assert (got.edge, got.wrong, got.outside) == reference_failure(h, pq, psis)


def reference_failure_key(h, pq, psis, changed):
    """The kernel's answer by set lookups, as _failure_key gives it, when
    only the witnesses at the indices in changed may fail; and what the
    failing witness does wrong: "malformed", "own edge in P", "outside Q",
    "second edge in Q\\P" (and no other edge outside P) or "other"; or
    None."""
    base, outside, q = (set(pq.base.tuples), set(pq.outside()),
                        set(pq.ambient.tuples))
    vertices, d = h.vertices(), pq.domain_size
    for i in sorted(changed):
        psi = psis[i]
        missing = [v for v in vertices if v not in psi]
        extra = [v for v in psi if v not in set(vertices)]
        bad = [(v, psi[v]) for v in vertices if v in psi
               and not (type(psi[v]) is int and 0 <= psi[v] < d)]
        if missing or extra or bad:
            msg = (f"witness has no value for vertex {missing[0]!r}" if missing
                   else f"witness assigns {extra[0]!r}, which is not a vertex "
                        "of the instance" if extra
                   else f"witness value {bad[0][1]!r} for vertex {bad[0][0]!r} "
                        f"is not an integer in [0, {d})")
            return WitnessFailure(i, msg), "malformed"
        tuples = [tuple(psi[v] for v in e) for e in h.edges]
        wrong = [j for j, t in enumerate(tuples)
                 if t not in (outside if j == i else base)]
        if wrong:
            out = next(((j, t) for j, t in enumerate(tuples) if t not in q), None)
            kind = ("own edge in P" if tuples[i] in base else "outside Q" if out
                    else "second edge in Q\\P" if len(wrong) == 1
                    and sum(t not in base for t in tuples) == 2 else "other")
            return WitnessFailure(i, None, wrong[0], out), kind
    return None, None


def second_edge_in_q_minus_p(h, psi, i):
    """Give psi, the witness of edge i, the tuple of edge i on another edge
    that differs from it only at the last position (on R1S1, another slot:
    two edges outside P, both in Q \\ P)."""
    e = h.edges[i]
    f = next(f for f in h.edges if f[:-1] == e[:-1] and f != e)
    psi[f[-1]] = psi[e[-1]]


@pytest.mark.parametrize("name", ["R1S1 q=3", "R2S2 q=2", "R1S1 q=3 truncated",
                                  "R2S2 q=2 truncated"])
def test_kernel_answer_does_not_depend_on_the_block_size(name):
    # one witness per block, as at q=5, and the whole certificate in one
    # block, against the default block; a product instance checks by
    # counts, its truncation edge by edge, and both agree with set lookups
    inst = r1s1(3) if name.startswith("R1S1") else build_R2S2_instance(2)
    if name.endswith("truncated"):
        inst = inst.truncated(inst.n_edges - 1)
    h, pq = inst.hypergraph, inst.predicate
    edges, vertices, d = h.edges, h.vertices(), pq.domain_size
    psis = [inst.witness(e) for e in edges]
    kernels = [WitnessKernel(h, pq) for _ in range(3)]
    assert (kernels[0]._split is None) == name.endswith("truncated")
    default = kernels[0].block
    kernels[1].block, kernels[2].block = 1, len(edges) + 5
    assert 1 < default < len(edges)
    rng = random.Random(23)
    corruptions = [
        lambda psi, i: psi.update(psis[i - 1]),              # a neighbour's
        lambda psi, i: psi.__setitem__(rng.choice(vertices), rng.randrange(d)),
        lambda psi, i: second_edge_in_q_minus_p(h, psi, i),
        lambda psi, i: psi.__setitem__(rng.choice(vertices), d),
        lambda psi, i: psi.__setitem__(rng.choice(vertices), -1),
        lambda psi, i: psi.__setitem__(rng.choice(vertices), True),
        lambda psi, i: psi.pop(rng.choice(vertices)),
        lambda psi, i: psi.__setitem__("stray", 0),
    ]
    assert all(k.check(psis.__getitem__) is None for k in kernels)
    seen = set()
    for trial in range(48):
        bad, changed = list(psis), set()
        for c in range(rng.randint(1, 3)):
            # often at or next to a block edge of the default block
            i = rng.choice((rng.randrange(len(edges)),
                            default * rng.randrange(1, len(edges) // default)
                            + rng.choice((-1, 0, 1))))
            bad[i] = dict(bad[i])
            corruptions[trial % len(corruptions) if c == 0
                        else rng.randrange(len(corruptions))](bad[i], i)
            changed.add(i)
        got = [_failure_key(k.check(bad.__getitem__)) for k in kernels]
        assert got[0] == got[1] == got[2]
        ref, kind = reference_failure_key(h, pq, bad, changed)
        assert got[0] == ref
        seen.add(kind)
    # no change of a few values puts exactly two R2S2 edges outside P
    assert seen >= {None, "malformed", "own edge in P", "outside Q",
                    *["second edge in Q\\P"] * name.startswith("R1S1")}


def test_count_route_with_vertices_in_both_halves():
    # a plain instance whose edges are U x V for U = v0..v5 and V = v1..v6:
    # the vertices v1..v5 sit in both halves, and (v, v) is an edge.  The
    # witness of (a, b) is 0 on a and 1 on b, or 2 on v for (v, v), and 3
    # elsewhere; seeded corruptions fail as by set lookups
    us, vs = [f"v{i}" for i in range(6)], [f"v{i}" for i in range(1, 7)]
    vertices = [f"v{i}" for i in range(7)]
    h = Hypergraph(vertices, tuple(product(us, vs)))
    q = [t for t in product(range(4), repeat=2) if t not in {(1, 2), (2, 1)}]
    pq = ConditionalPredicate(
        Predicate(4, 2, [t for t in q if t not in {(0, 1), (2, 2)}]),
        Predicate(4, 2, q))
    psis = [{v: 2 if a == b == v else 0 if v == a else 1 if v == b else 3
             for v in vertices} for a, b in h.edges]
    kernels = [WitnessKernel(h, pq) for _ in range(2)]
    kernels[1].block = 1
    assert kernels[0]._split is not None and kernels[0].block > len(psis)
    assert all(k.check(psis.__getitem__) is None for k in kernels)
    rng = random.Random(31)
    seen = set()
    for _ in range(64):
        bad, changed = list(psis), set()
        for _ in range(rng.randint(1, 2)):
            i = rng.randrange(len(psis))
            bad[i] = dict(bad[i])
            kind = rng.choice((0, 0, 0, 1, 2, 3))
            if kind == 0:
                bad[i][rng.choice(vertices)] = rng.randrange(4)
            elif kind == 1:
                bad[i][rng.choice(vertices)] = rng.choice((4, -1, True))
            elif kind == 2:
                bad[i].pop(rng.choice(vertices))
            else:
                bad[i].update(psis[i - 1])
            changed.add(i)
        got = [_failure_key(k.check(bad.__getitem__)) for k in kernels]
        ref, kind = reference_failure_key(h, pq, bad, changed)
        assert got[0] == got[1] == ref
        seen.add(kind)
    assert seen >= {None, "malformed", "own edge in P", "outside Q",
                    "second edge in Q\\P"}


def block_case(changes):
    """Check-given on R1S1 q=3 with the witnesses of some edge indices
    replaced; (result, reference), the reference being the first edge whose
    witness is malformed (a missing or extra vertex) or fails, checked edge
    by edge with set lookups."""
    inst = r1s1(3)
    h, pq = inst.hypergraph, inst.predicate
    cert = inst.certificate()
    for i, psi in changes.items():
        cert.witnesses[h.edges[i]] = psi
    res = verify_nrd(h, pq, mode="check-given", certificate=cert)
    base, outside = set(pq.base.tuples), set(pq.outside())
    for e in h.edges:
        psi = cert.witnesses[e]
        if set(psi) != set(h.vertices()) or any(
                tuple(psi[v] for v in e2) not in (outside if e2 == e else base)
                for e2 in h.edges):
            return res, e
    return res, None


def r1s1_block():
    """The check-given block size on R1S1 q=3, and its witnesses."""
    inst = r1s1(3)
    h = inst.hypergraph
    block = WitnessKernel(h, inst.predicate).block
    assert 4 <= block and 3 * block < len(inst.hypergraph.edges)
    return block, inst.witness, inst.hypergraph.edges


@pytest.mark.parametrize("where", ["first", "last", "final"])
def test_check_given_blocks_report_corruption_at_block_edges(where):
    # the witness of a neighbouring edge fails on its own edge or that one
    block, witness, edges = r1s1_block()
    i = {"first": block, "last": 2 * block - 1, "final": len(edges) - 1}[where]
    res, ref = block_case({i: witness(edges[i - 1])})
    assert ref == edges[i]
    assert isinstance(res, NrdFailure) and res.failed_edge == edges[i]


def test_check_given_blocks_report_failure_before_malformed():
    block, witness, edges = r1s1_block()
    i = block + 1
    malformed = witness(edges[i + 2])
    del malformed[edges[i + 2][0]]
    res, ref = block_case({i: witness(edges[i + 1]), i + 2: malformed})
    assert ref == edges[i]
    assert isinstance(res, NrdFailure) and res.failed_edge == edges[i]
    assert "witness" in res.reason and "vertex" not in res.reason


def test_check_given_blocks_report_malformed_before_failure():
    block, witness, edges = r1s1_block()
    i = block + 1
    res, ref = block_case({i: dict(witness(edges[i]), stray=0),
                           i + 2: witness(edges[i + 1])})
    assert ref == edges[i]
    assert res == NrdFailure(edges[i], "witness assigns 'stray', which is not "
                                       "a vertex of the instance")


def test_hypergraph_dict_round_trip():
    h = Hypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert h.to_dict() == {"vertices": ["a", "b", "c"],
                           "edges": [["a", "b"], ["b", "c"]]}
    assert Hypergraph.from_dict(h.to_dict()) == h


def test_certificate_from_dict_rejects_non_integers():
    h = Hypergraph(("a", "b"), (("a", "b"),))
    assert NrdCertificate.from_dict(h, {"0": {"a": 0, "b": 1}}).witnesses == \
        {("a", "b"): {"a": 0, "b": 1}}
    for bad in (2.7, 1.0, True, "1", None):
        with pytest.raises(InstanceError):
            NrdCertificate.from_dict(h, {"0": {"a": 0, "b": bad}})
    for keys in ((), ("0", "1"), ("1",)):
        with pytest.raises(InstanceError):
            NrdCertificate.from_dict(h, {k: {"a": 0, "b": 1} for k in keys})
