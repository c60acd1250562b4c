import hashlib
import json
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from nrdkit.balance import (BalanceReport, IntLattice,
                            UnsupportedDomainError, affine_solver,
                            alternating_sum, expand_alternating,
                            is_balanced_bounded, is_balanced_lattice)
from nrdkit.cancellation import catalan_search
from nrdkit.catalog import EQ, ONE_IN_THREE, catalog, catalog_names, or_k
from nrdkit.predicates import ConditionalPredicate, Predicate


def boolean_predicates(max_r=4):
    @st.composite
    def build(draw):
        r = draw(st.integers(1, max_r))
        n = draw(st.integers(1, 2 ** r))
        tuples = draw(st.lists(st.tuples(*[st.integers(0, 1)] * r),
                               min_size=n, max_size=n))
        return Predicate(2, r, tuples)
    return build()


def test_int_lattice_membership():
    lat = IntLattice(3)
    lat.add([2, 0, 0])
    lat.add([0, 3, 0])
    assert lat.member([4, 3, 0]) == [2, 1]
    assert lat.member([1, 0, 0]) is None
    assert lat.member([0, 0, 1]) is None


def test_eq_balanced():
    rep = is_balanced_lattice(EQ)
    assert rep.balanced
    assert is_balanced_bounded(EQ, 5).balanced


def test_one_in_three_balanced():
    assert is_balanced_lattice(ONE_IN_THREE).balanced


def test_or2_imbalanced_with_witness():
    rep = is_balanced_lattice(or_k(2))
    assert not rep.balanced
    assert len(rep.witness) % 2 == 1
    assert all(t in or_k(2) for t in rep.witness)
    assert alternating_sum(rep.witness) == rep.result
    assert rep.result not in or_k(2)
    assert all(v in (0, 1) for v in rep.result)


def test_bounded_agrees_on_or3():
    rep = is_balanced_bounded(or_k(3), 5)
    assert not rep.balanced
    assert alternating_sum(rep.witness) == rep.result
    assert rep.result not in or_k(3)


def test_non_boolean_rejected():
    with pytest.raises(UnsupportedDomainError):
        is_balanced_lattice(Predicate(3, 1, [(2,)]))


def test_affine_coefficients_round_trip():
    p = or_k(2)
    target = (1, 1)
    coeffs = affine_solver(p)(target)
    assert coeffs is not None
    assert sum(coeffs) == 1
    total = [0, 0]
    for c, t in zip(coeffs, p.tuples):
        total[0] += c * t[0]
        total[1] += c * t[1]
    assert tuple(total) == target


def test_expand_alternating_matches_coefficients():
    p = or_k(2)
    coeffs = affine_solver(p)((1, 1))
    seq = expand_alternating(p, coeffs)
    assert len(seq) % 2 == 1
    assert alternating_sum(seq) == (1, 1)


@settings(max_examples=60, deadline=None)
@given(boolean_predicates(max_r=3))
def test_lattice_vs_bounded(p):
    a = is_balanced_lattice(p)
    b = is_balanced_bounded(p, 5)
    if not b.balanced:
        # bounded search found a violation -> the lattice test must agree
        assert not a.balanced
    if a.balanced:
        assert b.balanced


@settings(max_examples=40, deadline=None)
@given(boolean_predicates(max_r=3))
def test_imbalance_witness_is_valid(p):
    rep = is_balanced_lattice(p)
    if not rep.balanced:
        assert len(rep.witness) % 2 == 1
        assert all(t in p for t in rep.witness)
        res = alternating_sum(rep.witness)
        assert res == rep.result
        assert all(v in (0, 1) for v in res)
        assert res not in p


def test_full_cube_balanced():
    cube = Predicate(2, 3, list(product((0, 1), repeat=3)))
    assert is_balanced_lattice(cube).balanced


def test_balance_outputs_are_pinned():
    """Lattice reports, affine coefficients at every cube point and Catalan
    violations (arity <= 4) of 100 seeded random Boolean predicates of arity
    2-6, pinned by digest: the witness sequences, not just the verdicts."""
    rng = random.Random(14)
    records = []
    for k in range(100):
        r = 2 + k % 5
        cube = list(product((0, 1), repeat=r))
        p = Predicate(2, r, rng.sample(cube, rng.randint(1, len(cube))))
        solve = affine_solver(p)
        records.append({
            "lattice": is_balanced_lattice(p).to_dict(),
            "affine": [solve(u) for u in cube],
            "catalan": [v.to_dict() for v in catalan_search(p, 3)]
            if r <= 4 else None})
    text = json.dumps(records, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "99f17b9d26c798d501d5d4ff1ff172b50f6faf1c1c453f94cfba60fe010e980d")


def balanced_bounded_by_tuples(p, k_max):
    """The reference search: the same breadth-first search with each state
    a tuple, trying every (t_sub, t_add) pair in order."""
    in_p = set(p.tuples)
    seen = {t: None for t in p.tuples}  # state -> (prev, t_sub, t_add)
    frontier = list(p.tuples)
    for _ in range(k_max):
        nxt = []
        for s in frontier:
            for t_sub in p.tuples:
                for t_add in p.tuples:
                    s2 = tuple(a - b + c for a, b, c in zip(s, t_sub, t_add))
                    if s2 in seen:
                        continue
                    seen[s2] = (s, t_sub, t_add)
                    nxt.append(s2)
                    if all(v in (0, 1) for v in s2) and s2 not in in_p:
                        seq, state = [], s2
                        while seen[state] is not None:
                            state, t_sub, t_add = seen[state]
                            seq[:0] = [t_sub, t_add]
                        return BalanceReport(False, "bounded", [state] + seq,
                                             s2, k_max)
        frontier = nxt
    return BalanceReport(True, "bounded", k_max=k_max)


def _boolean_catalog_and_seeded_predicates():
    """The Boolean predicates of the catalog (pairs by their ambient), then
    the 100 seeded predicates of test_balance_outputs_are_pinned."""
    found = set()
    for name in catalog_names():
        p = catalog(name)
        if isinstance(p, ConditionalPredicate):
            p = p.ambient
        if p.domain_size == 2 and p not in found:
            found.add(p)
            yield p
    rng = random.Random(14)
    for k in range(100):
        r = 2 + k % 5
        cube = list(product((0, 1), repeat=r))
        yield Predicate(2, r, rng.sample(cube, rng.randint(1, len(cube))))


def test_bounded_matches_the_reference():
    for p in _boolean_catalog_and_seeded_predicates():
        for k in (1, 2, 3):
            assert is_balanced_bounded(p, k) == balanced_bounded_by_tuples(p, k)
