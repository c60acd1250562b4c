import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from nrdkit.cancellation import (CatalanViolation, cancel,
                                 cancel_random_order, catalan_matrix_check,
                                 catalan_search)
from nrdkit.catalog import BOOLBCK_PLUS, CAT5_PLUS, catalog, catalog_names
from nrdkit.predicates import ConditionalPredicate, PredicateError


def test_cancel_basic():
    assert cancel("abba") == ()
    assert cancel("abab") == ("a", "b", "a", "b")
    assert cancel([1, 1, 2, 3, 3, 2]) == ()
    assert cancel([0, 1, 1, 2]) == (0, 2)
    assert cancel("") == ()


@settings(max_examples=200)
@given(st.lists(st.integers(0, 2), max_size=14), st.integers(0, 10 ** 6))
def test_cancel_confluent(word, seed):
    # stack reduction agrees with random-order pair deletion
    rng = random.Random(seed)
    assert cancel(word) == cancel_random_order(word, rng)


@given(st.lists(st.integers(0, 2), max_size=12))
def test_cancel_idempotent_and_parity(word):
    red = cancel(word)
    assert cancel(red) == red
    assert len(red) % 2 == len(word) % 2
    # no adjacent equal symbols remain
    assert all(red[i] != red[i + 1] for i in range(len(red) - 1))


def test_matrix_check_identity():
    t = CAT5_PLUS.tuples[0]
    residual, member = catalan_matrix_check(CAT5_PLUS, [t, t, t])
    assert residual == t and member


def test_matrix_check_validation():
    t = CAT5_PLUS.tuples[0]
    with pytest.raises(PredicateError):
        catalan_matrix_check(CAT5_PLUS, [t, t])  # even length
    with pytest.raises(PredicateError):
        catalan_matrix_check(CAT5_PLUS, [t, t, (9,) * 5])


def test_cat5_plus_closed_at_length_3():
    assert catalan_search(CAT5_PLUS, 3) == []


def test_boolbck_plus_closed_at_length_3():
    assert catalan_search(BOOLBCK_PLUS, 3) == []


def test_search_reports_violations():
    # {01, 10} is not closed: rows of (01, 10, 01) reduce to 01? no -- build a
    # concrete predicate where an alternating triple leaves the set.
    from nrdkit.predicates import Predicate
    p = Predicate(2, 2, [(0, 1), (1, 0), (1, 1)])
    # columns (0,1),(1,1),(1,0): rows cancel to 0,0 -> outside p
    residual, member = catalan_matrix_check(p, [(0, 1), (1, 1), (1, 0)])
    assert residual == (0, 0) and not member
    found = catalan_search(p, 3)
    assert any(v.residual == (0, 0) for v in found)


@pytest.mark.parametrize("max_len", [1, -1, 0, 2, 4])
def test_search_rejects_a_max_len_that_searches_nothing(max_len):
    with pytest.raises(PredicateError, match="max_len"):
        catalan_search(CAT5_PLUS, max_len)


def catalan_search_by_product(p_plus, max_len):
    """The reference search: catalan_matrix_check on every column sequence,
    in itertools.product order."""
    violations = []
    for length in range(3, max_len + 1, 2):
        for cols in product(p_plus.tuples, repeat=length):
            residual, member = catalan_matrix_check(p_plus, cols)
            if residual is not None and not member:
                violations.append(CatalanViolation(list(cols), residual))
    return violations


def _catalog_ambients():
    """name -> predicate, one name per distinct predicate (a pair gives its
    ambient, which catalan-search reads)."""
    names = {}
    for name in catalog_names():
        p = catalog(name)
        if isinstance(p, ConditionalPredicate):
            p = p.ambient
        names.setdefault(p, name)
    return {name: p for p, name in names.items()}


AMBIENTS = _catalog_ambients()


@pytest.mark.parametrize("p", AMBIENTS.values(), ids=AMBIENTS.keys())
def test_search_matches_the_reference_on_the_catalog(p):
    # every predicate at length 3, and those with at most 8 tuples at 5
    for max_len in (3, 5) if len(p.tuples) <= 8 else (3,):
        assert catalan_search(p, max_len) == catalan_search_by_product(p, max_len)
