import json

import pytest
from hypothesis import given, strategies as st

from nrdkit.predicates import (MAX_DOMAIN, ConditionalPredicate, IndexFamily,
                               Predicate, PredicateError, box_product,
                               parse_tuple,
                               permute, permute_conditional, project,
                               project_conditional)


def small_predicates(max_d=3, max_r=4):
    @st.composite
    def build(draw):
        d = draw(st.integers(2, max_d))
        r = draw(st.integers(1, max_r))
        n = draw(st.integers(1, min(8, d ** r)))
        tuples = draw(st.lists(
            st.tuples(*[st.integers(0, d - 1)] * r),
            min_size=n, max_size=n))
        return Predicate(d, r, tuples)
    return build()


def test_canonical_form():
    p = Predicate(2, 2, [(1, 0), (0, 1), (1, 0)])
    assert p.tuples == ((0, 1), (1, 0))
    assert len(p) == 2
    assert (1, 0) in p and (1, 1) not in p


def test_validation():
    with pytest.raises(PredicateError):
        Predicate(2, 2, [(0, 2)])
    with pytest.raises(PredicateError):
        Predicate(2, 2, [(0, 0, 0)])
    with pytest.raises(PredicateError):
        ConditionalPredicate(Predicate(2, 1, [(0,), (1,)]),
                             Predicate(2, 1, [(0,), (1,)]))  # not strict


@pytest.mark.parametrize("domain, arity, tuples, err", [
    (1.5, 2, [], "domain size and arity must be integers"),
    (True, 2, [], "domain size and arity must be integers"),
    (2, 2.0, [], "domain size and arity must be integers"),
    (MAX_DOMAIN + 1, 1, [], f"domain size must be at most {MAX_DOMAIN}"),
    (2, 2, [(0, True)], r"value True outside domain \[0, 2\)"),
    (2, 2, [(0, 1.0)], r"value 1.0 outside domain \[0, 2\)")],
    ids=["domain-float", "domain-bool", "arity-float", "domain-too-large",
         "value-bool", "value-float"])
def test_non_int_or_oversized_fields_are_rejected(domain, arity, tuples, err):
    with pytest.raises(PredicateError, match=err):
        Predicate(domain, arity, tuples)


def test_largest_domain_is_accepted():
    p = Predicate(MAX_DOMAIN, 1, [(MAX_DOMAIN - 1,)])
    assert p.tuples == ((MAX_DOMAIN - 1,),)


def test_parse_tuple():
    assert parse_tuple("0120") == (0, 1, 2, 0)
    assert parse_tuple([1, 2]) == (1, 2)


def test_json_round_trip():
    p = Predicate(3, 2, [(0, 1), (2, 2)])
    round_trip = lambda x: json.loads(json.dumps(x.to_dict()))
    assert Predicate.from_dict(round_trip(p)) == p
    pq = ConditionalPredicate(p, Predicate(3, 2, [(0, 1), (2, 2), (1, 1)]))
    assert ConditionalPredicate.from_dict(round_trip(pq)) == pq


def test_project_basic():
    p = Predicate(3, 3, [(0, 1, 2), (1, 1, 0)])
    assert project(p, [1, 3]).tuples == ((0, 2), (1, 0))
    assert project(p, [2]).tuples == ((1,),)
    with pytest.raises(PredicateError):
        project(p, [0, 1])
    with pytest.raises(PredicateError):
        project(p, [])


def test_permute_basic():
    p = Predicate(2, 3, [(0, 1, 1)])
    # output position k reads input sigma(k)
    assert permute(p, [2, 3, 1]).tuples == ((1, 1, 0),)
    with pytest.raises(PredicateError):
        permute(p, [1, 1, 2])


@given(small_predicates())
def test_permute_round_trip(p):
    r = p.arity
    sigma = list(range(r, 0, -1))
    inverse = [sigma.index(k) + 1 for k in range(1, r + 1)]
    assert permute(permute(p, sigma), inverse) == p


@given(small_predicates(max_r=4), st.data())
def test_projection_composes(p, data):
    J = data.draw(st.lists(st.integers(1, p.arity), min_size=1, unique=True))
    J = sorted(J)
    K = data.draw(st.lists(st.integers(1, len(J)), min_size=1, unique=True))
    # projecting twice equals projecting once by the composed index set
    composed = [J[k - 1] for k in sorted(K)]
    assert project(project(p, J), K) == project(p, composed)


def test_box_product_counts():
    a = ConditionalPredicate(Predicate(2, 1, [(1,)]), Predicate(2, 1, [(0,), (1,)]))
    b = a
    prod = box_product(a, b)
    assert prod.ambient.tuples == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert prod.base.tuples == ((0, 1), (1, 0), (1, 1))
    assert prod.outside() == ((0, 0),)


def test_box_product_excluded_is_product_of_excluded():
    # Q1xQ2 minus base = (Q1\P1) x (Q2\P2)
    p = Predicate(3, 1, [(1,), (2,)])
    q = Predicate(3, 1, [(0,), (1,), (2,)])
    pq = ConditionalPredicate(p, q)
    prod = box_product(pq, pq)
    assert prod.outside() == ((0, 0),)


def test_index_family():
    fam = IndexFamily(4, ((3, 1), (), (2, 2)))
    assert fam.sets == ((1, 3), (), (2,))
    assert len(fam) == 3
    with pytest.raises(PredicateError):
        IndexFamily(2, ((3,),))


def test_conditional_projection_and_permutation():
    base = Predicate(2, 2, [(0, 1)])
    amb = Predicate(2, 2, [(0, 0), (0, 1), (1, 1)])
    pq = ConditionalPredicate(base, amb)
    proj = project_conditional(pq, [2])
    assert proj.base.tuples == ((1,),)
    assert proj.ambient.tuples == ((0,), (1,))
    perm = permute_conditional(pq, [2, 1])
    assert perm.base.tuples == ((1, 0),)
