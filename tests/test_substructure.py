import hashlib
import json
import math
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from nrdkit.catalog import catalog, or_k
from nrdkit.predicates import ConditionalPredicate, IndexFamily, Predicate
from nrdkit.substructure import (DirectSearchTables, SubstructureCertificate,
                                 SubstructureError, dependency_analysis,
                                 direct_search, encode, find_substructure,
                                 search_families, verify_certificate)
from nrdkit.sat import solve
from nrdkit import substructure, tables


THREELIN = catalog("3LIN*")
OR3_COND = ConditionalPredicate(or_k(3), Predicate.full(2, 3))


def supports(deps, family):
    """Does each declared index set contain a minimal determining subset?"""
    return all(any(set(m) <= set(I) for m in mins)
               for mins, I in zip(deps, family.sets))


def direct_certificate(src, tgt, fam):
    """The direct search's images for fam, as a certificate, or None."""
    tables_ = DirectSearchTables(src, tgt)
    images = direct_search(tables_, fam.sets)
    if images is None:
        return None
    return SubstructureCertificate(src, tgt, fam, dict(zip(tables_.q1, images)))


def identity_cert(pq):
    fam = IndexFamily(pq.arity, tuple((j,) for j in range(1, pq.arity + 1)))
    sigma = {q: q for q in pq.ambient.tuples}
    return SubstructureCertificate(pq, pq, fam, sigma)


def test_identity_certificate_verifies():
    cert = identity_cert(THREELIN)
    ok, problems = verify_certificate(cert)
    assert ok and not problems
    deps = dependency_analysis(cert)
    # on the 3LIN ambient each coordinate is determined either by itself or
    # by the other two (the equation pins the third value)
    assert deps[0] == [(1,), (2, 3)]
    assert deps[1] == [(2,), (1, 3)]
    assert deps[2] == [(3,), (1, 2)]
    assert supports(deps, cert.family)


def test_verify_rejects_membership_break():
    cert = identity_cert(THREELIN)
    # send a base tuple to the excluded tuple
    cert.sigma[(0, 1, 2)] = (0, 0, 0)
    ok, problems = verify_certificate(cert)
    assert not ok
    assert any("membership" in p for p in problems)


def test_verify_rejects_dependency_break():
    src = OR3_COND
    tgt = OR3_COND
    fam = IndexFamily(3, ((1,), (1,), (2,)))
    # identity sigma reads all three coordinates, so this family must fail
    sigma = {q: q for q in src.ambient.tuples}
    cert = SubstructureCertificate(src, tgt, fam, sigma)
    ok, problems = verify_certificate(cert)
    assert not ok
    assert any("depends on more than" in p for p in problems)


def test_verify_rejects_partial_sigma():
    cert = identity_cert(THREELIN)
    del cert.sigma[(1, 1, 1)]
    ok, problems = verify_certificate(cert)
    assert not ok


def test_json_round_trip():
    cert = identity_cert(THREELIN)
    again = SubstructureCertificate.from_dict(
        json.loads(json.dumps(cert.to_dict())))
    assert again.sigma == cert.sigma
    assert again.family.sets == cert.family.sets
    assert verify_certificate(again)[0]


def test_encode_variable_count():
    # x vars: |Q1| * r2 * d2 = 8*3*3; y vars: |Q1| * |Q2| = 8*9
    fam = IndexFamily(3, ((1, 2), (1, 3), (2, 3)))
    f, x, y = encode(OR3_COND.__class__(or_k(3), Predicate.full(2, 3)),
                     THREELIN, fam)
    assert len(x) == 8 * 3 * 3
    assert len(y) == 8 * 9
    assert f.num_vars == 144


def test_encode_solve_decode_round_trip():
    fam = IndexFamily(3, ((1, 2), (1, 3), (2, 3)))
    cert = find_substructure(OR3_COND, THREELIN, fam)
    assert cert is not None
    ok, problems = verify_certificate(cert)
    assert ok, problems
    # declared family is adequate: each set contains a minimal determining set
    assert supports(dependency_analysis(cert), fam)


def test_direct_search_agrees_with_sat():
    src, tgt = OR3_COND, THREELIN
    for sets in [((1, 2), (1, 3), (2, 3)),
                 ((1,), (2,), (3,)),
                 ((1, 2, 3),) * 3,
                 ((1,), (1,), (1,))]:
        fam = IndexFamily(3, sets)
        d = direct_certificate(src, tgt, fam)
        s = find_substructure(src, tgt, fam)
        assert (d is None) == (s is None), sets
        if d is not None:
            assert verify_certificate(d)[0]


def test_no_map_for_too_small_family():
    # single-coordinate reads cannot separate OR3's 7+1 tuples into 3LIN*
    fam = IndexFamily(3, ((1,), (2,), (3,)))
    assert find_substructure(OR3_COND, THREELIN, fam) is None
    tables_ = DirectSearchTables(OR3_COND, THREELIN)
    assert direct_search(tables_, fam.sets) is None


def test_empty_index_set_map():
    # target coordinate 1 is constant; its index set may be empty
    src = ConditionalPredicate(or_k(2), Predicate.full(2, 2))
    tgt_base = Predicate(2, 4, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 1, 1, 0),
                                (1, 1, 1, 1)])
    tgt = ConditionalPredicate(tgt_base, Predicate.full(2, 4))
    fam = IndexFamily(2, ((), (1,), (1,), (2,)))
    sigma = {(0, 0): (0, 1, 1, 1), (0, 1): (0, 1, 1, 0),
             (1, 0): (0, 0, 0, 1), (1, 1): (0, 0, 0, 0)}
    cert = SubstructureCertificate(src, tgt, fam, sigma)
    ok, problems = verify_certificate(cert)
    assert ok, problems
    assert dependency_analysis(cert)[0] == [()]  # constant output coordinate
    # and the solver finds a map for this family on its own
    assert find_substructure(src, tgt, fam) is not None


def test_search_families_finds_pairwise_family():
    res = search_families(OR3_COND, THREELIN, max_results=1)
    assert res.certificates
    cert = res.certificates[0]
    assert {len(I) for I in cert.family.sets} == {2}
    assert verify_certificate(cert)[0]


def test_search_families_sizes_filter():
    res = search_families(OR3_COND, THREELIN, sizes=(1, 1, 1), max_results=1)
    assert not res.certificates
    assert res.exhausted


def test_search_families_budgets():
    res = search_families(OR3_COND, THREELIN, max_families=2, max_results=5)
    assert res.families_tried <= 2
    assert not res.exhausted


def test_shape_mismatch_rejected():
    sigma = {q: (0, 1, 2) for q in OR3_COND.ambient.tuples}
    # too few sets, too many sets, and families over four source coordinates
    for fam in [IndexFamily(3, ((1,), (2,))),
                IndexFamily(3, ((1,), (2,), (3,), (1, 2))),
                IndexFamily(4, ((1,), (2,), (3,))),
                IndexFamily(4, ((1,), (2,), (4,)))]:
        with pytest.raises(SubstructureError, match="family shape does not fit"):
            encode(OR3_COND, THREELIN, fam)
        # a tuple of sets has no source arity of its own: only the family
        # over four source coordinates whose indices all fit OR3 passes
        if fam.sets != ((1,), (2,), (3,)):
            with pytest.raises(SubstructureError, match="family shape does not fit"):
                direct_search(DirectSearchTables(OR3_COND, THREELIN), fam.sets)
        # a certificate with a misfit family is reported, not raised on
        ok, problems = verify_certificate(
            SubstructureCertificate(OR3_COND, THREELIN, fam, sigma))
        assert not ok
        assert problems and all("index family" in p for p in problems), fam


@pytest.mark.parametrize("index", [0, 4, 1.0, True, "1"])
def test_direct_search_rejects_an_index_that_is_not_a_coordinate(index):
    with pytest.raises(SubstructureError, match="family shape does not fit"):
        direct_search(DirectSearchTables(OR3_COND, THREELIN),
                      ((1,), (2, index), (3,)))


@pytest.mark.parametrize("resize", [lambda t: t[:2], lambda t: t + (0,)])
def test_verify_certificate_reports_images_of_the_wrong_length(resize):
    cert = tables.certificate("3LIN*")
    q = sorted(cert.sigma)[1]
    sigma = dict(cert.sigma)
    sigma[q] = resize(sigma[q])
    ok, problems = verify_certificate(SubstructureCertificate(
        cert.source, cert.target, cert.family, sigma))
    assert not ok
    assert problems == [f"sigma({q}) = {sigma[q]} outside the target ambient"]


def test_partition_numbers_classes_in_order_of_first_appearance():
    t = DirectSearchTables(OR3_COND, THREELIN)
    # q1 runs 000, 001, 010, ... ; projection to coordinate 3 then to (2, 3)
    cls, peers = t.partition((3,))
    assert cls == [q[2] for q in t.q1]
    assert peers == [[0, 2, 4, 6], [1, 3, 5, 7]]
    assert t.partition((2, 3)) == ([0, 1, 2, 3] * 2, [[0, 4], [1, 5], [2, 6], [3, 7]])
    assert t.partition((3,)) is t.partition((3,))
    assert t.partition(()) == ([0] * len(t.q1), [list(range(len(t.q1)))])


@pytest.mark.parametrize("n", [0, -1])
def test_search_families_rejects_max_results_below_one(n):
    with pytest.raises(SubstructureError, match="max_results"):
        search_families(OR3_COND, THREELIN, max_results=n)


def _routes_agree(src, tgt, fam):
    d = direct_certificate(src, tgt, fam)
    s = find_substructure(src, tgt, fam)
    assert (d is None) == (s is None), fam.sets
    for cert in (d, s):
        if cert is not None:
            assert verify_certificate(cert) == (True, []), fam.sets
    return d is not None


def test_direct_search_agrees_with_sat_on_every_or3_family():
    subsets = [I for k in range(4) for I in combinations((1, 2, 3), k)]
    families = [IndexFamily(3, sets) for sets in product(subsets, repeat=3)]
    assert len(families) == 512
    hits = sum(_routes_agree(OR3_COND, THREELIN, fam) for fam in families)
    # as counted by the direct search before its tables were shared
    assert hits == 64


@st.composite
def small_pairs(draw):
    def pair(d, r):
        cube = list(product(range(d), repeat=r))
        ambient = draw(st.lists(st.sampled_from(cube), min_size=1,
                                max_size=8, unique=True))
        base = draw(st.lists(st.sampled_from(ambient), unique=True,
                             max_size=len(ambient) - 1))
        return ConditionalPredicate(Predicate(d, r, base), Predicate(d, r, ambient))

    src = pair(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    tgt = pair(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    subsets = [I for k in range(src.arity + 1)
               for I in combinations(range(1, src.arity + 1), k)]
    sets = draw(st.lists(st.sampled_from(subsets), min_size=tgt.arity,
                         max_size=tgt.arity))
    return src, tgt, IndexFamily(src.arity, tuple(sets))


@settings(max_examples=300, deadline=None)
@given(small_pairs())
def test_direct_search_agrees_with_sat_on_random_pairs(case):
    src, tgt, fam = case
    _routes_agree(src, tgt, fam)


def _sigma_digest(sigmas):
    sigmas = sorted(json.dumps(sorted([list(k), list(v)] for k, v in s.items()))
                    for s in sigmas)
    return hashlib.sha256("\n".join(sigmas).encode()).hexdigest()


# direct-search results, recorded before the direct search's tables were
# shared across families; the families are those search_families reports,
# and the digest is of the direct search's sigma on each of them
PINNED_SEARCHES = [
    ("J1", (3,) * 8, 1, 6258, False,
     [[[1, 2, 3], [1, 2, 4], [1, 3, 4], [1, 2, 3], [1, 2, 4], [2, 3, 4],
       [1, 2, 3], [1, 2, 4]]],
     "e7488fd79121caedc0f417a0658a7a4f6ca3beeb52c574c71a7cbbf5e5a5773c"),
    ("J2", (3,) * 8, 1, 4686, False,
     [[[1, 2, 3], [1, 2, 4], [1, 2, 3], [1, 3, 4], [1, 2, 4], [1, 2, 3],
       [2, 3, 4], [1, 2, 4]]],
     "3c654f249fddac999fa1924fa18189db46f323ba25346505a049bfae74c9cf3f"),
    ("3LIN*", (2, 2, 2), 10, 27, True,
     [[[1, 2], [1, 3], [2, 3]], [[1, 2], [2, 3], [1, 3]],
      [[1, 3], [1, 2], [2, 3]], [[1, 3], [2, 3], [1, 2]],
      [[2, 3], [1, 2], [1, 3]], [[2, 3], [1, 3], [1, 2]]],
     "09534cb53159fd8f7c79bfdd9647823b2726e342e559c9183e793fdd2e612116"),
]


@pytest.mark.parametrize("name, sizes, max_results, tried, exhausted, families, "
                         "digest", PINNED_SEARCHES)
def test_direct_search_results_are_pinned(name, sizes, max_results, tried,
                                          exhausted, families, digest):
    cert = tables.certificate(name)
    res = search_families(cert.source, cert.target, sizes=sizes,
                          max_results=max_results)
    assert res.families_tried == tried
    assert res.exhausted == exhausted
    assert [c.family.to_list() for c in res.certificates] == families
    shared = DirectSearchTables(cert.source, cert.target)
    images = [direct_search(shared, c.family.sets) for c in res.certificates]
    assert _sigma_digest(dict(zip(shared.q1, im)) for im in images) == digest


def _reference_search(src, tgt, sizes, max_results, max_families, hits):
    """search_families without pruning: a plain loop over the same family
    order, each family decided by the direct search; `hits` memoises the
    direct search per family across calls."""
    r1, r2 = src.arity, tgt.arity
    subsets = [I for k in range(r1 + 1) for I in combinations(range(1, r1 + 1), k)]

    def of_size(s):
        return [I for I in subsets if len(I) == s]

    if sizes is not None:
        order = product(*map(of_size, sizes))
    else:
        mixed = (f for f in product(subsets, repeat=r2)
                 if len({len(I) for I in f}) > 1)
        order = chain(*(product(of_size(s), repeat=r2)
                        for s in range(r1 - 1, -1, -1)), mixed)
    shared = DirectSearchTables(src, tgt)
    found, tried = [], 0
    for sets in order:
        if max_families is not None and tried >= max_families:
            return found, tried, False
        tried += 1
        if sets not in hits:
            hits[sets] = direct_search(shared, sets) is not None
        if hits[sets]:
            found.append([list(I) for I in sets])
            if len(found) >= max_results:
                return found, tried, False
    return found, tried, True


# every bundled pair, in the default order (uniform strata, then mixed), in
# the stratum of its own family and in the singleton stratum; a walk is cut
# at its last family or run to its end only where it has at most 4096
DIFFERENTIAL = [(name, sizes) for name in tables.CERTIFICATE_NAMES
                for sizes in (None, "family", "ones")]


@pytest.mark.parametrize("name, sizes", DIFFERENTIAL)
def test_pruned_walk_matches_the_plain_loop(name, sizes):
    cert = tables.certificate(name)
    src, tgt = cert.source, cert.target
    r1, r2 = src.arity, tgt.arity
    sizes = {None: None, "family": tuple(len(I) for I in cert.family.sets),
             "ones": (1,) * r2}[sizes]
    # by default every family but the one of full sets is walked
    total = (2 ** r1) ** r2 - 1 if sizes is None else \
        math.prod(math.comb(r1, s) for s in sizes)
    hits = {}
    for max_results in (1, 3, 1000):
        for max_families in (1, 2, 5, 17, 40, 100, 300, total, None):
            if max_families in (total, None) and total > 4096:
                continue
            res = search_families(src, tgt, sizes=sizes, max_results=max_results,
                                  max_families=max_families)
            want = _reference_search(src, tgt, sizes, max_results,
                                     max_families, hits)
            got = ([c.family.to_list() for c in res.certificates],
                   res.families_tried, res.exhausted)
            assert got == want, (max_results, max_families)


def test_relaxations_decide_the_or3_singleton_stratum(monkeypatch):
    searched = []

    def counted(shared, sets):
        searched.append(tuple(sets))
        return direct_search(shared, sets)
    monkeypatch.setattr(substructure, "direct_search", counted)
    res = search_families(OR3_COND, THREELIN, sizes=(1, 1, 1), max_results=10)
    assert (res.certificates, res.families_tried, res.exhausted) == ([], 27, True)
    # only relaxations are searched: one full set and two singletons each
    assert len(searched) == 9
    assert all(sum(map(len, sets)) == 5 for sets in searched)


# --- bundled construction tables --------------------------------------


@pytest.mark.parametrize("name", tables.CERTIFICATE_NAMES)
def test_bundled_certificates_verify(name):
    cert = tables.certificate(name)
    ok, problems = verify_certificate(cert)
    assert ok, (name, problems)
    assert supports(dependency_analysis(cert), cert.family), name


def test_certificate_names_aliases_and_fresh_sigma():
    # the audit walks CERTIFICATE_NAMES: every certificate, in audit order
    assert tables.CERTIFICATE_NAMES == (
        "J1", "J2", "P1Q1", "P2Q2", "P2Q2-PRINTED", "P3Q3", "3LIN*",
        "CAT5-BOOLBCK")
    for name in tables.CERTIFICATE_NAMES:
        assert isinstance(tables.certificate(name), SubstructureCertificate)
    for alias, name in [("3LIN", "3LIN*"), ("cat5", "CAT5-BOOLBCK"),
                        (" p2q2-printed ", "P2Q2-PRINTED"), ("J 1", "J1")]:
        assert tables.certificate(alias) == tables.certificate(name)
    a, b = tables.certificate("J1"), tables.certificate("J1")
    assert a.sigma == b.sigma and a.sigma is not b.sigma
    a.sigma.clear()
    assert tables.certificate("J1").sigma == b.sigma
    for bad in ["J3", "3LIN**", "CAT5+"]:
        with pytest.raises(KeyError, match="unknown certificate"):
            tables.certificate(bad)


def test_p2q2_published_family_fails():
    # the family stated alongside the printed table does not satisfy the
    # dependency condition; the bundled certificate uses the corrected one
    cert = tables.certificate("P2Q2-PRINTED")
    bad = SubstructureCertificate(cert.source, cert.target,
                                  tables.P2Q2_STATED_FAMILY, cert.sigma)
    ok, problems = verify_certificate(bad)
    assert not ok
    assert any("depends on more than" in p for p in problems)


def test_sym_rows():
    for i in tables.SYM_ROWS:
        ok, _ = tables.verify_sym_row(i)
        assert ok == (i != 6)  # row 6 is a known defect (not a bijection)
    fixes = tables.repair_sym_row(6)
    assert fixes == [(7, 7)]  # unique single-entry repair
