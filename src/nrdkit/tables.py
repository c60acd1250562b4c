"""Reference reduction tables bundled for re-verification.

Every map here is data, not derivation: the explicit substructure maps and
coordinate bijections that the verification pipeline re-checks from scratch.
Names: J_i = [9] \\ {i} for the arity-8 projections of the permutation-matrix
predicate; P1..P3 | Q1..Q3 are the listed projections of CAT5 | CAT5+.
"""

from __future__ import annotations

from .catalog import (BOOLBCK, BOOLBCK_PLUS, CAT5, CAT5_PLUS, R1S1, R2S2,
                      THREELIN_STAR_R, THREELIN_STAR_S, or_k)
from .predicates import (ConditionalPredicate, IndexFamily, Predicate,
                         permute_conditional, project)
from .substructure import SubstructureCertificate


def _sigma(rows):
    out = {}
    for src, dst in rows:
        out[tuple(int(c) for c in src)] = tuple(int(c) for c in dst)
    return out


def boolbck_projection(i: int) -> ConditionalPredicate:
    """pi_{J_i} of the permutation-matrix pair, J_i = [9] \\ {i}."""
    J = [j for j in range(1, 10) if j != i]
    return ConditionalPredicate(project(BOOLBCK, J), project(BOOLBCK_PLUS, J))


def cat5_projection(J) -> ConditionalPredicate:
    return ConditionalPredicate(project(CAT5, J), project(CAT5_PLUS, J))


P1Q1 = cat5_projection([1, 3, 4])
P2Q2 = cat5_projection([1, 2, 4])
P3Q3 = cat5_projection([1, 2, 3, 4])

# The published P2|Q2 map lists its output coordinates in source order
# (1, 4, 2) rather than ascending (1, 2, 4): its image is exactly the copy of
# P2|Q2 with coordinates 2 and 3 transposed.  P2Q2_PRINTED is that copy, so
# the transcribed table verifies exactly; certificate("P2Q2") composes the
# transposition back in to target the ascending projection.
P2Q2_PRINTED = permute_conditional(P2Q2, (1, 3, 2))

# --- substructure maps ------------------------------------------------

# R2|S2 into pi_{J_1}: output j avoids input coordinate i_j.
_J1_AVOID = (1, 2, 3, 1, 2, 4, 1, 2)
SIGMA_J1 = _sigma([
    ("0000", "00010001"), ("0100", "10100001"),
    ("1000", "01010100"), ("1200", "01100010"),
    ("2100", "10001100"), ("2200", "00001010"),
    ("0001", "10100001"), ("0101", "10100001"),
    ("1001", "10001100"), ("1201", "00001010"),
    ("2101", "10001100"), ("2201", "00001010"),
    ("0010", "01010100"), ("0110", "01100010"),
    ("1010", "01010100"), ("1210", "01100010"),
    ("2110", "00001010"), ("2210", "00001010"),
    ("0012", "10001100"), ("0112", "00001010"),
    ("1012", "10001100"), ("1212", "00001010"),
    ("2112", "01100010"), ("2212", "01100010"),
    ("0021", "01100010"), ("0121", "01100010"),
    ("1021", "00001010"), ("1221", "00001010"),
    ("2121", "00001010"), ("2221", "00001010"),
    ("0022", "00001010"), ("0122", "00001010"),
    ("1022", "00001010"), ("1222", "00001010"),
    ("2122", "01100010"), ("2222", "01100010"),
])

_J2_AVOID = (1, 2, 1, 3, 2, 1, 4, 2)
SIGMA_J2 = _sigma([
    ("0000", "10010001"), ("0100", "00100001"),
    ("1000", "10001010"), ("1200", "00001100"),
    ("2100", "01100010"), ("2200", "01010100"),
    ("0001", "00100001"), ("0101", "00100001"),
    ("1001", "01100010"), ("1201", "01010100"),
    ("2101", "01100010"), ("2201", "01010100"),
    ("0010", "01010100"), ("0110", "01100010"),
    ("1010", "00001100"), ("1210", "00001100"),
    ("2110", "01100010"), ("2210", "01010100"),
    ("0012", "00001100"), ("0112", "10001010"),
    ("1012", "00001100"), ("1212", "00001100"),
    ("2112", "10001010"), ("2212", "00001100"),
    ("0021", "01100010"), ("0121", "01100010"),
    ("1021", "01100010"), ("1221", "01010100"),
    ("2121", "01100010"), ("2221", "01010100"),
    ("0022", "10001010"), ("0122", "10001010"),
    ("1022", "10001010"), ("1222", "00001100"),
    ("2122", "10001010"), ("2222", "00001100"),
])

SIGMA_P1Q1 = _sigma([
    ("000", "000"), ("001", "001"), ("002", "001"),
    ("010", "120"), ("011", "111"), ("012", "111"),
    ("100", "001"), ("101", "001"), ("102", "001"),
    ("120", "111"), ("121", "111"), ("122", "111"),
    ("210", "222"), ("211", "212"), ("212", "212"),
    ("220", "212"), ("221", "212"), ("222", "212"),
])

SIGMA_P2Q2 = _sigma([
    ("000", "000"), ("001", "102"), ("002", "102"),
    ("010", "220"), ("011", "222"), ("012", "222"),
    ("100", "011"), ("101", "111"), ("102", "111"),
    ("120", "111"), ("121", "111"), ("122", "111"),
    ("210", "222"), ("211", "222"), ("212", "222"),
    ("220", "102"), ("221", "102"), ("222", "102"),
])

SIGMA_P3Q3 = _sigma([
    ("0000", "0000"), ("0001", "1220"),
    ("0010", "0101"), ("0012", "1111"),
    ("0021", "2222"), ("0022", "2012"),
    ("0100", "2012"), ("0101", "2222"),
    ("0110", "1111"), ("0112", "1111"),
    ("0121", "2222"), ("0122", "2012"),
    ("1000", "0101"), ("1001", "1111"),
    ("1010", "0101"), ("1012", "1111"),
    ("1021", "2012"), ("1022", "2012"),
    ("1200", "1111"), ("1201", "1111"),
    ("1210", "1111"), ("1212", "1111"),
    ("1221", "2012"), ("1222", "2012"),
    ("2100", "2222"), ("2101", "2222"),
    ("2110", "1220"), ("2112", "1220"),
    ("2121", "2222"), ("2122", "2222"),
    ("2200", "1220"), ("2201", "1220"),
    ("2210", "1220"), ("2212", "1220"),
    ("2221", "2222"), ("2222", "2222"),
])

# OR3 | {0,1}^3 into the punctured ternary linear equation.
SIGMA_3LIN = _sigma([
    ("000", "000"), ("001", "012"), ("010", "102"), ("011", "111"),
    ("100", "210"), ("101", "222"), ("110", "012"), ("111", "021"),
])

# CAT5 | CAT5+ into the permutation-matrix pair (no coordinate locality).
SIGMA_CAT5_BOOLBCK = _sigma([
    ("00000", "100010001"), ("01012", "010100001"),
    ("11111", "001100010"), ("12201", "001010100"),
    ("22222", "010001100"), ("20120", "100001010"),
])


# Family published alongside the P2|Q2 table; kept for the audit, which
# reports that it does not match the table's actual dependencies.
P2Q2_STATED_FAMILY = IndexFamily(3, ((1, 2), (2, 3), (1, 3)))


def _avoid_family(avoid):
    return IndexFamily(4, tuple(tuple(i for i in range(1, 5) if i != a)
                                for a in avoid))


# The bundled reduction certificates, in audit order: name -> a function
# that returns (source, target, family, sigma table).
_CERTIFICATES = {
    "J1": lambda: (R2S2, boolbck_projection(1), _avoid_family(_J1_AVOID),
                   SIGMA_J1),
    "J2": lambda: (R2S2, boolbck_projection(2), _avoid_family(_J2_AVOID),
                   SIGMA_J2),
    "P1Q1": lambda: (R1S1, P1Q1, IndexFamily(3, ((1, 2), (2, 3), (1, 3))),
                     SIGMA_P1Q1),
    # ascending-order target: swap output coordinates 2 and 3 back
    "P2Q2": lambda: (R1S1, P2Q2, IndexFamily(3, ((2, 3), (1, 3), (1, 2))),
                     {q: (t[0], t[2], t[1]) for q, t in SIGMA_P2Q2.items()}),
    # The published family ({1,2},{2,3},{1,3}) does not hold for this
    # table; the machine-derived dependency sets (still all of size 2,
    # which is what the shrinking argument needs) are used instead.
    "P2Q2-PRINTED": lambda: (R1S1, P2Q2_PRINTED,
                             IndexFamily(3, ((2, 3), (1, 2), (1, 3))),
                             SIGMA_P2Q2),
    "P3Q3": lambda: (R2S2, P3Q3, IndexFamily(4, ((2, 3, 4), (1, 3, 4),
                                                 (1, 2, 4), (1, 2, 3))),
                     SIGMA_P3Q3),
    "3LIN*": lambda: (ConditionalPredicate(or_k(3), Predicate.full(2, 3)),
                      ConditionalPredicate(THREELIN_STAR_R, THREELIN_STAR_S),
                      IndexFamily(3, ((1, 2), (1, 3), (2, 3))), SIGMA_3LIN),
    "CAT5-BOOLBCK": lambda: (ConditionalPredicate(CAT5, CAT5_PLUS),
                             ConditionalPredicate(BOOLBCK, BOOLBCK_PLUS),
                             IndexFamily(5, ((1, 2, 3, 4, 5),) * 9),
                             SIGMA_CAT5_BOOLBCK),
}
_ALIASES = {"3LIN": "3LIN*", "CAT5": "CAT5-BOOLBCK"}

CERTIFICATE_NAMES = tuple(_CERTIFICATES)


def certificate(name: str) -> SubstructureCertificate:
    """The bundled reduction certificate called name (or an alias), with a
    sigma dict of its own; KeyError for any other name."""
    key = name.strip().upper().replace(" ", "")
    try:
        build = _CERTIFICATES[_ALIASES.get(key, key)]
    except KeyError:
        raise KeyError(f"unknown certificate {name!r}") from None
    source, target, family, sigma = build()
    return SubstructureCertificate(source, target, family, dict(sigma))


# --- coordinate-bijection rows ---------------------------------------

# sigma_i : J_i -> J_target claims pi_{J_i} equals the target projection up
# to coordinate renaming.  Rows are transcribed exactly as published; the
# i = 6 row is NOT a bijection (8 appears twice, 7 never) and is reported
# as an anomaly by verify_sym_row / repair_sym_row rather than silently fixed.
SYM_ROWS = {
    3: {1: 1, 2: 3, 4: 7, 5: 9, 6: 8, 7: 4, 8: 6, 9: 5},
    4: {1: 1, 2: 4, 3: 7, 5: 5, 6: 8, 7: 3, 8: 6, 9: 9},
    5: {1: 5, 2: 2, 3: 8, 4: 4, 6: 7, 7: 6, 8: 3, 9: 9},
    6: {1: 9, 2: 6, 3: 3, 4: 8, 5: 5, 7: 8, 8: 4, 9: 1},
    7: {1: 1, 2: 7, 3: 4, 4: 3, 5: 9, 6: 6, 8: 8, 9: 5},
    8: {1: 9, 2: 3, 3: 6, 4: 7, 5: 1, 6: 4, 7: 8, 9: 5},
    9: {1: 5, 2: 6, 3: 4, 4: 8, 5: 9, 6: 7, 7: 2, 8: 3},
}

SYM_TARGET = {3: 2, 4: 2, 5: 1, 6: 2, 7: 2, 8: 2, 9: 1}


def apply_sym_row(p: Predicate, i: int, row: dict) -> Predicate:
    """Reindex pi_{J_target} p through the row: coordinate j of the output
    (j running over sorted J_i) reads coordinate row[j] of pi_{J_target} p."""
    J_i = [j for j in range(1, 10) if j != i]
    out = []
    for t in p.tuples:
        by_coord = {c: t[c - 1] for c in range(1, 10)}
        out.append(tuple(by_coord[row[j]] for j in J_i))
    return Predicate(p.domain_size, len(J_i), out)


def verify_sym_row(i: int, target: int = None, row: dict = None):
    """Check one row: bijection onto J_target, and both projected predicates
    carried onto pi_{J_i}.  Returns (ok, problems)."""
    if target is None:
        target = SYM_TARGET[i]
    if row is None:
        row = SYM_ROWS[i]
    J_i = [j for j in range(1, 10) if j != i]
    J_t = [j for j in range(1, 10) if j != target]
    problems = []
    if sorted(row) != J_i:
        problems.append(f"row domain is not J_{i}")
    if sorted(row.values()) != J_t:
        problems.append(f"row values are not a bijection onto J_{target}")
    for p in (BOOLBCK, BOOLBCK_PLUS):
        want = project(p, J_i)
        got = apply_sym_row(p, i, row)
        if want.tuples != got.tuples:
            problems.append(f"row does not carry the {len(p)}-tuple predicate")
    return not problems, problems


def repair_sym_row(i: int):
    """Single-entry repairs that turn a defective row into a verified one."""
    target = SYM_TARGET[i]
    row = SYM_ROWS[i]
    J_t = [j for j in range(1, 10) if j != target]
    fixes = []
    for j in sorted(row):
        for v in J_t:
            if v == row[j]:
                continue
            cand = dict(row)
            cand[j] = v
            ok, _ = verify_sym_row(i, target, cand)
            if ok:
                fixes.append((j, v))
    return fixes
