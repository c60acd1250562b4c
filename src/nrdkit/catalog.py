"""Named predicate fixtures used throughout the library and its tests."""

from __future__ import annotations

from itertools import product

from .predicates import ConditionalPredicate, Predicate, box_product, parse_tuple


class CatalogError(KeyError):
    pass


def _pred(d, arity, specs):
    return Predicate(d, arity, [parse_tuple(s) for s in specs])


def or_k(k: int) -> Predicate:
    """k-SAT clause: every Boolean k-tuple except all-zeros."""
    return Predicate(2, k, (t for t in product((0, 1), repeat=k) if any(t)))


EQ = _pred(2, 2, ["00", "11"])
ONE_IN_THREE = _pred(2, 3, ["001", "010", "100"])

C6 = _pred(3, 2, ["00", "01", "10", "12", "21", "22"])
C6_STAR = _pred(3, 2, ["01", "10", "12", "21", "22"])

# 3x3 permutation matrices in row-major order; the "+" variant includes the
# identity matrix.
BOOLBCK_PLUS = _pred(2, 9, [
    "100010001",  # identity
    "010100001",
    "001010100",
    "100001010",
    "001100010",
    "010001100",
])
BOOLBCK = _pred(2, 9, ["010100001", "001010100", "100001010", "001100010", "010001100"])

CAT5 = _pred(3, 5, ["01012", "11111", "12201", "22222", "20120"])
CAT5_PLUS = _pred(3, 5, ["01012", "11111", "12201", "22222", "20120", "00000"])

# Punctured ternary linear equation x+y+z = 0 over F_3.
THREELIN_STAR_R = _pred(3, 3, ["012", "021", "102", "111", "120", "201", "210", "222"])
THREELIN_STAR_S = _pred(3, 3, ["012", "021", "102", "111", "120", "201", "210", "222", "000"])

C6_COND = ConditionalPredicate(C6_STAR, C6)
ONE_TWO_COND = ConditionalPredicate(_pred(3, 1, ["1", "2"]), _pred(3, 1, ["0", "1", "2"]))

R1S1 = box_product(C6_COND, ONE_TWO_COND)
R2S2 = box_product(C6_COND, C6_COND)

_FIXTURES = {
    "EQ": EQ,
    "1IN3": ONE_IN_THREE,
    "1-IN-3-SAT": ONE_IN_THREE,
    "C6": C6,
    "C6*": C6_STAR,
    "C6STAR": C6_STAR,
    "C6*|C6": C6_COND,
    "BOOLBCK": BOOLBCK,
    "BOOLBCK+": BOOLBCK_PLUS,
    "CAT5": CAT5,
    "CAT5+": CAT5_PLUS,
    "3LIN*R": THREELIN_STAR_R,
    "3LIN*S": THREELIN_STAR_S,
    "3LIN*": ConditionalPredicate(THREELIN_STAR_R, THREELIN_STAR_S),
    "R1S1": R1S1,
    "R1|S1": R1S1,
    "R2S2": R2S2,
    "R2|S2": R2S2,
}


def catalog(name: str):
    """Look up a fixture by name; OR2, OR3, ... are generated on demand."""
    key = name.strip().upper().replace(" ", "")
    if key.startswith("OR") and key[2:].isdigit():
        return or_k(int(key[2:]))
    try:
        return _FIXTURES[key]
    except KeyError:
        raise CatalogError(f"unknown catalog entry {name!r}") from None


def catalog_names():
    return sorted(set(_FIXTURES) | {"OR2", "OR3", "OR4"})
