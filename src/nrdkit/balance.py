"""Deciding whether a Boolean predicate is closed under odd alternating sums.

Closure under all odd alternating integer sums (with repetition) of tuples is
equivalent to closure of the integer affine lattice spanned by the tuples,
intersected with the 0/1 cube.  The lattice route decides the property
exactly: `affine_solver` builds the lattice once and `is_balanced_lattice`
queries it at every cube point outside the predicate.  The bounded
enumerator exists as an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd

from .predicates import Predicate, PredicateError


class UnsupportedDomainError(ValueError):
    pass


@dataclass
class BalanceReport:
    balanced: bool
    method: str
    # When imbalanced: odd-length sequence t1, t2, ... from P whose alternating
    # sum t1 - t2 + t3 - ... equals `result`, a 0/1 tuple outside P.
    witness: list | None = None
    result: tuple | None = None
    k_max: int | None = None  # bounded method only

    def to_dict(self):
        d = {"balanced": self.balanced, "method": self.method}
        if self.witness is not None:
            d["witness"] = [list(t) for t in self.witness]
            d["result"] = list(self.result)
        if self.k_max is not None:
            d["k_max"] = self.k_max
        return d


class IntLattice:
    """Integer row lattice kept in echelon form via Euclidean elimination.

    Tracks, for each stored row, its expression as an integer combination of
    the originally inserted generators so that membership queries can return
    explicit coefficients.
    """

    def __init__(self, dim):
        self.dim = dim
        self.rows = []  # (pivot_col, vector, combo over generators)
        self.n_gens = 0

    def add(self, vec):
        vec = list(vec)
        combo = [0] * self.n_gens + [1]
        self.n_gens += 1
        for _, _, c in self.rows:
            c.append(0)
        self._insert(vec, combo)

    def _insert(self, vec, combo):
        for k in range(len(self.rows)):
            col, row, rcombo = self.rows[k]
            lead = next((j for j, v in enumerate(vec) if v != 0), None)
            if lead is None:
                return
            if lead < col:
                # Rows after k have pivots above col > lead: still echelon.
                self.rows.insert(k, (lead, vec, combo))
                return
            if lead == col:
                a, b = row[col], vec[col]
                g = _ext_gcd_combine(a, b)
                x, y, gg = g
                new_row = [x * ra + y * va for ra, va in zip(row, vec)]
                new_combo = [x * ra + y * va for ra, va in zip(rcombo, combo)]
                vec = [(a // gg) * va - (b // gg) * ra for ra, va in zip(row, vec)]
                combo = [(a // gg) * va - (b // gg) * ra for ra, va in zip(rcombo, combo)]
                self.rows[k] = (col, new_row, new_combo)
        lead = next((j for j, v in enumerate(vec) if v != 0), None)
        if lead is not None:
            self.rows.append((lead, vec, combo))

    def member(self, vec):
        """Return combination coefficients over the generators, or None."""
        residual = list(vec)
        coeffs = [0] * self.n_gens
        for col, row, rcombo in self.rows:
            if residual[col] == 0:
                continue
            if residual[col] % row[col] != 0:
                return None
            q = residual[col] // row[col]
            for j in range(self.dim):
                residual[j] -= q * row[j]
            for j in range(self.n_gens):
                coeffs[j] += q * rcombo[j]
        if any(residual):
            return None
        return coeffs


def _ext_gcd_combine(a, b):
    """(x, y, g) with x*a + y*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    assert old_x * a + old_y * b == old_r == gcd(a, b)
    return old_x, old_y, old_r


def _require_boolean(p: Predicate):
    if not p.tuples:
        raise PredicateError("balance is undefined for the empty predicate")
    if p.domain_size != 2:
        raise UnsupportedDomainError("balance is defined for Boolean predicates only")


def affine_solver(p: Predicate):
    """target -> integer coefficients over p.tuples that sum to 1 and give
    target, or None outside p's affine lattice; the lattice of differences
    from p.tuples[0] is built once."""
    base = p.tuples[0]
    lat = IntLattice(p.arity)
    for t in p.tuples[1:]:
        lat.add([a - b for a, b in zip(t, base)])

    def solve(target):
        coeffs = lat.member([a - b for a, b in zip(target, base)])
        if coeffs is None:
            return None
        lam = [1 - sum(coeffs)] + coeffs
        assert sum(lam) == 1
        return lam
    return solve


def expand_alternating(p: Predicate, lam):
    """Turn affine coefficients (sum 1) into an alternating sequence of tuples."""
    pos, neg = [], []
    for t, c in zip(p.tuples, lam):
        if c > 0:
            pos.extend([t] * c)
        elif c < 0:
            neg.extend([t] * (-c))
    assert len(pos) == len(neg) + 1
    seq = []
    for i, t in enumerate(pos):
        seq.append(t)
        if i < len(neg):
            seq.append(neg[i])
    return seq


def alternating_sum(seq):
    r = len(seq[0])
    out = [0] * r
    for i, t in enumerate(seq):
        s = 1 if i % 2 == 0 else -1
        for j in range(r):
            out[j] += s * t[j]
    return tuple(out)


def is_balanced_lattice(p: Predicate) -> BalanceReport:
    """Exact decision: balanced iff affine-lattice hull meets the 0/1 cube
    only inside p."""
    _require_boolean(p)
    in_p = set(p.tuples)
    solve = affine_solver(p)
    for u in product((0, 1), repeat=p.arity):
        if u in in_p:
            continue
        lam = solve(u)
        if lam is not None:
            seq = expand_alternating(p, lam)
            assert alternating_sum(seq) == u
            return BalanceReport(False, "lattice", witness=seq, result=u)
    return BalanceReport(True, "lattice")


def is_balanced_bounded(p: Predicate, k_max: int) -> BalanceReport:
    """Exhaustive check of alternating sums of length 3, 5, ..., 2*k_max + 1.

    Returns the first (shortest) witness found, or "balanced up to k_max".

    A breadth-first search over the partial sums after an odd number of
    terms, sharing no code with the lattice route.  Each step adds one
    difference t_add - t_sub, whose coordinates lie in {-1, 0, 1}, so after
    k steps every coordinate of a state lies in [-k, k+1].  A state is kept
    as the integer sum of v_j << (w*j), with 2**w > 2*k_max + 1: these
    signed digits are recovered uniquely, a step is one integer addition,
    and the state is a 0/1 point exactly when it is non-negative with no
    bit outside the fields' lowest.  A step tries each distinct difference
    once, in the order of its first (t_sub, t_add) pair, so every state
    records the predecessor and pair that the tuple-by-tuple search would.
    """
    _require_boolean(p)
    if k_max < 1:
        raise PredicateError("k_max must be >= 1")
    w = (2 * k_max + 1).bit_length()
    low = sum(1 << (w * j) for j in range(p.arity))  # the 0/1 points' bits

    def code(t):
        return sum(v << (w * j) for j, v in enumerate(t))

    starts = {code(t): t for t in p.tuples}
    steps = {}  # difference -> its first (t_sub, t_add)
    for c_sub, t_sub in starts.items():
        for c_add, t_add in starts.items():
            steps.setdefault(c_add - c_sub, (t_sub, t_add))
    seen = dict.fromkeys(starts)  # state -> (previous state, difference)
    frontier = list(starts)
    for _ in range(k_max):
        nxt = []
        for s in frontier:
            for d in steps:
                s2 = s + d
                if s2 in seen:
                    continue
                seen[s2] = (s, d)
                nxt.append(s2)
                if s2 | low == low and s2 not in starts:
                    result = tuple((s2 >> (w * j)) & 1 for j in range(p.arity))
                    seq = []
                    while seen[s2] is not None:
                        s2, d = seen[s2]
                        seq[:0] = steps[d]
                    seq.insert(0, starts[s2])
                    assert alternating_sum(seq) == result
                    return BalanceReport(False, "bounded", witness=seq,
                                         result=result, k_max=k_max)
        frontier = nxt
    return BalanceReport(True, "bounded", k_max=k_max)
