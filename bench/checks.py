"""Independent checks of the program's outputs.

Nothing here calls into nrdkit: predicates, instances and certificates are
read as plain data (tuples, dicts, edge lists) and every verdict is
re-derived from the definitions.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np


def loglog_slope(xs, ys):
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


def girth6_counts(q):
    """(vertices, edges) of the point-line incidence graph over F_q."""
    return 2 * (q * q + q + 1), (q + 1) * (q * q + q + 1)


def r1s1_edges(q):
    return (q + 1) * (q * q + q + 1) ** 2


def r2s2_edges(q):
    return ((q + 1) * (q * q + q + 1)) ** 2


def shrink_factor(edges, arity):
    """min over nonempty proper coordinate sets I of |E| / |pi_I E|."""
    best = math.inf
    for mask in range(1, (1 << arity) - 1):
        idx = [i for i in range(arity) if mask >> i & 1]
        count = len({tuple(e[i] for i in idx) for e in edges})
        best = min(best, len(edges) / count)
    return best


class WitnessChecker:
    """Checks per-edge witnesses of a (conditional) non-redundant instance.

    A witness for edge e must assign every vertex exactly once, with values
    in the domain, send e into Q \\ P and every other edge into P.
    """

    CHUNK = 128

    def __init__(self, vertices, edges, domain, base, outside):
        self.vertices = list(vertices)
        self.vset = set(self.vertices)
        self.vidx = {v: i for i, v in enumerate(self.vertices)}
        self.edges = list(edges)
        self.eidx = {e: i for i, e in enumerate(self.edges)}
        self.domain = domain
        arity = len(self.edges[0])
        self.em = np.array([[self.vidx[v] for v in e] for e in self.edges],
                           dtype=np.int64)
        self.weights = domain ** np.arange(arity, dtype=np.int64)
        size = domain ** arity
        self.in_base = np.zeros(size, dtype=bool)
        self.in_out = np.zeros(size, dtype=bool)
        for t in base:
            self.in_base[self._code(t)] = True
        for t in outside:
            self.in_out[self._code(t)] = True

    def _code(self, t):
        return sum(x * int(w) for x, w in zip(t, self.weights))

    def _row(self, psi):
        """Value vector of one witness, or None when it does not assign
        exactly the instance vertices with values in the domain."""
        if not isinstance(psi, dict) or set(psi) != self.vset:
            return None
        row = np.empty(len(self.vertices), dtype=np.int64)
        for v, x in psi.items():
            if type(x) not in (int, np.int64) or not 0 <= x < self.domain:
                return None
            row[self.vidx[v]] = x
        return row

    def certificate_ok(self, witnesses):
        """witnesses: edge -> assignment, one valid witness per edge."""
        if set(witnesses) != set(self.edges):
            return False
        for lo in range(0, len(self.edges), self.CHUNK):
            block = self.edges[lo:lo + self.CHUNK]
            rows = np.empty((len(block), len(self.vertices)), dtype=np.int64)
            for k, e in enumerate(block):
                row = self._row(witnesses[e])
                if row is None:
                    return False
                rows[k] = row
            codes = rows[:, self.em] @ self.weights   # (block, m)
            ok = self.in_base[codes]
            own = np.arange(len(block))
            ok[own, lo + own] = self.in_out[codes[own, lo + own]]
            if not ok.all():
                return False
        return True

    def witness_ok(self, edge, psi):
        row = self._row(psi)
        if row is None:
            return False
        codes = row[self.em] @ self.weights
        ok = self.in_base[codes]
        i = self.eidx[edge]
        ok[i] = self.in_out[codes[i]]
        return bool(ok.all())


def certificate_ok(src_base, src_ambient, tgt_base, tgt_ambient,
                   family_sets, sigma):
    """Conditions (1) membership and (2) locality of a substructure map,
    tested directly on sigma."""
    q1 = list(src_ambient)
    p1, p2, q2 = set(src_base), set(tgt_base), set(tgt_ambient)
    if set(sigma) != set(q1):
        return False
    for q in q1:
        t = tuple(sigma[q])
        if len(t) != len(family_sets) or t not in q2 or (q in p1) != (t in p2):
            return False
    for j, I in enumerate(family_sets):
        seen = {}
        for q in q1:
            key = tuple(q[i - 1] for i in I)
            if seen.setdefault(key, sigma[q][j]) != sigma[q][j]:
                return False
    return True


def brute_force_nrd(vertices, edges, domain, base, ambient):
    """Is every edge violable (into Q \\ P) with all other edges in P?
    Exhaustive over all assignments; toy instances only."""
    base, outside = set(base), set(ambient) - set(base)
    vidx = {v: i for i, v in enumerate(vertices)}
    idx = [[vidx[v] for v in e] for e in edges]
    pending = set(range(len(edges)))
    for a in product(range(domain), repeat=len(vertices)):
        tuples = [tuple(a[i] for i in e) for e in idx]
        bad = [k for k, t in enumerate(tuples) if t not in base]
        if len(bad) == 1 and tuples[bad[0]] in outside:
            pending.discard(bad[0])
            if not pending:
                return True
    return not pending


def model_satisfies(clauses, model):
    """Every clause has a literal made true by model (var -> bool)."""
    try:
        return all(any(model[abs(lit)] == (lit > 0) for lit in cl)
                   for cl in clauses)
    except (KeyError, TypeError):
        return False


def sym_row_ok(tuples_list, i, target, row):
    """Coordinate-bijection row: a bijection J_i -> J_target carrying
    pi_{J_i} p onto the reindexed pi_{J_target} p for every p given."""
    J_i = [j for j in range(1, 10) if j != i]
    J_t = [j for j in range(1, 10) if j != target]
    if sorted(row) != J_i or sorted(row.values()) != J_t:
        return False
    for tuples in tuples_list:
        want = {tuple(t[j - 1] for j in J_i) for t in tuples}
        got = {tuple(t[row[j] - 1] for j in J_i) for t in tuples}
        if want != got:
            return False
    return True
