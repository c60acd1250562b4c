"""r-partite hypergraph instances and non-redundancy machinery.

An instance of a CSP over predicate P is a hypergraph whose ordered edges are
the constraint scopes.  It is non-redundant when every edge can be violated
by an assignment satisfying all the others; for a conditional pair P | Q the
violated edge must land in Q \\ P.

Everything here runs on an instance's integer index (`instance_index`).
Labels are made only at I/O: an instance built from its index
(`from_index`) makes its edge label tuples when `edges` is first read, and
a projection its vertex labels when `Projection.instance` is read.
"""

from __future__ import annotations

import functools
import os
import pickle
import signal
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .predicates import (ConditionalPredicate, IndexFamily, Predicate,
                         box_product)


class InstanceError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


def _check_distinct(parts, twice):
    """Raise InstanceError naming the first vertex, in order, that occurs
    twice in the parts (lists of labels): it "appears in two parts", or it
    is `twice`, formatted with its part's number from 1, in one part."""
    part = {}
    for i, p in enumerate(parts, 1):
        for v in p:
            if v in part:
                raise InstanceError(f"vertex {v!r} " + (
                    twice.format(i) if part[v] == i else "appears in two parts"))
            part[v] = i


def _array(x):
    """tuple(x) for a JSON array; a string in its place is a TypeError."""
    if isinstance(x, str):
        raise TypeError(f"{x!r} is a string, not a list")
    return tuple(x)


def _labels(x):
    """_array(x) for a JSON array of vertex labels, each of which must be a
    string (a witness file keys its values by label, and JSON keys are
    strings); anything else is a TypeError."""
    labels = _array(x)
    for v in labels:
        if not isinstance(v, str):
            raise TypeError(f"vertex label {v!r} is not a string")
    return labels


class _Indexed:
    """An instance made by `from_index` starts from its InstanceIndex and
    makes its edge label tuples only when `edges` is first read."""

    @classmethod
    def from_index(cls, labels, cols):
        """The instance over labels (its parts, or its vertex set) whose edge
        i is cols[:, i] in vertex numbers.  For builders, whose edges are
        distinct and in their parts by construction: only the labels are
        checked."""
        h, (field, twice) = object.__new__(cls), cls._LABELS
        parts = tuple(map(tuple, labels)) if field == "parts" else (tuple(labels),)
        object.__setattr__(h, field, parts if field == "parts" else parts[0])
        _check_distinct(parts, twice)
        cols.setflags(write=False)
        object.__setattr__(h, "_index", InstanceIndex(len(h.vertices()), cols))
        return h

    def __getattr__(self, name):
        if name != "edges" or "_index" not in self.__dict__:
            raise AttributeError(name)
        labels, cols = np.fromiter(self.vertices(), dtype=object), self._index.cols
        edges = (tuple(zip(*labels[cols].tolist())) if len(cols)
                 else ((),) * cols.shape[1])
        object.__setattr__(self, "edges", edges)
        return edges


@dataclass(frozen=True)
class PartiteHypergraph(_Indexed):
    """Parts V_1..V_r of string labels, edges in V_1 x ... x V_r."""

    parts: tuple
    edges: tuple

    def __post_init__(self):
        parts = tuple(map(tuple, self.parts))
        edges = tuple(map(tuple, self.edges))
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "edges", edges)
        _check_distinct(parts, self._LABELS[1])
        if len(set(edges)) != len(edges):
            raise InstanceError("duplicate edges are not allowed")
        part_sets = [set(p) for p in parts]
        if set(map(len, edges)) <= {len(parts)} and all(
                set(map(itemgetter(i), edges)) <= ps
                for i, ps in enumerate(part_sets)):
            return
        for e in edges:  # name the first bad edge
            if len(e) != len(parts):
                raise InstanceError(f"edge {e} does not match arity {len(parts)}")
            for i, v in enumerate(e):
                if v not in part_sets[i]:
                    raise InstanceError(f"edge {e}: vertex {v!r} not in part {i + 1}")

    _LABELS = ("parts", "appears twice in part {}")

    @property
    def arity(self):
        return len(self.parts)

    def vertices(self):
        return [v for p in self.parts for v in p]

    def to_dict(self):
        return {"parts": [list(p) for p in self.parts],
                "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, d):
        try:
            return cls(tuple(map(_labels, _array(d["parts"]))),
                       tuple(map(_array, _array(d["edges"]))))
        except TypeError as exc:
            raise InstanceError(f"malformed instance: {exc}") from None
        except KeyError as exc:
            raise InstanceError(f"malformed instance: missing key {exc}") from None


@dataclass(frozen=True)
class Hypergraph(_Indexed):
    """Plain (non-partite) instance: ordered edges over one vertex set."""

    vertex_set: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertex_set", tuple(self.vertex_set))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        _check_distinct((self.vertex_set,), self._LABELS[1])
        vs, r = set(self.vertex_set), self.arity
        if len(set(self.edges)) != len(self.edges):
            raise InstanceError("duplicate edges are not allowed")
        for e in self.edges:
            if len(e) != r:
                raise InstanceError(f"edge {e} does not match arity {r}")
            if not set(e) <= vs:
                raise InstanceError(f"edge {e} uses unknown vertices")

    _LABELS = ("vertex_set", "is listed twice")

    @property
    def arity(self):
        return len(self.edges[0]) if self.edges else 0

    def vertices(self):
        return list(self.vertex_set)

    def to_dict(self):
        return {"vertices": list(self.vertex_set),
                "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, d):
        try:
            return cls(_labels(d["vertices"]), tuple(map(_array, _array(d["edges"]))))
        except TypeError as exc:
            raise InstanceError(f"malformed instance: {exc}") from None
        except KeyError as exc:
            raise InstanceError(f"malformed instance: missing key {exc}") from None


class InstanceIndex(NamedTuple):
    """An instance in integers: vertex k is the k-th of its n vertices, and
    cols[p, i] is the vertex at position p of edge i (an r x m array)."""

    n: int
    cols: np.ndarray

    @property
    def m(self):
        return self.cols.shape[1]


def instance_index(h, r) -> InstanceIndex:
    """The read-only index of h, numbering h.vertices() in order; built on
    first use and kept on h.  InstanceError if h's edges are not r-ary."""
    if "_index" not in h.__dict__ or h._index.cols.shape[0] != r:
        if h.edges and len(h.edges[0]) != r:
            raise InstanceError(f"edge {h.edges[0]} does not match arity {r}")
        number = {v: k for k, v in enumerate(h.vertices())}  # the one label map
        cols = np.fromiter(map(number.__getitem__, chain.from_iterable(h.edges)),
                           dtype=np.intp, count=len(h.edges) * r)
        cols = np.ascontiguousarray(cols.reshape(len(h.edges), r).T)
        cols.setflags(write=False)
        object.__setattr__(h, "_index", InstanceIndex(len(number), cols))
    return h._index


@dataclass
class NrdCertificate:
    """Per-edge witness assignments; witnesses[e] violates e, satisfies the rest."""

    witnesses: dict  # edge tuple -> {vertex: value}

    def to_dict(self, h):
        return {str(i): dict(self.witnesses[e]) for i, e in enumerate(h.edges)}

    @classmethod
    def from_dict(cls, h, d):
        """Witnesses keyed by edge index; every value must be a JSON integer
        (the domain range is the checker's business, not the parser's)."""
        if not isinstance(d, dict):
            raise InstanceError("certificate must be an object keyed by edge index")
        if d and not h.edges:
            raise InstanceError("the instance has no edges, so its "
                                "certificate must be empty")
        if set(d) != {str(i) for i in range(len(h.edges))}:
            raise InstanceError("certificate keys must be the edge indices "
                                f"0..{len(h.edges) - 1}")
        witnesses = {}
        for i, e in enumerate(h.edges):
            psi = d[str(i)]
            if not isinstance(psi, dict):
                raise InstanceError(f"witness {i} is not an object of vertex values")
            for v, x in psi.items():
                if type(x) is not int:
                    raise InstanceError(f"witness {i}: value {x!r} for vertex "
                                        f"{v!r} is not an integer")
            witnesses[e] = dict(psi)
        return cls(witnesses)


@dataclass
class NrdFailure:
    failed_edge: tuple
    reason: str = "no witness"

    def __bool__(self):
        return False


def as_conditional(pq) -> ConditionalPredicate:
    """Accept a Predicate (plain NRD: ambient = full) or a conditional pair."""
    if isinstance(pq, ConditionalPredicate):
        return pq
    return ConditionalPredicate(pq, Predicate.full(pq.domain_size, pq.arity))


# --- witness search ---------------------------------------------------


def _value_order(pq):
    """Try domain values in the order they appear in the base tuples."""
    order = []
    for t in pq.base.tuples:
        for v in t:
            if v not in order:
                order.append(v)
    for v in range(pq.domain_size):
        if v not in order:
            order.append(v)
    return order


class _TupleTables:
    """What the witness search and check kernel need of one predicate pair.

    The tuples T are those of P followed by those of Q \\ P.  Built on
    first read, for the witness search: for each (position p, value x),
    `keep[p][x]` lists the tuples with t[p] == x and `kill[p][x]` the
    others.  Built on first read, for the check kernel: `rows`, T as an
    (r x |T|) array, and `kind`, which gives each code sum(t[p] * d**p) the
    kind of its tuple t, 0 in P, 1 in Q \\ P and 2 outside Q, as d**r uint8
    entries; None when d**r > 2**16.
    """

    def __init__(self, pq: ConditionalPredicate):
        self.r, self.d = pq.arity, pq.domain_size
        self.tuples = tuple(pq.base.tuples) + pq.outside()
        self.n_base = len(pq.base.tuples)
        self.values = tuple(_value_order(pq))
        self.default_value = pq.base.tuples[0][0] if pq.base.tuples else 0

    @functools.cached_property
    def keep(self):
        return tuple(
            tuple(tuple(i for i, t in enumerate(self.tuples) if t[p] == x)
                  for x in range(self.d)) for p in range(self.r))

    @functools.cached_property
    def kill(self):
        return tuple(
            tuple(tuple(i for i, t in enumerate(self.tuples) if t[p] != x)
                  for x in range(self.d)) for p in range(self.r))

    @functools.cached_property
    def rows(self):
        return np.array(self.tuples, dtype=np.intp).reshape(len(self.tuples),
                                                           self.r).T

    @functools.cached_property
    def kind(self):
        if self.d ** self.r > _TABLE_LIMIT:
            return None
        code = self.d ** np.arange(self.r) @ self.rows
        kind = np.full(self.d ** self.r, 2, dtype=np.uint8)
        kind[code[:self.n_base]] = 0
        kind[code[self.n_base:]] = 1
        return kind


@functools.lru_cache(maxsize=32)
def _tuple_tables(pq: ConditionalPredicate) -> _TupleTables:
    return _TupleTables(pq)


class WitnessSearch:
    """Per-edge witness search on one instance, bit-sliced across edges.

    The search state keeps, for each tuple t of P followed by Q \\ P, one
    bitset `alive[t]` of the edges on which t is still possible: the tuples
    of P on every edge but the excluded one, those of Q \\ P on it alone
    (the bitset table propagation of Compact-Table, Demeulenaere et al.,
    CP 2016, sliced across edges, since every edge checks the same
    relation).  Assigning v := x sweeps, at each position p of v, the
    tuples that agree with x at p: v's edges there left with no tuple are a
    conflict, those left with one are unit (the tuple forces the edge's
    unassigned vertices).  Only then are v's edges at p cleared out of the
    tuples that disagree, so a conflict costs no kill.  An edge that holds v
    twice is swept again, in full, at the later position, where a unit read
    too early ends in a conflict before its values propagate.  Per-position
    bitsets of edges with an unassigned vertex keep fully assigned edges out
    of the unit step.  A decision level is undone by restoring a snapshot of
    the |T| + r bitsets; a decision value that leaves one of v's edges at
    its first position (all of them in a partite instance) with no agreeing
    tuple is rejected before anything is written, so it needs no restore.

    Vertices are decided in a fixed order, the excluded edge's first, then
    by decreasing degree and by label; values in `value_order`, the pair's
    `_value_order` unless the caller sets another.  Pruning is sound, so the
    witness returned is the first solution in that lexicographic order.
    Vertices on no edge take the first value of the first tuple of P.

    `trials` counts value trials at decision points, rejected values
    included (forced values are not counted); a search raises
    BudgetExceeded once it passes `budget`.  Edges that are unit from the
    start, such as the excluded edge when Q \\ P has one tuple, are
    propagated before the first decision, so their vertices cost no trials
    (292 032 trials for all 2704 edges of R2S2 q=3, half of them rejected
    before anything is written).

    Set up from an InstanceIndex and the labels of its vertices, which
    break degree ties.  `push` adds an edge after the others and `pop`
    removes the last one; both rebuild only the per-vertex entries of the
    edge's vertices (of every vertex when `push` outgrows `cap`).  Edge k
    keeps bit k, so a search grown and shrunk this way finds the same
    witnesses, in as many trials, as a search set up afresh on its edges.
    """

    def __init__(self, index, pq, vertices, budget=None):
        tab = self.tab = _tuple_tables(as_conditional(pq))
        self.vertices, self.n = vertices, index.n
        self.edges = index.cols.T.tolist()
        self.full = self.cap = (1 << len(self.edges)) - 1
        self.bits = [[0] * tab.r for _ in range(self.n)]
        self.degree = [0] * self.n
        for i, e in enumerate(self.edges):
            self._flip(e, 1 << i, 1)
        self.occ = [None] * self.n
        self._refresh(range(self.n))
        self.value_order = tab.values
        self.budget = budget
        self.trials = 0

    def push(self, edge):
        """Add edge, a sequence of vertex numbers, as the last edge."""
        bit = 1 << len(self.edges)
        self.edges.append(edge)
        self.full |= bit
        self._flip(edge, bit, 1)
        if bit > self.cap:  # about twice the edges, so this is rare
            self.cap = (bit << len(self.edges)) - 1
            self._refresh(range(self.n))
        else:
            self._refresh(edge)

    def pop(self):
        """Remove the last edge."""
        edge = self.edges.pop()
        bit = 1 << len(self.edges)
        self.full ^= bit
        self._flip(edge, bit, -1)
        self._refresh(edge)

    def _flip(self, edge, bit, step):
        bits, degree = self.bits, self.degree
        for p, v in enumerate(edge):
            bits[v][p] ^= bit
            degree[v] += step
        self.by_degree = None  # sorted again on the next search

    def _refresh(self, vertices):
        """Rebuild each vertex's (position, edges of v there, rest) entries,
        rest clearing those edges from any bitset of edges within `cap`,
        which every bitset of the search is (cap covers at least `full`)."""
        bits, cap, occ = self.bits, self.cap, self.occ
        for v in vertices:
            occ[v] = tuple((p, b, cap ^ b) for p, b in enumerate(bits[v]) if b)

    def values(self, excluded_idx):
        """The witness for one excluded edge as a list in vertex order, or
        None."""
        tab, full = self.tab, self.full
        if self.by_degree is None:
            degree, labels = self.degree, self.vertices
            self.by_degree = sorted((v for v, k in enumerate(degree) if k),
                                    key=lambda v: (-degree[v], labels[v]))
        first = list(dict.fromkeys(self.edges[excluded_idx]))
        seen = set(first)
        order = first + [v for v in self.by_degree if v not in seen]
        xbit = 1 << excluded_idx
        self.alive = ([full ^ xbit] * tab.n_base
                      + [xbit] * (len(tab.tuples) - tab.n_base))
        self.unassigned = [full] * tab.r
        self.val = [-1] * self.n
        self.trail = []
        ones = twos = 0
        for a in self.alive:
            twos |= ones & a
            ones |= a
        if ones != full:
            return None
        stack = []
        unit = ones ^ twos
        if unit:
            self._force(unit, range(len(tab.tuples)), stack)
            if not self._run(stack):
                return None
        if not self._solve(order):
            return None
        return [tab.default_value if x < 0 else x for x in self.val]

    def _force(self, unit, tuple_ids, stack):
        """Give each unit edge's unassigned vertices the values of its one
        alive tuple (found among tuple_ids).  A vertex already given another
        value needs no check here: once its assignment is propagated, the
        edge is left with no tuple, which `_run` reports as a conflict."""
        alive, val, trail = self.alive, self.val, self.trail
        tuples, edges = self.tab.tuples, self.edges
        for t in tuple_ids:
            u = alive[t] & unit
            if not u:
                continue
            unit ^= u
            tup = tuples[t]
            while u:
                low = u & -u
                u ^= low
                for w, y in zip(edges[low.bit_length() - 1], tup):
                    if val[w] < 0:
                        val[w] = y
                        trail.append(w)
                        stack.append(w)
            if not unit:
                break

    def _run(self, stack):
        """Propagate the assigned vertices on the stack to a fixpoint; False
        on a conflict."""
        alive, unassigned, val = self.alive, self.unassigned, self.val
        kill, keep, occ = self.tab.kill, self.tab.keep, self.occ
        while stack:
            v = stack.pop()
            x = val[v]
            occ_v = occ[v]
            for p, _, rest in occ_v:
                unassigned[p] &= rest
            pending = None
            for p, scope, rest in occ_v:
                ids = keep[p][x]
                ones = twos = 0  # masked to scope once, after the sweep
                for t in ids:
                    a = alive[t]
                    twos |= ones & a
                    ones |= a
                if ones & scope != scope:
                    return False
                for t in kill[p][x]:
                    alive[t] &= rest
                unit = (ones ^ twos) & scope
                if unit:
                    if pending is None:
                        pending = 0
                        for b in unassigned:
                            pending |= b
                    unit &= pending
                    if unit:
                        self._force(unit, ids, stack)
        return True

    def _solve(self, order):
        """Decide the unassigned vertices of order depth first, with the open
        levels on a list, not the call stack, so no recursion limit binds."""
        val, levels, depth = self.val, [], 0
        while True:
            while depth < len(order) and val[order[depth]] >= 0:
                depth += 1
            if depth == len(order):
                return True
            levels.append((depth, order[depth], iter(self.value_order),
                           (self.alive[:], self.unassigned[:]), len(self.trail)))
            while not self._decide(levels[-1]):  # back to the level above
                levels.pop()
                if not levels:
                    return False
            depth = levels[-1][0] + 1

    def _decide(self, level):
        """Give the level's vertex its next value that propagates without a
        conflict, restoring the snapshot after a written one; False if none."""
        _, v, values, saved, mark = level
        alive, unassigned = self.alive, self.unassigned
        val, trail = self.val, self.trail
        p, scope, _ = self.occ[v][0]
        agree = self.tab.keep[p]
        for x in values:
            if len(trail) > mark:
                alive[:], unassigned[:] = saved
                while len(trail) > mark:
                    val[trail.pop()] = -1
            self.trials += 1
            if self.budget is not None and self.trials > self.budget:
                raise BudgetExceeded("assignment budget exceeded")
            ones = 0
            for t in agree[x]:
                ones |= alive[t]
            if ones & scope != scope:
                continue  # rejected before anything is written
            val[v] = x
            trail.append(v)
            if self._run([v]):
                return True
        return False


def verify_nrd(h, pq, mode="find-witnesses", certificate=None,
               max_assignments=None):
    """Verify (conditional) non-redundancy of an instance.

    find-witnesses: search a violating assignment for every edge, each the
    first in `WitnessSearch` order; at most max_assignments value trials in
    all (None: no budget), else BudgetExceeded whose `partial` is the
    number of edges witnessed.  With `os.fork` and w >= 2 CPUs, up to w
    ranges of at least _SPLIT_MIN_EDGES edges are searched at once, here
    and in forked children that never outlive the call, with the outcome
    of one process.  The budget decides in edge order and caps each
    process's trials too, so the work in all can reach w times the budget.
    Without a budget, a box product for a box product pair is searched by
    its two factors instead (`_find_by_factors`), with the same outcome.
    check-given: re-verify a supplied certificate with `WitnessKernel.check`.
    Returns an NrdCertificate on success, NrdFailure on the first bad edge.
    """
    pq = as_conditional(pq)
    if max_assignments is not None and max_assignments < 0:
        raise InstanceError("the assignment budget must not be negative")
    if mode == "check-given":
        if certificate is None:
            raise InstanceError("check-given mode needs a certificate")
        edges = h.edges
        if set(certificate.witnesses) != set(edges):
            raise InstanceError("certificate must cover exactly the instance edges")
        bad = WitnessKernel(h, pq).check(lambda i: certificate.witnesses[edges[i]])
        return certificate if bad is None else bad.nrd_failure(h)
    if mode != "find-witnesses":
        raise InstanceError(f"unknown mode {mode!r}")
    if h.edges and h.arity != pq.arity:
        raise InstanceError("instance arity does not match predicate arity")
    if max_assignments is None:
        found = _find_by_factors(h, pq)
        if found is not None:
            return found
    return _find_witnesses(h, pq, max_assignments, _workers(len(h.edges)))


def _factor_pairs(pq, r1):
    """The pairs P1 | Q1 and P2 | Q2, of arities r1 and r - r1, whose box
    product is pq, or None: Q must be Q1 x Q2 for its two projections, P1
    is {a in Q1 : a + b in P for every b in Q2}, P2 likewise, and their
    `box_product` must be pq exactly."""
    d, q = pq.domain_size, pq.ambient.tuples
    q1, q2 = sorted({t[:r1] for t in q}), sorted({t[r1:] for t in q})
    if len(q) != len(q1) * len(q2):  # this also bounds the loops below by |Q|
        return None
    p1 = [a for a in q1 if all(a + b in pq.base for b in q2)]
    p2 = [b for b in q2 if all(a + b in pq.base for a in q1)]
    pairs = (ConditionalPredicate(Predicate(d, r1, p1), Predicate(d, r1, q1)),
             ConditionalPredicate(Predicate(d, pq.arity - r1, p2),
                                  Predicate(d, pq.arity - r1, q2)))
    return pairs if box_product(*pairs) == pq else None


def _find_by_factors(h, pq):
    """find-witnesses without a budget from one search of each factor of a
    box product; None unless h's edges are U x V at a split r1 (`_splits`)
    with disjoint vertices on either side, and pq is a box product at r1
    (`_factor_pairs`).

    psi is a witness for (e, f) exactly when its A-half (the vertices at
    positions < r1) is one for e under P1 | Q1 and its B-half one for f
    under P2 | Q2, as a tuple is in Q \\ P only if both halves are outside
    their P: the solutions of (e, f) are S_A x S_B.  Restricted to A, the
    product's decision order is the factor's own (the excluded edge, then
    degree, deg_A |V| in the product, and label), so a search of A's
    distinct edges with the product's labels and value order finds min S_A,
    and the product's first solution is (min S_A, min S_B).  So each
    witness, with the product's default value on vertices on no edge, and
    the first failing edge are the whole search's.
    """
    index, labels = instance_index(h, pq.arity), h.vertices()
    for r1, (unum, ufirst), (vnum, vfirst) in _splits(h, index):
        halves = index.cols[:r1, ufirst], index.cols[r1:, vfirst]
        on = np.zeros((2, index.n), dtype=bool)
        on[0, halves[0]] = on[1, halves[1]] = True
        pairs = None if (on[0] & on[1]).any() else _factor_pairs(pq, r1)
        if pairs is None:
            continue
        tab, rows = _tuple_tables(pq), []
        for cols, pair in zip(halves, pairs):
            search = WitnessSearch(InstanceIndex(index.n, cols), pair, labels)
            search.value_order = tab.values
            rows.append([search.values(i) for i in range(cols.shape[1])])
        none = [np.array([w is None for w in found], dtype=bool) for found in rows]
        bad = none[0][unum] | none[1][vnum]
        if bad.any():
            return NrdFailure(h.edges[int(bad.argmax())])
        wa, wb = (np.array(found, dtype=np.intp).reshape(-1, index.n)
                  for found in rows)
        wa[:, ~on[0]] = 0
        wb[:, ~on[1]] = 0
        wa[:, ~(on[0] | on[1])] = tab.default_value
        return NrdCertificate({e: dict(zip(labels, (wa[u] + wb[v]).tolist()))
                               for e, u, v in zip(h.edges, unum, vnum)})
    return None


# Fewest edges a process of a split find-witnesses searches, so that R1S1
# q=2 (147 edges) and R2S2 q=2 (441) stay in one process.
_SPLIT_MIN_EDGES = 256


def _workers(m):
    """How many processes search the m edges of one find-witnesses."""
    if m < 2 * _SPLIT_MIN_EDGES or not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, m // _SPLIT_MIN_EDGES)


def _find_witnesses(h, pq, max_assignments, workers):
    """find-witnesses over `workers` contiguous edge ranges, all but the
    first searched by forked children."""
    search = WitnessSearch(instance_index(h, pq.arity), pq, h.vertices(),
                           budget=max_assignments)
    m = len(h.edges)
    bounds = [m * k // workers for k in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(bounds[1:], bounds[2:]):
            children.append(_fork_range(search, lo, hi))
        outcomes = chain(_search_range(search, 0, bounds[1]),
                         *(_read_range(search, fh, lo, hi) for (_, fh), lo, hi
                           in zip(children, bounds[1:], bounds[2:])))
        witnesses, trials = {}, 0
        for i, (w, t) in enumerate(outcomes):
            trials += t
            if max_assignments is not None and trials > max_assignments:
                raise BudgetExceeded(
                    f"assignment budget of {max_assignments} exceeded with "
                    f"{i} of {m} edges witnessed", partial=i)
            if w is None:
                return NrdFailure(h.edges[i])
            witnesses[h.edges[i]] = dict(zip(search.vertices, w))
        return NrdCertificate(witnesses)
    finally:
        for pid, fh in children:
            fh.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _search_range(search, lo, hi):
    """Yield (witness values in vertex order or None, trials) for the edges
    lo..hi-1; stop after an edge without a witness, or at one where this
    process's search passes the budget.  Its count never exceeds the trials
    of all edges up to that one, so their sum in edge order is past it."""
    for i in range(lo, hi):
        before = search.trials
        try:
            w = search.values(i)
        except BudgetExceeded:
            w = None
        yield w, search.trials - before
        if w is None:
            return


def _fork_range(search, lo, hi):
    """Fork a child that searches the edges lo..hi-1 and writes the list
    _search_range yields, pickled, to a pipe (each witness's values as
    bytes, one byte a value, since a domain has at most 256 values); return
    its pid (None if the fork failed) and the pipe's read end.  The child
    runs only the pure-Python search (never numpy, whose threads a fork does
    not copy) and writes once at the end, so that it never waits for the
    parent to read."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        try:  # whatever happens, the child never returns to the caller
            outcomes = [(None if values is None else bytes(values), t)
                        for values, t in _search_range(search, lo, hi)]
            with open(w, "wb") as fh:
                pickle.dump(outcomes, fh)
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _read_range(search, fh, lo, hi):
    """What _search_range(search, lo, hi) yields: the list a child pickled,
    or, if the child died, its fork failed or its stream was cut off, the
    whole range searched here.  A generator, so that the caller searches
    its own range before it waits for a child."""
    try:
        outcomes = pickle.load(fh)
    except (EOFError, pickle.UnpicklingError):
        outcomes = _search_range(search, lo, hi)
    yield from outcomes


# --- the witness kernel ----------------------------------------------

# The largest d**r that has a kind table (`_TupleTables.kind`); elements in
# the largest temporary array of a block of witnesses.  Checking value rows
# by lookup on R2S2 q=3 less one edge, 2**16 was about as fast as 2**17,
# whose arrays take twice the memory, and faster than 2**15; by counts,
# larger blocks are faster still, as each block pays a fixed cost in numpy
# calls.
_TABLE_LIMIT = 1 << 16
_BLOCK_LIMIT = 1 << 16


class MalformedWitness(InstanceError):
    """A witness that does not assign exactly the instance's vertices
    integer values in [0, d)."""


def _getter(keys):
    """psi -> tuple of psi[k] for k in keys, at C speed; KeyError if one is
    missing."""
    if len(keys) == 1:
        key = keys[0]
        return lambda psi: (psi[key],)
    return itemgetter(*keys) if keys else lambda psi: ()


class WitnessFailure(NamedTuple):
    """Why the witness of edge `edge` fails: `malformed` (a
    MalformedWitness), or else `wrong`, the first edge whose tuple is of the
    wrong kind, and `outside`, the first (edge, tuple) outside Q or None.
    Outside Q means not a tuple of the ambient Q at all; it does not mean
    Q \\ P, which `ConditionalPredicate.outside()` returns."""

    edge: int
    malformed: MalformedWitness | None = None
    wrong: int | None = None
    outside: tuple | None = None

    def nrd_failure(self, h):
        """The NrdFailure naming the failing edge of h, with the reason."""
        edges = h.edges
        if self.malformed is not None:
            reason = str(self.malformed)
        elif self.wrong == self.edge:
            reason = "witness does not (Q\\P)-satisfy its edge"
        else:
            reason = f"witness fails to P-satisfy {edges[self.wrong]}"
        return NrdFailure(edges[self.edge], reason)


def _splits(h, index):
    """Each split of h's edges as U x V, in order of r1 = 1 .. r-1: U and V
    are the distinct projections of the edges onto their first r1
    positions and onto the rest, and every (u, v) pair is an edge.  Yields
    r1 and the `_first_use` numberings of the edges' projections onto U and
    onto V."""
    bounds, m = _bounds(h, index), index.m
    for r1 in range(1, index.cols.shape[0]):
        u = _first_use(*_codes(index.cols[:r1], bounds[:r1], m))
        v = _first_use(*_codes(index.cols[r1:], bounds[r1:], m))
        # the edges are distinct, so there are |U| |V| of them only if
        # every (u, v) pair is one
        if len(u[1]) * len(v[1]) == m:
            yield r1, u, v


class _ProductSplit:
    """An instance whose edge set is U x V, checked by counts.

    U and V are the distinct projections of the edges onto their first r1
    positions and onto the rest, and every (u, v) pair is an edge.  So
    the tuples of a witness on the m edges are the pairs of its tuples on U
    and on V, and its edges outside P number h_U . N . h_V, where h_U and
    h_V count its tuples on U and on V by code sum(t[p] * d**p), and N is
    the pair's 0/1 "not in P" matrix, d**r1 x d**(r - r1), read off its kind
    table.  A witness
    passes iff that count is 1 and its own edge's tuple is in Q \\ P, at
    O(n + |U| + |V| + d**r) a witness.
    """

    def __init__(self, tab, cols, r1, ufirst, vfirst):
        d, r = tab.d, cols.shape[0]
        self.d, self.cols, self.powers = d, cols, d ** np.arange(r)
        self.in_q_minus_p = tab.kind == 1
        # N[a, c] for the tuple coded a on U and c on V, code a + d**r1 * c
        self.not_p = (tab.kind != 0).astype(np.intp).reshape(-1, d ** r1).T
        self.halves = (cols[:r1, ufirst], cols[r1:, vfirst])

    @classmethod
    def find(cls, h, index, tab):
        """The split of h's edges at the first r1 where they are U x V and
        |U| + |V| + d**r < m, if the pair has a kind table; else None."""
        (r, m), d = index.cols.shape, tab.d
        if tab.kind is None or d ** r >= m:
            return None
        for r1, (_, ufirst), (_, vfirst) in _splits(h, index):
            if len(ufirst) + len(vfirst) + d ** r < m:
                return cls(tab, index.cols, r1, ufirst, vfirst)
        return None

    def passes(self, vals, start):
        """Whether every witness of the (n x B) block vals, witness k for
        edge start + k, passes by the counts."""
        k = np.arange(vals.shape[1])
        own = self.powers @ vals[self.cols[:, start:start + len(k)], k]
        if not self.in_q_minus_p[own].all():
            return False
        counts = []  # row k: witness k's tuples on U, then on V, by code
        for half in self.halves:
            size = self.d ** len(half)
            codes = vals[half[0]]  # uint16, as codes < d**r <= 2**16
            for p in range(1, len(half)):
                codes = codes + vals[half[p]] * self.d ** p
            counts.append(np.bincount((codes + k * size).ravel(),
                                      minlength=len(k) * size).reshape(len(k), size))
        hu, hv = counts
        return bool((((hu @ self.not_p) * hv).sum(axis=1) == 1).all())


class WitnessKernel:
    """The witness check of one instance for one predicate pair.

    `check` reads the witnesses a block at a time, in edge order.  A block
    of B witnesses is validated into one uint16 (n x B) array, a row per
    vertex (values in [0, d)), and the kind of every edge's tuple under
    every witness (0 in P, 1 in Q \\ P, 2 outside Q) is read into an
    (m x B) array: its code sum(t[p] * d**p) is summed from one row gather
    per position of the instance's index and looked up in the pair's
    `_TupleTables.kind`.  A pair with no kind table (d**r > 2**16) has the
    block's tuples coded together with the pair's by `_codes` instead.
    `block`, B, is at most 2**16 / max(m, n) witnesses and at least one, so
    no temporary array of a block exceeds 2**16 elements unless one witness
    does (m > 2**16 edges).

    A block of a box product such as R1S1 or R2S2 is first checked by
    counts (`_ProductSplit`): two histograms of each witness's tuples, on
    U and on V, weighed by a "not in P" matrix made from the pair's kind
    table, at O(n + |U| + |V| + d**r) a witness instead of O(m r); only a
    block the counts reject has its kinds read as above, so the failure is
    the same.
    """

    def __init__(self, h, pq):
        pq = as_conditional(pq)
        index = instance_index(h, pq.arity)
        self.vertices, self.n, self.m = h.vertices(), index.n, index.m
        self.d, self.cols = pq.domain_size, index.cols
        self.tab = _tuple_tables(pq)
        self.block = max(1, _BLOCK_LIMIT // max(self.m, self.n, 1))
        self._get = _getter(self.vertices)
        self._split = _ProductSplit.find(h, index, self.tab)

    def check(self, witness):
        """None if witness(i) is a witness for edge i, for every edge i; else
        the WitnessFailure of the first i in edge order for which it is not.
        witness is called once per edge, in edge order, a block at a time,
        and never past the first failing block.  A block is checked in one
        pass: its witnesses before the first malformed one as one array,
        and the malformed one only if they all pass."""
        return self._check(
            lambda lo, hi: self._values([witness(i) for i in range(lo, hi)]))

    def check_values(self, values):
        """`check` for witnesses given as value rows: values(lo, hi) is an
        integer array with one row per edge lo..hi-1, its witness's values
        in vertex order.  A value outside [0, d) makes its witness
        malformed, with the message `check` gives."""
        return self._check(lambda lo, hi: self._in_range(values(lo, hi)))

    def _check(self, block):
        """block(lo, hi) returns the witnesses of edges lo..hi-1 before the
        first malformed one, as a uint16 (n x k) array, and
        the MalformedWitness of witness k (None if there is none)."""
        for lo in range(0, self.m, self.block):
            vals, malformed = block(lo, min(lo + self.block, self.m))
            failure = self._failure(vals, lo)
            if failure is not None or malformed is not None:
                return failure or WitnessFailure(lo + vals.shape[1], malformed)
        return None

    def _failure(self, vals, start):
        """The WitnessFailure of the first witness of the (n x B) array vals
        that is not a witness for its edge, witness k for edge start + k, or
        None."""
        if self._split is not None and self._split.passes(vals, start):
            return None
        kinds = self._kinds(vals)
        ok = kinds == 0
        k = np.arange(vals.shape[1])
        ok[start + k, k] = kinds[start + k, k] == 1
        if ok.all():
            return None
        k = int(ok.all(axis=0).argmin())
        failure = WitnessFailure(start + k, None, int(ok[:, k].argmin()))
        out = np.flatnonzero(kinds[:, k] == 2)
        if not len(out):
            return failure
        j = int(out[0])
        return failure._replace(
            outside=(j, tuple(vals[self.cols[:, j], k].tolist())))

    def _kinds(self, vals):
        """The kinds of the tuples (vals[cols[0, e], b], ...,
        vals[cols[r-1, e], b]), as an (m x B) array indexed [e, b].  The
        gather of each position copies whole rows of B values; the kind
        table's take widens the codes to intp internally, the largest
        temporary array of a block."""
        tab, (r, m), cols = self.tab, self.cols.shape, self.cols
        if tab.kind is None:  # code the pair's tuples and the block's at once
            n = tab.rows.shape[1]
            code, top = _codes((np.concatenate([tab.rows[p], vals[cols[p]].ravel()])
                                for p in range(r)), [(0, self.d)] * r,
                               n + m * vals.shape[1])
            kind = np.full(top, 2, dtype=np.uint8)
            kind[code[:tab.n_base]] = 0
            kind[code[tab.n_base:n]] = 1
            return kind[code[n:]].reshape(m, vals.shape[1])
        code = np.take(vals, cols[0], axis=0)
        for p in range(1, r):
            col = np.take(vals * self.d ** p, cols[p], axis=0)
            np.add(code, col, out=code)
            del col  # one block-sized array less during the kind table's take
        return np.take(tab.kind, code)

    def _values(self, psis):
        """`_in_range` for witness dicts: the witnesses before the first
        malformed one and its MalformedWitness.  A witness is malformed
        unless it assigns exactly the instance's vertices, each an integer
        in [0, d) (numpy integers too)."""
        get, n = self._get, self.n
        try:
            rows = list(map(get, psis))
            # each dict has the n vertices, so each has exactly n keys iff
            # the lengths sum to n per dict; one type check for the block
            if (sum(map(len, psis)) == n * len(psis)
                    and set(map(type, chain.from_iterable(rows))) <= {int}):
                return self._in_range(np.fromiter(
                    chain.from_iterable(rows), dtype=np.intp,
                    count=len(rows) * n).reshape(len(rows), n))
        except (KeyError, OverflowError):
            pass
        # numpy integers, or a malformed witness: find the first
        rows, malformed = [], None
        for psi in psis:
            malformed = self._malformed(psi)
            if malformed is not None:
                break
            rows.append(get(psi))
        vals = np.array(rows, dtype=np.intp).reshape(len(rows), n)
        return self._in_range(vals)[0], malformed

    def _in_range(self, rows):
        """Value rows, one per witness: the rows before the first with a
        value outside [0, d), as a uint16 (n x k) array, and
        that row's MalformedWitness (None if every value is in range)."""
        k = len(rows)
        if rows.size and (rows.min() < 0 or rows.max() >= self.d):
            k = int(((rows < 0) | (rows >= self.d)).any(axis=1).argmax())
        vals = np.ascontiguousarray(rows[:k].T, dtype=np.uint16)
        if k == len(rows):
            return vals, None
        return vals, self._malformed(dict(zip(self.vertices, rows[k].tolist())))

    def _malformed(self, psi):
        """The MalformedWitness naming psi's first problem (a missing vertex,
        an extra key, then a bad value in vertex order), or None."""
        missing = next((v for v in self.vertices if v not in psi), None)
        if missing is not None:
            return MalformedWitness(f"witness has no value for vertex {missing!r}")
        known = set(self.vertices)
        extra = next((v for v in psi if v not in known), None)
        if extra is not None:
            return MalformedWitness(
                f"witness assigns {extra!r}, which is not a vertex of the instance")
        d = self.d
        for v in self.vertices:
            x = psi[v]
            if not (isinstance(x, (int, np.integer))
                    and not isinstance(x, (bool, np.bool_)) and 0 <= x < d):
                return MalformedWitness(f"witness value {x!r} for vertex {v!r} "
                                        f"is not an integer in [0, {d})")
        return None


# --- exact NRD at toy scale ------------------------------------------


def _exact_space(r, n, part_sizes):
    """The search space of exact NRD on the vertices 0..n-1, numbered part
    by part: the candidate edges in lexicographic order, the first vertex
    of each part, the part of each edge position, and the instance maker,
    which labels vertex k as v{k+1}.  Without part_sizes the n vertices
    form one part, from which every position draws."""
    if n < 0:
        raise InstanceError("n must not be negative")
    if part_sizes is None:
        sizes, part_of = [n], [0] * r
    else:
        sizes, part_of = list(part_sizes), list(range(r))
        if sum(sizes) != n:
            raise InstanceError("part sizes must sum to n")
        if len(sizes) != r:
            raise InstanceError(f"{len(sizes)} part sizes for arity {r}")
        if min(sizes, default=0) < 0:
            raise InstanceError("part sizes must not be negative")
    start = [sum(sizes[:p]) for p in range(len(sizes))]
    cands = list(product(*(range(start[p], start[p] + sizes[p]) for p in part_of)))

    def make(edges):
        vs = [f"v{k + 1}" for k in range(n)]
        es = [tuple(vs[v] for v in e) for e in edges]
        if part_sizes is None:
            return Hypergraph(vs, es)
        return PartiteHypergraph([vs[a:a + k] for a, k in zip(start, sizes)], es)
    return cands, start, part_of, make


def nrd_exact(pq, n, part_sizes=None, max_checks=2_000_000):
    """Exact maximum size of a non-redundant instance on n vertices.

    Branch-and-bound over candidate edges, in lexicographic order; an edge
    list is extended only by later candidates.  Non-redundancy is
    hereditary downward, so a redundant list prunes all its supersets.  A
    feasible edge list keeps its witnesses: extending it by an edge c
    re-searches only the witnesses whose tuple on c falls outside P, then
    searches c itself.  One `WitnessSearch` serves the whole call: the
    branch-and-bound pushes c before the check and pops it when the branch
    returns, so the search always holds the current list, in order.

    Symmetry breaking: a candidate is tried only if each vertex that it
    brings in for the first time is the lowest unused vertex of its part,
    several new vertices in order of first appearance.  The used vertices
    of each part are then always a prefix v1..vk of it, so the state is
    one count per part.  The result is the one of the unpruned search.
    That search returns the lexicographically first maximum non-redundant
    edge list S, because the non-redundant lists are closed under subsets,
    so every prefix of S is feasible, and the bound prunes no list that
    could still exceed the best one found.  Every prefix of S passes the
    rule: suppose S's first j edges pass it with the vertices v1..vk of
    each part used, and edge s = S[j] does not.  Let g be the
    part-preserving relabelling that fixes the used vertices and maps s's
    new vertices, in order of first appearance, to the lowest unused ones.
    g(S) is non-redundant, as large as S, and holds S's first j edges and
    g(s), which comes before s in candidate order and is not in S (it
    differs from S's first j edges, which g fixes).  Every edge of S that
    is missing from g(S) comes at or after s, so g(S) is the
    lexicographically smaller list, against the choice of S.  So the
    pruned search, which visits only lists that the unpruned one visits,
    reaches S, and no list as large before it.

    Past max_checks feasibility checks (counted after pruning) it raises
    BudgetExceeded whose `partial` is the best size found so far;
    max_checks=None runs with no cap.
    """
    pq = as_conditional(pq)
    cands, start, part_of, make = _exact_space(pq.arity, n, part_sizes)
    base = frozenset(pq.base.tuples)
    checks = [0]
    best = {"size": 0, "edges": ()}
    # labelled by number: the tie-break moves witnesses, not the answer
    search = WitnessSearch(InstanceIndex(n, np.empty((pq.arity, 0), np.intp)),
                           pq, range(n))

    def feasible(witnesses):
        """Witness values for the search's edges, given those of all but its
        last edge, or None when they are redundant."""
        checks[0] += 1
        if max_checks is not None and checks[0] > max_checks:
            raise BudgetExceeded(
                f"search budget of {max_checks} feasibility checks exceeded; "
                f"best size so far {best['size']}", partial=best["size"])
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

    def extend(witnesses, start, used):
        size = len(search.edges)
        if size > best["size"]:
            best["size"] = size
            best["edges"] = tuple(search.edges)
        for i in range(start, len(cands)):
            if size + (len(cands) - i) <= best["size"]:
                break
            now = list(used)
            for p, v in zip(part_of, cands[i]):
                if v > now[p]:
                    break  # skips the lowest unused vertex of part p
                if v == now[p]:
                    now[p] += 1
            else:
                search.push(cands[i])
                ws = feasible(witnesses)
                if ws is not None:
                    extend(ws, i + 1, now)
                search.pop()

    extend([], 0, start)  # the lowest unused vertex of each part
    return best["size"], make(best["edges"])


_EXHAUSTIVE_SUBSETS = 1 << 18


def nrd_exact_exhaustive(pq, n, part_sizes=None):
    """Independent oracle: enumerate every candidate edge subset, over the
    same candidates as `nrd_exact` and without its pruning, up to
    _EXHAUSTIVE_SUBSETS subsets.  Each subset larger than the best so far
    is numbered as `nrd_exact` numbers it and searched on every edge."""
    pq = as_conditional(pq)
    cands = _exact_space(pq.arity, n, part_sizes)[0]
    cand_cols = np.array(cands, dtype=np.intp).reshape(len(cands), pq.arity).T

    def non_redundant(subset):
        search = WitnessSearch(InstanceIndex(n, cand_cols[:, subset]), pq,
                               range(n))
        return all(search.values(k) is not None for k in range(len(subset)))

    keep = range(len(cands))
    if 2 ** len(keep) > _EXHAUSTIVE_SUBSETS:
        # Drop edges that can never appear in a non-redundant instance.
        keep = [i for i in keep if non_redundant([i])]
    if 2 ** len(keep) > _EXHAUSTIVE_SUBSETS:
        raise BudgetExceeded("exhaustive oracle limited to small searches")
    best = 0
    for bits in range(1 << len(keep)):
        if bits.bit_count() <= best:
            continue
        if non_redundant([c for k, c in enumerate(keep) if (bits >> k) & 1]):
            best = bits.bit_count()
    return best


# --- projections ------------------------------------------------------


def projection_label(j, source_vertices):
    return f"{j}:" + ("|".join(source_vertices) if source_vertices else "()")


def _bounds(h, index):
    """(first vertex number, vertex count) of the vertices that each edge
    position of h may hold: its part's, or all n in a plain instance."""
    if not isinstance(h, PartiteHypergraph):
        return [(0, index.n)] * index.cols.shape[0]
    sizes = [len(p) for p in h.parts]
    return list(zip(np.cumsum([0] + sizes[:-1]).tolist(), sizes))


def _codes(rows, bounds, m):
    """Mixed-radix codes of the m columns of rows, whose row p holds values
    in [start, start + size) for (start, size) = bounds[p]; equal exactly
    for equal columns.  Returns the codes and top, which bounds them.  rows
    is read once, in order, so a generator keeps only one row alive."""
    code, top = np.zeros(m, dtype=np.int64), 1
    for row, (start, size) in zip(rows, bounds):
        if top * size >= 1 << 62:  # renumbered densely before it overflows
            code, top = np.unique(code, return_inverse=True)[1].reshape(-1), m
        code *= size
        code += row
        code -= start
        top *= size
    if top > 2 * m + _TABLE_LIMIT:  # too sparse for a table of top entries
        code, top = np.unique(code, return_inverse=True)[1].reshape(-1), m
    return code, top


def _narrow(n):
    """int32 for numbers below n when they fit in it, else intp."""
    return np.dtype(np.int32 if n <= 1 << 31 else np.intp)


def _first_use(code, top):
    """Number the distinct entries of code (in [0, top)) 0, 1, ... in order
    of first use: (each entry's number, each number's first entry)."""
    m = len(code)
    first = np.full(top, m, dtype=np.intp)
    np.minimum.at(first, code, np.arange(m))
    first = np.sort(first[first < m])
    number = np.empty(top, dtype=_narrow(m))
    number[code[first]] = np.arange(len(first))
    return number[code], first


class Projection:
    """A projected instance: `index` numbers its vertices part by part, each
    part in order of first use; `instance`, the labelled PartiteHypergraph,
    is made on first read."""

    def __init__(self, index, make):
        self.index, self._make = index, make

    @functools.cached_property
    def instance(self) -> PartiteHypergraph:
        return self._make()


def projection_map(h: PartiteHypergraph, fam: IndexFamily) -> Projection:
    """The instance whose part-j vertices are the distinct I_j-projections of
    the edges, in order of first use, and whose edges are the projected
    source edges in source order, colliding ones merged; computed on h's
    index, each distinct index set once, with no vertex labels made until
    `Projection.instance` is read."""
    if fam.source_arity != h.arity:
        raise InstanceError("index family arity does not match instance")
    index = instance_index(h, h.arity)
    bounds = _bounds(h, index)
    numbered, rows, sources, n = {}, [], [], 0
    for I in fam.sets:  # empty I -> one shared () vertex
        if I not in numbered:  # each edge's vertex, each vertex's sources
            pos = [i - 1 for i in I]
            number, first = _first_use(*_codes(
                [index.cols[p] for p in pos], [bounds[p] for p in pos], index.m))
            numbered[I] = number, index.cols[:, first][pos]
        number, source = numbered[I]
        rows.append((number, n))
        sources.append(source)
        n += source.shape[1]
    first = _first_use(*_codes(  # a repeated set repeats its row: once here
        [number for number, _ in numbered.values()],
        [(0, source.shape[1]) for _, source in numbered.values()], index.m))[1]
    cols = np.empty((len(rows), len(first)), dtype=_narrow(n))
    for col, (number, start) in zip(cols, rows):
        np.add(number[first], start, out=col, dtype=col.dtype)
    cols.setflags(write=False)

    def make():
        labels = h.vertices()
        parts = [[projection_label(j, tuple(labels[v] for v in vs))
                  for vs in source.T.tolist()]
                 for j, source in enumerate(sources, 1)]
        return PartiteHypergraph.from_index(parts, cols)
    return Projection(InstanceIndex(n, cols), make)


@dataclass
class ShrinkReport:
    edge_count: int
    factors: dict = field(default_factory=dict)  # index set -> (count, lambda)

    @property
    def shrink_factor(self):
        """min over the reported index sets of |E| / |pi_I E|."""
        return min(lam for _, lam in self.factors.values())

    def to_dict(self):
        return {"edges": self.edge_count,
                "factors": {",".join(map(str, I)): {"projected": c, "lambda": lam}
                            for I, (c, lam) in self.factors.items()},
                "shrink_factor": self.shrink_factor}


def shrinking_report(h: PartiteHypergraph) -> ShrinkReport:
    """Projected edge counts |pi_I E| and factors |E| / |pi_I E| for every
    nonempty proper subset I of [r], by size and then lexicographically;
    each count marks the mixed-radix codes of the projections in a table."""
    r = h.arity
    index = instance_index(h, r)
    bounds = _bounds(h, index)
    rep = ShrinkReport(index.m)
    for size in range(1, r):
        for I in combinations(range(1, r + 1), size):
            code, top = _codes([index.cols[i - 1] for i in I],
                               [bounds[i - 1] for i in I], index.m)
            seen = np.zeros(top, dtype=bool)
            seen[code] = True
            count = int(np.count_nonzero(seen))
            rep.factors[I] = (count, index.m / count if count else float("inf"))
    return rep
