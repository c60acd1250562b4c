"""r-partite hypergraph instances and non-redundancy machinery.

An instance of a CSP over predicate P is a hypergraph whose ordered edges are
the constraint scopes.  It is non-redundant when every edge can be violated
by an assignment satisfying all the others; for a conditional pair P | Q the
violated edge must land in Q \\ P.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .predicates import ConditionalPredicate, IndexFamily, Predicate


class InstanceError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


def _check_distinct(vertices, what):
    """Raise InstanceError naming the first vertex that occurs twice."""
    if len(set(vertices)) != len(vertices):
        dup = next(v for i, v in enumerate(vertices) if v in vertices[:i])
        raise InstanceError(f"vertex {dup!r} {what}")


def _array(x):
    """tuple(x) for a JSON array; a string in its place is a TypeError."""
    if isinstance(x, str):
        raise TypeError(f"{x!r} is a string, not a list")
    return tuple(x)


@dataclass(frozen=True)
class PartiteHypergraph:
    """Parts V_1..V_r of string labels, edges in V_1 x ... x V_r."""

    parts: tuple
    edges: tuple

    def __post_init__(self):
        parts = tuple(map(tuple, self.parts))
        edges = tuple(map(tuple, self.edges))
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "edges", edges)
        _check_distinct(list(chain.from_iterable(parts)), "appears in two parts")
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
            return cls(tuple(map(_array, _array(d["parts"]))),
                       tuple(map(_array, _array(d["edges"]))))
        except TypeError as exc:
            raise InstanceError(f"malformed instance: {exc}") from None
        except KeyError as exc:
            raise InstanceError(f"malformed instance: missing key {exc}") from None


@dataclass(frozen=True)
class Hypergraph:
    """Plain (non-partite) instance: ordered edges over one vertex set."""

    vertex_set: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertex_set", tuple(self.vertex_set))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        _check_distinct(self.vertex_set, "is listed twice")
        vs, r = set(self.vertex_set), self.arity
        if len(set(self.edges)) != len(self.edges):
            raise InstanceError("duplicate edges are not allowed")
        for e in self.edges:
            if len(e) != r:
                raise InstanceError(f"edge {e} does not match arity {r}")
            if not set(e) <= vs:
                raise InstanceError(f"edge {e} uses unknown vertices")

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
            return cls(_array(d["vertices"]), tuple(map(_array, _array(d["edges"]))))
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
    if h.edges and len(h.edges[0]) != r:
        raise InstanceError(f"edge {h.edges[0]} does not match arity {r}")
    if "_index" not in h.__dict__ or h._index.cols.shape[0] != r:
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
    """What the witness search needs of a predicate pair alone.

    The tuples T are those of P followed by those of Q \\ P.  For each
    (position p, value x), `keep[p][x]` lists the tuples with t[p] == x and
    `kill[p][x]` the others.
    """

    def __init__(self, pq: ConditionalPredicate):
        self.r, d = pq.arity, pq.domain_size
        self.tuples = tuple(pq.base.tuples) + pq.outside()
        self.n_base = len(pq.base.tuples)
        self.keep = tuple(
            tuple(tuple(i for i, t in enumerate(self.tuples) if t[p] == x)
                  for x in range(d)) for p in range(self.r))
        self.kill = tuple(
            tuple(tuple(i for i, t in enumerate(self.tuples) if t[p] != x)
                  for x in range(d)) for p in range(self.r))
        self.values = tuple(_value_order(pq))
        self.default_value = pq.base.tuples[0][0] if pq.base.tuples else 0


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
    by decreasing degree and by label; values in `_value_order`.  Pruning is
    sound, so the witness returned is the first solution in that
    lexicographic order.  Vertices on no edge take the first value of the
    first tuple of P.

    `trials` counts value trials at decision points, rejected values
    included (forced values are not counted); a search raises
    BudgetExceeded once it passes `budget`.  Edges that are unit from the
    start, such as the excluded edge when Q \\ P has one tuple, are
    propagated before the first decision, so their vertices cost no trials
    (292 032 trials for all 2704 edges of R2S2 q=3, half of them rejected
    before anything is written).

    Set up from an InstanceIndex and the labels of its vertices, which
    break degree ties and key the dicts of `witness`.
    """

    def __init__(self, index, pq, vertices, budget=None):
        tab = self.tab = _tuple_tables(as_conditional(pq))
        r = tab.r
        self.vertices, self.n = vertices, index.n
        self.edges = index.cols.T.tolist()
        self.full = full = (1 << len(self.edges)) - 1
        bits = [[0] * r for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for p, v in enumerate(e):
                bits[v][p] |= 1 << i
        # (position, edges of v there, every other edge) for each vertex
        self.occ = [tuple((p, b, full ^ b) for p, b in enumerate(bv) if b)
                    for bv in bits]
        degree = [sum(b.bit_count() for b in bv) for bv in bits]
        self.by_degree = sorted((i for i, k in enumerate(degree) if k),
                                key=lambda i: (-degree[i], vertices[i]))
        self.budget = budget
        self.trials = 0

    def witness(self, excluded_idx):
        """The witness for one excluded edge as a dict over every vertex, or
        None."""
        vals = self.values(excluded_idx)
        return None if vals is None else dict(zip(self.vertices, vals))

    def values(self, excluded_idx):
        """The witness for one excluded edge as a list in vertex order, or
        None."""
        tab, full = self.tab, self.full
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
        if not self._solve(order, 0):
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
                ones = twos = 0
                for t in ids:
                    a = alive[t] & scope
                    twos |= ones & a
                    ones |= a
                if ones != scope:
                    return False
                for t in kill[p][x]:
                    alive[t] &= rest
                unit = ones ^ twos
                if unit:
                    if pending is None:
                        pending = 0
                        for b in unassigned:
                            pending |= b
                    unit &= pending
                    if unit:
                        self._force(unit, ids, stack)
        return True

    def _solve(self, order, depth):
        val = self.val
        while depth < len(order) and val[order[depth]] >= 0:
            depth += 1
        if depth == len(order):
            return True
        v = order[depth]
        alive, unassigned = self.alive, self.unassigned
        saved = alive[:], unassigned[:]
        trail = self.trail
        mark = len(trail)
        p, scope, _ = self.occ[v][0]
        agree = self.tab.keep[p]
        for x in self.tab.values:
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
            if self._run([v]) and self._solve(order, depth + 1):
                return True
            alive[:], unassigned[:] = saved
            while len(trail) > mark:
                val[trail.pop()] = -1
        return False


def verify_nrd(h, pq, mode="find-witnesses", certificate=None,
               max_assignments=None):
    """Verify (conditional) non-redundancy of an instance.

    find-witnesses: search a violating assignment for every edge, each the
    first in `WitnessSearch` order; at most max_assignments value trials in
    all (None: no budget), else BudgetExceeded whose `partial` is the
    number of edges witnessed.
    check-given: re-verify a supplied certificate edge by edge.
    Returns an NrdCertificate on success, NrdFailure on the first bad edge.
    """
    pq = as_conditional(pq)
    if max_assignments is not None and max_assignments < 0:
        raise InstanceError("the assignment budget must not be negative")
    if mode == "check-given":
        if certificate is None:
            raise InstanceError("check-given mode needs a certificate")
        return _check_certificate(h, pq, certificate)
    if mode != "find-witnesses":
        raise InstanceError(f"unknown mode {mode!r}")
    if h.edges and h.arity != pq.arity:
        raise InstanceError("instance arity does not match predicate arity")
    search = WitnessSearch(instance_index(h, pq.arity), pq, h.vertices(),
                           budget=max_assignments)
    witnesses = {}
    for i, e in enumerate(h.edges):
        try:
            w = search.witness(i)
        except BudgetExceeded:
            raise BudgetExceeded(
                f"assignment budget of {max_assignments} exceeded with "
                f"{i} of {len(h.edges)} edges witnessed", partial=i) from None
        if w is None:
            return NrdFailure(e)
        witnesses[e] = w
    return NrdCertificate(witnesses)


def _check_certificate(h, pq: ConditionalPredicate, certificate):
    """Check the witnesses in blocks; a block with any failure is checked
    again one witness at a time, so the failure reported is the first in
    edge order."""
    edges = h.edges
    if set(certificate.witnesses) != set(edges):
        raise InstanceError("certificate must cover exactly the instance edges")
    kernel = WitnessKernel(instance_index(h, pq.arity), pq, h.vertices())
    psis = [certificate.witnesses[e] for e in edges]
    size = kernel.block
    for lo in range(0, len(edges), size):
        if kernel.failure(psis[lo:lo + size], lo) is None:
            continue
        for i in range(lo, min(lo + size, len(edges))):
            reason = kernel.failure(psis[i:i + 1], i)
            if reason is not None:
                return NrdFailure(edges[i], reason)
    return NrdCertificate(dict(certificate.witnesses))


# --- the witness kernel ----------------------------------------------

# Entries in one level of a RadixTable; elements in the largest temporary
# array of a block of witnesses (2**15 int64 arrays checked R2S2 q=3 in
# about 25 ms against about 45 ms with 2**16).
_TABLE_LIMIT = 1 << 16
_BLOCK_LIMIT = 1 << 15


class MalformedWitness(InstanceError):
    """A witness that does not assign exactly the instance's vertices
    integer values in [0, d)."""


class RadixTable:
    """Integer labels of tuples over [0, d)^r; a tuple not given reads
    `missing`.

    The r positions are split into consecutive strides.  Level l maps a
    state (a live prefix: the values of some given tuple on the strides
    before l) and the values on stride l to the next state, or at the last
    level to a label, through one dense array of states x d**k entries.
    Each stride is as long as keeps its array within 2**16 entries, and at
    least one position.  A prefix that no given tuple has falls into the
    dead state 0, whose row leads to `missing`.  For d**r <= 2**16 there is
    one level, so a lookup is one gather; a larger d**r takes more levels,
    each of at most max(2**16, (tuples given + 1) x d) entries.
    """

    def __init__(self, tuples, labels, d, r, missing=-1):
        labels = np.asarray(labels, dtype=np.intp)
        tuples = np.asarray(tuples, dtype=np.intp).reshape(len(labels), r)
        self.d, self.r, self.missing = d, r, missing
        self.strides, self.tables = [], []
        # level 0 has one state, the root
        state, states, start = np.zeros(len(labels), dtype=np.intp), 1, 0
        while True:
            k = min(1, r - start)
            while start + k < r and states * d ** (k + 1) <= _TABLE_LIMIT:
                k += 1
            code = state * d ** k + sum(
                (tuples[:, start + j] * d ** j for j in range(k)), 0)
            self.strides.append((start, k))
            start += k
            if start == r:
                table = np.full(states * d ** k, missing, dtype=np.intp)
                table[code] = labels
                self.tables.append(table)
                return
            live, state = np.unique(code, return_inverse=True)
            table = np.zeros(states * d ** k, dtype=np.intp)
            table[live] = np.arange(1, len(live) + 1)
            self.tables.append(table)
            state, states = state + 1, len(live) + 1

    def lookup(self, values, cols):
        """Labels of the tuples (values[b, cols[0, e]], ..., values[b,
        cols[r-1, e]]), as an array indexed [b, e]; every value must lie in
        [0, d)."""
        d, labels = self.d, None
        for (start, k), table in zip(self.strides, self.tables):
            code = None if labels is None else labels * d ** k
            for j in range(k):
                col = np.take(values if j == 0 else values * d ** j,
                              cols[start + j], axis=1)
                code = col if code is None else np.add(code, col, out=code)
            if code is None:  # r = 0
                code = np.zeros((len(values), cols.shape[1]), dtype=np.intp)
            labels = np.take(table, code)
        return labels

    def __getitem__(self, tuples):
        """Labels of the rows of an (n x r) array of tuples."""
        tuples = np.asarray(tuples, dtype=np.intp)
        tuples = tuples.reshape(len(tuples), self.r)
        return self.lookup(tuples, np.arange(self.r).reshape(self.r, 1))[:, 0]


def _getter(keys):
    """psi -> tuple of psi[k] for k in keys, at C speed; KeyError if one is
    missing."""
    if len(keys) == 1:
        key = keys[0]
        return lambda psi: (psi[key],)
    return itemgetter(*keys) if keys else lambda psi: ()


_IN_BASE, _OUTSIDE = 1, 2


class WitnessKernel:
    """Witness checks on one instance for one predicate pair, a block of
    witnesses at a time.

    Set up once from an InstanceIndex, whose r x m array `cols` holds the
    vertex at each position of each edge, and the labels of its vertices
    (None for the target of a transfer, which validates no witnesses of
    its own), plus a RadixTable marking the tuples of P and Q \\ P.  Per
    block: validate the witnesses into one array, look up every edge's
    tuple under every witness with one column gather per position, and
    compare with the label each must have.  A block holds at most
    2**15 / max(m, n) witnesses, so no temporary array exceeds 2**15
    elements.
    """

    def __init__(self, index, pq, vertices):
        pq = as_conditional(pq)
        self.vertices, self.n, self.m = vertices, index.n, index.m
        self.d, self.r = pq.domain_size, pq.arity
        self.cols = index.cols
        base, outside = pq.base.tuples, pq.outside()
        self.table = RadixTable(
            list(base) + list(outside),
            [_IN_BASE] * len(base) + [_OUTSIDE] * len(outside),
            self.d, self.r, missing=0)
        self.block = max(1, _BLOCK_LIMIT // max(self.m, self.n, 1))
        self._get = None if vertices is None else _getter(vertices)

    def edge(self, j):
        """Edge j as a tuple of vertex labels."""
        return tuple(self.vertices[v] for v in self.cols[:, j].tolist())

    def values(self, psis):
        """The witnesses as a (len(psis) x n) array in vertex order, after
        checking that each assigns exactly the instance's vertices, each an
        integer in [0, d) (numpy integers too).  Raises MalformedWitness
        naming the first problem of the first malformed witness."""
        get, n = self._get, self.n
        rows = []
        for psi in psis:
            try:
                vals = get(psi)
            except KeyError:
                raise self._malformed(psi) from None
            if len(psi) != n or not set(map(type, vals)) <= {int}:
                exc = self._malformed(psi)
                if exc is not None:
                    raise exc
            rows.append(vals)
        try:
            vals = np.array(rows, dtype=np.int64).reshape(len(rows), n)
            ok = not vals.size or (vals.min() >= 0 and vals.max() < self.d)
        except OverflowError:
            ok = False
        if not ok:
            raise next(filter(None, map(self._malformed, psis)))
        return vals

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

    def first_failure(self, labels, start):
        """(k, j) for the first witness k whose edge j has the wrong label
        (Q \\ P for its excluded edge start + k, P for every other), j the
        first such edge; None when every witness passes.  labels is a
        RadixTable lookup indexed [witness, edge]."""
        ok = labels == _IN_BASE
        k = np.arange(len(labels))
        ok[k, start + k] = labels[k, start + k] == _OUTSIDE
        if ok.all():
            return None
        k = int(ok.all(axis=1).argmin())
        return k, int(ok[k].argmin())

    def failure(self, psis, start):
        """None if psis[k] is a witness for edge start + k, for every k;
        else why one is not.  A malformed witness is reported before any
        edge is looked at, so only a block of one is sure to get the reason
        of its first failure in edge order."""
        try:
            vals = self.values(psis)
        except MalformedWitness as exc:
            return str(exc)
        bad = self.first_failure(self.table.lookup(vals, self.cols), start)
        if bad is None:
            return None
        k, j = bad
        if j == start + k:
            return "witness does not (Q\\P)-satisfy its edge"
        return f"witness fails to P-satisfy {self.edge(j)}"


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
    searches c itself.

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
    cand_cols = np.array(cands, dtype=np.intp).reshape(len(cands), pq.arity).T
    base = frozenset(pq.base.tuples)
    checks = [0]
    best = {"size": 0, "edges": ()}

    def feasible(edge_list, witnesses):
        """Witness values for the candidates edge_list, given those of all
        but its last edge, or None when it is redundant."""
        checks[0] += 1
        if max_checks is not None and checks[0] > max_checks:
            raise BudgetExceeded(
                f"search budget of {max_checks} feasibility checks exceeded; "
                f"best size so far {best['size']}", partial=best["size"])
        # labelled by number: the tie-break moves witnesses, not the answer
        search = WitnessSearch(InstanceIndex(n, cand_cols[:, edge_list]), pq,
                               range(n))
        c = cands[edge_list[-1]]
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

    def extend(edge_list, witnesses, start, used):
        if len(edge_list) > best["size"]:
            best["size"] = len(edge_list)
            best["edges"] = tuple(edge_list)
        for i in range(start, len(cands)):
            if len(edge_list) + (len(cands) - i) <= best["size"]:
                break
            now = list(used)
            for p, v in zip(part_of, cands[i]):
                if v > now[p]:
                    break  # skips the lowest unused vertex of part p
                if v == now[p]:
                    now[p] += 1
            else:
                nxt = edge_list + [i]
                ws = feasible(nxt, witnesses)
                if ws is not None:
                    extend(nxt, ws, i + 1, now)

    extend([], [], 0, start)  # the lowest unused vertex of each part
    return best["size"], make(cands[i] for i in best["edges"])


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


def _first_use(rows, n):
    """Number the distinct columns of rows (values in [0, n)) 0, 1, ... in
    order of first use: (each column's number, each number's first column)."""
    code, top = np.zeros(rows.shape[1], dtype=np.int64), 1
    for row in rows:  # mixed radix, renumbered densely before it overflows
        if top * n >= 1 << 62:
            code = np.unique(code, return_inverse=True)[1].reshape(-1)
            top = len(code)
        code, top = code * n + row, top * n
    _, first, code = np.unique(code, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return np.argsort(order)[code.reshape(-1)], first[order]


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
    index, with no vertex labels made until `Projection.instance` is read."""
    if fam.source_arity != h.arity:
        raise InstanceError("index family arity does not match instance")
    index = instance_index(h, h.arity)
    rows, sources, n = [], [], 0  # empty I -> one shared () vertex
    for I in fam.sets:
        key = index.cols[[i - 1 for i in I]]
        number, first = _first_use(key, index.n)
        rows.append(number + n)
        sources.append(key[:, first])  # the source vertices of each vertex
        n += len(first)
    rows = np.array(rows, dtype=np.intp).reshape(len(rows), index.m)
    cols = np.ascontiguousarray(rows[:, _first_use(rows, n)[1]])
    cols.setflags(write=False)

    def make():
        labels = h.vertices()
        parts = [[projection_label(j, tuple(labels[v] for v in vs))
                  for vs in source.T.tolist()]
                 for j, source in enumerate(sources, 1)]
        vertices = list(chain.from_iterable(parts))
        return PartiteHypergraph(parts, (tuple(vertices[v] for v in e)
                                         for e in cols.T.tolist()))
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
    nonempty proper subset I of [r], by size and then lexicographically."""
    r = h.arity
    index = instance_index(h, r)
    rep = ShrinkReport(index.m)
    for size in range(1, r):
        for I in combinations(range(1, r + 1), size):
            count = len(_first_use(index.cols[[i - 1 for i in I]], index.n)[1])
            rep.factors[I] = (count, index.m / count if count else float("inf"))
    return rep
