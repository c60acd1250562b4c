"""r-partite hypergraph instances and non-redundancy machinery.

An instance of a CSP over predicate P is a hypergraph whose ordered edges are
the constraint scopes.  It is non-redundant when every edge can be violated
by an assignment satisfying all the others; for a conditional pair P | Q the
violated edge must land in Q \\ P.
"""

from __future__ import annotations

import functools
import os
import signal
import struct
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


def _labels(x):
    """_array(x) for a JSON array of vertex labels, each of which must be a
    string (a witness file keys its values by label, and JSON keys are
    strings); anything else is a TypeError."""
    labels = _array(x)
    for v in labels:
        if not isinstance(v, str):
            raise TypeError(f"vertex label {v!r} is not a string")
    return labels


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
            return cls(tuple(map(_labels, _array(d["parts"]))),
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
    """What the witness search and check kernel need of one predicate pair.

    The tuples T are those of P followed by those of Q \\ P.  For each
    (position p, value x), `keep[p][x]` lists the tuples with t[p] == x and
    `kill[p][x]` the others.  `table`, built on first read, numbers a tuple
    by its position in T, and a tuple outside Q by len(T).
    """

    def __init__(self, pq: ConditionalPredicate):
        self.r, self.d = pq.arity, pq.domain_size
        self.tuples = tuple(pq.base.tuples) + pq.outside()
        self.n_base = len(pq.base.tuples)
        self.keep = tuple(
            tuple(tuple(i for i, t in enumerate(self.tuples) if t[p] == x)
                  for x in range(self.d)) for p in range(self.r))
        self.kill = tuple(
            tuple(tuple(i for i, t in enumerate(self.tuples) if t[p] != x)
                  for x in range(self.d)) for p in range(self.r))
        self.values = tuple(_value_order(pq))
        self.default_value = pq.base.tuples[0][0] if pq.base.tuples else 0

    @functools.cached_property
    def table(self):
        return RadixTable(self.tuples, self.d, self.r)


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
    break degree ties and key the dicts of `witness`.  `push` adds an edge
    after the others and `pop` removes the last one; both rebuild only the
    per-vertex entries of the edge's vertices (of every vertex when `push`
    outgrows `cap`).  Edge k keeps bit k, so a search grown and shrunk this
    way finds the witnesses, in the same number of trials, that a search
    set up afresh on the same edge list finds.
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

    def witness(self, excluded_idx):
        """The witness for one excluded edge as a dict over every vertex, or
        None."""
        vals = self.values(excluded_idx)
        return None if vals is None else dict(zip(self.vertices, vals))

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
    number of edges witnessed.  With `os.fork` and w >= 2 CPUs, up to w
    ranges of at least _SPLIT_MIN_EDGES edges are searched at once, here
    and in forked children that never outlive the call, with the outcome
    of one process.  The budget decides in edge order and caps each
    process's trials too, so the work in all can reach w times the budget.
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
    return _find_witnesses(h, pq, max_assignments, _workers(len(h.edges)))


# Fewest edges a process of a split find-witnesses searches, so that R1S1
# q=2 (147 edges) and R2S2 q=2 (441) stay in one process.
_SPLIT_MIN_EDGES = 256
# A child's record of one edge: its trials, whether it has a witness, and
# the witness's values in vertex order (one byte each, since a domain has
# at most 256 values; zeros without a witness).
_RECORD = struct.Struct("<q?")


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
            witnesses[h.edges[i]] = w
        return NrdCertificate(witnesses)
    finally:
        for pid, fh in children:
            fh.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _search_range(search, lo, hi):
    """Yield (witness or None, trials) for the edges lo..hi-1; stop after
    an edge without a witness, or at one where this process's search
    passes the budget.  Its count never exceeds the trials of all edges up
    to that one, so their sum in edge order is past the budget there too."""
    for i in range(lo, hi):
        before = search.trials
        try:
            w = search.witness(i)
        except BudgetExceeded:
            w = None
        yield w, search.trials - before
        if w is None:
            return


def _fork_range(search, lo, hi):
    """Fork a child that searches the edges lo..hi-1 and writes their
    records to a pipe; return its pid (None if the fork failed) and the
    pipe's read end.  The child runs only the pure-Python search (never
    numpy, whose threads a fork does not copy) and writes once at the end,
    so that it never waits for the parent to read."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        try:  # whatever happens, the child never returns to the caller
            out = bytearray()
            for wit, t in _search_range(search, lo, hi):
                out += _RECORD.pack(t, wit is not None)
                out += bytes(search.n) if wit is None else bytes(wit.values())
            with open(w, "wb") as fh:
                fh.write(out)
        finally:
            os._exit(0)
    os.close(w)
    return pid, open(r, "rb")


def _read_range(search, fh, lo, hi):
    """What _search_range(search, lo, hi) yields, read from a child's
    records, and searched here from the first record missing or cut short
    (the child died)."""
    size = _RECORD.size + search.n
    for i in range(lo, hi):
        rec = fh.read(size)
        if len(rec) < size:
            yield from _search_range(search, i, hi)
            return
        t, found = _RECORD.unpack_from(rec)
        if not found:
            yield None, t
            return
        yield dict(zip(search.vertices, rec[_RECORD.size:])), t


def _check_certificate(h, pq: ConditionalPredicate, certificate):
    edges = h.edges
    if set(certificate.witnesses) != set(edges):
        raise InstanceError("certificate must cover exactly the instance edges")
    bad = WitnessKernel(h, pq).check(lambda i: certificate.witnesses[edges[i]])
    if bad is None:
        return NrdCertificate(dict(certificate.witnesses))
    if bad.malformed is not None:
        reason = str(bad.malformed)
    elif bad.wrong == bad.edge:
        reason = "witness does not (Q\\P)-satisfy its edge"
    else:
        reason = f"witness fails to P-satisfy {edges[bad.wrong]}"
    return NrdFailure(edges[bad.edge], reason)


# --- the witness kernel ----------------------------------------------

# Entries in one level of a RadixTable; elements in the largest temporary
# array of a block of witnesses (with uint16 elements, 2**16 checked R2S2
# q=3 at about 11 us a witness, against 14 us with 2**15 and 10 us with
# 2**17, whose arrays take twice the memory; R1S1 q=3 took 4-5 us with
# each).
_TABLE_LIMIT = 1 << 16
_BLOCK_LIMIT = 1 << 16


class MalformedWitness(InstanceError):
    """A witness that does not assign exactly the instance's vertices
    integer values in [0, d)."""


class RadixTable:
    """The position of a tuple over [0, d)^r in a list of distinct tuples;
    a tuple not in the list reads the list's length.

    The r positions are split into consecutive strides.  Level l maps a
    state (a live prefix: the values of some listed tuple on the strides
    before l) and the values on stride l to the next state, or at the last
    level to a position, through one dense array of states x d**k entries.
    Each stride is as long as keeps its array within 2**16 entries, and at
    least one position.  A prefix that no listed tuple has falls into the
    dead state 0, whose row leads to the list's length.  For d**r <= 2**16
    there is one level, so a lookup is one gather; a larger d**r takes more
    levels, each of at most max(2**16, (tuples listed + 1) x d) entries.

    `lookup` is laid out for blocks of witnesses: it takes their values
    vertex-major, an (n x B) array, and returns the positions edge-major,
    (m x B), so the gather of each tuple position copies whole rows of B
    values.

    `dtype`, fixed when the table is built, is uint16 when every level's
    codes, the list's length (the largest entry) and every scale a lookup
    multiplies by are below 2**16, as for every bundled pair, and intp
    otherwise (a level of more than 2**16 entries).  Values, codes, states
    and positions all take it, and the scales are numpy scalars of it, so
    the arithmetic stays in it under numpy 1.x's value-based casting and
    under NEP 50 alike.
    """

    def __init__(self, tuples, d, r):
        n = len(tuples)
        tuples = np.asarray(tuples, dtype=np.intp).reshape(n, r)
        self.d, self.r = d, r
        self.strides, self.tables = [], []
        # level 0 has one state, the root
        state, states, start = np.zeros(n, dtype=np.intp), 1, 0
        while True:
            k = min(1, r - start)
            while start + k < r and states * d ** (k + 1) <= _TABLE_LIMIT:
                k += 1
            code = state * d ** k + sum(
                (tuples[:, start + j] * d ** j for j in range(k)), 0)
            self.strides.append((start, k))
            start += k
            if start == r:
                table = np.full(states * d ** k, n, dtype=np.intp)
                table[code] = np.arange(n)
                self.tables.append(table)
                break
            live, state = np.unique(code, return_inverse=True)
            table = np.zeros(states * d ** k, dtype=np.intp)
            table[live] = np.arange(1, len(live) + 1)
            self.tables.append(table)
            state, states = state + 1, len(live) + 1
        # a level past the first scales its state by d**k, and the j-th
        # position of a stride its values by d**j; no entry exceeds n
        scales = [d ** k for _, k in self.strides[1:]]
        top = max(n, *scales, *(t.size - 1 for t in self.tables))
        self.dtype = np.dtype(np.uint16 if top < 1 << 16 else np.intp)
        self.tables = [t.astype(self.dtype) for t in self.tables]
        self._scales = [None] + [self.dtype.type(s) for s in scales]
        self._powers = [self.dtype.type(d ** j)
                        for j in range(max(k for _, k in self.strides))]

    def lookup(self, values, cols):
        """Positions of the tuples (values[cols[0, e], b], ...,
        values[cols[r-1, e], b]), as an array indexed [e, b]; values holds
        one row per vertex, of `dtype` and in [0, d).  The table gather
        widens the codes to intp internally, the largest temporary array of
        a lookup."""
        state = None
        for (start, k), scale, table in zip(self.strides, self._scales,
                                            self.tables):
            code = None if state is None else np.multiply(state, scale,
                                                          out=state)
            for j in range(k):
                col = np.take(values if j == 0 else values * self._powers[j],
                              cols[start + j], axis=0)
                code = col if code is None else np.add(code, col, out=code)
                del col  # one block-sized array less during the table take
            if code is None:  # r = 0
                code = np.zeros((cols.shape[1], values.shape[1]),
                                dtype=self.dtype)
            state = np.take(table, code)
        return state

    def __getitem__(self, tuples):
        """Positions of the rows of an (n x r) array of tuples."""
        tuples = np.asarray(tuples, dtype=np.intp)
        tuples = tuples.reshape(len(tuples), self.r)
        values = np.ascontiguousarray(tuples.T, dtype=self.dtype)
        return self.lookup(values, np.arange(self.r).reshape(self.r, 1))[0]


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


class WitnessKernel:
    """The witness check of one instance for one predicate pair.

    `check` reads the witnesses a block at a time, in edge order.  A block
    of B witnesses is validated into one (n x B) array, a row per vertex,
    of the table's dtype (values in [0, d)), and every edge's tuple under
    every witness is numbered with one row gather per position of the
    instance's index, by the pair's `_TupleTables.table`: an (m x B) array
    of P below n_base, then Q \\ P, then len(tuples) outside Q.  `block`,
    B, is at most 2**16 / max(m, n) witnesses and at least one, so no
    temporary array of a block exceeds 2**16 elements unless one witness
    does (m > 2**16 edges).
    """

    def __init__(self, h, pq):
        pq = as_conditional(pq)
        index = instance_index(h, pq.arity)
        self.vertices, self.n, self.m = h.vertices(), index.n, index.m
        self.d, self.cols = pq.domain_size, index.cols
        self.tab = _tuple_tables(pq)
        self.block = max(1, _BLOCK_LIMIT // max(self.m, self.n, 1))
        self._get = _getter(self.vertices)

    def check(self, witness):
        """None if witness(i) is a witness for edge i, for every edge i; else
        the WitnessFailure of the first i in edge order for which it is not.
        witness is called once per edge, in edge order, and never past the
        first failing block, which is checked again one witness at a time:
        a malformed witness anywhere in a block fails the block as a
        whole."""
        for lo in range(0, self.m, self.block):
            psis = [witness(i) for i in range(lo, min(lo + self.block, self.m))]
            if self._failure(psis, lo) is not None:
                return next(filter(None, (self._failure([psi], lo + k)
                                          for k, psi in enumerate(psis))))
        return None

    def _failure(self, psis, start):
        """The WitnessFailure of the first psis[k] that is not a witness for
        edge start + k, or None; a block with a malformed witness fails as
        the witness of edge start."""
        try:
            vals = self._values(psis)
        except MalformedWitness as exc:
            return WitnessFailure(start, exc)
        numbers = self.tab.table.lookup(vals, self.cols)
        n_base, outside = self.tab.n_base, len(self.tab.tuples)
        ok = numbers < n_base
        k = np.arange(len(psis))
        x = numbers[start + k, k]
        ok[start + k, k] = (n_base <= x) & (x < outside)
        if ok.all():
            return None
        k = int(ok.all(axis=0).argmin())
        failure = WitnessFailure(start + k, None, int(ok[:, k].argmin()))
        out = np.flatnonzero(numbers[:, k] == outside)
        if not len(out):
            return failure
        j = int(out[0])
        return failure._replace(
            outside=(j, tuple(vals[self.cols[:, j], k].tolist())))

    def _values(self, psis):
        """The witnesses as an (n x len(psis)) array of the table's dtype, a
        row per vertex in vertex order, after checking that each assigns
        exactly the instance's vertices, each an integer in [0, d) (numpy
        integers too).  Raises MalformedWitness naming the first problem of
        the first malformed witness."""
        get, n = self._get, self.n
        rows = []
        for psi in psis:
            try:
                rows.append(get(psi))
            except KeyError:
                raise self._malformed(psi) from None
            if len(psi) != n:
                raise self._malformed(psi)
        # one type check for the whole block; numpy integers pass _malformed
        if not set(map(type, chain.from_iterable(rows))) <= {int}:
            exc = next(filter(None, map(self._malformed, psis)), None)
            if exc is not None:
                raise exc
        try:
            vals = np.fromiter(chain.from_iterable(rows), dtype=np.intp,
                               count=len(rows) * n)
            ok = not vals.size or (vals.min() >= 0 and vals.max() < self.d)
        except OverflowError:
            ok = False
        if not ok:
            raise next(filter(None, map(self._malformed, psis)))
        return np.ascontiguousarray(vals.reshape(len(rows), n).T,
                                    dtype=self.tab.table.dtype)

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
