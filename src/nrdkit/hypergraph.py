"""r-partite hypergraph instances and non-redundancy machinery.

An instance of a CSP over predicate P is a hypergraph whose ordered edges are
the constraint scopes.  It is non-redundant when every edge can be violated
by an assignment satisfying all the others; for a conditional pair P | Q the
violated edge must land in Q \\ P.
"""

from __future__ import annotations

import functools
import logging
import warnings
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .predicates import ConditionalPredicate, IndexFamily, Predicate, PredicateError

log = logging.getLogger(__name__)


class InstanceError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    def __init__(self, msg, partial=None):
        super().__init__(msg)
        self.partial = partial


@dataclass(frozen=True)
class PartiteHypergraph:
    """Parts V_1..V_r of string labels, edges in V_1 x ... x V_r."""

    parts: tuple
    edges: tuple

    def __post_init__(self):
        parts = tuple(tuple(p) for p in self.parts)
        edges = tuple(tuple(e) for e in self.edges)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "edges", edges)
        seen = set()
        for p in parts:
            for v in p:
                if v in seen:
                    raise InstanceError(f"vertex {v!r} appears in two parts")
                seen.add(v)
        part_sets = [set(p) for p in parts]
        if len(set(edges)) != len(edges):
            raise InstanceError("duplicate edges are not allowed")
        for e in edges:
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
        return cls(tuple(tuple(p) for p in d["parts"]),
                   tuple(tuple(e) for e in d["edges"]))


@dataclass(frozen=True)
class Hypergraph:
    """Plain (non-partite) instance: ordered edges over one vertex set."""

    vertex_set: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertex_set", tuple(self.vertex_set))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        vs = set(self.vertex_set)
        if len(set(self.edges)) != len(self.edges):
            raise InstanceError("duplicate edges are not allowed")
        for e in self.edges:
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
        return cls(tuple(d["vertices"]), tuple(tuple(e) for e in d["edges"]))


@dataclass
class NrdCertificate:
    """Per-edge witness assignments; witnesses[e] violates e, satisfies the rest."""

    witnesses: dict  # edge tuple -> {vertex: value}
    verified: bool = False

    def to_dict(self, h):
        return {str(i): dict(self.witnesses[e]) for i, e in enumerate(h.edges)}

    @classmethod
    def from_dict(cls, h, d):
        """Witnesses keyed by edge index; every value must be a JSON integer
        (the domain range is the checker's business, not the parser's)."""
        if set(d) != {str(i) for i in range(len(h.edges))}:
            raise InstanceError("certificate keys must be the edge indices "
                                f"0..{len(h.edges) - 1}")
        witnesses = {}
        for i, e in enumerate(h.edges):
            psi = d[str(i)]
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
    relation).  Assigning v := x clears v's edges out of the tuples that
    disagree with x at each position of v.  A sweep over the tuples that
    agree then finds v's edges left with no tuple (a conflict) or with one
    (unit: its tuple forces the edge's unassigned vertices).  Per-position
    bitsets of edges with an unassigned vertex keep fully assigned edges
    out of the unit step.  A decision level is undone by restoring a
    snapshot of the |T| + r bitsets.

    Vertices are decided in a fixed order, the excluded edge's first, then
    by decreasing degree and by label; values in `_value_order`.  Pruning is
    sound, so the witness returned is the first solution in that
    lexicographic order.  Vertices on no edge take the first value of the
    first tuple of P.

    `trials` counts value trials at decision points (forced values are not
    counted); a search raises BudgetExceeded once it passes `budget`.  Edges
    that are unit from the start, such as the excluded edge when Q \\ P has
    one tuple, are propagated before the first decision, so their vertices
    cost no trials (292 032 trials for all 2704 edges of R2S2 q=3).
    """

    def __init__(self, vertices, edges, pq, budget=None):
        tab = self.tab = _tuple_tables(as_conditional(pq))
        r = tab.r
        self.vertices = list(dict.fromkeys(vertices))
        vidx = {v: i for i, v in enumerate(self.vertices)}
        self.edges = []
        for e in edges:
            if len(e) != r:
                raise InstanceError(f"edge {e} does not match arity {r}")
            self.edges.append(tuple(vidx[v] for v in e))
        self.full = full = (1 << len(self.edges)) - 1
        bits = [[0] * r for _ in self.vertices]
        for i, e in enumerate(self.edges):
            for p, v in enumerate(e):
                bits[v][p] |= 1 << i
        # (position, edges of v there, every other edge) for each vertex
        self.occ = [tuple((p, b, full ^ b) for p, b in enumerate(bv) if b)
                    for bv in bits]
        degree = [sum(b.bit_count() for b in bv) for bv in bits]
        self.by_degree = sorted((i for i, k in enumerate(degree) if k),
                                key=lambda i: (-degree[i], self.vertices[i]))
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
        self.val = [-1] * len(self.vertices)
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
                for t in kill[p][x]:
                    alive[t] &= rest
                unassigned[p] &= rest
            pending = None
            for p, scope, _ in occ_v:
                ids = keep[p][x]
                ones = twos = 0
                for t in ids:
                    a = alive[t] & scope
                    twos |= ones & a
                    ones |= a
                if ones != scope:
                    return False
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
        alive, unassigned = self.alive[:], self.unassigned[:]
        trail = self.trail
        mark = len(trail)
        for x in self.tab.values:
            self.trials += 1
            if self.budget is not None and self.trials > self.budget:
                raise BudgetExceeded("assignment budget exceeded")
            val[v] = x
            trail.append(v)
            if self._run([v]) and self._solve(order, depth + 1):
                return True
            self.alive[:] = alive
            self.unassigned[:] = unassigned
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
    if h.arity != pq.arity:
        raise InstanceError("instance arity does not match predicate arity")
    search = WitnessSearch(h.vertices(), h.edges, pq, budget=max_assignments)
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
    return NrdCertificate(witnesses, verified=True)


def _check_certificate(h, pq: ConditionalPredicate, certificate):
    edges = h.edges
    if set(certificate.witnesses) != set(edges):
        raise InstanceError("certificate must cover exactly the instance edges")
    kernel = WitnessKernel.of(h, pq)
    for i, e in enumerate(edges):
        try:
            reason = kernel.check(certificate.witnesses[e], i)
        except MalformedWitness as exc:
            return NrdFailure(e, str(exc))
        if reason is not None:
            return NrdFailure(e, reason)
    return NrdCertificate(dict(certificate.witnesses), verified=True)


# --- the witness kernel ----------------------------------------------

class MalformedWitness(InstanceError):
    """A witness that does not assign exactly the instance's vertices
    integer values in [0, d)."""


class CodeTable:
    """Integer labels of tuple codes; a code not given reads `missing`.

    A lookup is one binary search over the sorted codes, so the table is
    as small as the tuples given, whatever d**r is.
    """

    def __init__(self, codes, labels, size, missing=-1):
        codes = np.asarray(codes, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        self.missing = missing
        order = np.argsort(codes)
        # the sentinel `size` is above every code, so a search never runs
        # off the end
        self.keys = np.append(codes[order], size)
        self.labels = np.append(labels[order], missing)

    def __getitem__(self, codes):
        pos = np.searchsorted(self.keys, codes)
        return np.where(self.keys[pos] == codes, self.labels[pos], self.missing)


_IN_BASE, _OUTSIDE = 1, 2


class WitnessKernel:
    """Encoded witness checks on one instance for one predicate pair.

    Set up once: a vertex-index map, the m x r edge-index matrix, the
    weights d**i of the tuple code sum(x_i * d**i), and a table over the
    d**r codes marking P and Q \\ P.  Per witness: validate it, gather the
    codes of all edges, and report the first failing edge in edge order.
    Without base/outside tuples the kernel only validates and encodes.
    """

    def __init__(self, vertices, edges, domain_size, arity, base=(), outside=()):
        self.vertices = list(dict.fromkeys(vertices))
        self.vidx = {v: i for i, v in enumerate(self.vertices)}
        self.edges = tuple(edges)
        self.d, self.r = domain_size, arity
        self.size = domain_size ** arity
        if self.size >= 1 << 62:
            raise InstanceError(f"tuple codes over {domain_size}^{arity} "
                                "do not fit in 64 bits")
        self.weights = domain_size ** np.arange(arity, dtype=np.int64)
        for e in self.edges:
            if len(e) != arity:
                raise InstanceError(f"edge {e} does not match arity {arity}")
        self.em = np.array([[self.vidx[v] for v in e] for e in self.edges],
                           dtype=np.intp).reshape(len(self.edges), arity)
        self.table = CodeTable(
            self.encode(list(base) + list(outside)),
            [_IN_BASE] * len(base) + [_OUTSIDE] * len(outside), self.size, 0)

    @classmethod
    def of(cls, h, pq):
        pq = as_conditional(pq)
        return cls(h.vertices(), h.edges, pq.domain_size, pq.arity,
                   pq.base.tuples, pq.outside())

    def encode(self, tuples):
        """Codes of domain tuples given as a list."""
        return (np.array(tuples, dtype=np.int64).reshape(len(tuples), self.r)
                @ self.weights)

    def values(self, psi):
        """The witness as an array in vertex order, after checking that it
        assigns exactly the instance's vertices, each an integer in [0, d)."""
        try:
            vals = [psi[v] for v in self.vertices]
        except KeyError:
            missing = next(v for v in self.vertices if v not in psi)
            raise MalformedWitness(
                f"witness has no value for vertex {missing!r}") from None
        if len(psi) != len(vals):
            extra = next(v for v in psi if v not in self.vidx)
            raise MalformedWitness(
                f"witness assigns {extra!r}, which is not a vertex of the instance")
        d = self.d
        if not all(type(x) is int and 0 <= x < d for x in vals):
            for v, x in zip(self.vertices, vals):
                if not (isinstance(x, (int, np.integer))
                        and not isinstance(x, (bool, np.bool_)) and 0 <= x < d):
                    raise MalformedWitness(f"witness value {x!r} for vertex {v!r} "
                                           f"is not an integer in [0, {d})")
        return np.array(vals, dtype=np.int64)

    def codes(self, vals):
        """Tuple code of every edge under validated values."""
        return vals[self.em] @ self.weights

    def first_failure(self, codes, excluded_idx):
        """Index of the first edge whose code is not where it must be (Q \\ P
        for the excluded edge, P for every other), or None."""
        labels = self.table[codes]
        ok = labels == _IN_BASE
        ok[excluded_idx] = labels[excluded_idx] == _OUTSIDE
        j = int(ok.argmin())
        return None if ok[j] else j

    def check(self, psi, excluded_idx):
        """None if psi is a witness for the excluded edge, else the reason;
        raises MalformedWitness before any edge is looked at."""
        j = self.first_failure(self.codes(self.values(psi)), excluded_idx)
        if j is None:
            return None
        if j == excluded_idx:
            return "witness does not (Q\\P)-satisfy its edge"
        return f"witness fails to P-satisfy {self.edges[j]}"


# --- exact NRD at toy scale ------------------------------------------


def nrd_exact(pq, n, part_sizes=None, max_checks=2_000_000):
    """Exact maximum size of a non-redundant instance on n vertices.

    Branch-and-bound over candidate edges; non-redundancy is hereditary
    downward so a redundant set prunes all its supersets.  A feasible edge
    list keeps its witnesses: extending it by an edge c re-searches only the
    witnesses whose tuple on c falls outside P, then searches c itself.
    Past max_checks feasibility checks it raises BudgetExceeded whose
    `partial` is the best size found so far.
    """
    pq = as_conditional(pq)
    r = pq.arity
    if part_sizes is not None:
        if sum(part_sizes) != n:
            raise InstanceError("part sizes must sum to n")
        parts = []
        c = 0
        for k in part_sizes:
            parts.append([f"v{c + j + 1}" for j in range(k)])
            c += k
        vs = [v for p in parts for v in p]
        cands = [tuple(e) for e in product(*parts)]
        make = lambda es: PartiteHypergraph(tuple(tuple(p) for p in parts), tuple(es))
    else:
        vs = [f"v{i + 1}" for i in range(n)]
        cands = [tuple(e) for e in product(vs, repeat=r)]
        make = lambda es: Hypergraph(tuple(vs), tuple(es))

    base = frozenset(pq.base.tuples)
    checks = [0]
    best = {"size": 0, "edges": ()}

    def feasible(edge_list, witnesses):
        """Witness values for edge_list, given those of all but its last
        edge, or None when it is redundant."""
        checks[0] += 1
        if checks[0] > max_checks:
            raise BudgetExceeded(
                f"search budget of {max_checks} feasibility checks exceeded; "
                f"best size so far {best['size']}", partial=best["size"])
        search = WitnessSearch(vs, edge_list, pq)
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

    def extend(edge_list, witnesses, start):
        if len(edge_list) > best["size"]:
            best["size"] = len(edge_list)
            best["edges"] = tuple(edge_list)
        for i in range(start, len(cands)):
            if len(edge_list) + (len(cands) - i) <= best["size"]:
                break
            nxt = edge_list + [cands[i]]
            ws = feasible(nxt, witnesses)
            if ws is not None:
                extend(nxt, ws, i + 1)

    extend([], [], 0)
    return best["size"], make(best["edges"])


def nrd_exact_exhaustive(pq, n, part_sizes=None, max_subsets=1 << 18):
    """Independent oracle: enumerate every candidate edge subset."""
    pq = as_conditional(pq)
    r = pq.arity
    vs = [f"v{i + 1}" for i in range(n)]
    cands = [tuple(e) for e in product(vs, repeat=r)]
    if 2 ** len(cands) > max_subsets:
        # Drop edges that can never appear in a non-redundant instance.
        keep = []
        for e in cands:
            res = verify_nrd(Hypergraph(tuple(vs), (e,)), pq)
            if isinstance(res, NrdCertificate):
                keep.append(e)
        cands = keep
    if 2 ** len(cands) > max_subsets:
        raise BudgetExceeded("exhaustive oracle limited to small searches")
    best = 0
    for bits in range(1 << len(cands)):
        es = [cands[i] for i in range(len(cands)) if (bits >> i) & 1]
        if len(es) <= best:
            continue
        res = verify_nrd(Hypergraph(tuple(vs), tuple(es)), pq)
        if isinstance(res, NrdCertificate):
            best = len(es)
    return best


# --- structural operations -------------------------------------------


def to_r_partite(h: Hypergraph, r, seed=0, retries=50):
    """Random colorings retaining rainbow edges, reordered so coordinates
    ascend with part index.

    Suitable for symmetric predicates; retains an expected r!/r^r fraction
    of edges with distinct vertices.  Returns (instance, retained_fraction).
    """
    import random

    rng = random.Random(seed)
    vs = list(h.vertex_set)
    best = None
    for _ in range(max(1, retries)):
        color = {v: rng.randrange(r) for v in vs}
        kept = []
        for e in h.edges:
            cols = [color[v] for v in e]
            if len(set(cols)) == r:
                kept.append(tuple(v for _, v in sorted(zip(cols, e))))
        kept = list(dict.fromkeys(kept))
        if best is None or len(kept) > len(best[0]):
            best = (kept, color)
    kept, color = best
    parts = [tuple(sorted(v for v in vs if color[v] == i)) for i in range(r)]
    frac = len(kept) / len(h.edges) if h.edges else 0.0
    if not kept:
        log.warning("to_r_partite retained no edges after %d retries", retries)
    return PartiteHypergraph(tuple(parts), tuple(kept)), frac


def project_instance(h: PartiteHypergraph, J):
    """Restrict parts to J (1-based) and project edges, deduplicating."""
    J = sorted(set(J))
    if not J or J[0] < 1 or J[-1] > h.arity:
        raise InstanceError(f"projection indices must lie in [1, {h.arity}]")
    idx = [j - 1 for j in J]
    parts = tuple(h.parts[i] for i in idx)
    edges = tuple(dict.fromkeys(tuple(e[i] for i in idx) for e in h.edges))
    return PartiteHypergraph(parts, edges)


def projection_label(j, source_vertices):
    return f"{j}:" + ("|".join(source_vertices) if source_vertices else "()")


def projection_hypergraph(h: PartiteHypergraph, fam: IndexFamily, warn=True):
    """The instance whose part-j vertices are the distinct I_j-projections of
    the edges, with one edge per source edge (collisions merged)."""
    proj, _, mult = projection_map(h, fam, warn=warn)
    return proj, mult


def projection_map(h: PartiteHypergraph, fam: IndexFamily, warn=True):
    """As projection_hypergraph but also returns the projected edge for every
    source edge (needed for witness transfer)."""
    if fam.source_arity != h.arity:
        raise InstanceError("index family arity does not match instance")
    ell = len(fam.sets)
    part_vertices = [dict() for _ in range(ell)]  # projected tuple -> label
    out_edges = []
    per_source = []
    mult = {}
    for e in h.edges:
        coords = []
        for j, I in enumerate(fam.sets):
            key = tuple(e[i - 1] for i in I)  # empty I -> shared () vertex
            lab = part_vertices[j].get(key)
            if lab is None:
                lab = projection_label(j + 1, key)
                part_vertices[j][key] = lab
            coords.append(lab)
        pe = tuple(coords)
        per_source.append(pe)
        mult[pe] = mult.get(pe, 0) + 1
        if mult[pe] == 1:
            out_edges.append(pe)
    collisions = {e: c for e, c in mult.items() if c > 1}
    if collisions and warn:
        warnings.warn(f"projection merged {sum(collisions.values()) - len(collisions)}"
                      " colliding edges", stacklevel=2)
    parts = tuple(tuple(part_vertices[j].values()) for j in range(ell))
    return PartiteHypergraph(parts, tuple(out_edges)), per_source, mult


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


def shrinking_report(h: PartiteHypergraph, families=None) -> ShrinkReport:
    """Projected edge counts |pi_I E| and factors |E| / |pi_I E|.

    families defaults to every nonempty proper subset of [r].
    """
    r = h.arity
    if families is None:
        families = [I for size in range(1, r)
                    for I in combinations(range(1, r + 1), size)]
    m = len(h.edges)
    rep = ShrinkReport(m)
    for I in families:
        I = tuple(sorted(set(I)))
        idx = [i - 1 for i in I]
        count = len(set(tuple(e[i] for i in idx) for e in h.edges))
        rep.factors[I] = (count, m / count if count else float("inf"))
    return rep
