"""r-partite hypergraph instances and non-redundancy machinery.

An instance of a CSP over predicate P is a hypergraph whose ordered edges are
the constraint scopes.  It is non-redundant when every edge can be violated
by an assignment satisfying all the others; for a conditional pair P | Q the
violated edge must land in Q \\ P.
"""

from __future__ import annotations

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


class _SearchContext:
    """Shared precomputation for per-edge witness searches on one instance."""

    def __init__(self, h, pq: ConditionalPredicate):
        if h.arity != pq.arity:
            raise InstanceError("instance arity does not match predicate arity")
        self.h = h
        self.pq = pq
        self.r = pq.arity
        self.d = pq.domain_size
        self.edges = list(h.edges)
        self.base_tuples = list(pq.base.tuples)
        self.out_tuples = list(pq.outside())
        # Bitmask of allowed tuples per (position, value), for each tuple list.
        self.base_masks = self._masks(self.base_tuples)
        self.out_masks = self._masks(self.out_tuples)
        self.full_base = (1 << len(self.base_tuples)) - 1
        self.full_out = (1 << len(self.out_tuples)) - 1
        self.incidence = {}
        for ci, e in enumerate(self.edges):
            for pos, v in enumerate(e):
                self.incidence.setdefault(v, []).append((ci, pos))
        self.degree = {v: len(occ) for v, occ in self.incidence.items()}
        self.values = _value_order(pq)
        self.default_value = pq.base.tuples[0][0] if pq.base.tuples else 0

    def _masks(self, tuples):
        masks = [[0] * self.d for _ in range(self.r)]
        for ti, t in enumerate(tuples):
            for pos, v in enumerate(t):
                masks[pos][v] |= 1 << ti
        return masks

    def search(self, excluded_idx, counter=None):
        """Witness search for one excluded edge: backtracking with unit
        propagation (a constraint down to one allowed tuple forces its
        vertices).  Returns an assignment dict or None."""
        edges = self.edges
        excluded = edges[excluded_idx]
        order = []
        seen = set()
        for v in excluded:
            if v not in seen:
                seen.add(v)
                order.append(v)
        order.extend(sorted((v for v in self.incidence if v not in seen),
                            key=lambda v: (-self.degree[v], v)))
        self._masks = [self.full_base] * len(edges)
        self._masks[excluded_idx] = self.full_out
        self._assign = {}
        self._atrail = []      # assigned vertices, in order
        self._mtrail = []      # (constraint, previous mask)
        self._excluded_idx = excluded_idx
        self._counter = counter
        if self._solve(order, 0):
            out = dict(self._assign)
            for part in (self.h.parts if isinstance(self.h, PartiteHypergraph)
                         else [self.h.vertex_set]):
                for v in part:
                    out.setdefault(v, self.default_value)
            return out
        return None

    def _tab(self, ci):
        return self.out_masks if ci == self._excluded_idx else self.base_masks

    def _set(self, v, val, units):
        """Assign v := val, narrowing masks; queue newly-unit constraints."""
        self._assign[v] = val
        self._atrail.append(v)
        masks = self._masks
        for ci, pos in self.incidence[v]:
            new = masks[ci] & self._tab(ci)[pos][val]
            if new != masks[ci]:
                self._mtrail.append((ci, masks[ci]))
                masks[ci] = new
                if new == 0:
                    return False
                if new & (new - 1) == 0:
                    units.append(ci)
        return True

    def _propagate(self, v, val):
        units = []
        if not self._set(v, val, units):
            return False
        while units:
            ci = units.pop()
            m = self._masks[ci]
            if m & (m - 1):
                continue  # re-narrowed elsewhere? only possible to 0, caught below
            tuples = self.out_tuples if ci == self._excluded_idx else self.base_tuples
            t = tuples[m.bit_length() - 1]
            for pos, w in enumerate(self.edges[ci]):
                cur = self._assign.get(w)
                if cur is None:
                    if not self._set(w, t[pos], units):
                        return False
                elif cur != t[pos]:
                    return False
        return True

    def _solve(self, order, depth):
        while depth < len(order) and order[depth] in self._assign:
            depth += 1
        if depth == len(order):
            return True
        v = order[depth]
        for val in self.values:
            if self._counter is not None:
                self._counter[0] += 1
                if self._counter[0] > self._counter[1]:
                    raise BudgetExceeded("assignment budget exceeded")
            a_mark, m_mark = len(self._atrail), len(self._mtrail)
            if self._propagate(v, val) and self._solve(order, depth + 1):
                return True
            while len(self._atrail) > a_mark:
                del self._assign[self._atrail.pop()]
            while len(self._mtrail) > m_mark:
                ci, old = self._mtrail.pop()
                self._masks[ci] = old
        return False


def verify_nrd(h, pq, mode="find-witnesses", certificate=None,
               max_assignments=None):
    """Verify (conditional) non-redundancy of an instance.

    find-witnesses: search a violating assignment for every edge.
    check-given: re-verify a supplied certificate edge by edge.
    Returns an NrdCertificate on success, NrdFailure on the first bad edge.
    """
    pq = as_conditional(pq)
    if mode == "check-given":
        if certificate is None:
            raise InstanceError("check-given mode needs a certificate")
        return _check_certificate(h, pq, certificate)
    if mode != "find-witnesses":
        raise InstanceError(f"unknown mode {mode!r}")
    ctx = _SearchContext(h, pq)
    counter = [0, max_assignments] if max_assignments else None
    witnesses = {}
    for i, e in enumerate(ctx.edges):
        w = ctx.search(i, counter)
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
    downward so a redundant set prunes all its supersets.
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
        cands = [tuple(e) for e in product(*parts)]
        make = lambda es: PartiteHypergraph(tuple(tuple(p) for p in parts), tuple(es))
    else:
        vs = [f"v{i + 1}" for i in range(n)]
        cands = [tuple(e) for e in product(vs, repeat=r)]
        make = lambda es: Hypergraph(tuple(vs), tuple(es))

    checks = [0]
    best = {"size": 0, "edges": ()}

    def feasible(edge_list):
        checks[0] += 1
        if checks[0] > max_checks:
            raise BudgetExceeded("nrd_exact search budget exceeded",
                                 partial=best["size"])
        res = verify_nrd(make(edge_list), pq)
        return bool(res.verified) if isinstance(res, NrdCertificate) else False

    def extend(edge_list, start):
        if len(edge_list) > best["size"]:
            best["size"] = len(edge_list)
            best["edges"] = tuple(edge_list)
        for i in range(start, len(cands)):
            if len(edge_list) + (len(cands) - i) <= best["size"]:
                break
            nxt = edge_list + [cands[i]]
            if feasible(nxt):
                extend(nxt, i + 1)

    extend([], 0)
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
