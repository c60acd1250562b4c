"""Girth-6 incidence graphs and the shrinking instances built from them.

The point-line incidence graph of the projective plane over F_q (q prime)
is bipartite with 2(q^2+q+1) vertices, (q+1)(q^2+q+1) edges and girth 6 --
the densest possible at girth >= 6 up to constants.  Viewing each incidence
as a binary constraint of the 6-cycle predicate pair C6* | C6 yields
non-redundant instances.  The R1|S1 and R2|S2 instances are box products of
instances (`box_product_instance`) of such graphs, and every proper
projection of them collapses by a q+1 factor.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from itertools import product

from .catalog import C6_COND, R1S1, R2S2
from .hypergraph import (Hypergraph, InstanceError, NrdCertificate,
                         PartiteHypergraph, check_witnesses)
from .predicates import ConditionalPredicate


class GeneratorError(ValueError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def gen_girth6(q: int) -> PartiteHypergraph:
    """Point-line incidence graph of the projective plane over F_q, q prime.

    Points and lines are the 1- and 2-dimensional subspaces of F_q^3, both
    labelled by their normalized coordinate vector; a point lies on a line
    when the dot product vanishes.
    """
    if not _is_prime(q):
        raise GeneratorError(f"q = {q} must be prime")
    reps = []
    for vec in product(range(q), repeat=3):
        lead = next((x for x in vec if x != 0), None)
        if lead == 1:
            reps.append(vec)
    assert len(reps) == q * q + q + 1
    points = tuple("p" + "".join(map(str, v)) for v in reps)
    lines = tuple("l" + "".join(map(str, v)) for v in reps)
    edges = []
    for pv, p in zip(reps, points):
        for lv, l in zip(reps, lines):
            if sum(a * b for a, b in zip(pv, lv)) % q == 0:
                edges.append((p, l))
    return PartiteHypergraph((points, lines), tuple(edges))


def adjacency(graph: PartiteHypergraph):
    adj = {v: [] for v in graph.vertices()}
    for a, b in graph.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def girth(graph: PartiteHypergraph):
    """Length of the shortest cycle (math.inf for a forest)."""
    import math

    adj = adjacency(graph)
    best = math.inf
    for root in adj:
        depth = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            w = queue.popleft()
            if 2 * depth[w] >= best:
                break
            for x in adj[w]:
                if x == parent[w]:
                    continue
                if x in depth:
                    best = min(best, depth[w] + depth[x] + 1)
                else:
                    depth[x] = depth[w] + 1
                    parent[x] = w
                    queue.append(x)
        # a vertex adjacent to w twice (multi-edge) cannot occur: edges unique
    return best


def _bfs_dist(adj, src):
    dist = {src: 0}
    queue = deque([src])
    while queue:
        w = queue.popleft()
        for x in adj[w]:
            if x not in dist:
                dist[x] = dist[w] + 1
                queue.append(x)
    return dist


# Distance labels h are folded onto the 6-cycle c0..c5, alternating between
# the two parts; c_i values below list the cycle as left/right pairs whose
# consecutive values enumerate the C6 tuples, with (c0, c1) the excluded one.
_LEFT_VALUE = {0: 0, 2: 1, 4: 2}
_RIGHT_VALUE = {1: 0, 3: 2, 5: 1}


def _cycle_index(h):
    if -2 <= h <= 3:
        return h % 6
    if h > 3:
        return 2 if h % 2 == 0 else 3
    return 4 if h % 2 == 0 else 3


def girth6_witness(graph: PartiteHypergraph, edge, adj=None):
    """Assignment violating `edge` (value (0,0)) while every other incidence
    takes a value of the punctured 6-cycle.  Valid whenever girth >= 6;
    checked edge-by-edge and refused otherwise."""
    u, v = edge
    if adj is None:
        adj = adjacency(graph)
    left = set(graph.parts[0])
    if u not in left:
        raise InstanceError("edge must be ordered (point, line)")
    du = _bfs_dist(adj, u)
    dv = _bfs_dist(adj, v)
    assign = {}
    for w in adj:
        if w not in du:
            assign[w] = 1 if w in left else 2
            continue
        h = -du[w] if du[w] < dv[w] else 1 + dv[w]
        idx = _cycle_index(h)
        assign[w] = _LEFT_VALUE[idx] if w in left else _RIGHT_VALUE[idx]
    base = set(C6_COND.base.tuples)
    for e in graph.edges:
        val = (assign[e[0]], assign[e[1]])
        if e == edge:
            if val != (0, 0):
                raise InstanceError("constructed witness misses the excluded edge")
        elif val not in base:
            raise InstanceError(
                f"constructed witness fails on {e} (girth below 6?)")
    return assign


def _c6_factor(graph: PartiteHypergraph):
    """The incidence graph with its witness function, cached per edge."""
    adj = adjacency(graph)
    return graph, functools.cache(
        lambda edge: girth6_witness(graph, edge, adj=adj))


def box_product_instance(a, b):
    """Box product of two (instance, witness function) pairs: edges e + f,
    a's edges outer, and the witness for e + f joins those for e and f.

    Partite when both factors are, else a plain Hypergraph over a's vertices
    then b's; a vertex in both factors raises InstanceError.
    """
    (ha, wa), (hb, wb) = a, b
    edges = tuple(e + f for e in ha.edges for f in hb.edges)
    if isinstance(ha, PartiteHypergraph) and isinstance(hb, PartiteHypergraph):
        h = PartiteHypergraph(ha.parts + hb.parts, edges)
    else:
        h = Hypergraph(tuple(ha.vertices()) + tuple(hb.vertices()), edges)
    r = ha.arity
    return h, lambda edge: {**wa(edge[:r]), **wb(edge[r:])}


# --- shrinking instances ---------------------------------------------


@dataclass
class ShrinkingInstance:
    name: str
    q: int
    predicate: ConditionalPredicate
    hypergraph: PartiteHypergraph
    _witness: callable = None

    @property
    def n_vertices(self):
        return sum(len(p) for p in self.hypergraph.parts)

    @property
    def n_edges(self):
        return len(self.hypergraph.edges)

    def witness(self, edge):
        return self._witness(edge)

    def certificate(self) -> NrdCertificate:
        return NrdCertificate({e: self._witness(e) for e in self.hypergraph.edges})

    def verify(self):
        """None, or the NrdFailure of the first constructed witness to fail."""
        edges = self.hypergraph.edges
        return check_witnesses(self.hypergraph, self.predicate,
                               lambda i: self._witness(edges[i]))

    def truncated(self, m: int) -> "ShrinkingInstance":
        """Exact edge count by deleting the largest-index edges; witnesses
        stay valid on any edge subset."""
        if not (0 < m <= self.n_edges):
            raise GeneratorError(f"m must be in [1, {self.n_edges}]")
        sub = PartiteHypergraph(self.hypergraph.parts,
                                self.hypergraph.edges[:m])
        return ShrinkingInstance(self.name, self.q, self.predicate, sub,
                                 self._witness)


def _relabel(graph: PartiteHypergraph, prefix):
    parts = tuple(tuple(prefix + v for v in p) for p in graph.parts)
    edges = tuple(tuple(prefix + v for v in e) for e in graph.edges)
    return PartiteHypergraph(parts, edges)


def build_R1S1_instance(q: int, third_part_size: int = None) -> ShrinkingInstance:
    """Box product of the incidence graph with q^2+q+1 unary slots z0, z1, ...
    (third_part_size overrides) for ONE_TWO_COND; the witness for the slot
    (z,) is 0 on z and 1 on every other slot."""
    g = gen_girth6(q)
    n3 = q * q + q + 1 if third_part_size is None else third_part_size
    if n3 < 1:
        raise GeneratorError("third part must be nonempty")
    zs = tuple(f"z{k}" for k in range(n3))
    slots = PartiteHypergraph((zs,), ((z,) for z in zs))
    inst, witness = box_product_instance(_c6_factor(g), (slots, functools.cache(
        lambda edge: {z: 0 if (z,) == edge else 1 for z in zs})))
    return ShrinkingInstance("R1S1", q, R1S1, inst, witness)


def build_R2S2_instance(q: int) -> ShrinkingInstance:
    """Box product of two relabelled copies ("A.", "B.") of the incidence
    graph: edges (p, l, p', l') for incidences (p, l) and (p', l')."""
    g = gen_girth6(q)
    inst, witness = box_product_instance(_c6_factor(_relabel(g, "A.")),
                                         _c6_factor(_relabel(g, "B.")))
    return ShrinkingInstance("R2S2", q, R2S2, inst, witness)
