"""Girth-6 incidence graphs and the shrinking instances built from them.

The point-line incidence graph of the projective plane over F_q (q prime)
is bipartite with 2(q^2+q+1) vertices, (q+1)(q^2+q+1) edges and girth 6 --
the densest possible at girth >= 6 up to constants.  Viewing each incidence
as a binary constraint of the 6-cycle predicate pair C6* | C6 yields
non-redundant instances.  The R1|S1 and R2|S2 instances are box products of
instances (`box_product_instance`) of such graphs, and every proper
projection of them collapses by a q+1 factor.

Everything here works on vertex numbers: an instance is built from its
index (`PartiteHypergraph.from_index`) and a witness is a row of values in
vertex order.  Labels are made only at I/O: edge label tuples when an
instance's `edges` is read, label dicts by `ShrinkingInstance.witness` and
`.certificate`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .catalog import C6_COND, R1S1, R2S2
from .hypergraph import (Hypergraph, InstanceError, NrdCertificate,
                         PartiteHypergraph, WitnessKernel, instance_index)
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
    labelled by their normalized coordinate vector, joined with "," when
    q > 10 (so that two-digit coordinates stay apart); a point lies on a
    line when the dot product vanishes.  Edges run over points, then lines.
    """
    if not _is_prime(q):
        raise GeneratorError(f"q = {q} must be prime")
    reps = np.array([vec for vec in product(range(q), repeat=3)
                     if next((x for x in vec if x != 0), None) == 1])
    assert len(reps) == q * q + q + 1
    names = [("," if q > 10 else "").join(map(str, v)) for v in reps.tolist()]
    points, lines = np.nonzero(reps @ reps.T % q == 0)
    return PartiteHypergraph.from_index(
        (["p" + v for v in names], ["l" + v for v in names]),
        np.array([points, lines + len(reps)]))


def _distances(index):
    """All-pairs distances in the graph of an index (n where there is no
    path), found breadth first from every vertex at once; and its
    adjacency matrix."""
    n = index.n
    adj = np.zeros((n, n), dtype=np.float32)
    adj[index.cols[0], index.cols[1]] = adj[index.cols[1], index.cols[0]] = 1
    dist = np.where(np.eye(n, dtype=bool), 0, n)
    reach = np.eye(n, dtype=np.float32)
    for d in range(1, n):
        reach = np.minimum(reach + reach @ adj, 1)
        if not (new := (reach > 0) & (dist == n)).any():
            break
        dist[new] = d
    return dist, adj


def girth(graph: PartiteHypergraph):
    """Length of the shortest cycle (math.inf for a forest).  Seen from any
    root, an edge whose ends are equally far closes an odd cycle, and a
    vertex with two neighbours one step nearer an even one, each at most
    as long as the walk; from a root on a shortest cycle, one of them is
    that cycle."""
    index = instance_index(graph, 2)
    dist, adj = _distances(index)
    du, dv = dist[:, index.cols[0]], dist[:, index.cols[1]]
    odd = 2 * du[(du == dv) & (du < index.n)] + 1
    best = int(odd.min()) if odd.size else math.inf
    for d in range(1, index.n):
        if 2 * d >= best:
            break
        if (((dist == d - 1).astype(np.float32) @ adj)[dist == d] > 1).any():
            return 2 * d
    return best


# The 6-cycle c0..c5 alternates between the two parts, and _CYCLE_VALUE[i]
# is the value of c_i; consecutive values enumerate the C6 tuples, with
# (c0, c1) the excluded one.
_CYCLE_VALUE = np.array([0, 0, 1, 2, 2, 1])


def girth6_witness(graph: PartiteHypergraph):
    """One row of values per edge of an incidence graph, in vertex order:
    row i violates edge i (value (0, 0)) while every other incidence takes a
    value of the punctured 6-cycle.  Vertex w at signed distance h from edge
    (u, v), -d(u, w) if that is the shorter, else 1 + d(v, w), takes the
    value of c_(h mod 6), folded onto the cycle's far end past 3 steps from
    either side; a vertex the edge cannot reach takes 1 (points) or 2
    (lines).  Valid whenever girth >= 6; checked by the witness kernel and
    refused otherwise."""
    index = instance_index(graph, 2)
    dist = _distances(index)[0]
    du, dv = dist[index.cols[0]], dist[index.cols[1]]
    h = np.where(du < dv, -du, 1 + dv)
    fold = np.where(h > 3, 2 + h % 2, np.where(h < -2, 4 - h % 2, h % 6))
    point = np.arange(index.n) < len(graph.parts[0])
    rows = np.where(du == index.n, np.where(point, 1, 2), _CYCLE_VALUE[fold])
    bad = WitnessKernel(graph, C6_COND).check_values(lambda lo, hi: rows[lo:hi])
    if bad is not None:
        raise InstanceError(f"constructed witness for {graph.edges[bad.edge]} "
                            f"fails on {graph.edges[bad.wrong]} (girth below 6?)")
    return rows


def _witness_rows(make):
    """A factor's witness function: edge numbers (an int or an array) to
    the rows of the (m x n) table make() returns, made on first use."""
    table = functools.cache(make)
    return lambda i: table()[i]


class _Joined(NamedTuple):
    """A box product's witness function: the row of edge e + f (edge
    numbers, an int or an int array) joins a's row for e and b's for f."""

    wa: callable
    wb: callable
    na: int  # a's vertices
    mb: int  # b's edges

    def __call__(self, k):
        return np.concatenate([self.wa(k // self.mb), self.wb(k % self.mb)],
                              axis=-1)


def _label_dicts(witness, vertices, m):
    """The first m witnesses as {vertex: value}; a box product's join its
    factors' dicts as its rows join theirs (a merge copies a dict's table,
    where zip inserts each value)."""
    if not m:  # b may have no edges, and then m is 0
        return []
    if not isinstance(witness, _Joined):
        return [dict(zip(vertices, row)) for row in witness(np.arange(m)).tolist()]
    a = _label_dicts(witness.wa, vertices[:witness.na], -(-m // witness.mb))
    b = _label_dicts(witness.wb, vertices[witness.na:], witness.mb)
    return [{**x, **y} for x in a for y in b][:m]


def box_product_instance(a, b):
    """Box product of two (instance, witness function) pairs: edges e + f,
    a's edges outer, built on vertex numbers.  A witness function takes
    edge numbers (an int or an int array) to value rows in vertex order;
    the product's row for e + f joins a's row for e and b's for f.

    Partite when both factors are, else a plain Hypergraph over a's vertices
    then b's; a vertex in both factors raises InstanceError.
    """
    (ha, wa), (hb, wb) = a, b
    ia, ib = instance_index(ha, ha.arity), instance_index(hb, hb.arity)
    cols = np.concatenate([np.repeat(ia.cols, ib.m, axis=1),
                           np.tile(ib.cols + ia.n, ia.m)])
    if isinstance(ha, PartiteHypergraph) and isinstance(hb, PartiteHypergraph):
        h = PartiteHypergraph.from_index(ha.parts + hb.parts, cols)
    else:
        h = Hypergraph.from_index(ha.vertices() + hb.vertices(), cols)
    return h, _Joined(wa, wb, ia.n, ib.m)


# --- shrinking instances ---------------------------------------------


@dataclass
class ShrinkingInstance:
    """A built instance, its pair, and its constructed witnesses: _witness
    takes edge numbers (an int or an int array) to value rows."""

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
        return instance_index(self.hypergraph, self.hypergraph.arity).m

    @functools.cached_property
    def _edge_number(self):
        return {e: i for i, e in enumerate(self.hypergraph.edges)}

    def witness(self, edge):
        """The witness of edge, a tuple of labels, as {vertex: value}."""
        return dict(zip(self.hypergraph.vertices(),
                        self._witness(self._edge_number[edge]).tolist()))

    def certificate(self) -> NrdCertificate:
        h = self.hypergraph
        return NrdCertificate(dict(zip(h.edges, _label_dicts(
            self._witness, h.vertices(), self.n_edges))))

    def verify(self):
        """None, or the NrdFailure of the first constructed witness to fail,
        as check-given names it; the witnesses are checked as value rows."""
        bad = WitnessKernel(self.hypergraph, self.predicate).check_values(
            lambda lo, hi: self._witness(np.arange(lo, hi)))
        return None if bad is None else bad.nrd_failure(self.hypergraph)

    def truncated(self, m: int) -> "ShrinkingInstance":
        """Exact edge count by deleting the largest-index edges; witnesses
        stay valid on any edge subset."""
        if not (0 < m <= self.n_edges):
            raise GeneratorError(f"m must be in [1, {self.n_edges}]")
        h = self.hypergraph
        sub = PartiteHypergraph.from_index(
            h.parts, instance_index(h, h.arity).cols[:, :m])
        return ShrinkingInstance(self.name, self.q, self.predicate, sub,
                                 self._witness)


def _c6_factor(graph: PartiteHypergraph):
    """The incidence graph with its witness function."""
    return graph, _witness_rows(lambda: girth6_witness(graph))


def build_R1S1_instance(q: int, third_part_size: int = None) -> ShrinkingInstance:
    """Box product of the incidence graph with q^2+q+1 unary slots z0, z1, ...
    (third_part_size overrides) for ONE_TWO_COND; the witness for the slot
    (z,) is 0 on z and 1 on every other slot."""
    g = gen_girth6(q)
    n3 = q * q + q + 1 if third_part_size is None else third_part_size
    if n3 < 1:
        raise GeneratorError("third part must be nonempty")
    slots = PartiteHypergraph.from_index([[f"z{k}" for k in range(n3)]],
                                         np.arange(n3).reshape(1, n3))
    inst, witness = box_product_instance(_c6_factor(g), (slots, _witness_rows(
        lambda: 1 - np.eye(n3, dtype=np.intp))))
    return ShrinkingInstance("R1S1", q, R1S1, inst, witness)


def build_R2S2_instance(q: int) -> ShrinkingInstance:
    """Box product of two copies of the incidence graph, labelled "A." and
    "B.": edges (p, l, p', l') for incidences (p, l) and (p', l')."""
    g, witness = _c6_factor(gen_girth6(q))
    cols = instance_index(g, 2).cols
    inst, witness = box_product_instance(*(
        (PartiteHypergraph.from_index([[prefix + v for v in p] for p in g.parts],
                                      cols), witness) for prefix in ("A.", "B.")))
    return ShrinkingInstance("R2S2", q, R2S2, inst, witness)
