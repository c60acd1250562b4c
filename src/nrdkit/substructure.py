"""Projection-compact substructure maps between conditional predicates.

A certificate is a map sigma from the ambient tuples of a source pair
P1 | Q1 into the ambient tuples of a target pair P2 | Q2 such that

  (1) sigma preserves membership: P1 -> P2 and Q1 \\ P1 -> Q2 \\ P2;
  (2) output coordinate j depends only on the source coordinates in I_j,
      for a declared index family (I_1, ..., I_r2).

Existence for a fixed family is decided two independent ways: a direct
backtracking search over per-class coordinate values, and a CNF encoding
handed to the bundled SAT solver.  In search_families the direct search
decides and SAT certifies: only the SAT route makes certificates.  The
direct search's tables (DirectSearchTables) are built once per (source,
target) pair; encode and verify_certificate keep their own class
computation, so the two routes share no search code.

search_families also rules out whole subtrees of families unsearched, by
relaxations that the direct search alone decides (see its docstring); SAT
cores, an open item in ROADMAP.md, would certify such a negative.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

from .predicates import ConditionalPredicate, IndexFamily
from .sat import CnfFormula, solve


class SubstructureError(ValueError):
    pass


@dataclass
class SubstructureCertificate:
    source: ConditionalPredicate
    target: ConditionalPredicate
    family: IndexFamily
    sigma: dict  # source ambient tuple -> target ambient tuple

    def to_dict(self):
        return {"source": self.source.to_dict(),
                "target": self.target.to_dict(),
                "family": self.family.to_list(),
                "sigma": [[list(k), list(v)] for k, v in sorted(self.sigma.items())]}

    @classmethod
    def from_dict(cls, d):
        try:
            src = ConditionalPredicate.from_dict(d["source"])
            tgt = ConditionalPredicate.from_dict(d["target"])
            if any(type(i) is not int for s in d["family"] for i in s):
                raise SubstructureError(
                    "malformed certificate: family indices must be integers")
            fam = IndexFamily(src.arity, d["family"])
            sigma = {tuple(k): tuple(v) for k, v in d["sigma"]}
            set(sigma.values())  # an image holding a list is unhashable
        except TypeError as exc:
            raise SubstructureError(f"malformed certificate: {exc}") from None
        except KeyError as exc:
            raise SubstructureError(
                f"malformed certificate: missing key {exc}") from None
        return cls(src, tgt, fam, sigma)


def verify_certificate(cert: SubstructureCertificate):
    """Check conditions (1) and (2) directly; returns (ok, problems)."""
    src, tgt, fam = cert.source, cert.target, cert.family
    problems = []
    if fam.source_arity != src.arity:
        problems.append("index family arity does not match source")
    if len(fam.sets) != tgt.arity:
        problems.append("index family length does not match target arity")
    if problems:
        return False, problems
    q1 = list(src.ambient.tuples)
    if set(cert.sigma) != set(q1):
        problems.append("sigma must be defined on exactly the source ambient tuples")
        return False, problems
    p1 = set(src.base.tuples)
    p2 = set(tgt.base.tuples)
    q2 = set(tgt.ambient.tuples)
    for q in q1:
        t = cert.sigma[q]
        if t not in q2:
            problems.append(f"sigma({q}) = {t} outside the target ambient")
        elif (q in p1) != (t in p2):
            problems.append(f"sigma({q}) = {t} breaks membership preservation")
    if any(len(cert.sigma[q]) != tgt.arity for q in q1):
        return False, problems  # no coordinate j to compare on a short image
    for j, I in enumerate(fam.sets):
        if not _determines(q1, cert.sigma, j, I):
            problems.append(
                f"output coordinate {j + 1} depends on more than I_{j + 1}")
    return not problems, problems


def _determines(q1, sigma, j, I):
    """Does the projection to I determine output coordinate j of sigma?"""
    idx = [i - 1 for i in I]
    seen = {}
    for q in q1:
        key = tuple(q[i] for i in idx)
        val = sigma[q][j]
        if seen.setdefault(key, val) != val:
            return False
    return True


def dependency_analysis(cert: SubstructureCertificate):
    """All minimal input-coordinate subsets each output factors through.

    Returns one list per output coordinate; a subset I is minimal when the
    projection to I determines sigma's j-th output but no proper subset does.
    Note that on a restricted ambient domain a coordinate can admit several
    incomparable minimal subsets.
    """
    src = cert.source
    r1 = src.arity
    q1 = list(src.ambient.tuples)
    for q in q1:
        if q not in cert.sigma:
            raise SubstructureError(f"sigma is not defined on the source tuple {q}")
        if len(cert.sigma[q]) != cert.target.arity:
            raise SubstructureError(f"sigma({q}) = {cert.sigma[q]} does not "
                                    f"have arity {cert.target.arity}")
    subsets = [()] + [s for k in range(1, r1 + 1)
                      for s in combinations(range(1, r1 + 1), k)]
    out = []
    for j in range(cert.target.arity):
        good = {I for I in subsets if _determines(q1, cert.sigma, j, I)}
        minimal = [I for I in good
                   if not any(tuple(s for s in I if s != i) in good for i in I)]
        out.append(sorted(minimal, key=lambda I: (len(I), I)))
    return out


# --- CNF encoding -----------------------------------------------------


def encode(source: ConditionalPredicate, target: ConditionalPredicate,
           family: IndexFamily):
    """CNF whose models are exactly the valid sigma maps for this family.

    Variables: x[q,j,d] "output coordinate j of sigma(q) is d", and
    y[q,t] "sigma(q) = t" for target ambient tuples t.
    """
    if family.source_arity != source.arity or len(family.sets) != target.arity:
        raise SubstructureError("family shape does not fit source/target")
    q1 = list(source.ambient.tuples)
    t2 = list(target.ambient.tuples)
    p1 = set(source.base.tuples)
    p2 = set(target.base.tuples)
    r2, d2 = target.arity, target.domain_size
    f = CnfFormula()
    x = {}
    for q in q1:
        for j in range(r2):
            for d in range(d2):
                x[q, j, d] = f.new_var()
    y = {}
    for q in q1:
        for t in t2:
            y[q, t] = f.new_var()
    # exactly one value per output coordinate
    for q in q1:
        for j in range(r2):
            f.add_clause([x[q, j, d] for d in range(d2)])
            for d, e in combinations(range(d2), 2):
                f.add_clause([-x[q, j, d], -x[q, j, e]])
    # coordinate j may only read the source coordinates in I_j
    for j, I in enumerate(family.sets):
        idx = [i - 1 for i in I]
        classes = {}
        for q in q1:
            classes.setdefault(tuple(q[i] for i in idx), []).append(q)
        for members in classes.values():
            rep = members[0]
            for q in members[1:]:
                for d in range(d2):
                    f.add_clause([-x[rep, j, d], x[q, j, d]])
                    f.add_clause([x[rep, j, d], -x[q, j, d]])
    # y[q,t] pins the output tuple, and membership must be preserved
    for q in q1:
        for t in t2:
            if (q in p1) != (t in p2):
                f.add_clause([-y[q, t]])
                continue
            for j in range(r2):
                f.add_clause([-y[q, t], x[q, j, t[j]]])
        f.add_clause([y[q, t] for t in t2])
    return f, x, y


def decode(model, source: ConditionalPredicate, target: ConditionalPredicate,
           family: IndexFamily, y) -> SubstructureCertificate:
    sigma = {}
    for q in source.ambient.tuples:
        chosen = [t for t in target.ambient.tuples if model[y[q, t]]]
        if len(chosen) != 1:
            raise SubstructureError(f"model selects {len(chosen)} images for {q}")
        sigma[q] = chosen[0]
    return SubstructureCertificate(source, target, family, sigma)


def find_substructure(source: ConditionalPredicate, target: ConditionalPredicate,
                      family: IndexFamily, conflict_budget=None):
    """SAT route: encode, solve, decode, verify.  None when no map exists."""
    f, _, y = encode(source, target, family)
    model = solve(f, conflict_budget)
    if model is None:
        return None
    cert = decode(model, source, target, family, y)
    ok, problems = verify_certificate(cert)
    if not ok:
        raise SubstructureError(f"decoded certificate failed verification: {problems}")
    return cert


# --- direct search ----------------------------------------------------


class DirectSearchTables:
    """The family-independent part of direct_search, for one (source, target).

    Built once per pair: the ambient tuple lists q1 and t2, the target masks
    per (output coordinate, value) and per membership, and each q's initial
    mask of membership-preserving images.  The partition of q1 by its
    projection to a subset I of source coordinates (class id of each q,
    numbered in order of first appearance, and the members of each class)
    is built on first use, once I is checked, and kept with the tables.
    """

    def __init__(self, source: ConditionalPredicate, target: ConditionalPredicate):
        self.r1, self.r2 = source.arity, target.arity
        self.q1 = list(source.ambient.tuples)
        self.t2 = list(target.ambient.tuples)
        p1 = set(source.base.tuples)
        p2 = set(target.base.tuples)
        # masks of target tuples by membership, and with coordinate j equal to d
        member_mask = {True: 0, False: 0}
        self.coord_mask = [{} for _ in range(self.r2)]
        for ti, t in enumerate(self.t2):
            member_mask[t in p2] |= 1 << ti
            for j in range(self.r2):
                self.coord_mask[j][t[j]] = self.coord_mask[j].get(t[j], 0) | (1 << ti)
        self.masks = [member_mask[q in p1] for q in self.q1]
        self._partitions = {}

    def partition(self, I):
        """(class id per q, members per class) for the projection to I."""
        part = self._partitions.get(I)
        if part is None:
            if any(type(i) is not int or not 1 <= i <= self.r1 for i in I):
                raise SubstructureError("family shape does not fit source/target")
            ids, cls, peers = {}, [], []
            for qi, q in enumerate(self.q1):
                key = tuple(q[i - 1] for i in I)
                c = ids.setdefault(key, len(peers))
                if c == len(peers):
                    peers.append([])
                cls.append(c)
                peers[c].append(qi)
            part = self._partitions[I] = (cls, peers)
        return part


def direct_search(tables: DirectSearchTables, sets):
    """Backtracking over images, propagating per-class coordinate values
    through tuple bitmasks; complete for the family `sets`, one tuple of
    source coordinates per target coordinate.  Returns the images sigma(q)
    in tables.q1 order, or None when there is no map; it makes no
    certificate, since search_families certifies every hit through SAT.
    """
    if len(sets) != tables.r2:
        raise SubstructureError("family shape does not fit source/target")
    q1, t2, coord_mask = tables.q1, tables.t2, tables.coord_mask
    r2 = tables.r2
    parts = [tables.partition(I) for I in sets]
    cls = [cj for cj, _ in parts]
    peers = [pj for _, pj in parts]
    masks = list(tables.masks)
    values = [[None] * len(pj) for pj in peers]
    assigned = [None] * len(q1)

    def pick():
        best, best_n = -1, None
        for qi, m in enumerate(masks):
            if assigned[qi] is None:
                n = m.bit_count()
                if best_n is None or n < best_n:
                    best, best_n = qi, n
        return best

    def backtrack(done):
        if done == len(q1):
            return True
        qi = pick()
        m = masks[qi]
        while m:
            low = m & -m
            m ^= low
            t = t2[low.bit_length() - 1]
            undo = []  # (list, index, old value)
            ok = True
            assigned[qi] = t
            for j in range(r2):
                vj, c = values[j], cls[j][qi]
                if vj[c] is None:
                    vj[c] = t[j]
                    undo.append((vj, c, None))
                    cm = coord_mask[j][t[j]]
                    for pj in peers[j][c]:
                        new = masks[pj] & cm
                        if new != masks[pj]:
                            undo.append((masks, pj, masks[pj]))
                            masks[pj] = new
                            if new == 0 and assigned[pj] is None:
                                ok = False
                                break
                    if not ok:
                        break
            if ok and backtrack(done + 1):
                return True
            assigned[qi] = None
            for seq, i, old in reversed(undo):
                seq[i] = old
        return False

    return assigned if backtrack(0) else None


@dataclass
class FamilySearchResult:
    certificates: list
    families_tried: int
    exhausted: bool


def search_families(source: ConditionalPredicate, target: ConditionalPredicate,
                    sizes=None, max_results=1, max_families=None,
                    time_budget=None):
    """Enumerate index families and report those admitting a substructure map.

    Families are products of subsets of the source coordinates, one subset
    per target coordinate.  With sizes=(s_1, ..., s_r2) only subsets of those
    exact sizes are tried; by default, uniform-size strata are scanned from
    largest proper size downwards, then all mixed-size families.

    The families are walked depth first over the target coordinates, in that
    order.  Before the walk puts set A at coordinate j, it checks, for each
    i < j, the relaxation that keeps only the set F_i already chosen at i and
    A at j, with the full set {1..r1} everywhere else.  A map for a family is
    a map for every family whose sets contain its sets, since a larger index
    set only drops locality constraints; so a relaxation with no map rules
    out every family below A, and those families are counted in
    families_tried without being searched (max_families may cut inside such
    a subtree).  Each relaxation is decided once per call by the direct
    search, so a negative decided by pruning rests on the direct search of a
    relaxation and carries no certificate of its own; SAT cores (ROADMAP.md)
    would certify it.  Every other family is decided by the direct search
    on its plain tuple of sets.  Only a hit becomes an IndexFamily, checked
    once there, and goes through the SAT encoding, which makes and verifies
    the certificate reported.  The direct search's tables are built once
    for the pair and shared by every family and relaxation.
    """
    if max_results < 1:
        raise SubstructureError("max_results must be at least 1")
    r1, r2 = source.arity, target.arity
    full = tuple(range(1, r1 + 1))
    subsets = [()] + [s for k in range(1, r1 + 1) for s in combinations(full, k)]
    by_size = {}
    for s in subsets:
        by_size.setdefault(len(s), []).append(s)
    # (choices per target coordinate, skip families whose sets share one size)
    if sizes is not None:
        if len(sizes) != r2:
            raise SubstructureError("sizes must give one entry per target coordinate")
        walks = [([by_size.get(s, []) for s in sizes], False)]
    else:
        walks = [([by_size[s]] * r2, False) for s in range(r1 - 1, -1, -1)]
        walks.append(([subsets] * r2, True))

    tables = DirectSearchTables(source, target)
    relaxed = {}  # (i, F_i, j, A) -> does that relaxation have a map?

    def relaxation_has_map(i, I, j, A):
        key = (i, I, j, A)
        hit = relaxed.get(key)
        if hit is None:
            sets = [full] * r2
            sets[i], sets[j] = I, A
            hit = relaxed[key] = direct_search(tables, sets) is not None
        return hit

    start = time.monotonic()
    found = []
    tried = 0
    exhausted = True
    sets = [None] * r2

    def walk(choices, skip_uniform):
        # below[j] families in a subtree whose sets 0..j-1 are fixed
        below = [1] * (r2 + 1)
        for j in range(r2 - 1, -1, -1):
            below[j] = below[j + 1] * len(choices[j])

        def descend(j, common):
            """Walk coordinate j; common is the one size of sets[:j], or -1.
            True when the search stops."""
            nonlocal tried, exhausted
            for A in choices[j]:
                size = len(A) if j == 0 or common == len(A) else -1
                n = below[j + 1]
                if skip_uniform and size >= 0:
                    n -= len(by_size[size]) ** (r2 - 1 - j)
                if n == 0:
                    continue
                if (max_families is not None and tried >= max_families) or (
                        time_budget is not None
                        and time.monotonic() - start > time_budget):
                    exhausted = False
                    return True
                if not all(relaxation_has_map(i, sets[i], j, A) for i in range(j)):
                    # none of the n families below A has a map
                    if max_families is not None and tried + n > max_families:
                        tried = max_families
                        exhausted = False
                        return True
                    tried += n
                    continue
                sets[j] = A
                if j + 1 < r2:
                    if descend(j + 1, size):
                        return True
                    continue
                tried += 1
                if direct_search(tables, sets) is None:
                    continue
                fam = IndexFamily(r1, sets)
                cert = find_substructure(source, target, fam)
                if cert is None:
                    raise SubstructureError(
                        f"direct search and SAT disagree on family {fam.to_list()}")
                found.append(cert)
                if len(found) >= max_results:
                    exhausted = False
                    return True
            return False

        return descend(0, -1)

    for choices, skip_uniform in walks:
        if walk(choices, skip_uniform):
            break
    return FamilySearchResult(found, tried, exhausted)
