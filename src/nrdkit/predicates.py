"""Finite-domain predicates and the operations performed on them.

A predicate is a set of r-tuples over the domain {0, ..., d-1}, stored in
canonical (sorted, deduplicated) form.  Coordinate indices in the public API
are 1-based, matching the usual mathematical convention [r] = {1, ..., r};
domain values are 0-based.  Domain sizes, arities and values are ints, not
bools, and a domain holds at most MAX_DOMAIN values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product


MAX_DOMAIN = 256


class PredicateError(ValueError):
    pass


def _canonical_tuples(tuples, arity, domain_size):
    out = sorted(set(tuple(t) for t in tuples))
    for t in out:
        if len(t) != arity:
            raise PredicateError(f"tuple {t} does not have arity {arity}")
        for v in t:
            if not (type(v) is int and 0 <= v < domain_size):
                raise PredicateError(f"value {v!r} outside domain [0, {domain_size})")
    return tuple(out)


@dataclass(frozen=True)
class Predicate:
    """A relation P subseteq {0..d-1}^r in canonical form."""

    domain_size: int
    arity: int
    tuples: tuple = ()

    def __post_init__(self):
        if type(self.domain_size) is not int or type(self.arity) is not int:
            raise PredicateError("domain size and arity must be integers")
        if self.domain_size < 1 or self.arity < 1:
            raise PredicateError("domain size and arity must be positive")
        if self.domain_size > MAX_DOMAIN:
            raise PredicateError(f"domain size must be at most {MAX_DOMAIN}")
        object.__setattr__(
            self, "tuples", _canonical_tuples(self.tuples, self.arity, self.domain_size)
        )
        object.__setattr__(self, "_members", frozenset(self.tuples))

    def __len__(self):
        return len(self.tuples)

    def __contains__(self, t):
        return tuple(t) in self._members

    @classmethod
    def full(cls, domain_size, arity):
        return cls(domain_size, arity, product(range(domain_size), repeat=arity))

    # --- serialization ------------------------------------------------

    def to_dict(self):
        return {"domain": self.domain_size, "arity": self.arity,
                "tuples": [list(t) for t in self.tuples]}

    @classmethod
    def from_dict(cls, d):
        try:
            tuples = [parse_tuple(t) for t in d["tuples"]]
            return cls(d["domain"], d["arity"], tuples)
        except TypeError as exc:
            raise PredicateError(f"malformed predicate: {exc}") from None
        except KeyError as exc:
            raise PredicateError(f"malformed predicate: missing key {exc}") from None


def parse_tuple(spec):
    """A tuple given as a list of ints or a digit string like '010100001'."""
    if isinstance(spec, str):
        return tuple(int(c) for c in spec)
    return tuple(spec)


@dataclass(frozen=True)
class ConditionalPredicate:
    """A pair P strictly inside Q, written P | Q."""

    base: Predicate
    ambient: Predicate

    def __post_init__(self):
        p, q = self.base, self.ambient
        if p.domain_size != q.domain_size or p.arity != q.arity:
            raise PredicateError("base and ambient must share domain and arity")
        if not set(p.tuples) < set(q.tuples):
            raise PredicateError("base must be a strict subset of ambient")

    @property
    def domain_size(self):
        return self.base.domain_size

    @property
    def arity(self):
        return self.base.arity

    def outside(self):
        """The tuples of Q \\ P: in the ambient Q and outside the base P.
        (A witness tuple "outside" in `WitnessFailure` and the transfer's
        errors is outside Q itself.)"""
        return tuple(sorted(set(self.ambient.tuples) - set(self.base.tuples)))

    def to_dict(self):
        return {"base": self.base.to_dict(), "ambient": self.ambient.to_dict()}

    @classmethod
    def from_dict(cls, d):
        try:
            base, ambient = d["base"], d["ambient"]
        except KeyError as exc:
            raise PredicateError(f"malformed predicate: missing key {exc}") from None
        return cls(Predicate.from_dict(base), Predicate.from_dict(ambient))


@dataclass(frozen=True)
class IndexFamily:
    """An ordered list (I_1, ..., I_k) of subsets of {1, ..., source_arity}.

    Repetition and empty sets are allowed.  Each set is stored as a sorted
    tuple of 1-based coordinate indices.
    """

    source_arity: int
    sets: tuple = field(default=())

    def __post_init__(self):
        norm = []
        for s in self.sets:
            s = tuple(sorted(set(s)))
            for i in s:
                if not (1 <= i <= self.source_arity):
                    raise PredicateError(f"index {i} outside [1, {self.source_arity}]")
            norm.append(s)
        object.__setattr__(self, "sets", tuple(norm))

    def __len__(self):
        return len(self.sets)

    def to_list(self):
        return [list(s) for s in self.sets]


# --- operations -------------------------------------------------------


def project(p: Predicate, J) -> Predicate:
    """Keep only the coordinates in J (1-based), in ascending order of J."""
    J = sorted(set(J))
    if not J:
        raise PredicateError("projection index set must be nonempty")
    if J[0] < 1 or J[-1] > p.arity:
        raise PredicateError(f"projection indices must lie in [1, {p.arity}]")
    idx = [j - 1 for j in J]
    return Predicate(p.domain_size, len(J),
                     (tuple(t[i] for i in idx) for t in p.tuples))


def project_conditional(pq: ConditionalPredicate, J) -> ConditionalPredicate:
    return ConditionalPredicate(project(pq.base, J), project(pq.ambient, J))


def permute(p: Predicate, sigma) -> Predicate:
    """Rearrange coordinates: output position k takes value x_{sigma(k)}.

    sigma is a bijection on [1, r], given as a sequence (sigma(1), ..., sigma(r)).
    """
    r = p.arity
    sigma = list(sigma)
    if sorted(sigma) != list(range(1, r + 1)):
        raise PredicateError(f"{sigma} is not a bijection on [1, {r}]")
    idx = [s - 1 for s in sigma]
    return Predicate(p.domain_size, r, (tuple(t[i] for i in idx) for t in p.tuples))


def permute_conditional(pq: ConditionalPredicate, sigma) -> ConditionalPredicate:
    return ConditionalPredicate(permute(pq.base, sigma), permute(pq.ambient, sigma))


def box_product(a: ConditionalPredicate, b: ConditionalPredicate) -> ConditionalPredicate:
    """Concatenation product: ambient Q1 x Q2, base (P1 x Q2) u (Q1 x P2)."""
    if a.domain_size != b.domain_size:
        raise PredicateError("box product requires matching domains")
    d = a.domain_size
    r = a.arity + b.arity
    ambient = [s + t for s in a.ambient.tuples for t in b.ambient.tuples]
    base = set(s + t for s in a.base.tuples for t in b.ambient.tuples)
    base |= set(s + t for s in a.ambient.tuples for t in b.base.tuples)
    return ConditionalPredicate(Predicate(d, r, base), Predicate(d, r, ambient))
