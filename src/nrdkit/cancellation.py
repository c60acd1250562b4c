"""Word cancellation game and the matrix identities built on it.

Repeatedly deleting adjacent equal symbols is confluent, so every word has a
unique residual.  Playing the game on each row of a matrix whose columns are
tuples of a predicate tests the predicate's closure under these identities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .predicates import Predicate, PredicateError


def cancel(word):
    """Stack reduction: push symbol, pop when it equals the top."""
    stack = []
    for s in word:
        if stack and stack[-1] == s:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def cancel_random_order(word, rng):
    """Reduce by deleting random cancellable adjacent pairs (confluence oracle)."""
    w = list(word)
    while True:
        sites = [i for i in range(len(w) - 1) if w[i] == w[i + 1]]
        if not sites:
            return tuple(w)
        i = rng.choice(sites)
        del w[i:i + 2]


@dataclass
class CatalanViolation:
    columns: list  # the matrix, column by column
    residual: tuple

    def to_dict(self):
        return {"columns": [list(c) for c in self.columns],
                "residual": list(self.residual)}


def catalan_matrix_check(p_plus: Predicate, columns):
    """Play the game on each row of the r x (2k+1) matrix whose columns come
    from p_plus.  Returns (residual tuple or None, residual in p_plus)."""
    columns = [tuple(c) for c in columns]
    if len(columns) % 2 == 0:
        raise PredicateError("need an odd number of columns")
    member = set(p_plus.tuples)
    for c in columns:
        if c not in member:
            raise PredicateError(f"column {c} is not a tuple of the predicate")
    residual = []
    for row in range(p_plus.arity):
        red = cancel([c[row] for c in columns])
        if len(red) != 1:
            return None, False  # row does not reduce to a single symbol
        residual.append(red[0])
    residual = tuple(residual)
    return residual, residual in member


def catalan_search(p_plus: Predicate, max_len: int):
    """All odd-length column sequences (length 3..max_len, with repetition)
    whose rows each reduce to one symbol forming a tuple outside p_plus.

    Each length is walked depth first over the column sequences, in
    `itertools.product` order, carrying every row's cancellation stack, so a
    prefix shared by many sequences is cancelled once.  The walk keeps its
    levels on lists, not on Python's call stack.  A row whose stack
    holds more symbols than the columns left plus one can no longer reduce
    to one symbol, so the walk prunes that branch.  The violations, and
    their order, are those of `catalan_matrix_check` run on each sequence.
    """
    if max_len % 2 == 0:
        raise PredicateError("max_len must be odd")
    if max_len < 3:
        raise PredicateError("max_len must be at least 3")
    tuples = p_plus.tuples
    member = set(tuples)
    violations = []
    for length in range(3, max_len + 1, 2):
        cols = []  # the columns placed
        stacks = [[()] * p_plus.arity]  # each row's stack after each column
        choices = [iter(tuples)]  # the columns still to try at each depth
        while choices:
            left = length - len(cols) - 1  # the columns after this one
            for c in choices[-1]:
                nxt = []
                for st, s in zip(stacks[-1], c):
                    st = st[:-1] if st and st[-1] == s else st + (s,)
                    if len(st) > left + 1:
                        break
                    nxt.append(st)
                else:
                    if left:
                        cols.append(c)
                        stacks.append(nxt)
                        choices.append(iter(tuples))
                        break
                    residual = tuple(st[0] for st in nxt)
                    if residual not in member:
                        violations.append(CatalanViolation(cols + [c], residual))
            else:
                choices.pop()
                stacks.pop()
                if cols:
                    cols.pop()
    return violations
