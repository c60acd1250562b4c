import hashlib
import random

import numpy as np
import pytest

from nrdkit import tables
from nrdkit.sat import (CnfFormula, ConflictBudgetExceeded, _Solver,
                        brute_force_satisfiable, solve)
from nrdkit.substructure import encode


def check_model(formula, model):
    return all(any(model[abs(l)] == (l > 0) for l in cl)
               for cl in formula.clauses)


def truth_table_satisfiable(formula):
    """Independent oracle: evaluate every clause over all 2^n assignments
    with numpy broadcasting."""
    n = formula.num_vars
    assert n <= 20
    assigns = np.arange(2 ** n, dtype=np.uint32)
    ok = np.ones(2 ** n, dtype=bool)
    for clause in formula.clauses:
        sat = np.zeros(2 ** n, dtype=bool)
        for lit in clause:
            v = abs(lit) - 1
            bit = (assigns >> v) & 1
            sat |= (bit == 1) if lit > 0 else (bit == 0)
        ok &= sat
    return bool(ok.any())


def random_3cnf(rng, nvars, nclauses):
    f = CnfFormula()
    for _ in range(nvars):
        f.new_var()
    for _ in range(nclauses):
        vs = rng.sample(range(1, nvars + 1), 3)
        f.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    return f


def test_trivial_cases():
    f = CnfFormula()
    assert solve(f) == {}  # no variables, no clauses: vacuously satisfiable
    f = CnfFormula()
    f.new_var()
    f.add_clause([1])
    f.add_clause([-1])
    assert solve(f) is None


def test_unit_chain():
    f = CnfFormula()
    for _ in range(4):
        f.new_var()
    f.add_clause([1])
    f.add_clause([-1, 2])
    f.add_clause([-2, 3])
    f.add_clause([-3, 4])
    model = solve(f)
    assert model == {1: True, 2: True, 3: True, 4: True}


def test_models_are_checked():
    rng = random.Random(7)
    for _ in range(50):
        f = random_3cnf(rng, 8, 30)
        model = solve(f)
        if model is not None:
            assert check_model(f, model)


def test_500_random_instances_vs_truth_table():
    rng = random.Random(20260824)
    disagreements = 0
    for _ in range(500):
        nvars = rng.randint(4, 16)
        nclauses = rng.randint(nvars, 5 * nvars)
        f = random_3cnf(rng, nvars, nclauses)
        expect = truth_table_satisfiable(f)
        model = solve(f)
        got = model is not None
        if got != expect:
            disagreements += 1
        if got:
            assert check_model(f, model)
    assert disagreements == 0


def test_random_3sat_near_threshold():
    # 50-100 variables at clause ratio 4.26, past the first restart.  Seed
    # 53 (69 variables) once crashed: a unit learnt clause jumped back to
    # level 0 and the restart that followed found no decision level.
    seeds = [53] + list(range(1000, 1012))
    solved = 0
    for seed in seeds:
        rng = random.Random(seed)
        n = rng.randint(30, 80) if seed == 53 else rng.randint(50, 100)
        f = random_3cnf(rng, n, int(4.26 * n))
        model = solve(f)
        if model is not None:
            solved += 1
            assert check_model(f, model)
    assert solved >= 3


def test_planted_3sat_is_solved():
    rng = random.Random(4260)
    for _ in range(6):
        n = rng.randint(50, 100)
        hidden = {v: rng.random() < 0.5 for v in range(1, n + 1)}
        f = CnfFormula()
        for _ in range(n):
            f.new_var()
        for _ in range(int(4.26 * n)):
            lits = [v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, n + 1), 3)]
            if not any(hidden[abs(l)] == (l > 0) for l in lits):
                lits[0] = -lits[0]
            f.add_clause(lits)
        model = solve(f)
        assert model is not None and check_model(f, model)


def test_brute_force_agrees():
    rng = random.Random(3)
    for _ in range(60):
        f = random_3cnf(rng, 6, 20)
        bf = brute_force_satisfiable(f)
        model = solve(f)
        assert (bf is not None) == (model is not None)
        if bf is not None:
            assert check_model(f, bf)


def test_conflict_budget():
    rng = random.Random(11)
    # near the 3-SAT phase transition, a tiny budget should trip on some seed
    tripped = False
    for _ in range(40):
        f = random_3cnf(rng, 16, int(16 * 4.3))
        try:
            solve(f, conflict_budget=1)
        except ConflictBudgetExceeded as exc:
            # the counters where it stopped, as the message prints them
            assert exc.conflicts == 2
            assert 0 <= exc.assigned <= 16
            assert str(exc) == ("SAT conflict budget of 1 exceeded with "
                                f"{exc.assigned} of 16 variables assigned")
            tripped = True
            break
    assert tripped


def test_dimacs_round_trip():
    f = CnfFormula()
    for _ in range(3):
        f.new_var()
    f.add_clause([1, -2])
    f.add_clause([2, 3])
    g = CnfFormula.from_dimacs(f.to_dimacs())
    assert g.num_vars == 3
    assert [list(c) for c in g.clauses] == [[1, -2], [2, 3]]


def test_dimacs_clauses_end_at_zero():
    # a clause ends at its 0, not at the end of its line
    f = CnfFormula.from_dimacs("c two clauses on one line\n"
                               "p cnf 2 3\n1 -2 0 2 0\n-1\n2 0\n")
    assert f.num_vars == 2
    assert f.clauses == [[1, -2], [2], [-1, 2]]
    model = solve(f)
    assert model is not None and model[2] and check_model(f, model)


@pytest.mark.parametrize("text", [
    "",                               # no header at all
    "c only a comment\n",
    "1 2 0\np cnf 2 1\n",              # clause before the header
    "p cnf 2 1\np cnf 2 1\n1 0\n",     # repeated header
    "p dnf 2 1\n1 0\n",
    "p cnf 2\n1 0\n",
    "p cnf -1 0\n",
    "p cnf 2 1\n3 0\n",                # literal outside +-num_vars
    "p cnf 2 1\n1 -3 0\n",
    "p cnf 2 1\n1 2\n",                # last clause without its 0
    "p cnf 2 2\n1 2 0\n",              # fewer clauses than declared
    "p cnf 2 1\n1 0 2 0\n",            # more clauses than declared
    "p cnf 2 1\n1 x 0\n",
], ids=["empty", "comment-only", "clause-first", "two-headers", "not-cnf",
        "short-header", "negative-vars", "literal-high", "literal-low",
        "unterminated", "too-few", "too-many", "not-int"])
def test_dimacs_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        CnfFormula.from_dimacs(text)


@pytest.mark.parametrize("clause", [[1, 5], [1, 0], [3], [-3], [2, -4]])
def test_solve_rejects_literals_outside_the_formula(clause):
    # `clauses` is public, so these bypass add_clause; 3 and -4 would alias
    # another literal's slot in a 2-variable solver
    f = CnfFormula(num_vars=2, clauses=[[1, 2], clause])
    with pytest.raises(ValueError, match=f"literal {clause[-1]} is outside"):
        solve(f)


def test_variable_registry():
    f = CnfFormula()
    v = f.new_var(tag=("x", 1, 2))
    assert f.registry[v] == ("x", 1, 2)
    assert "c var 1" in f.to_dimacs()


def pinned_formulas():
    """200 seeded random 3-SAT formulas (30-80 variables at ratio 4.26, every
    other one planted) and the SAT encoding of every bundled certificate."""
    rng = random.Random(20261018)
    out = []
    for i in range(200):
        n = rng.randint(30, 80)
        hidden = ([rng.random() < 0.5 for _ in range(n + 1)]
                  if i % 2 == 0 else None)
        f = CnfFormula()
        for _ in range(n):
            f.new_var()
        for _ in range(round(4.26 * n)):
            lits = [v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, n + 1), 3)]
            if hidden and not any(hidden[abs(l)] == (l > 0) for l in lits):
                lits[0] = -lits[0]
            f.add_clause(lits)
        out.append(f)
    for name in tables.CERTIFICATE_NAMES:
        c = tables.certificate(name)
        out.append(encode(c.source, c.target, c.family)[0])
    return out


def test_search_is_pinned():
    # The model and the number of conflicts of every formula, recorded
    # before the solver moved to literal-indexed arrays: any change to the
    # decisions, watch order, learnt clauses, restarts, phase saving or the
    # activity tie-break shows here.
    h = hashlib.sha256()
    solved = conflicts = 0
    for f in pinned_formulas():
        s = _Solver(f.num_vars, f.clauses)
        model = s.solve()
        bits = "-" if model is None else "".join(
            "1" if model[v] else "0" for v in range(1, f.num_vars + 1))
        h.update(f"{bits} {s.conflicts}\n".encode())
        solved += model is not None
        conflicts += s.conflicts
        if model is not None:
            assert check_model(f, model)
    assert (solved, conflicts) == (161, 10958)
    assert h.hexdigest() == (
        "22aa9174d011188a1916cdda8d9908b2a874aa20b365afacee05b9c55042b57f")
