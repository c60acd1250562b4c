import random

import numpy as np

from nrdkit.sat import (CnfFormula, ConflictBudgetExceeded,
                        brute_force_satisfiable, check_model, solve)


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
        except ConflictBudgetExceeded:
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


def test_variable_registry():
    f = CnfFormula()
    v = f.new_var(tag=("x", 1, 2))
    assert f.registry[v] == ("x", 1, 2)
    assert "c var 1" in f.to_dimacs()
