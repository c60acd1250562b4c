"""Minimal CDCL SAT solver and CNF plumbing (DIMACS import/export).

Deterministic: decisions use an activity heuristic with ties broken by
variable index, so identical formulas always produce identical models.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ConflictBudgetExceeded(RuntimeError):
    pass


@dataclass
class CnfFormula:
    num_vars: int = 0
    clauses: list = field(default_factory=list)
    registry: dict = field(default_factory=dict)  # var -> meaning tag

    def new_var(self, tag=None):
        self.num_vars += 1
        if tag is not None:
            self.registry[self.num_vars] = tag
        return self.num_vars

    def add_clause(self, lits):
        lits = list(lits)
        for lit in lits:
            if lit == 0 or abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} references an unregistered variable")
        self.clauses.append(lits)

    # --- DIMACS -------------------------------------------------------

    def to_dimacs(self):
        lines = []
        for var in sorted(self.registry):
            lines.append(f"c var {var} = {self.registry[var]}")
        lines.append(f"p cnf {self.num_vars} {len(self.clauses)}")
        for cl in self.clauses:
            lines.append(" ".join(str(l) for l in cl) + " 0")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text):
        f = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("c"):
                if line.startswith("c var "):
                    parts = line[6:].split(" = ", 1)
                    if len(parts) == 2 and parts[0].isdigit():
                        f.registry[int(parts[0])] = parts[1]
                continue
            if line.startswith("p"):
                f.num_vars = int(line.split()[2])
                continue
            lits = [int(x) for x in line.split()]
            if lits and lits[-1] == 0:
                lits = lits[:-1]
            f.clauses.append(lits)
        return f


def solve(formula: CnfFormula, conflict_budget=None):
    """Return a model as {var: bool} or None for UNSAT."""
    s = _Solver(formula.num_vars, formula.clauses, conflict_budget)
    return s.solve()


class _Solver:
    def __init__(self, nvars, clauses, conflict_budget=None):
        self.n = nvars
        self.val = [0] * (nvars + 1)       # 0 unknown, 1 true, -1 false
        self.level = [0] * (nvars + 1)
        self.reason = [None] * (nvars + 1)
        self.activity = [0.0] * (nvars + 1)
        self.saved = [False] * (nvars + 1)  # phase saving
        self.watches = {}                   # lit -> list of clauses (lists)
        self.clauses = []
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.budget = conflict_budget
        self.conflicts = 0
        self.ok = True
        self.units = []
        for cl in clauses:
            if not self._add_clause(list(dict.fromkeys(cl))):
                self.ok = False
                break

    def _watch(self, lit, cl):
        self.watches.setdefault(lit, []).append(cl)

    def _add_clause(self, cl):
        if not cl:
            return False
        if any(-l in cl for l in cl):
            return True  # tautology
        if len(cl) == 1:
            self.units.append(cl[0])
            return True
        self._watch(cl[0], cl)
        self._watch(cl[1], cl)
        self.clauses.append(cl)
        return True

    def _value(self, lit):
        v = self.val[abs(lit)]
        return v if lit > 0 else -v

    def _assign(self, lit, reason):
        v = abs(lit)
        self.val[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.saved[v] = lit > 0
        self.trail.append(lit)

    def _propagate(self):
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            false_lit = -lit
            watchlist = self.watches.get(false_lit, [])
            i = 0
            while i < len(watchlist):
                cl = watchlist[i]
                # normalize: watched literals are cl[0], cl[1]
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                if self._value(cl[0]) == 1:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(cl)):
                    if self._value(cl[k]) != -1:
                        cl[1], cl[k] = cl[k], cl[1]
                        self._watch(cl[1], cl)
                        watchlist[i] = watchlist[-1]
                        watchlist.pop()
                        moved = True
                        break
                if moved:
                    continue
                if self._value(cl[0]) == -1:
                    return cl  # conflict
                self._assign(cl[0], cl)
                i += 1
        return None

    def _analyze(self, conflict):
        learnt = []
        seen = [False] * (self.n + 1)
        counter = 0
        lit0 = None
        cl = conflict
        idx = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            for l in cl:
                v = abs(l)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self.activity[v] += self.bump
                    if self.level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(l)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            lit0 = self.trail[idx]
            seen[abs(lit0)] = False
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            cl = [l for l in self.reason[abs(lit0)] if l != lit0]
        learnt.insert(0, -lit0)
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[abs(l)] for l in learnt[1:])
        return learnt, back

    def _backjump(self, level):
        target = self.trail_lim[level]
        for lit in self.trail[target:]:
            v = abs(lit)
            self.val[v] = 0
            self.reason[v] = None
        del self.trail[target:]
        del self.trail_lim[level:]
        self.qhead = len(self.trail)

    def _decide(self):
        best, best_act = 0, -1.0
        for v in range(1, self.n + 1):
            if self.val[v] == 0 and self.activity[v] > best_act:
                best, best_act = v, self.activity[v]
        if best == 0:
            return 0
        return best if self.saved[best] else -best

    def solve(self):
        if not self.ok:
            return None
        self.bump = 1.0
        for u in self.units:
            if self._value(u) == -1:
                return None
            if self._value(u) == 0:
                self._assign(u, None)
        restart_limit, total = 100, 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                total += 1
                if self.budget is not None and self.conflicts > self.budget:
                    raise ConflictBudgetExceeded(
                        f"SAT conflict budget of {self.budget} exceeded with "
                        f"{len(self.trail)} of {self.n} variables assigned")
                if not self.trail_lim:
                    return None
                learnt, back = self._analyze(conflict)
                self._backjump(back)
                if len(learnt) == 1:
                    self._assign(learnt[0], None)
                else:
                    self._watch(learnt[0], learnt)
                    # second watch must be a highest-level literal
                    k = max(range(1, len(learnt)),
                            key=lambda i: self.level[abs(learnt[i])])
                    learnt[1], learnt[k] = learnt[k], learnt[1]
                    self._watch(learnt[1], learnt)
                    self.clauses.append(learnt)
                    self._assign(learnt[0], learnt)
                self.bump *= 1.05
                if self.bump > 1e100:
                    for v in range(1, self.n + 1):
                        self.activity[v] *= 1e-100
                    self.bump *= 1e-100
                if total >= restart_limit:
                    total = 0
                    restart_limit = int(restart_limit * 1.3)
                    # a unit learnt clause may already have jumped to level 0
                    if self.trail_lim:
                        self._backjump(0)
            else:
                lit = self._decide()
                if lit == 0:
                    return {v: self.val[v] == 1 for v in range(1, self.n + 1)}
                self.trail_lim.append(len(self.trail))
                self._assign(lit, None)


def brute_force_satisfiable(formula: CnfFormula):
    """Truth-table oracle for small formulas; returns a model or None."""
    n = formula.num_vars
    if n > 24:
        raise ValueError("brute force limited to 24 variables")
    for bits in range(1 << n):
        ok = True
        for cl in formula.clauses:
            if not any((bits >> (abs(l) - 1)) & 1 == (l > 0) for l in cl):
                ok = False
                break
        if ok:
            return {v: bool((bits >> (v - 1)) & 1) for v in range(1, n + 1)}
    return None


def check_model(formula: CnfFormula, model):
    return all(any(model[abs(l)] == (l > 0) for l in cl) for cl in formula.clauses)
