"""Minimal CDCL SAT solver and CNF plumbing (DIMACS import/export).

The solver keeps MiniSat's watched-literal core (Een and Sorensson, SAT
2003): two watched literals per clause, 1-UIP clause learning, phase
saving, and restarts after 100 conflicts, each limit 1.3 times the last.
Assignments and watch lists live in flat lists indexed by the literal
itself (see `_Solver`), and propagation runs over local names.

Deterministic: decisions use an activity heuristic with ties broken by
variable index, so identical formulas always produce identical models
after the same number of conflicts (`tests/test_sat.py` pins both for a
seeded batch and the bundled encodings).

Input checks: `solve` rejects the literal 0 and any literal outside
+-num_vars with ValueError, since `clauses` is a public list that may not
have gone through `add_clause`.  `from_dimacs` reads clauses as 0-ended
token streams and rejects malformed text with ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ConflictBudgetExceeded(RuntimeError):
    """The solver took more conflicts than its budget.  `conflicts` and
    `assigned` are the conflicts counted and the variables assigned when it
    stopped."""

    def __init__(self, msg, conflicts=None, assigned=None):
        super().__init__(msg)
        self.conflicts = conflicts
        self.assigned = assigned


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
        """Read DIMACS CNF.  Lines starting with "c" are comments ("c var V =
        tag" lines fill the registry); one "p cnf V C" line comes before the
        clauses; each clause is a run of literals ended by 0, so a clause may
        span lines and a line may hold several clauses.  Raises ValueError
        for a missing or repeated header, a literal outside +-V, a clause
        without its closing 0, or a clause count other than C."""
        f = cls()
        header = None
        clause = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("c"):
                if line.startswith("c var "):
                    parts = line[6:].split(" = ", 1)
                    if len(parts) == 2 and parts[0].isdigit():
                        f.registry[int(parts[0])] = parts[1]
                continue
            if line.startswith("p"):
                fields = line.split()
                if (header is not None or len(fields) != 4
                        or fields[1] != "cnf"):
                    raise ValueError(f"bad or repeated DIMACS header {line!r}")
                f.num_vars, header = int(fields[2]), int(fields[3])
                if f.num_vars < 0 or header < 0:
                    raise ValueError(f"bad DIMACS header {line!r}")
                continue
            if header is None:
                raise ValueError("DIMACS clause before the 'p cnf' line")
            for tok in line.split():
                lit = int(tok)
                if lit == 0:
                    f.clauses.append(clause)
                    clause = []
                elif abs(lit) > f.num_vars:
                    raise ValueError(f"literal {lit} is outside the formula's "
                                     f"{f.num_vars} variables")
                else:
                    clause.append(lit)
        if header is None:
            raise ValueError("DIMACS text has no 'p cnf' line")
        if clause:
            raise ValueError("the last DIMACS clause is not ended by 0")
        if len(f.clauses) != header:
            raise ValueError(f"DIMACS header declares {header} clauses, "
                             f"the text holds {len(f.clauses)}")
        return f


def solve(formula: CnfFormula, conflict_budget=None):
    """Return a model as {var: bool} or None for UNSAT.

    Raises ValueError for the literal 0 or a literal outside +-num_vars, and
    ConflictBudgetExceeded when the formula takes more than conflict_budget
    conflicts.
    """
    s = _Solver(formula.num_vars, formula.clauses, conflict_budget)
    return s.solve()


class _Solver:
    """CDCL with two watched literals, 1-UIP learning, phase saving and
    geometric restarts.

    A literal is a nonzero int in [-n, n].  `lv` and `watches` hold 2n + 1
    slots indexed by the literal itself: the slots 1..n are the positive
    literals and Python's negative indexing puts -n..-1 in n+1..2n.  lv[lit]
    is 1 when lit is true, -1 when false and 0 when unassigned, so
    assigning lit writes lv[lit] and lv[-lit].  The per-variable arrays
    (level, reason, activity, saved) are indexed by variable.
    """

    def __init__(self, nvars, clauses, conflict_budget=None):
        n = self.n = nvars
        for lit in {lit for cl in clauses for lit in cl}:
            if lit == 0 or not -n <= lit <= n:
                raise ValueError(f"literal {lit} is outside the formula's "
                                 f"{n} variables")
        self.lv = [0] * (2 * n + 1)
        self.watches = [[] for _ in range(2 * n + 1)]  # lit -> clauses
        self.level = [0] * (n + 1)
        self.reason = [None] * (n + 1)
        self.activity = [0.0] * (n + 1)
        self.saved = [False] * (n + 1)  # phase saving
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.budget = conflict_budget
        self.conflicts = 0
        self.ok = True
        self.units = []
        watches = self.watches
        for cl in clauses:
            cl = list(dict.fromkeys(cl))
            if len(cl) < 2:
                if not cl:
                    self.ok = False
                    break
                self.units.append(cl[0])
            elif len(set(map(abs, cl))) == len(cl):  # else a tautology
                watches[cl[0]].append(cl)
                watches[cl[1]].append(cl)

    def _assign(self, lit, reason):
        v = lit if lit > 0 else -lit
        self.lv[lit] = 1
        self.lv[-lit] = -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.saved[v] = lit > 0
        self.trail.append(lit)

    def _propagate(self):
        """Unit propagation from qhead; return a conflict clause or None.

        A clause's watched literals are cl[0] and cl[1].  A clause visited
        from the false literal's list moves that literal to cl[1]; it is
        satisfied if cl[0] is true, moves its watch to the first later
        literal that is not false, and otherwise is unit (cl[0] is assigned)
        or in conflict.
        """
        lv, watches, trail = self.lv, self.watches, self.trail
        level, reason, saved = self.level, self.reason, self.saved
        depth = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches[false_lit]
            # a clause that moves its watch is replaced by the list's last
            # one; the list is cut to `end` when the visit is over
            i, end = 0, len(ws)
            while i < end:
                cl = ws[i]
                first = cl[0]
                if first == false_lit:
                    first = cl[0] = cl[1]
                    cl[1] = false_lit
                if lv[first] == 1:
                    i += 1
                    continue
                for k in range(2, len(cl)):
                    other = cl[k]
                    if lv[other] != -1:
                        cl[1] = other
                        cl[k] = false_lit
                        watches[other].append(cl)
                        end -= 1
                        ws[i] = ws[end]
                        break
                else:
                    if lv[first] == -1:
                        del ws[end:]
                        self.qhead = qhead
                        return cl
                    lv[first] = 1
                    lv[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = depth
                    reason[v] = cl
                    saved[v] = first > 0
                    trail.append(first)
                    i += 1
            del ws[end:]
        self.qhead = qhead
        return None

    def _analyze(self, conflict):
        """1-UIP learning.  Return (learnt, back): learnt[0] is the negated
        UIP, learnt[1] the first literal of the highest level below it, and
        back that level (0 for a unit clause)."""
        level, activity, reason, trail = (self.level, self.activity,
                                          self.reason, self.trail)
        bump = self.bump
        learnt = [0]
        seen = [False] * (self.n + 1)
        counter = back = k = 0
        cl = conflict
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            for l in cl:
                v = l if l > 0 else -l
                if not seen[v]:
                    lvl = level[v]
                    if lvl > 0:
                        seen[v] = True
                        activity[v] += bump
                        if lvl == cur_level:
                            counter += 1
                        else:
                            if lvl > back:
                                back, k = lvl, len(learnt)
                            learnt.append(l)
            lit0 = trail[idx]
            while not seen[lit0 if lit0 > 0 else -lit0]:
                idx -= 1
                lit0 = trail[idx]
            counter -= 1
            idx -= 1
            if counter == 0:
                break
            # lit0 stays seen, so its own reason skips it
            cl = reason[lit0 if lit0 > 0 else -lit0]
        learnt[0] = -lit0
        if k > 1:
            learnt[1], learnt[k] = learnt[k], learnt[1]
        return learnt, back

    def _backjump(self, level):
        # level and reason are read only for assigned variables, so only the
        # values are cleared
        target = self.trail_lim[level]
        lv = self.lv
        for lit in self.trail[target:]:
            lv[lit] = lv[-lit] = 0
        del self.trail[target:]
        del self.trail_lim[level:]
        self.qhead = len(self.trail)

    def _decide(self):
        lv, activity = self.lv, self.activity
        best, best_act = 0, -1.0
        for v in range(1, self.n + 1):
            if lv[v] == 0 and activity[v] > best_act:
                best, best_act = v, activity[v]
        if best == 0:
            return 0
        return best if self.saved[best] else -best

    def solve(self):
        if not self.ok:
            return None
        lv = self.lv
        self.bump = 1.0
        for u in self.units:
            if lv[u] == -1:
                return None
            if lv[u] == 0:
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
                        f"{len(self.trail)} of {self.n} variables assigned",
                        self.conflicts, len(self.trail))
                if not self.trail_lim:
                    return None
                learnt, back = self._analyze(conflict)
                self._backjump(back)
                if len(learnt) == 1:
                    self._assign(learnt[0], None)
                else:
                    # learnt[1] is a highest-level literal: the second watch
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
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
                    return {v: lv[v] == 1 for v in range(1, self.n + 1)}
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
