"""A CDCL SAT solver.

The search is conflict-driven clause learning: two-watched-literal unit
propagation, first-UIP conflict analysis, non-chronological
backjumping, VSIDS-style variable activities seeded from the clauses
as they arrive (each clause adds ``2**-len(clause)`` to its variables),
phase saving, Luby-paced restarts and LBD-based learned-clause-database
reduction.  Restarts and reduction are always on; neither moves a
verdict.  The search runs on an explicit trail rather than Python
recursion, so deep splits on hundreds of variables cannot hit the
interpreter's recursion limit.

There is one search, in :class:`IncrementalSolver`, a *persistent*
solver: clauses, watches, activities, saved phases and — decisively —
learned clauses survive across ``solve()`` calls, and each call may
pass *assumptions* (literals the search treats as fixed decisions,
Minisat-style: re-pushed after every backjump, reported UNSAT when one
becomes falsified by the clause database plus earlier assumptions).
Conclusions learned under assumption-free analysis mention no
per-query markers, so everything learned answering one query
accelerates the next — the entailment oracle
(:class:`~repro.solver.encode.IncrementalEntailment`) exploits exactly
this across the thousands of near-identical queries a chain run
issues.  :class:`SATSolver` is the one-shot subclass: it loads one
clause set and adds root pure-literal elimination, which is only sound
when no further clauses can arrive.

Learned clauses are consequences of the original formula *plus* the
root pure-literal assignments; since fixing a pure literal preserves
satisfiability, verdicts are unaffected.  The solver is cross-validated
against brute-force truth-table enumeration in
``tests/solver/test_sat.py``, and against a backtracking reference plus
assumption-incremental correctness in ``tests/checker/test_parallel.py``.
"""

import heapq
from collections import defaultdict

from ..errors import SolverError

#: Per-conflict growth of the activity increment (``1 / decay``).
_ACTIVITY_GROWTH = 1.0 / 0.95

#: Rescale threshold for activities (precision guard, keeps floats finite).
_ACTIVITY_CAP = 1e100

#: Conflicts allowed before the first restart; subsequent budgets are
#: this times the Luby sequence (64, 64, 128, 64, 64, 128, 256, ...).
_RESTART_BASE = 64

#: Conflicts before the first learned-clause-database reduction...
_REDUCE_BASE = 2000

#: ...growing by this much after each reduction (the DB is allowed to
#: keep more as the instance proves harder).
_REDUCE_GROWTH = 300


def _luby(x):
    """The ``x``-th (0-based) term of the Luby restart sequence
    (1 1 2 1 1 2 4 ...), via the standard Minisat recurrence."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class IncrementalSolver:
    """A persistent CDCL solver: clauses in, many queries out.

    The solver accumulates state for a *lifetime* of queries:
    ``add_clause`` grows the database between solves (at the
    root level — clauses are simplified against permanent root facts on
    the way in), and ``solve(assumptions=...)`` decides satisfiability
    under a set of fixed literals without asserting them, leaving every
    clause learned along the way behind for the next call.  Assumptions
    are handled Minisat-style: pushed as decisions before any free
    decision, re-pushed after every backjump, and reported UNSAT (under
    the assumptions — the database itself stays live) the moment one is
    falsified by propagation from the database plus earlier
    assumptions.  Learned clauses never mention assumption markers, so
    they are consequences of the database alone and remain sound for
    every future query — the property the incremental entailment oracle
    is built on.

    Restarts are Luby-paced: the search abandons its current decision
    stack after a conflict budget and retries with the activities it
    has learned (saved phases make this cheap).  Clause-database
    reduction periodically deletes the worst half of the learned
    clauses, ranked by literal-block distance (LBD — the number of
    distinct decision levels in the clause; "glue" clauses with LBD
    <= 2, binary clauses and clauses currently locked as reasons are
    never deleted).

    ``stats`` counts ``decisions``, ``propagations``, root
    ``pure_literals`` (:class:`SATSolver` only), learned ``conflicts``,
    ``restarts`` and ``learned_deleted`` clauses.  All tie-breaking is
    deterministic (no randomness anywhere), so verdicts, models and
    stats are reproducible run to run.
    """

    def __init__(self):
        self.num_vars = 0
        self.assign = {}
        self.level = {}
        self.reason = {}
        self.trail = []  # signed literals, assignment order
        self.trail_lim = []  # trail length at the moment of each decision
        self.qhead = 0
        self.watch = defaultdict(list)
        self.activity = {}
        self.phase = {}
        self.heap = []
        self.var_inc = 1.0
        self.learned = []  # learned clauses eligible for reduction
        self.lbd = {}  # id(learned clause) -> LBD at learn time
        self.unsat = False
        self.reduce_limit = _REDUCE_BASE
        self.conflicts_since_reduce = 0
        self.stats = dict.fromkeys(
            ("decisions", "propagations", "pure_literals", "conflicts",
             "restarts", "learned_deleted"),
            0,
        )

    # -- variables ---------------------------------------------------------
    def ensure_vars(self, count):
        """Grow the variable universe to ``1..count``."""
        for var in range(self.num_vars + 1, count + 1):
            self.activity[var] = 0.0
            self.phase[var] = True
            heapq.heappush(self.heap, (0.0, var))
        if count > self.num_vars:
            self.num_vars = count

    # -- database ----------------------------------------------------------
    def add_clause(self, lits):
        """Add one clause (between solves, at the root level).

        The clause is deduplicated, dropped if tautological and
        simplified against the permanent root assignment (root facts
        never unassign, so a root-satisfied clause is satisfied forever
        and a root-false literal is false forever).  Returns ``False``
        iff the database just became permanently unsatisfiable.
        """
        if self.unsat:
            return False
        if self.trail_lim:
            raise SolverError("add_clause mid-search (cancel to root first)")
        clause = tuple(dict.fromkeys(lits))
        if any(-lit in clause for lit in clause):
            return True  # tautology
        kept = []
        for lit in clause:
            var = abs(lit)
            if var > self.num_vars:
                self.ensure_vars(var)
            value = self.assign.get(var)
            if value is None:
                kept.append(lit)
            elif value == (lit > 0):
                return True  # satisfied by a root fact: satisfied forever
            # else: false at root, drop the literal
        if kept:
            weight = 2.0 ** -len(kept)
            for lit in kept:
                var = abs(lit)
                bumped = self.activity[var] + weight
                self.activity[var] = bumped
                heapq.heappush(self.heap, (-bumped, var))
        if not kept:
            self.unsat = True
            return False
        if len(kept) == 1:
            value = self.assign.get(abs(kept[0]))
            if value is None:
                self._record(kept[0], None)  # propagated at next solve
                self.stats["propagations"] += 1
            elif value != (kept[0] > 0):
                self.unsat = True
                return False
            return True
        mutable = list(kept)
        self.watch[mutable[0]].append(mutable)
        self.watch[mutable[1]].append(mutable)
        return True

    # -- trail -------------------------------------------------------------
    def _record(self, lit, why):
        var = lit if lit > 0 else -lit
        self.assign[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = why
        self.trail.append(lit)
        self.phase[var] = lit > 0

    def _propagate(self):
        """Propagate ``trail[qhead:]``; the conflicting clause or None."""
        assign = self.assign
        watch = self.watch
        trail = self.trail
        stats = self.stats
        while self.qhead < len(trail):
            false_lit = -trail[self.qhead]
            self.qhead += 1
            watchers = watch[false_lit]
            i = 0
            while i < len(watchers):
                clause = watchers[i]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                other = clause[0]
                value = assign.get(abs(other))
                if value is not None and value == (other > 0):
                    i += 1  # clause already satisfied by its other watch
                    continue
                for k in range(2, len(clause)):
                    candidate = clause[k]
                    seen = assign.get(abs(candidate))
                    if seen is None or seen == (candidate > 0):
                        # migrate the watch to a non-false literal
                        clause[1], clause[k] = clause[k], clause[1]
                        watch[candidate].append(clause)
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        break
                else:
                    if value is None:
                        # every other literal is false: ``other`` is unit
                        self._record(other, clause)
                        stats["propagations"] += 1
                        i += 1
                    else:
                        return clause  # all literals false: conflict
        return None

    def _cancel_until(self, target_level):
        if len(self.trail_lim) <= target_level:
            return
        mark = self.trail_lim[target_level]
        heap = self.heap
        activity = self.activity
        for lit in self.trail[mark:]:
            var = abs(lit)
            del self.assign[var]
            del self.level[var]
            del self.reason[var]
            heapq.heappush(heap, (-activity[var], var))
        del self.trail[mark:]
        del self.trail_lim[target_level:]
        self.qhead = mark

    def _analyze(self, conflict):
        """First-UIP learning: (learned clause, backjump level, LBD).

        Resolves the conflict clause backward along the trail with the
        reasons of current-level literals until exactly one
        current-level literal remains (the first unique implication
        point); that literal, negated, asserts at the backjump level.
        Level-0 literals are facts and are dropped.  Every variable met
        on the conflict side gets an activity bump.  The LBD is the
        number of distinct decision levels among the learned clause's
        literals, measured at learn time.
        """
        activity = self.activity
        heap = self.heap
        level = self.level
        trail = self.trail
        learned = [None]  # slot 0: the asserting (UIP) literal
        seen = set()
        pending = 0  # current-level literals awaiting resolution
        current = len(self.trail_lim)
        idx = len(trail) - 1
        p_var = None
        clause = conflict
        while True:
            for lit in clause:
                var = abs(lit)
                if var == p_var or var in seen or level[var] == 0:
                    continue
                seen.add(var)
                bumped = activity[var] + self.var_inc
                activity[var] = bumped
                heapq.heappush(heap, (-bumped, var))
                if level[var] == current:
                    pending += 1
                else:
                    learned.append(lit)
            while abs(trail[idx]) not in seen:
                idx -= 1
            p = trail[idx]
            p_var = abs(p)
            idx -= 1
            pending -= 1
            if pending == 0:
                learned[0] = -p
                break
            clause = self.reason[p_var]
        self.var_inc *= _ACTIVITY_GROWTH
        if self.var_inc > _ACTIVITY_CAP:
            scale = 1.0 / _ACTIVITY_CAP
            self.var_inc *= scale
            for var in activity:
                activity[var] *= scale
            self.heap = [
                (-activity[v], v) for v in range(1, self.num_vars + 1)
                if v not in self.assign
            ]
            heapq.heapify(self.heap)
        lbd = len({level[abs(lit)] for lit in learned if lit is not None}
                  | {current})
        if len(learned) == 1:
            return learned, 0, lbd
        # watch invariant: slot 1 must hold a backjump-level literal
        deepest = max(range(1, len(learned)),
                      key=lambda i: level[abs(learned[i])])
        learned[1], learned[deepest] = learned[deepest], learned[1]
        return learned, level[abs(learned[1])], lbd

    def _reduce(self):
        """Delete the worst half of the learned clauses.

        Ranked by (LBD, length) descending; glue clauses (LBD <= 2),
        binary clauses and clauses currently locked as the reason of a
        trail literal survive.  Deletion is physical — the clause is
        unlinked from both watch lists by identity — so no tombstones
        slow down propagation afterwards.
        """
        self.conflicts_since_reduce = 0
        self.reduce_limit += _REDUCE_GROWTH
        locked = {
            id(why) for why in self.reason.values() if why is not None
        }
        ranked = sorted(
            self.learned,
            key=lambda c: (self.lbd[id(c)], len(c)),
            reverse=True,
        )
        limit = len(self.learned) // 2
        drop = []
        for clause in ranked:
            if len(drop) >= limit:
                break
            if (self.lbd[id(clause)] > 2 and len(clause) > 2
                    and id(clause) not in locked):
                drop.append(clause)
        if not drop:
            return
        for clause in drop:
            for lit in (clause[0], clause[1]):
                watchers = self.watch[lit]
                for i, entry in enumerate(watchers):
                    if entry is clause:
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        break
            del self.lbd[id(clause)]
        dropped = {id(clause) for clause in drop}
        self.learned = [c for c in self.learned if id(c) not in dropped]
        self.stats["learned_deleted"] += len(drop)

    def _propagate_root(self):
        """Propagate pending root units; ``False`` iff the database is
        now permanently unsatisfiable."""
        if self.unsat:
            return False
        if self._propagate() is not None:
            self.unsat = True
            return False
        return True

    # -- search ------------------------------------------------------------
    def solve(self, assumptions=(), max_decisions=5_000_000):
        """A satisfying assignment ``{var: bool}`` or ``None``.

        ``None`` means unsatisfiable *under the assumptions*; whether
        the database itself died is visible as :attr:`unsat`.  The
        returned model assigns every constrained variable (unconstrained
        ones are simply absent); the trail is rewound to the root either
        way, so the solver is immediately ready for more clauses or the
        next query.
        """
        self._cancel_until(0)
        if not self._propagate_root():
            return None
        restart_num = 0
        conflict_budget = _RESTART_BASE * _luby(restart_num)
        conflicts_here = 0
        decisions_here = 0
        stats = self.stats
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not self.trail_lim:
                    self.unsat = True  # conflict from root facts alone
                    return None
                stats["conflicts"] += 1
                conflicts_here += 1
                self.conflicts_since_reduce += 1
                learned, backjump, lbd = self._analyze(conflict)
                self._cancel_until(backjump)
                if len(learned) >= 2:
                    self.watch[learned[0]].append(learned)
                    self.watch[learned[1]].append(learned)
                    self.learned.append(learned)
                    self.lbd[id(learned)] = lbd
                self._record(learned[0], learned)
                stats["propagations"] += 1
                if self.conflicts_since_reduce >= self.reduce_limit:
                    self._reduce()
                continue
            if conflicts_here >= conflict_budget:
                stats["restarts"] += 1
                restart_num += 1
                conflict_budget = _RESTART_BASE * _luby(restart_num)
                conflicts_here = 0
                self._cancel_until(0)
                continue
            # assumptions are (re-)pushed, in order, before any free
            # decision; one found false here is entailed by the database
            # plus earlier assumptions -> UNSAT under the assumptions
            lit = None
            for wanted in assumptions:
                value = self.assign.get(abs(wanted))
                if value is None:
                    lit = wanted
                    break
                if value != (wanted > 0):
                    self._cancel_until(0)
                    return None
            if lit is None:
                # free decision: highest-activity unassigned variable,
                # saved phase
                while self.heap:
                    negact, var = heapq.heappop(self.heap)
                    if var not in self.assign and -negact == self.activity[var]:
                        lit = var if self.phase[var] else -var
                        break
                if lit is None:
                    model = dict(self.assign)  # total assignment: SAT
                    self._cancel_until(0)
                    return model
            stats["decisions"] += 1
            decisions_here += 1
            if decisions_here > max_decisions:
                self._cancel_until(0)
                raise SolverError("decision budget exhausted")
            self.trail_lim.append(len(self.trail))
            self._record(lit, None)


class SATSolver(IncrementalSolver):
    """Decide satisfiability of one CNF given as integer-literal clauses.

    The clauses load through :meth:`~IncrementalSolver.add_clause`;
    :meth:`solve` then fixes root pure literals and runs the shared
    search.
    """

    def __init__(self, clauses, num_vars):
        super().__init__()
        self.ensure_vars(num_vars)
        for clause in clauses:
            if not self.add_clause(clause):
                break

    def solve(self, max_decisions=5_000_000):
        """A satisfying assignment ``{var: bool}`` over every variable,
        or ``None`` if UNSAT."""
        if self._propagate_root():
            self._fix_pure_literals()
        model = super().solve(max_decisions=max_decisions)
        if model is None:
            return None
        # complete the assignment for unconstrained variables
        for v in range(1, self.num_vars + 1):
            model.setdefault(v, False)
        return model

    def _fix_pure_literals(self):
        """Record root pure literals up to the fixpoint.

        A literal occurring in one polarity only among the unsatisfied
        clauses satisfies every clause it occurs in and its complement
        occurs nowhere, so recording it can neither imply units nor
        conflict.  Sound here and only here: no further clauses can
        arrive, so a literal pure now is pure forever.  Every clause of
        two or more literals sits on the watch lists; unit clauses are
        root facts already.
        """
        assign = self.assign
        clauses = {
            id(clause): clause
            for watchers in self.watch.values() for clause in watchers
        }.values()
        while True:
            polarity = set()
            for clause in clauses:
                if any(assign.get(abs(l)) == (l > 0) for l in clause):
                    continue
                for lit in clause:
                    if abs(lit) not in assign:
                        polarity.add(lit)
            pures = [lit for lit in polarity if -lit not in polarity]
            if not pures:
                return
            for lit in pures:
                self._record(lit, None)
                self.stats["pure_literals"] += 1
            self.qhead = len(self.trail)


def solve_cnf(cnf):
    """Solve a :class:`~repro.solver.cnf.CNF`; returns assignment or None."""
    solver = SATSolver(cnf.clauses, cnf.num_vars)
    return solver.solve()


def solve_formula(formula):
    """Satisfiability of a propositional formula.

    Returns an atom assignment (dict) or ``None`` when unsatisfiable.
    """
    from .cnf import tseitin

    cnf = tseitin(formula)
    model = solve_cnf(cnf)
    if model is None:
        return None
    return cnf.decode(model)
