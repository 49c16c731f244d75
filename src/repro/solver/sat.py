"""A CDCL SAT solver.

The search is conflict-driven clause learning: unit propagation over
binary implication lists and two watched literals, first-UIP conflict
analysis, non-chronological backjumping, VSIDS-style variable
activities seeded from the clauses as they arrive (each clause adds
``2**-len(clause)`` to its variables), phase saving, Luby-paced
restarts and LBD-based learned-clause-database reduction, on an
explicit trail rather than Python recursion.

Inside the solver a literal is a *code*: ``2v`` for ``v`` and
``2v + 1`` for ``-v``, so ``code ^ 1`` negates it and ``code >> 1`` is
its variable.  Each code has its own value slot and watch list; level,
reason, activity and saved phase are lists indexed by variable.  A
binary clause is not watched: each of its literals lists the other in
its *implication list*, which propagation walks before the long
clauses' watches (most Tseitin definitions are binary, and so is every
learned 2-clause).  A solve is SAT once the trail holds every
variable.  Outside, clauses, assumptions and ``{var: bool}`` models
speak signed ints.

:class:`IncrementalSolver` is the one search, a *persistent* solver
whose learned clauses, activities and phases survive across
``solve(assumptions)`` calls — what the entailment oracle
(:class:`~repro.solver.encode.IncrementalEntailment`) runs on.
:class:`SATSolver` is the one-shot subclass: it loads one clause set
and adds root pure-literal elimination, which is only sound when no
further clauses can arrive (learned clauses then follow from the
formula plus the pure literals, which preserves satisfiability).
Cross-validated against truth tables in ``tests/solver/test_sat.py``
and against a backtracking reference and fresh solves in
``tests/solver/test_sat_search.py`` and ``test_sat_kernel.py``.
"""

import heapq

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


def _code(lit):
    """The code of a signed literal: ``2v`` for ``v``, ``2v + 1`` for ``-v``."""
    return 2 * lit if lit > 0 else 1 - 2 * lit


class IncrementalSolver:
    """A persistent CDCL solver: clauses in, many queries out.

    ``add_clause`` grows the database between solves, simplified
    against the permanent root facts; ``solve(assumptions=...)``
    decides satisfiability under fixed literals without asserting them
    and leaves every learned clause behind for the next call.
    Assumptions are Minisat-style decisions, pushed before any free
    decision and re-pushed after every backjump; one falsified by the
    database plus earlier assumptions ends the solve UNSAT under the
    assumptions.  Learned clauses never mention assumptions, so they
    stay sound for every later query.

    ``value``, ``watch`` and ``implied`` (the literals a binary clause
    makes true once the code is false) are indexed by literal code;
    ``level``, ``reason``, ``activity`` and ``phase`` by variable.
    ``heap`` orders free decisions by activity, ties to the smaller
    variable: a solve rebuilds it once, before its first free decision,
    and its final rewind pushes nothing back.  Restarts are
    Luby-paced; reduction deletes the worst half of the learned
    clauses by (LBD, length), never glue (LBD <= 2), binary or locked
    reason clauses.

    ``stats`` counts ``decisions``, ``propagations``, root
    ``pure_literals`` (:class:`SATSolver` only), learned ``conflicts``,
    ``restarts`` and ``learned_deleted`` clauses.  Nothing is random,
    so verdicts, models and stats are reproducible run to run.
    """

    def __init__(self):
        self.num_vars = 0
        self.value = [None, None]  # per code: True, False or None
        self.level = [0]  # per variable, read while assigned
        self.reason = [None]  # per variable: None, long clause or int
        self.activity = [0.0]
        self.phase = [True]
        self.watch = [[], []]  # per code: long clauses watching it
        self.implied = [[], []]  # per code: binary implications once false
        self.trail = []  # codes, assignment order
        self.trail_lim = []  # trail length at the moment of each decision
        self.qhead = 0
        self.heap = []
        self.var_inc = 1.0
        self.learned = []  # learned clauses eligible for reduction
        self.lbd = {}  # id(learned clause) -> LBD at learn time
        self.unsat = False
        self.reduce_limit = _REDUCE_BASE
        self.conflicts_since_reduce = 0
        self.stats = dict.fromkeys(("decisions", "propagations", "pure_literals",
                                    "conflicts", "restarts", "learned_deleted"), 0)

    # -- variables ---------------------------------------------------------
    def ensure_vars(self, count):
        """Grow the variable universe to ``1..count``."""
        grow = count - self.num_vars
        if grow <= 0:
            return
        self.value += [None] * (2 * grow)
        self.level += [0] * grow
        self.reason += [None] * grow
        self.activity += [0.0] * grow
        self.phase += [True] * grow
        self.watch += [[] for _ in range(2 * grow)]
        self.implied += [[] for _ in range(2 * grow)]
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
        self.ensure_vars(max(map(abs, clause), default=0))
        value = self.value
        kept = []
        for lit in clause:
            code = _code(lit)
            seen = value[code]
            if seen is None:
                kept.append(code)
            elif seen:
                return True  # satisfied by a root fact: satisfied forever
            # else: false at root, drop the literal
        if not kept:
            self.unsat = True
            return False
        weight = 2.0 ** -len(kept)
        activity = self.activity
        for code in kept:
            activity[code >> 1] += weight
        if len(kept) == 1:
            self._record(kept[0], None)  # propagated at next solve
            self.stats["propagations"] += 1
        else:
            self._attach(kept)
        return True

    def _attach(self, clause):
        """Link a clause of two or more codes: a binary one into its
        literals' implication lists, a longer one into the watch lists
        of its first two literals."""
        if len(clause) == 2:
            self.implied[clause[0]].append(clause[1])
            self.implied[clause[1]].append(clause[0])
        else:
            self.watch[clause[0]].append(clause)
            self.watch[clause[1]].append(clause)

    # -- trail -------------------------------------------------------------
    def _record(self, code, why):
        var = code >> 1
        self.value[code] = True
        self.value[code ^ 1] = False
        self.level[var] = len(self.trail_lim)
        self.reason[var] = why
        self.trail.append(code)
        self.phase[var] = not code & 1

    def _propagate(self):
        """Propagate ``trail[qhead:]``, each false literal's binary
        implications before its watches; the conflicting clause or None."""
        value = self.value
        watch = self.watch
        implied = self.implied
        trail = self.trail
        level = self.level
        reason = self.reason
        phase = self.phase
        depth = len(self.trail_lim)
        qhead = self.qhead
        start = len(trail)
        conflict = None
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            for other in implied[false_lit]:
                seen = value[other]
                if seen is None:
                    value[other] = True
                    value[other ^ 1] = False
                    var = other >> 1
                    level[var] = depth
                    reason[var] = false_lit
                    phase[var] = not other & 1
                    trail.append(other)
                elif not seen:
                    conflict = [other, false_lit]
                    break
            if conflict is not None:
                break
            watchers = watch[false_lit]
            i = 0
            while i < len(watchers):
                clause = watchers[i]
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                other = clause[0]
                seen = value[other]
                if seen:
                    i += 1  # clause already satisfied by its other watch
                    continue
                for k in range(2, len(clause)):
                    candidate = clause[k]
                    if value[candidate] is not False:
                        # migrate the watch to a non-false literal
                        clause[1] = candidate
                        clause[k] = false_lit
                        watch[candidate].append(clause)
                        watchers[i] = watchers[-1]
                        watchers.pop()
                        break
                else:
                    if seen is None:
                        # every other literal is false: ``other`` is unit
                        value[other] = True
                        value[other ^ 1] = False
                        var = other >> 1
                        level[var] = depth
                        reason[var] = clause
                        phase[var] = not other & 1
                        trail.append(other)
                        i += 1
                    else:
                        conflict = clause  # all literals false
                        break
            if conflict is not None:
                break
        self.qhead = qhead
        self.stats["propagations"] += len(trail) - start
        return conflict

    def _cancel_until(self, target_level, requeue=True):
        """Unassign every level above ``target_level``; ``requeue``
        pushes the freed variables back on the decision heap."""
        trail_lim = self.trail_lim
        if len(trail_lim) <= target_level:
            return
        mark = trail_lim[target_level]
        value = self.value
        trail = self.trail
        for code in trail[mark:]:
            value[code] = value[code ^ 1] = None
        if requeue:
            heap = self.heap
            activity = self.activity
            for code in trail[mark:]:
                heapq.heappush(heap, (-activity[code >> 1], code >> 1))
        del trail[mark:]
        del trail_lim[target_level:]
        self.qhead = mark

    def _rebuild_heap(self):
        """Every unassigned variable once, keyed by current activity."""
        activity = self.activity
        value = self.value
        self.heap = [
            (-activity[v], v) for v in range(1, self.num_vars + 1)
            if value[2 * v] is None
        ]
        heapq.heapify(self.heap)

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
        reason = self.reason
        trail = self.trail
        var_inc = self.var_inc
        learned = [None]  # slot 0: the asserting (UIP) literal
        seen = set()
        pending = 0  # current-level literals awaiting resolution
        current = len(self.trail_lim)
        idx = len(trail) - 1
        p_var = 0
        clause = conflict
        while True:
            for lit in clause:
                var = lit >> 1
                if var == p_var or var in seen or level[var] == 0:
                    continue
                seen.add(var)
                bumped = activity[var] + var_inc
                activity[var] = bumped
                heapq.heappush(heap, (-bumped, var))
                if level[var] == current:
                    pending += 1
                else:
                    learned.append(lit)
            while trail[idx] >> 1 not in seen:
                idx -= 1
            p = trail[idx]
            p_var = p >> 1
            idx -= 1
            pending -= 1
            if pending == 0:
                learned[0] = p ^ 1
                break
            clause = reason[p_var]
            if clause.__class__ is int:
                clause = (clause,)  # binary reason: its other literal
        self.var_inc = var_inc * _ACTIVITY_GROWTH
        if self.var_inc > _ACTIVITY_CAP:
            scale = 1.0 / _ACTIVITY_CAP
            self.var_inc *= scale
            self.activity = [act * scale for act in activity]
            self._rebuild_heap()
        lbd = len({level[lit >> 1] for lit in learned} | {current})
        if len(learned) == 1:
            return learned, 0, lbd
        # watch invariant: slot 1 must hold a backjump-level literal
        deepest = max(range(1, len(learned)),
                      key=lambda i: level[learned[i] >> 1])
        learned[1], learned[deepest] = learned[deepest], learned[1]
        return learned, level[learned[1] >> 1], lbd

    def _reduce(self):
        """Delete the worst half of the learned clauses, ranked by (LBD,
        length) descending; glue (LBD <= 2), binary and locked reason
        clauses survive.  A deleted clause is unlinked from both watch
        lists by identity, so no tombstones slow propagation down."""
        self.conflicts_since_reduce = 0
        self.reduce_limit += _REDUCE_GROWTH
        reason = self.reason
        locked = {id(reason[code >> 1]) for code in self.trail}
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
        if self.unsat or self._propagate() is not None:
            self.unsat = True
            return False
        return True

    # -- search ------------------------------------------------------------
    def solve(self, assumptions=(), max_decisions=5_000_000):
        """A satisfying assignment ``{var: bool}`` or ``None``.

        ``None`` means unsatisfiable *under the assumptions*; whether
        the database itself died is visible as :attr:`unsat`.  The
        returned model assigns every variable ``1..num_vars``; the trail
        is rewound to the root either way, so the solver is immediately
        ready for more clauses or the next query.
        """
        self._cancel_until(0, requeue=False)
        self.ensure_vars(max(map(abs, assumptions), default=0))
        if not self._propagate_root():
            return None
        assumed = [_code(lit) for lit in assumptions]
        value = self.value
        trail = self.trail
        restart_num = 0
        conflict_budget = _RESTART_BASE * _luby(restart_num)
        conflicts_here = 0
        decisions_here = 0
        self.heap = []  # rebuilt before this solve's first free decision
        ordered = False
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
                why = None
                if len(learned) >= 2:
                    self._attach(learned)
                    self.learned.append(learned)
                    self.lbd[id(learned)] = lbd
                    why = learned[1] if len(learned) == 2 else learned
                self._record(learned[0], why)
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
            for wanted in assumed:
                seen = value[wanted]
                if seen is None:
                    lit = wanted
                    break
                if not seen:
                    self._cancel_until(0, requeue=False)
                    return None
            if lit is None:
                if len(trail) == self.num_vars:
                    # every variable assigned: SAT
                    model = {code >> 1: not code & 1 for code in trail}
                    self._cancel_until(0, requeue=False)
                    return model
                # free decision: highest-activity unassigned variable
                # (ties to the smaller one), saved phase
                if not ordered:
                    self._rebuild_heap()
                    ordered = True
                heap = self.heap
                activity = self.activity
                while True:
                    negact, var = heapq.heappop(heap)
                    if value[2 * var] is None and -negact == activity[var]:
                        break
                lit = 2 * var if self.phase[var] else 2 * var + 1
            stats["decisions"] += 1
            decisions_here += 1
            if decisions_here > max_decisions:
                self._cancel_until(0, requeue=False)
                raise SolverError("decision budget exhausted")
            self.trail_lim.append(len(trail))
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
        return super().solve(max_decisions=max_decisions)

    def _fix_pure_literals(self):
        """Record root pure literals up to the fixpoint.

        A literal occurring in one polarity only among the unsatisfied
        clauses satisfies every clause it occurs in and its complement
        occurs nowhere, so recording it can neither imply units nor
        conflict.  Sound here and only here: no further clauses can
        arrive, so a literal pure now is pure forever.  Long clauses sit
        on the watch lists, binary ones on the implication lists.
        """
        value = self.value
        clauses = list({
            id(clause): clause
            for watchers in self.watch for clause in watchers
        }.values())
        clauses += [
            (code, other)
            for code, others in enumerate(self.implied)
            for other in others if code < other
        ]
        while True:
            polarity = set()
            for clause in clauses:
                if any(value[code] for code in clause):
                    continue
                for code in clause:
                    if value[code] is None:
                        polarity.add(code)
            pures = [code for code in polarity if code ^ 1 not in polarity]
            if not pures:
                return
            for code in pures:
                self._record(code, None)
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
