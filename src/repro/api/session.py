"""Reusable verification sessions: shared universe, caches, batching.

A :class:`Session` owns a :class:`~repro.checker.universe.Universe` and a
:class:`CachingOracle`, parses programs/assertions once (memoized by
source text), and dispatches every :class:`VerificationTask` through a
configurable chain of :mod:`~repro.api.backends` with per-backend
budgets.  :meth:`Session.verify_many` runs a batch — optionally on a
thread pool — and returns a rolling :class:`Report`.

Each task's result is a :class:`TaskResult` holding the
:class:`~repro.api.outcome.Outcome` objects (``Proved`` / ``Refuted`` /
``Undecided``) of every chain stage; results and reports serialize
through :mod:`repro.codec`, so a report can persist or cross a process
boundary without losing proofs or witnesses.

The caches are what make a session cheaper than N standalone verifier
instantiations: entailment queries repeat heavily across related triples
(the closing ``Cons`` entailments of similar specs, ``I |= low(b)`` side
conditions, ...) and each repeat is a dictionary hit instead of a SAT
run or a powerset enumeration.
"""

import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Tuple

from . import task as _task_mod

from ..assertions.base import Assertion
from ..assertions.entail import EntailmentOracle
from ..assertions.parser import parse_assertion
from ..checker.engine import CheckerEngine, ImageCache
from ..checker.universe import Universe
from ..compile import CompileCache
from ..codec.mixin import WireCodec
from ..deps.fingerprint import (
    Fingerprint,
    FingerprintError,
    fingerprint,
    subtree_fingerprints,
    task_dependencies,
    task_fingerprint,
)
from ..deps.graph import DependencyGraph
from ..lang.ast import Command
from ..lang.parser import parse_command
from ..values import IntRange
from .backends import (
    ExhaustiveBackend,
    LoopBackend,
    SampledBackend,
    SymbolicBackend,
    SyntacticWPBackend,
)
from .outcome import Outcome, Undecided
from .task import Budget, VerificationTask, as_outcome

_MISS = object()


class CachingOracle(EntailmentOracle):
    """An entailment oracle that memoizes verdicts across queries.

    Keys are the fingerprint pairs of the ``(pre, post)`` assertions
    (:func:`~repro.deps.fingerprint.fingerprint`), so equal queries
    share a verdict no matter how their trees were built; semantic
    assertions fall back to the objects themselves (identity hashing),
    and unhashable operands bypass the cache.  With a ``deps``
    :class:`~repro.deps.graph.DependencyGraph`, every memoized verdict
    records the assertion-subtree fingerprints it depends on (an
    ``("entail", key)`` artifact), so editing a subtree invalidates
    exactly the verdicts that mention it.  The cached entry keeps the
    method that decided the query so repeat queries still report it
    faithfully.  Safe under concurrent use (one lock around the table;
    verdict computation happens outside it, so a race costs at most a
    duplicated computation).
    """

    def __init__(self, universe, domain, method="brute", max_size=None,
                 compile_cache=None, deps=None):
        super().__init__(
            universe, domain, method=method, max_size=max_size,
            compile_cache=compile_cache,
        )
        self._cache = {}
        self._cache_lock = threading.Lock()
        self._deps = deps
        self.hits = 0
        self.misses = 0

    def entails(self, pre, post):
        try:
            key = (fingerprint(pre), fingerprint(post))
            dep_fps = subtree_fingerprints(pre) | subtree_fingerprints(post)
        except FingerprintError:
            key = (pre, post)
            dep_fps = None
        try:
            hash(key)
        except TypeError:
            return super().entails(pre, post)
        with self._cache_lock:
            cached = self._cache.get(key, _MISS)
            if cached is not _MISS:
                self.hits += 1
        if cached is not _MISS:
            verdict, method = cached
            self._record(method)
            return verdict
        verdict = super().entails(pre, post)
        with self._cache_lock:
            self._cache[key] = (verdict, self.last_method)
            self.misses += 1
        if self._deps is not None and dep_fps is not None:
            self._deps.record(("entail", key), dep_fps)
        return verdict

    def drop(self, key):
        """Remove one memoized verdict by its cache key — the form
        ``("entail", key)`` dependency artifacts carry."""
        with self._cache_lock:
            self._cache.pop(key, None)

    def cache_info(self):
        """``{"hits": ..., "misses": ..., "size": ...}``."""
        with self._cache_lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._cache)}

    def cache_clear(self):
        with self._cache_lock:
            self._cache.clear()
            self.hits = 0
            self.misses = 0
        if self._deps is not None:
            # a cleared memo must leave no stale dependency edges behind
            self._deps.forget_kind("entail")


@dataclass(frozen=True)
class TaskResult(WireCodec):
    """All outcomes one task went through, plus the decisive one."""

    task: VerificationTask
    outcomes: Tuple[Outcome, ...]

    @property
    def outcome(self):
        """The outcome that settled the task, or ``None`` if undecided."""
        for outcome in self.outcomes:
            if outcome.decided:
                return outcome
        return None

    #: Historical name for :attr:`outcome`.
    decided_by = outcome

    @property
    def verdict(self):
        outcome = self.outcome
        return None if outcome is None else outcome.verdict

    @property
    def verified(self):
        return self.verdict is True

    @property
    def refuted(self):
        return self.verdict is False

    @property
    def undecided(self):
        return self.verdict is None

    @property
    def method(self):
        outcome = self.outcome
        return "undecided" if outcome is None else outcome.method

    @property
    def proof(self):
        outcome = self.outcome
        return None if outcome is None else outcome.proof

    @property
    def witness(self):
        """The refuting :class:`~repro.checker.counterexample.Witness`."""
        outcome = self.outcome
        return None if outcome is None else outcome.witness

    @property
    def counterexample(self):
        """Human-readable witness text (``None`` unless refuted)."""
        outcome = self.outcome
        return None if outcome is None else outcome.counterexample

    @property
    def assumptions(self):
        outcome = self.outcome
        return () if outcome is None else outcome.assumptions

    @property
    def elapsed(self):
        return sum(outcome.elapsed for outcome in self.outcomes)

    def __bool__(self):
        return self.verified

    def __repr__(self):
        verdict = {True: "verified", False: "refuted", None: "undecided"}[self.verdict]
        return "TaskResult(%s via %s, %d outcomes, %.3fs)" % (
            verdict,
            self.method,
            len(self.outcomes),
            self.elapsed,
        )


@dataclass(frozen=True)
class Report(WireCodec):
    """Aggregate outcome of :meth:`Session.verify_many`.

    ``counters`` is the per-batch delta of :meth:`Session.counters`:
    entailment-memo, image-cache (and its bitset mask tier) and
    compile-cache hits, misses and evictions, the entailment queries
    each method decided (``entailment_sat`` / ``entailment_brute``),
    the intra-task partitioned scan's ``parallel_*`` work
    (:mod:`repro.checker.parallel`), and the incremental subsystem's
    ``fingerprint_hits`` (whole outcomes :meth:`Session.reverify`
    reused) and ``cone_invalidations`` (artifacts a declared edit
    dropped).  Process-sharded batches sum their workers' deltas.  The
    map is open: a new counter is one more key, not a new field.
    Per-backend decision counts are derived from the results themselves
    (:meth:`decided_by_backend`).
    """

    results: Tuple[TaskResult, ...]
    elapsed: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.results)

    def __len__(self):
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]

    @property
    def verified(self):
        return tuple(r for r in self.results if r.verified)

    @property
    def refuted(self):
        return tuple(r for r in self.results if r.refuted)

    @property
    def undecided(self):
        return tuple(r for r in self.results if r.undecided)

    @property
    def all_verified(self):
        return all(r.verified for r in self.results)

    def __bool__(self):
        return self.all_verified

    def decided_by_backend(self):
        """``{backend name: decided tasks}`` for this batch.

        Counts each task once, under the backend whose outcome settled
        it; undecided tasks appear under ``"undecided"``.  Derived from
        :attr:`results`, so sharded and inline reports agree by
        construction.
        """
        counts = {}
        for result in self.results:
            outcome = result.outcome
            name = "undecided" if outcome is None else outcome.backend
            counts[name] = counts.get(name, 0) + 1
        return counts

    def summary(self):
        """A multi-line human-readable batch summary."""
        decided = ", ".join(
            "%s: %d" % (name, count)
            for name, count in sorted(self.decided_by_backend().items())
        )
        c = defaultdict(int, self.counters)
        c.update(
            verified=len(self.verified),
            refuted=len(self.refuted),
            undecided=len(self.undecided),
            elapsed=self.elapsed,
            decided=decided or "nothing",
            # subtree-level reuse: compiled closures, image rows and
            # entailment verdicts served from cache (the mask tier
            # shadows the image tier, so it is not double-counted)
            artifacts_reused=c["entailment_hits"] + c["image_hits"] + c["compile_hits"],
        )
        lines = [
            "report: %(verified)d verified, %(refuted)d refuted, %(undecided)d "
            "undecided in %(elapsed).3fs (entailment cache: %(entailment_hits)d "
            "hits, %(entailment_misses)d misses; image cache: %(image_hits)d "
            "hits, %(image_misses)d misses, %(image_evictions)d evictions; "
            "mask tier: %(image_mask_hits)d hits, %(image_mask_misses)d misses)" % c,
            "  decided by: %(decided)s; entailments: %(entailment_sat)d sat, "
            "%(entailment_brute)d brute" % c,
            "  incremental: %(fingerprint_hits)d fingerprint hits, "
            "%(cone_invalidations)d cone invalidations, %(artifacts_reused)d "
            "artifacts reused" % c,
            "  parallel: %(parallel_blocks)d blocks, %(parallel_cancelled)d "
            "cancelled, %(parallel_scan_states)d states scanned" % c,
        ]
        for index, result in enumerate(self.results):
            verdict = {True: "verified", False: "refuted", None: "undecided"}[
                result.verdict
            ]
            label = result.task.label or "task %d" % index
            lines.append(
                "  %-20s %-9s via %-22s %.3fs"
                % (label, verdict, result.method, result.elapsed)
            )
        return "\n".join(lines)


def counter_delta(before, after):
    """``after - before``, key by key, for two :meth:`Session.counters`
    snapshots."""
    return {name: after[name] - before[name] for name in after}


def default_backends(max_set_size=None):
    """The standard chain: wp, annotated loops, symbolic, then the oracle.

    The :class:`SymbolicBackend` sits right before the closing oracle:
    on its fragment it decides with one SAT call (no ``2**n`` term), and
    out-of-fragment tasks fall through with a recorded reason.  With
    ``max_set_size`` the closing oracle stage is the capped
    :class:`SampledBackend` (legacy ``oracle(≤k)`` semantics) instead of
    the exhaustive one; being the last backend, its capped pass is
    allowed to stand as the chain's verdict (``claim_capped_pass``) —
    and the symbolic stage is omitted so the chain's verdicts keep the
    documented ``oracle(≤k)`` under-approximation semantics instead of
    silently upgrading to exact ones.
    """
    if max_set_size is None:
        return (
            SyntacticWPBackend(),
            LoopBackend(),
            SymbolicBackend(),
            ExhaustiveBackend(),
        )
    return (
        SyntacticWPBackend(max_cex_size=max_set_size),
        LoopBackend(),
        SampledBackend(max_size=max_set_size, claim_capped_pass=True),
    )


class Session:
    """A reusable verification context over one universe.

    Parameters
    ----------
    pvars / lvars:
        The program (and optional logical) variables of the universe.
    lo, hi:
        The shared integer domain bounds.
    entailment:
        ``"sat"`` (default — the scalable path) or ``"brute"``.
    backends:
        The backend chain tried in order for every task (default:
        :func:`default_backends`).  Each task stops at the first decisive
        outcome.
    budgets:
        Mapping of backend name to a wall-clock allowance in seconds;
        backends poll it cooperatively and yield an inconclusive outcome
        on expiry.
    max_set_size:
        Optional cap on initial-set sizes for oracle stages on large
        universes; capped verdicts carry the cap in their method string.
    max_image_entries:
        Optional LRU bound on the session's image cache (default
        ``None``: unbounded).  Long-lived sessions enumerating many
        distinct ``(command, state)`` pairs can cap memory; evicted
        entries re-execute on demand, so verdicts never change.
    intra_task_workers:
        Optional worker-process count (``>= 2``) for intra-task
        parallelism: eligible oracle scans are partitioned over the
        mask-index space and merged to the canonical (lowest-index)
        witness — see :mod:`repro.checker.parallel`.  Orthogonal to
        ``verify_many(sharding=...)``, which parallelizes *across*
        tasks; the two compose.  Default ``None``: serial scans.

    Example::

        s = Session(["h", "l", "y"], lo=0, hi=1)
        report = s.verify_many([
            ("forall <a>, <b>. a(l) == b(l)",
             "y := nonDet(); l := h xor y",
             "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)"),
        ])
        assert report.all_verified
    """

    def __init__(
        self,
        pvars,
        lo=0,
        hi=1,
        lvars=(),
        entailment="sat",
        backends=None,
        budgets=None,
        max_set_size=None,
        max_image_entries=None,
        intra_task_workers=None,
    ):
        self.universe = Universe(pvars, IntRange(lo, hi), lvars=lvars)
        self.entailment = entailment
        # Process sharding rebuilds the session in each worker from its
        # constructor arguments; a custom backend chain has no picklable
        # recipe, so sharded batches refuse it (see api/sharding.py).
        self.has_custom_backends = backends is not None
        # One dependency graph for the whole session: every cache below
        # records which subtree fingerprints its artifacts derive from,
        # so reverify can invalidate exactly the cone above an edit.
        self.deps = DependencyGraph()
        # One compile cache for the whole session: commands, assertions
        # and prefilter predicates compile once and are reused by the
        # engine, the backends and the entailment oracle.
        self.compiles = CompileCache(deps=self.deps)
        self.oracle = CachingOracle(
            self.universe.ext_states(),
            self.universe.domain,
            method=entailment,
            compile_cache=self.compiles,
            deps=self.deps,
        )
        # One image cache for the whole session: per-state executions
        # persist across tasks in a batch and across verify_many threads.
        self.images = ImageCache(max_entries=max_image_entries, deps=self.deps)
        self.intra_task_workers = intra_task_workers
        self.engine = CheckerEngine(
            self.universe,
            self.images,
            compile_cache=self.compiles,
            parallel=intra_task_workers,
        )
        self.max_set_size = max_set_size
        self.backends = (
            tuple(backends) if backends is not None else default_backends(max_set_size)
        )
        self.budgets = dict(budgets or {})
        self._program_cache = {}
        self._assertion_cache = {}
        # The result ledger: task fingerprint -> TaskResult, the
        # whole-outcome tier reverify reuses.  Guarded by the GIL plus
        # benign-race semantics (equal fingerprints imply equal content,
        # so a race stores an equivalent result).
        self._ledger = {}
        self._fingerprint_hits = 0
        self._cone_invalidations = 0

    def close(self):
        """Release worker processes held by intra-task parallelism.

        Idempotent and optional — pools also shut down when the session
        is garbage-collected or at interpreter exit, and a closed
        session transparently restarts its pool on the next eligible
        parallel scan.  Serial sessions are no-ops.
        """
        self.engine.close()

    # -- parsing (memoized) ------------------------------------------------
    def parse_program(self, program):
        """Accept a command object or concrete syntax (parsed once)."""
        if isinstance(program, Command):
            return program
        command = self._program_cache.get(program)
        if command is None:
            command = parse_command(program)
            self._program_cache[program] = command
        return command

    def parse_condition(self, condition):
        """Accept an assertion object or concrete syntax (parsed once)."""
        if isinstance(condition, Assertion):
            return condition
        assertion = self._assertion_cache.get(condition)
        if assertion is None:
            assertion = parse_assertion(condition)
            self._assertion_cache[condition] = assertion
        return assertion

    def task(self, pre, program=None, post=None, invariant=None, label=""):
        """Build a parsed :class:`VerificationTask`.

        Accepts either the three triple components (plus keywords), an
        existing task, or a ``(pre, program, post[, invariant])`` tuple.
        """
        if isinstance(pre, VerificationTask):
            return pre
        if program is None and post is None and isinstance(pre, (tuple, list)):
            parts = tuple(pre)
            if len(parts) == 4:
                pre, program, post, invariant = parts
            elif len(parts) == 3:
                pre, program, post = parts
            else:
                raise TypeError(
                    "a task tuple needs 3 or 4 elements, got %d" % len(parts)
                )
        return VerificationTask(
            pre=self.parse_condition(pre),
            command=self.parse_program(program),
            post=self.parse_condition(post),
            invariant=None if invariant is None else self.parse_condition(invariant),
            label=label,
        )

    # -- verification ------------------------------------------------------
    def verify(
        self,
        pre,
        program=None,
        post=None,
        invariant=None,
        label="",
        backends=None,
        budgets=None,
    ):
        """Verify one triple through the backend chain → :class:`TaskResult`."""
        task = self.task(pre, program, post, invariant=invariant, label=label)
        return self._run_task(task, backends, budgets)

    def verify_many(
        self,
        tasks,
        max_workers=None,
        backends=None,
        budgets=None,
        sharding=None,
        shards=None,
    ):
        """Verify a batch of tasks → :class:`Report`.

        ``tasks`` may mix :class:`VerificationTask` objects and
        ``(pre, program, post[, invariant])`` tuples.  With
        ``max_workers > 1`` tasks run on a thread pool; the entailment
        cache is shared across workers, so overlapping tasks still
        amortize.  Result order always matches input order.

        ``sharding="process"`` instead fans the batch out over ``shards``
        worker *processes* (default: the machine's CPU count, capped at
        4), sidestepping the GIL for CPU-bound oracle enumeration.  Tasks
        and outcomes cross the boundary as :mod:`repro.codec` wire
        documents, so a sharded report is indistinguishable from an
        inline one — proof trees and witnesses included; see
        :func:`~repro.api.sharding.verify_many_sharded` for the
        restrictions (syntactic tasks, default-constructible backend
        chain).  ``shards`` is rejected without ``sharding="process"``.
        """
        if sharding == "process":
            from .sharding import verify_many_sharded

            if max_workers is not None:
                # a caller-supplied worker count is honored as the
                # shard count, and a conflicting pair is an error —
                # never silently ignored
                if shards is None:
                    shards = max_workers
                elif max_workers != shards:
                    raise ValueError(
                        "conflicting worker counts: max_workers=%r vs shards=%r"
                        % (max_workers, shards)
                    )
            return verify_many_sharded(
                self, tasks, shards=shards, backends=backends, budgets=budgets
            )
        if sharding is not None:
            raise ValueError(
                "unknown sharding mode %r (expected None or 'process')" % (sharding,)
            )
        if shards is not None:
            raise ValueError(
                "shards=%r needs sharding='process' (a thread pool takes "
                "max_workers=)" % (shards,)
            )
        normalized = [self.task(t) for t in tasks]
        return self._run_batch(normalized, max_workers, backends, budgets)

    def _run_batch(
        self, normalized, max_workers=None, backends=None, budgets=None,
        reused=(), before=None,
    ):
        """Run the non-reused tasks of a normalized batch → :class:`Report`.

        ``reused`` maps input index → ledger'd :class:`TaskResult` for
        tasks :meth:`reverify` already settled by fingerprint; everything
        else runs through the chain.  ``before`` is the
        :meth:`counters` snapshot the report's deltas start from
        (default: taken here, just before the fresh work).
        """
        if before is None:
            before = self.counters()
        reused = dict(reused)
        pending = [
            (i, t) for i, t in enumerate(normalized) if i not in reused
        ]
        started = _task_mod.clock()
        if max_workers is not None and max_workers > 1:
            with ThreadPoolExecutor(max_workers=max_workers) as pool:
                fresh = list(
                    pool.map(
                        lambda it: self._run_task(it[1], backends, budgets), pending
                    )
                )
        else:
            fresh = [self._run_task(t, backends, budgets) for _, t in pending]
        elapsed = _task_mod.clock() - started
        results = dict(reused)
        for (index, _), result in zip(pending, fresh):
            results[index] = result
        return Report(
            tuple(results[i] for i in range(len(normalized))),
            elapsed=elapsed,
            counters=counter_delta(before, self.counters()),
        )

    # -- incremental re-verification ---------------------------------------
    def _dependency_context(self, chain, allowances):
        """The session configuration a task verdict depends on — folded
        into every ledger fingerprint so a config change can never be
        mistaken for an unchanged task."""
        universe = self.universe
        return {
            "domain": universe.domain,
            "lvar_domain": universe.lvar_domain,
            "pvars": universe.pvars,
            "lvars": universe.lvars,
            "entailment": self.entailment,
            "max_set_size": self.max_set_size,
            "backends": tuple(backend.name for backend in chain),
            "budgets": {str(k): float(v) for k, v in allowances.items()},
        }

    def _ledger_fingerprint(self, task, backends, budgets):
        """The content address of one task under the effective config,
        or ``None`` when the task has no stable encoding (semantic
        assertions) and must always re-run."""
        chain = self.backends if backends is None else tuple(backends)
        allowances = self.budgets if budgets is None else dict(budgets)
        try:
            return task_fingerprint(task, self._dependency_context(chain, allowances))
        except FingerprintError:
            return None

    def _remember(self, task, result, backends, budgets):
        """Ledger a finished task outcome under its fingerprint and
        record its dependency cone (no-op for semantic tasks)."""
        fp = self._ledger_fingerprint(task, backends, budgets)
        if fp is None:
            return
        self._ledger[fp] = result
        self.deps.record(("result", fp), task_dependencies(task))

    def invalidate(self, changed):
        """Drop every cached artifact in the dependency cone of
        ``changed`` → the number of artifacts dropped.

        ``changed`` is an iterable of edited subtrees (pre-edit AST
        nodes, assertions, whole tasks) and/or raw
        :class:`~repro.deps.fingerprint.Fingerprint` values.  Each item
        names the *smallest replaced subtree*: only its own fingerprint
        is invalidated, and the cone is every artifact whose tree
        contains that exact subtree (dependency sets list all composite
        subtrees, so containment is one reverse-index lookup).  Inner
        nodes of the replaced subtree are deliberately left alone —
        shared leaves like a variable reference live on in *other*
        trees, and invalidating them would wrongly drop the whole
        suite.  Dropped artifacts are dispatched back to their owning
        caches — ledger'd results, entailment verdicts, image rows,
        compiled closures — so the session behaves as if that cone had
        never been computed.
        """
        fps = set()
        for item in changed:
            if isinstance(item, str):
                # raw fingerprints (Fingerprint is a str subclass)
                fps.add(Fingerprint(item))
                continue
            try:
                fps.add(fingerprint(item))
            except FingerprintError:
                continue  # semantic subtrees were never ledger'd
        doomed = self.deps.invalidate(fps)
        for artifact in doomed:
            kind, key = artifact
            if kind == "result":
                self._ledger.pop(key, None)
            elif kind == "entail":
                self.oracle.drop(key)
            elif kind == "image":
                self.images.drop(key)
            elif kind == "compile":
                self.compiles.drop(key)
        self._cone_invalidations += len(doomed)
        return len(doomed)

    def reverify(
        self,
        tasks,
        changed=None,
        max_workers=None,
        backends=None,
        budgets=None,
    ):
        """Re-verify a batch, reusing stored outcomes for unchanged tasks.

        The incremental counterpart of :meth:`verify_many`: every task
        whose structural fingerprint (content plus effective session
        configuration) matches a ledger'd outcome is returned without
        re-running anything; the rest run through the backend chain,
        still enjoying subtree-level cache reuse for the parts the edit
        did not touch.  ``changed`` optionally declares the edited
        subtrees (pre-edit nodes or fingerprints); their dependency cone
        is dropped first via :meth:`invalidate`, which keeps long-lived
        sessions from accumulating dead artifacts.  The returned
        :class:`Report`'s counters include ``fingerprint_hits`` (whole
        outcomes reused) and ``cone_invalidations`` (artifacts dropped);
        its cache hit counts measure the subtree-level reuse of the
        re-run.  Verdicts are always identical to a cold
        :meth:`verify_many` — fingerprints are content addresses, so a
        reused outcome is the outcome the cold run would recompute.
        """
        normalized = [self.task(t) for t in tasks]
        before = self.counters()
        if changed:
            self.invalidate(changed)
        reused = {}
        for index, task in enumerate(normalized):
            fp = self._ledger_fingerprint(task, backends, budgets)
            if fp is None:
                continue
            cached = self._ledger.get(fp)
            if cached is not None:
                reused[index] = cached
        self._fingerprint_hits += len(reused)
        return self._run_batch(
            normalized, max_workers, backends, budgets, reused, before
        )

    def reset(self):
        """Forget everything cached: verdicts, images, compiled
        closures, the result ledger and the dependency graph.  A reset
        session verifies exactly like a cold one (and its dependency
        graph holds no stale edges from before the reset)."""
        self.oracle.cache_clear()
        self.images.clear()
        self.compiles.clear()
        self._program_cache.clear()
        self._assertion_cache.clear()
        self._ledger.clear()
        self.deps.clear()
        self._fingerprint_hits = 0
        self._cone_invalidations = 0

    def disprove(self, pre, program, post, construct_proof=False):
        """Thm. 5: a disproof of ``{pre} program {post}`` (or ``None``).

        The disproof pins a refuting initial set and (optionally, with
        ``construct_proof=True``) materializes a core-rule derivation of
        ``{P'} program {¬post}``.
        """
        from ..logic.disprove import disprove_triple

        return disprove_triple(
            self.parse_condition(pre),
            self.parse_program(program),
            self.parse_condition(post),
            self.universe,
            construct_proof=construct_proof,
        )

    def entails(self, weaker, stronger):
        """Entailment between two hyper-assertions (memoized)."""
        return self.oracle.entails(
            self.parse_condition(weaker), self.parse_condition(stronger)
        )

    def counters(self):
        """A flat ``{name: int}`` snapshot of every monotone counter.

        :attr:`Report.counters` is the per-batch delta of this snapshot,
        so a new counter is one more line here — no new report field,
        no wire-schema bump.
        """
        entail = self.oracle.cache_info()
        methods = self.oracle.method_counts()
        images = self.images.stats()
        compiles = self.compiles.stats()
        par = self.engine.parallel_stats()
        return {
            "entailment_hits": entail["hits"],
            "entailment_misses": entail["misses"],
            "entailment_sat": methods.get("sat", 0),
            "entailment_brute": methods.get("brute", 0),
            "image_hits": images["hits"],
            "image_misses": images["misses"],
            "image_evictions": images["evictions"],
            "image_mask_hits": images["mask_hits"],
            "image_mask_misses": images["mask_misses"],
            "image_mask_evictions": images["mask_evictions"],
            "compile_hits": compiles["hits"],
            "compile_misses": compiles["misses"],
            "compile_fallbacks": sum(compiles["fallbacks"].values()),
            "parallel_blocks": par["blocks"],
            "parallel_cancelled": par["cancelled"],
            "parallel_scan_states": par["scan_states"],
            "fingerprint_hits": self._fingerprint_hits,
            "cone_invalidations": self._cone_invalidations,
        }

    def cache_info(self):
        """:meth:`counters` plus the cache size gauges."""
        info = self.counters()
        images = self.images.stats()
        info.update(
            entailment_size=self.oracle.cache_info()["size"],
            image_size=images["size"],
            image_mask_size=images["mask_size"],
            compile_size=len(self.compiles),
            programs=len(self._program_cache),
            assertions=len(self._assertion_cache),
        )
        return info

    def _run_task(self, task, backends=None, budgets=None):
        chain = self.backends if backends is None else tuple(backends)
        allowances = self.budgets if budgets is None else dict(budgets)
        self.oracle.reset_used()
        outcomes = []
        for backend in chain:
            if not backend.supports(task):
                outcomes.append(
                    Undecided(backend.name, "skipped", reason="outside fragment")
                )
                continue
            seconds = allowances.get(backend.name)
            budget = None if seconds is None else Budget(seconds)
            started = _task_mod.clock()
            outcome = as_outcome(backend.attempt(task, self, budget))
            outcome = outcome.with_elapsed(_task_mod.clock() - started)
            outcomes.append(outcome)
            if outcome.decided:
                break
        result = TaskResult(task, tuple(outcomes))
        self._remember(task, result, backends, budgets)
        return result

    def __repr__(self):
        return "Session(%r, backends=%s)" % (
            self.universe,
            [backend.name for backend in self.backends],
        )
