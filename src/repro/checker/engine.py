"""The precomputed-image, compiled-evaluation checker engine behind the
Def. 5 oracle.

The naive oracle (:func:`~repro.checker.validity.naive_check_triple`)
re-runs ``sem(C, S)`` from scratch for every candidate initial set
``S``: over a universe of ``n`` extended states that is ``O(2**n)``
big-step executions, each program state re-executed up to ``2**(n-1)``
times, and both assertions re-walked over every set.
:class:`CheckerEngine` removes the re-execution and the re-evaluation:

1. every extended state is executed **once** up front into a per-state
   *image* ``image(φ) = {(φ_L, σ') | ⟨C, φ_P⟩ → σ'}``, so ``sem(C, S) =
   ⋃_{φ∈S} image(φ)`` by Lemma 1 (union-distribution); the execution
   itself runs on a fused step function
   (:func:`repro.compile.compile_command`) instead of a per-node tree
   walk;
2. every extended state is interned to a dense id
   (:meth:`~repro.checker.universe.Universe.index_of`), so candidate
   sets and image unions are int bitmasks, built *incrementally* along
   the size-ordered subset enumeration: each step is ``mask | bit`` /
   ``acc | image_mask`` — no per-element hashing, no frozenset
   allocation;
3. ``pre``/``post`` are compiled once
   (:func:`repro.compile.compile_assertion`) into incremental
   :class:`~repro.compile.assertion.SetEvaluator` objects whose
   ``push``/``pop`` mirror the same enumeration steps, so each candidate
   set is *decided* in ``O(Δ)`` — the work proportional to the one state
   (and its image) the step added; assertion forms outside the
   incremental fragment fall back to mask-native or compiled whole-set
   evaluation, with the reason recorded on the compiled object and the
   compile cache (never silently);
4. states that can never appear in a precondition-satisfying set are
   pruned up front by a sound syntactic analysis of the precondition
   (:func:`state_prefilter`), shrinking the ``2**n`` base;
5. the per-state executions live in a shareable, thread-safe
   :class:`ImageCache` and the compiled artifacts in a
   :class:`~repro.compile.cache.CompileCache`, both ownable by a
   :class:`~repro.api.session.Session`, so a session re-verifying
   related triples (or a ``verify_many`` thread pool) never re-executes
   a program state or recompiles a tree.

The overall cost drops from the naive ``O(2**n · exec · eval)`` to
``O(n · exec + 2**n · Δ)``, where ``Δ`` is one machine-word image union
plus one evaluator push.

:meth:`CheckerEngine.scan_masks` is the one enumeration; results
(:class:`CheckResult` witnesses) decode masks back to frozensets only at
the boundary.  Its enumeration order is that of
:func:`candidate_initial_sets`, so verdicts and witnesses equal the
interpreted naive reference in :mod:`repro.checker.validity`, and
``checked_sets`` does too when the prefilter is off — which the
cross-validation tests and the ``engine-vs-naive`` differential fuzz
check enforce.
"""

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from ..compile import (
    compile_assertion,
    compile_command,
    compile_state_predicate,
)
from ..compile.assertion import mask_prefix_fn
from ..deps.fingerprint import FingerprintError, fingerprint as _fingerprint
from ..semantics.bigstep import post_states
from ..semantics.state import ExtState
from ..util import iter_subsets

_MISSING = object()


@dataclass
class CheckResult:
    """Outcome of a validity check.

    ``valid`` is the verdict; when invalid, ``witness_pre`` is a set of
    initial states satisfying the precondition whose post-set violates
    the postcondition (and ``witness_post`` is that post-set).
    ``checked_sets`` counts the candidate initial sets enumerated.
    """

    valid: bool
    witness_pre: Optional[frozenset] = None
    witness_post: Optional[frozenset] = None
    checked_sets: int = 0

    def __bool__(self):
        return self.valid


def candidate_initial_sets(pre, universe, max_size=None):
    """The initial sets to enumerate.

    A precondition that pins the set exactly (``EqualsSet``) admits a
    single candidate, which keeps pinned-set checks (Thm. 3, App. B)
    tractable over universes whose full powerset is out of reach.
    """
    from ..assertions.semantic import EqualsSet

    if isinstance(pre, EqualsSet):
        if max_size is None or len(pre.target) <= max_size:
            return [pre.target]
        return []
    return iter_subsets(universe.ext_states(), max_size=max_size)


class ImageCache:
    """A thread-safe memo of single-state executions.

    Keys are ``(command_fingerprint, domain, program_state)`` — the
    command participates via its stable structural content hash
    (:func:`~repro.deps.fingerprint.fingerprint`), domains hash
    structurally — so the cache is safe to share across universes, tasks
    and :meth:`~repro.api.session.Session.verify_many` threads, and
    equal commands share entries no matter how they were built; values
    are the ``frozenset`` of final program states.  (A command outside
    the fingerprintable fragment stays in the key as the object itself —
    behaviorally identical, just invisible to cone invalidation.)  Each
    row keeps its command, so :meth:`invalidate` drops exactly the rows
    of commands containing an edited subtree.  Computation happens
    outside the lock, so a race costs at most one duplicated execution,
    never a wrong entry.

    ``max_entries`` optionally bounds the table with least-recently-used
    eviction (default ``None``: unbounded, the historical behavior).  A
    long-lived session enumerating many distinct ``(command, state)``
    pairs can set it to cap memory; evicted entries simply re-execute on
    the next request, so eviction never changes a verdict.  Evicting a
    base entry also drops the *mask-tier* entries derived from it —
    each mask entry holds strong references to its universe, command and
    state, so a mask tier outliving the base tier would be a real leak
    in a long-lived process (the daemon's failure mode).  Eviction
    counts appear in :meth:`stats` and, via the session, in
    :meth:`~repro.api.session.Report.summary`.

    ``max_states`` is a divergence guard, not a semantic parameter, but
    the guard stays faithful across sharing: each entry remembers the
    tightest cap it was computed under, and a request with a *smaller*
    cap re-executes under that cap (raising where a cold engine would)
    instead of silently reusing a result the stricter guard might have
    rejected.
    """

    def __init__(self, max_entries=None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 or None, got %r"
                             % (max_entries,))
        # base key -> (finals, max_states, command or None)
        self._table = OrderedDict()
        self._masks = {}
        # base key -> the mask-tier keys derived from it, so evicting a
        # base entry drops its masks too (the mask tier would otherwise
        # grow without bound in a long-lived session — each entry pins
        # its universe, command and state alive)
        self._mask_keys = {}
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.mask_hits = 0
        self.mask_misses = 0
        self.mask_evictions = 0

    @staticmethod
    def _base_key(command, domain, prog):
        """The fingerprint-canonical key of one ``(command, σ)`` row."""
        try:
            return (_fingerprint(command), domain, prog)
        except FingerprintError:
            return (command, domain, prog)

    def post_image(self, command, prog, domain, max_states=100000,
                   executor=None):
        """``{σ' | ⟨command, prog⟩ → σ'}``, computed at most once per cap.

        ``executor`` supplies the per-state executor (default: the
        compiled :func:`~repro.semantics.bigstep.post_states`); cache
        entries are executor-agnostic — both executors implement the
        same semantics, which the conformance harness cross-checks.
        """
        key = self._base_key(command, domain, prog)
        with self._lock:
            entry = self._table.get(key)
            if entry is not None and max_states >= entry[1]:
                self.hits += 1
                if self.max_entries is not None:
                    self._table.move_to_end(key)
                return entry[0]
        if executor is None:
            executor = post_states
        finals = executor(command, prog, domain, max_states)
        with self._lock:
            entry = self._table.get(key)
            if entry is None or max_states < entry[1]:
                # the row keeps its command only when the key holds the
                # command's fingerprint: no other row can be in a cone
                source = command if key[0] is not command else None
                self._table[key] = (finals, max_states, source)
                if (
                    self.max_entries is not None
                    and len(self._table) > self.max_entries
                ):
                    evicted_key, _ = self._table.popitem(last=False)
                    self.evictions += 1
                    self._evict_masks_of(evicted_key)
            self.misses += 1
        return finals

    def _evict_masks_of(self, base_key):
        """Drop the mask-tier entries derived from ``base_key`` (lock held)."""
        for mask_key in self._mask_keys.pop(base_key, ()):
            if self._masks.pop(mask_key, None) is not None:
                self.mask_evictions += 1

    def post_image_mask(self, command, phi, universe, max_states=100000,
                        executor=None):
        """``sem(C, {φ})`` as an id bitmask over ``universe``'s interner.

        The *mask tier*: stored next to the frozenset entries, keyed
        additionally by the universe (masks only mean something relative
        to one interner — the frozenset tier stays universe-agnostic and
        shared).  A mask miss computes through :meth:`post_image`, so the
        base tier still deduplicates the execution itself; the mask tier
        then amortizes the id encoding.  The tier has no independent LRU
        order: it is bounded *through* the base tier — each mask entry is
        linked to the base entry it derives from and is dropped when that
        entry is evicted, so ``max_entries`` bounds both tiers together.
        """
        key = (universe, command, phi)
        with self._lock:
            entry = self._masks.get(key)
            if entry is not None and max_states >= entry[1]:
                self.mask_hits += 1
                return entry[0]
        finals = self.post_image(
            command, phi.prog, universe.domain, max_states, executor=executor
        )
        log = phi.log
        mask = universe.mask_of(ExtState(log, sigma2) for sigma2 in finals)
        with self._lock:
            entry = self._masks.get(key)
            if entry is None or max_states < entry[1]:
                self._masks[key] = (mask, max_states)
                self._mask_keys.setdefault(
                    self._base_key(command, universe.domain, phi.prog), set()
                ).add(key)
            self.mask_misses += 1
        return mask

    def invalidate(self, in_cone):
        """Drop every base row whose command is ``in_cone`` (a
        :func:`~repro.deps.fingerprint.cone_test` predicate), with its
        mask-tier entries → the number of base rows dropped."""
        with self._lock:
            entries = list(self._table.items())
        doomed = [
            key for key, (_, _, command) in entries
            if command is not None and in_cone((command,))
        ]
        dropped = 0
        with self._lock:
            for key in doomed:
                if self._table.pop(key, None) is not None:
                    dropped += 1
                self._evict_masks_of(key)
        return dropped

    def info(self):
        """``{"hits": ..., "misses": ..., "size": ...}``."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._table)}

    def stats(self):
        """:meth:`info` plus evictions, the cap and the mask tier."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._table),
                "evictions": self.evictions,
                "max_entries": self.max_entries,
                "mask_hits": self.mask_hits,
                "mask_misses": self.mask_misses,
                "mask_size": len(self._masks),
                "mask_evictions": self.mask_evictions,
            }

    def clear(self):
        with self._lock:
            self._table.clear()
            self._masks.clear()
            self._mask_keys.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.mask_hits = 0
            self.mask_misses = 0
            self.mask_evictions = 0

    def __len__(self):
        with self._lock:
            return len(self._table)


def _walk_prefilter(node, domain, compile_cache):
    """Recursive worker of :func:`state_prefilter` (syntactic nodes only)."""
    from ..assertions.syntax import SAnd, SForallState

    if isinstance(node, SAnd):
        left = _walk_prefilter(node.left, domain, compile_cache)
        right = _walk_prefilter(node.right, domain, compile_cache)
        if left is None:
            return right
        if right is None:
            return left
        return lambda phi: left(phi) and right(phi)
    if isinstance(node, SForallState):
        body = node.body
        if _mentions_state_binder(body):
            return None
        lookups = body.prog_lookups() | body.log_lookups()
        if any(state != node.state for state, _ in lookups):
            return None
        if body.free_value_vars():
            return None
        return compile_state_predicate(body, node.state, domain, compile_cache)
    return None


def _mentions_state_binder(node):
    from ..assertions.syntax import (
        SAnd,
        SExistsState,
        SExistsVal,
        SForallState,
        SForallVal,
        SOr,
    )

    if isinstance(node, (SForallState, SExistsState)):
        return True
    if isinstance(node, (SAnd, SOr)):
        return _mentions_state_binder(node.left) or _mentions_state_binder(node.right)
    if isinstance(node, (SForallVal, SExistsVal)):
        return _mentions_state_binder(node.body)
    return False


def state_prefilter(pre, domain, compile_cache=None):
    """A sound per-state pruning predicate implied by ``pre``, or ``None``.

    When the precondition (or a conjunct of it) has the shape
    ``∀⟨φ⟩. A`` with ``A`` mentioning no other state and binding no
    further states, a state failing ``A`` can never belong to a
    precondition-satisfying set — so subsets containing it need not be
    enumerated at all.  The returned predicate keeps exactly the states
    that may still appear; ``None`` means no pruning applies.

    The per-state bodies are compiled (``compile_cache=None`` uses the
    module-wide compile cache).  Pruning never changes
    the verdict or the reported witness: the skipped sets are precisely
    those the naive oracle would have discarded via ``pre.holds``, and
    the enumeration order of the surviving sets is preserved.
    """
    from ..assertions.syntax import SynAssertion

    if not isinstance(pre, SynAssertion):
        return None
    return _walk_prefilter(pre, domain, compile_cache)


def state_prefilter_mask(pre, universe, compile_cache=None):
    """:func:`state_prefilter` as an id bitmask over ``universe``.

    Bit ``i`` is set iff ``ext_states()[i]`` may still appear in a
    precondition-satisfying set; ``None`` means no pruning applies.  The
    engine intersects candidate enumeration with this mask — the
    surviving ids keep their ascending order.
    """
    keep = state_prefilter(pre, universe.domain, compile_cache)
    if keep is None:
        return None
    mask = 0
    bit = 1
    for phi in universe.ext_states():
        if keep(phi):
            mask |= bit
        bit <<= 1
    return mask


class CheckerEngine:
    """Decides hyper-triples over one universe via precomputed images
    and compiled incremental assertion evaluation.

    Parameters
    ----------
    universe:
        The :class:`~repro.checker.universe.Universe` quantified over.
    cache:
        An optional shared :class:`ImageCache`; by default the engine
        owns a private one.  Sharing the cache (as
        :class:`~repro.api.session.Session` does) lets images persist
        across tasks in a batch and across ``verify_many`` threads.
    compile_cache:
        An optional shared :class:`~repro.compile.cache.CompileCache`
        for compiled commands, assertions and prefilter predicates
        (default: the module-wide cache).
    """

    def __init__(self, universe, cache=None, compile_cache=None):
        self.universe = universe
        self.cache = cache if cache is not None else ImageCache()
        self.compiles = compile_cache
        self._executors = {}
        self._mask_fns = {}

    # -- compiled artifacts ------------------------------------------------
    def _executor(self, command):
        """The compiled per-state executor for ``command``."""
        executor = self._executors.get(command)
        if executor is None:
            step = compile_command(command, self.universe.domain, self.compiles)

            def executor(cmd, prog, domain, max_states, _step=step):
                return _step(prog, max_states)

            self._executors[command] = executor
        return executor

    def _compile(self, assertion):
        return compile_assertion(assertion, self.universe.domain, self.compiles)

    def _mask_fn(self, compiled):
        """The prefix-chain mask evaluator for a non-incremental
        compiled assertion, or ``None`` (memoized per engine — the
        per-id projection cache inside must persist across scans)."""
        fn = self._mask_fns.get(compiled, _MISSING)
        if fn is _MISSING:
            fn = mask_prefix_fn(compiled, self.universe)
            self._mask_fns[compiled] = fn
        return fn

    # -- images ------------------------------------------------------------
    def image(self, command, phi, max_states=100000):
        """``sem(C, {φ})`` — the extended-state image of one state."""
        finals = self.cache.post_image(
            command, phi.prog, self.universe.domain, max_states,
            executor=self._executor(command),
        )
        return frozenset(ExtState(phi.log, sigma2) for sigma2 in finals)

    def image_mask(self, command, phi, max_states=100000):
        """``sem(C, {φ})`` as an id bitmask over this engine's universe."""
        return self.cache.post_image_mask(
            command, phi, self.universe, max_states,
            executor=self._executor(command),
        )

    def image_table(self, command, states, max_states=100000):
        """``{φ: sem(C, {φ})}`` — one execution per distinct program state."""
        return {phi: self.image(command, phi, max_states) for phi in states}

    def sem(self, command, states, max_states=100000):
        """``sem(C, S)`` as a union of cached per-state images."""
        out = frozenset()
        for phi in states:
            out |= self.image(command, phi, max_states)
        return out

    # -- enumeration -------------------------------------------------------
    def scan_masks(
        self,
        pre,
        command,
        post,
        max_size=None,
        max_states=100000,
        prefilter=True,
        pin_equals_set=True,
    ):
        """Lazily walk the candidate initial sets as id bitmasks.

        Yields ``(subset_mask, post_mask, ok)`` per candidate, in the
        order of :func:`candidate_initial_sets`: ``post_mask`` is
        ``None`` when the precondition rejects the subset, otherwise it
        is ``sem(C, subset)`` and ``ok`` records whether the
        postcondition accepted it.  Every set is an id bitmask over the
        universe's interner (decode with
        :meth:`~repro.checker.universe.Universe.states_of`): extending a
        candidate is ``mask | bit``, extending its post-set is ``acc |
        image_mask``, and the
        post evaluator receives only the genuinely new states
        (``image & ~acc`` — distinct by construction, so even fallback-
        free *and* fallback-carrying post assertions skip the multiset
        bookkeeping).  Assertions outside the incremental fragment whose
        shape is a pure quantifier prefix (GNI and friends) are decided
        per candidate by a mask-native whole-set evaluator with per-id
        projection caches; only shapes with no mask specialization
        decode at the boundary.

        Images are computed lazily as the enumeration first touches each
        state, so callers polling a budget between candidates never pay
        more than a few new executions per yield, and an early
        refutation leaves the rest unexecuted.

        ``pin_equals_set=False`` disables the ``EqualsSet``
        single-candidate shortcut and enumerates universe subsets like
        any other precondition — required where the pinned target may
        contain states outside the universe (the terminating check's
        Def. 24 quantifier only ranges over universe subsets).

        """
        from ..assertions.semantic import EqualsSet

        universe = self.universe
        domain = universe.domain
        mask_of = universe.mask_of
        if pin_equals_set and isinstance(pre, EqualsSet):
            if max_size is not None and len(pre.target) > max_size:
                return
            subset = pre.target
            if not pre.holds(subset, domain):
                yield mask_of(subset), None, True
                return
            post_set = self.sem(command, subset, max_states)
            ok = bool(self._compile(post).holds(post_set))
            yield mask_of(subset), mask_of(post_set), ok
            return
        states = universe.ext_states()
        state_of = universe.state_of
        # every interned id, minus the states a prefilterable
        # precondition proves can never appear in a satisfying set
        ids = range(len(states))
        if prefilter:
            kmask = state_prefilter_mask(pre, universe, self.compiles)
            if kmask is not None:
                ids = [i for i in ids if (kmask >> i) & 1]
        n = len(ids)
        cap = n if max_size is None else min(max_size, n)

        cpre = self._compile(pre)
        cpost = self._compile(post)
        imask = {}

        def img(i):
            m = imask.get(i)
            if m is None:
                m = self.image_mask(command, states[i], max_states)
                imask[i] = m
            return m

        # pre: constant -> one lazy evaluation; incremental -> evaluator
        # pushes along the recursion; prefix-chain fallback -> mask-
        # native whole-set per candidate; otherwise -> evaluator whose
        # fallback kernels read the distinct set (delta pushes keep it
        # exact).
        pre_eval = pre_fn = None
        if not cpre.constant:
            if cpre.incremental:
                pre_eval = cpre.evaluator()
            else:
                pre_fn = self._mask_fn(cpre)
                if pre_fn is None:
                    pre_eval = cpre.evaluator()
        post_eval = post_fn = None
        if not cpost.constant:
            if cpost.incremental:
                post_eval = cpost.evaluator()
            else:
                post_fn = self._mask_fn(cpost)
                if post_fn is None:
                    post_eval = cpost.evaluator()
        const = {}

        def const_value(which, compiled):
            value = const.get(which)
            if value is None:
                value = bool(compiled.holds(frozenset()))
                const[which] = value
            return value

        # Post states are pushed *lazily*: each enumeration edge parks
        # its *new-states* mask, and only a leaf whose subset passed the
        # precondition flushes the unflushed suffix into the post
        # evaluator — pre-rejected branches (the common case) cost the
        # post assertion nothing.  Flushed entries always form a prefix
        # of the stack (ancestors flush before descendants), so one
        # prefix-length counter suffices.
        pend = []
        flushed = [0]

        def flush_post():
            for entry in pend[flushed[0]:]:
                new = entry[0]
                while new:
                    low = new & -new
                    post_eval.push_state(state_of(low.bit_length() - 1))
                    new ^= low
                entry[1] = True
            flushed[0] = len(pend)

        def rec(lo, chosen, acc, need):
            if need == 0:
                if cpre.constant:
                    ok_pre = const_value("pre", cpre)
                elif pre_eval is not None:
                    ok_pre = pre_eval.value()
                else:
                    ok_pre = pre_fn(chosen)
                if not ok_pre:
                    yield chosen, None, True
                    return
                if cpost.constant:
                    ok = const_value("post", cpost)
                elif post_fn is not None:
                    ok = bool(post_fn(acc))
                else:
                    flush_post()
                    ok = post_eval.value()
                yield chosen, acc, ok
                return
            for idx in range(lo, n - need + 1):
                i = ids[idx]
                image = img(i)
                if pre_eval is not None:
                    pre_eval.push_state(states[i])
                if post_eval is not None:
                    entry = [image & ~acc, False]
                    pend.append(entry)
                    for item in rec(idx + 1, chosen | (1 << i), acc | image, need - 1):
                        yield item
                    pend.pop()
                    if entry[1]:
                        new = entry[0]
                        while new:
                            top = new.bit_length() - 1
                            post_eval.pop_state(state_of(top))
                            new ^= 1 << top
                        flushed[0] = len(pend)
                else:
                    for item in rec(idx + 1, chosen | (1 << i), acc | image, need - 1):
                        yield item
                if pre_eval is not None:
                    pre_eval.pop_state(states[i])

        for k in range(cap + 1):
            for item in rec(0, 0, 0, k):
                yield item

    # -- checks ------------------------------------------------------------
    def check(self, pre, command, post, max_size=None, max_states=100000,
              prefilter=True):
        """Decide ``|= {pre} command {post}`` — engine counterpart of
        :func:`~repro.checker.validity.check_triple`."""
        checked = 0
        for chosen, acc, ok in self.scan_masks(
            pre, command, post, max_size, max_states, prefilter
        ):
            checked += 1
            if not ok:
                states_of = self.universe.states_of
                return CheckResult(
                    False, states_of(chosen), states_of(acc), checked
                )
        return CheckResult(True, checked_sets=checked)

    def check_terminating(self, pre, command, post, max_size=None,
                          max_states=100000, prefilter=True):
        """Decide the terminating triple ``|=⇓ {pre} command {post}``
        (Def. 24): the plain triple plus "every initial state can reach a
        final state" — the latter a cache hit, since the enumeration has
        already computed each member's image."""
        states = self.universe.ext_states()
        states_of = self.universe.states_of
        term = {}

        def all_terminate(chosen):
            # φ can terminate iff image(φ) is non-empty, i.e. a non-zero
            # image mask — no decode needed
            m = chosen
            while m:
                low = m & -m
                i = low.bit_length() - 1
                m ^= low
                t = term.get(i)
                if t is None:
                    t = bool(self.image_mask(command, states[i], max_states))
                    term[i] = t
                if not t:
                    return False
            return True

        checked = 0
        for chosen, acc, ok in self.scan_masks(
            pre, command, post, max_size, max_states, prefilter,
            pin_equals_set=False,
        ):
            checked += 1
            if acc is None:  # precondition rejected the subset
                continue
            if not ok or not all_terminate(chosen):
                return CheckResult(
                    False, states_of(chosen), states_of(acc), checked
                )
        return CheckResult(True, checked_sets=checked)

    def sampled_check(self, pre, command, post, rng, samples=200, max_set_size=4,
                      max_states=100000):
        """Randomized refutation search — engine counterpart of
        :func:`~repro.checker.validity.sampled_check_triple`.

        Draws the same subsets as the naive reference for the same
        ``rng``; each sampled state is executed at most once thanks to
        the image cache, and the assertions are evaluated through their
        compiled whole-set closures (the draws are independent, so there
        is no prefix to evaluate incrementally along).
        """
        states = list(self.universe.ext_states())
        pre_holds = self._compile(pre).holds
        post_holds = self._compile(post).holds
        checked = 0
        for _ in range(samples):
            k = rng.randint(0, max_set_size)
            subset = frozenset(rng.sample(states, min(k, len(states))))
            checked += 1
            if not pre_holds(subset):
                continue
            post_set = self.sem(command, subset, max_states)
            if not post_holds(post_set):
                return CheckResult(False, subset, post_set, checked)
        return CheckResult(True, checked_sets=checked)

    def __repr__(self):
        return "CheckerEngine(%r, cache=%d images, compiled+bitset)" % (
            self.universe,
            len(self.cache),
        )
