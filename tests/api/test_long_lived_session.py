"""Long-lived-session regressions: per-task method tracking, sharding
argument validation, mask-tier bounds.

These are the bug-sweep guards for the daemon work: a `Session` that
lives for hours (``repro serve``) hits interleavings and growth curves
that one-shot CLI runs never do.
"""

import pytest

from repro.api import Session
from repro.assertions.semantic import SemAssertion
from repro.checker.engine import ImageCache
from repro.checker.universe import Universe
from repro.lang.parser import parse_command
from repro.values import IntRange

#: decided by syntactic-wp, with SAT-decidable closing entailments
WP_TASK = ("forall <a>. a(x) == 0", "x := 0", "forall <a>. a(x) == 0")


def _semantic_task():
    """A task the wp/symbolic backends skip: the oracle decides it with
    zero entailment queries."""
    sem = SemAssertion(lambda S: True, "true(sem)")
    return (sem, "x := 0", sem)


class TestPerTaskMethodTracking:
    def test_last_method_does_not_leak_across_tasks(self):
        """A task that makes no entailment queries must not inherit the
        previous task's ``last_method`` (pre-fix: ``reset_used`` cleared
        the history list but left ``last`` pointing at the old task)."""
        session = Session(["x"], 0, 1)
        first = session.verify(*WP_TASK)
        assert first.method == "syntactic-wp+sat"
        assert session.oracle.last_method == "sat"
        second = session.verify(*_semantic_task())
        assert second.method == "oracle"
        assert session.oracle.last_method is None

    def test_used_since_empty_after_entailment_free_task(self):
        session = Session(["x"], 0, 1)
        session.verify(*WP_TASK)
        session.verify(*_semantic_task())
        assert session.oracle.used_since(0) == ()

    def test_concurrent_attribution(self):
        """Interleaved pool tasks must each report only their own oracle
        methods — tracking is per task, never shared across workers."""
        session = Session(["x"], 0, 1)
        tasks = []
        for _ in range(4):
            tasks.append(WP_TASK)
            tasks.append(_semantic_task())
        report = session.verify_many(tasks, max_workers=4)
        for index, result in enumerate(report):
            if index % 2 == 0:
                assert result.method == "syntactic-wp+sat"
            else:
                assert result.method == "oracle"


class TestProcessShardingWorkerCounts:
    def test_conflicting_max_workers_rejected(self):
        """``sharding="process"`` must reject a conflicting caller count
        (pre-fix: silently ignored)."""
        session = Session(["x"], 0, 1)
        with pytest.raises(ValueError, match="conflicting worker counts"):
            session.verify_many(
                [WP_TASK], sharding="process", shards=2, max_workers=3
            )

    def test_matching_counts_accepted(self):
        session = Session(["x"], 0, 1)
        report = session.verify_many(
            [WP_TASK], sharding="process", shards=1, max_workers=1
        )
        assert report.all_verified

    def test_max_workers_alone_sets_shard_count(self):
        session = Session(["x"], 0, 1)
        report = session.verify_many(
            [WP_TASK, WP_TASK], sharding="process", max_workers=1
        )
        assert report.all_verified

    def test_thread_conflict_still_rejected(self):
        """Off the process path a shard count conflicts with the thread
        pool's ``max_workers`` and is rejected, not ignored."""
        session = Session(["x"], 0, 1)
        with pytest.raises(ValueError, match="needs sharding='process'"):
            session.verify_many([WP_TASK], shards=2, max_workers=3)


class TestMaskTierEviction:
    def _fill(self, cache, universe, commands):
        for command in commands:
            for phi in universe.ext_states():
                cache.post_image_mask(command, phi, universe)

    def test_mask_tier_evicted_with_base_tier(self):
        """``max_entries`` must bound the mask tier too (pre-fix: only
        the frozenset tier was LRU-bounded; ``_masks`` grew one strong
        reference per distinct ``(universe, command, state)`` forever)."""
        universe = Universe(["x"], IntRange(0, 1))
        cache = ImageCache(max_entries=4)
        commands = [
            parse_command(";".join(["skip"] * n)) for n in range(1, 21)
        ]
        self._fill(cache, universe, commands)
        stats = cache.stats()
        assert stats["size"] <= 4
        assert stats["evictions"] > 0
        # one mask entry per live base entry here (no logical variables)
        assert stats["mask_size"] <= 4
        assert stats["mask_evictions"] > 0

    def test_eviction_never_changes_a_mask(self):
        universe = Universe(["x"], IntRange(0, 1))
        bounded = ImageCache(max_entries=2)
        unbounded = ImageCache()
        commands = [parse_command("x := %d" % (n % 2)) for n in range(2)]
        commands += [parse_command(";".join(["skip"] * n)) for n in range(1, 8)]
        for _ in range(2):  # second pass recomputes evicted entries
            for command in commands:
                for phi in universe.ext_states():
                    assert bounded.post_image_mask(
                        command, phi, universe
                    ) == unbounded.post_image_mask(command, phi, universe)

    def test_unbounded_cache_keeps_masks(self):
        universe = Universe(["x"], IntRange(0, 1))
        cache = ImageCache()
        commands = [parse_command(";".join(["skip"] * n)) for n in range(1, 6)]
        self._fill(cache, universe, commands)
        stats = cache.stats()
        assert stats["mask_size"] == 5 * 2
        assert stats["mask_evictions"] == 0
