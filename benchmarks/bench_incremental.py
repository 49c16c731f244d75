"""Incremental re-verification: reverify-after-edit vs a cold run.

The CI-at-scale workload the :mod:`repro.deps` subsystem targets: a
long-lived session has verified an N-triple suite, one subtree of one
task changes, and the whole suite is re-verified.  The structural
fingerprint ledger lets ``Session.reverify`` return the N-1 untouched
outcomes without re-running anything, and dependency-cone invalidation
drops exactly the artifacts derived from the edited subtree — so the
incremental run should cost roughly one task, not N.

This benchmark (a plain script, so CI can smoke-run it):

1. verifies an N-triple generated suite in a warm session,
2. replaces one task's command with a freshly generated one,
3. times ``reverify(edited, changed=[old command])`` against a cold
   ``verify_many`` of the edited suite in a brand-new session,
4. cross-validates that both runs return identical verdicts and
   methods, and that the reverify report counts N-1 fingerprint hits,
5. asserts the incremental run is >= 5x faster (>= 3x in ``--quick``
   mode, where the suite is small enough that fixed costs bite).

Usage::

    python benchmarks/bench_incremental.py            # full workload
    python benchmarks/bench_incremental.py --quick    # CI smoke
"""

import argparse
import os
import random
import sys
import time
from dataclasses import replace

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.api import Session  # noqa: E402
from repro.deps import cone_test  # noqa: E402
from repro.gen import GenConfig, trials  # noqa: E402
from repro.gen.programs import gen_command  # noqa: E402

MIN_SPEEDUP = 5.0
MIN_SPEEDUP_QUICK = 3.0

#: 3 program variables over {0, 1}: 8 extended states, 256 candidate
#: initial sets per exhaustive task — enough per-task work that the
#: cold run's cost is verification, not parsing.
PVARS = ("x", "y", "z")
SEED = 7


def build_suite(session, count):
    config = GenConfig(pvars=PVARS, lo=0, hi=1, max_command_depth=3)
    return [
        session.task(t.triple.pre, t.triple.command, t.triple.post,
                     invariant=t.triple.invariant)
        for t in trials(SEED, count, config, loop_bias=0.0)
    ]


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def bench(count, min_speedup):
    warm = Session(PVARS, lo=0, hi=1)
    suite = build_suite(warm, count)
    warm_t, _ = timed(lambda: warm.verify_many(suite))

    # the edit script: one task's command is regenerated wholesale.  The
    # victim must have a structurally *unique* command — invalidation is
    # by content, so editing a command shared verbatim by other tasks
    # (tiny generated programs repeat) would correctly, conservatively
    # invalidate those tasks too and muddy the N-1 reuse measurement.
    rng = random.Random(SEED ^ 0xED17)
    config = GenConfig(pvars=PVARS, lo=0, hi=1, max_command_depth=3)
    victim = next(
        i for i, t in enumerate(suite)
        if not cone_test([t.command])(
            [other for j, other in enumerate(suite) if j != i]
        )
    )
    old = suite[victim]
    edited = list(suite)
    edited[victim] = replace(old, command=gen_command(rng, config))

    inc_t, inc_r = timed(lambda: warm.reverify(edited, changed=[old.command]))
    cold = Session(PVARS, lo=0, hi=1)
    cold_t, cold_r = timed(lambda: cold.verify_many(edited))

    same = [r.verdict for r in inc_r] == [r.verdict for r in cold_r] and [
        r.method for r in inc_r
    ] == [r.method for r in cold_r]
    assert same, "incremental reverify diverged from the cold run"
    assert inc_r.counters["fingerprint_hits"] == count - 1, (
        "expected %d fingerprint hits for a single-task edit, got %d"
        % (count - 1, inc_r.counters["fingerprint_hits"])
    )
    assert inc_r.counters["cone_invalidations"] > 0, (
        "the declared edit invalidated no artifacts"
    )
    print("cross-validation: verdicts+methods identical, %d/%d outcomes "
          "reused, %d artifacts invalidated: OK"
          % (inc_r.counters["fingerprint_hits"], count,
             inc_r.counters["cone_invalidations"]))

    speedup = cold_t / inc_t if inc_t else float("inf")
    print()
    print("suite: %d tasks, 1 command edited" % count)
    print("  initial warm verify_many:        %8.3fs  %6.1f tasks/s" % (warm_t, count / warm_t))
    print("  cold verify_many (edited suite): %8.3fs  %6.1f tasks/s" % (cold_t, count / cold_t))
    print("  reverify(changed=[old command]): %8.3fs  %6.1f tasks/s" % (inc_t, count / inc_t))
    print("  speedup (cold vs reverify):      %8.1fx" % speedup)
    assert speedup >= min_speedup, (
        "expected reverify >= %.1fx faster than a cold run, measured %.1fx"
        % (min_speedup, speedup)
    )
    print("speedup >= %.1fx: OK" % min_speedup)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller workload (CI smoke mode)"
    )
    parser.add_argument(
        "--tasks", type=int, help="suite size (default: 200, quick: 60)"
    )
    args = parser.parse_args(argv)
    tasks = args.tasks if args.tasks is not None else (60 if args.quick else 200)
    min_speedup = MIN_SPEEDUP_QUICK if args.quick else MIN_SPEEDUP

    print("=" * 64)
    print("incremental re-verification benchmark (%s)"
          % ("quick" if args.quick else "full"))
    print("=" * 64)
    bench(tasks, min_speedup)


if __name__ == "__main__":
    main()
