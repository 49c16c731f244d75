"""Shard scaling: process-parallel batch verification + sharded fuzzing.

The exhaustive oracle is pure CPU — a 4-variable universe over {0, 1}
has 16 extended states and 65536 candidate initial sets per task — so a
batch of generated triples is the ideal workload for
``Session.verify_many(..., sharding="process")``: no shared state, one
:class:`~repro.checker.engine.ImageCache` per shard, tasks crossing the
process boundary as concrete syntax.

This benchmark (a plain script, so CI can smoke-run it) does four
things:

1. **cross-validation** — the sharded run must return exactly the
   verdicts and methods of the in-process run, in input order;
2. **batch scaling** — throughput of the generated batch with 4 process
   shards must be >= 2x the 1-shard throughput.  The assertion only
   arms when the machine exposes >= 4 CPUs (on fewer cores the law of
   physics wins and the measured ratio is reported without failing the
   build);
3. **proof transport parity** — tasks and outcomes cross the process
   boundary as :mod:`repro.codec` wire documents carrying *full proof
   trees*; on a proof-heavy straight-line workload the sharded run's
   decoded proofs and witnesses must compare equal to the inline run's;
4. **fuzz scaling** — the differential fuzz harness
   (:func:`repro.conformance.run_fuzz`) is timed inline vs sharded on
   the same trial stream, and its trial logs must match byte-for-byte.

Usage::

    python benchmarks/bench_fuzz_shard.py            # full workload
    python benchmarks/bench_fuzz_shard.py --quick    # CI smoke
"""

import argparse
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.api import Session  # noqa: E402
from repro.api.sharding import verify_many_sharded  # noqa: E402
from repro.conformance import run_fuzz  # noqa: E402
from repro.gen import GenConfig, trials  # noqa: E402

MIN_SCALING = 2.0
SHARDS = 4

#: 4 program variables over {0, 1}: 16 extended states, 65536 initial
#: sets — each *valid* task is a full enumeration, which is the regime
#: process sharding is for.
BATCH_PVARS = ("w", "x", "y", "z")
BATCH_SEED = 1


def build_batch(count):
    config = GenConfig(pvars=BATCH_PVARS, lo=0, hi=1, max_command_depth=3)
    return [
        (t.triple.pre, t.triple.command, t.triple.post)
        for t in trials(BATCH_SEED, count, config,
                        straightline_bias=0.0, loop_bias=0.0)
    ]


def timed(fn):
    started = time.perf_counter()
    result = fn()
    return time.perf_counter() - started, result


def bench_batch(count):
    batch = build_batch(count)
    session = Session(BATCH_PVARS, lo=0, hi=1)
    inline_t, inline_r = timed(lambda: session.verify_many(batch))

    shard_session = Session(BATCH_PVARS, lo=0, hi=1)
    one_t, one_r = timed(
        lambda: shard_session.verify_many(batch, sharding="process", shards=1)
    )
    many_t, many_r = timed(
        lambda: shard_session.verify_many(batch, sharding="process", shards=SHARDS)
    )

    for label, sharded in (("1 shard", one_r), ("%d shards" % SHARDS, many_r)):
        same = [r.verdict for r in inline_r] == [r.verdict for r in sharded] and [
            r.method for r in inline_r
        ] == [r.method for r in sharded]
        assert same, "sharded run (%s) diverged from the in-process run" % label
    print("cross-validation: verdicts+methods identical across 1/%d shards: OK"
          % SHARDS)

    scaling = one_t / many_t if many_t else float("inf")
    cpus = os.cpu_count() or 1
    print()
    print("batch workload: %d tasks over %d extended states" % (count, 2 ** len(BATCH_PVARS)))
    print("  in-process verify_many:          %8.3fs  %6.1f tasks/s" % (inline_t, count / inline_t))
    print("  sharding='process', 1 shard:     %8.3fs  %6.1f tasks/s" % (one_t, count / one_t))
    print("  sharding='process', %d shards:    %8.3fs  %6.1f tasks/s" % (SHARDS, many_t, count / many_t))
    print("  scaling (%d shards vs 1):         %8.2fx  (%d CPUs visible)" % (SHARDS, scaling, cpus))
    if cpus >= SHARDS:
        assert scaling >= MIN_SCALING, (
            "expected >= %.1fx throughput with %d shards on %d CPUs, measured %.2fx"
            % (MIN_SCALING, SHARDS, cpus, scaling)
        )
        print("scaling >= %.1fx: OK" % MIN_SCALING)
    else:
        print(
            "scaling assertion skipped: %d CPU(s) < %d shards "
            "(ratio reported for the record)" % (cpus, SHARDS)
        )


#: Proof-transport workload: pure straight-line trials, so the
#: syntactic-wp backend decides every task and (almost) every outcome
#: document carries a full proof tree or witness.
PROOF_PVARS = ("w", "x", "y", "z")
PROOF_SEED = 2


def build_proof_batch(count):
    config = GenConfig(pvars=PROOF_PVARS, lo=0, hi=1, max_command_depth=3)
    return [
        (t.triple.pre, t.triple.command, t.triple.post)
        for t in trials(PROOF_SEED, count, config,
                        straightline_bias=1.0, loop_bias=0.0)
    ]


def bench_proof_transport(count):
    batch = build_proof_batch(count)
    shards = min(2, os.cpu_count() or 1)
    inline = Session(PROOF_PVARS, lo=0, hi=1).verify_many(batch)

    session = Session(PROOF_PVARS, lo=0, hi=1)
    elapsed, sharded = timed(
        lambda: verify_many_sharded(session, batch, shards=shards)
    )

    proofs = 0
    for mine, theirs in zip(inline, sharded):
        assert mine.verdict == theirs.verdict
        assert mine.proof == theirs.proof, (
            "sharded transport returned a proof differing from the inline run"
        )
        assert mine.witness == theirs.witness
        if mine.proof is not None:
            proofs += 1
    assert proofs, "proof-transport workload produced no proofs"

    print()
    print(
        "proof transport: %d straight-line tasks, %d with proof trees, %d shards"
        % (count, proofs, shards)
    )
    print("  wire transport, full proofs:     %8.3fs  %6.1f tasks/s"
          % (elapsed, count / elapsed))
    print("  sharded proofs identical to inline: OK")


def bench_fuzz(count):
    inline_t, inline_r = timed(lambda: run_fuzz(0, count))
    shard_t, shard_r = timed(lambda: run_fuzz(0, count, shards=SHARDS))
    assert inline_r.trial_log() == shard_r.trial_log(), (
        "sharding changed the deterministic trial log"
    )
    assert inline_r.agreed and shard_r.agreed, "cross-backend disagreement found"
    print()
    print("fuzz workload: %d differential trials" % count)
    print("  inline:                          %8.3fs  %6.1f trials/s" % (inline_t, count / inline_t))
    print("  %d process shards:                %8.3fs  %6.1f trials/s" % (SHARDS, shard_t, count / shard_t))
    print("  trial logs byte-for-byte identical: OK")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller workload (CI smoke mode)"
    )
    parser.add_argument(
        "--tasks", type=int, help="batch size (default: 24, quick: 12)"
    )
    parser.add_argument(
        "--fuzz-trials", type=int, help="fuzz trial count (default: 400, quick: 80)"
    )
    args = parser.parse_args(argv)
    tasks = args.tasks if args.tasks is not None else (12 if args.quick else 24)
    fuzz_trials = (
        args.fuzz_trials if args.fuzz_trials is not None else (80 if args.quick else 400)
    )

    print("=" * 64)
    print("fuzz/shard benchmark (%s)" % ("quick" if args.quick else "full"))
    print("=" * 64)
    bench_batch(tasks)
    bench_proof_transport(max(64, tasks * 4))
    bench_fuzz(fuzz_trials)


if __name__ == "__main__":
    main()
