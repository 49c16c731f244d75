"""The symbolic backend's crossover: past the powerset wall.

Every enumerating oracle in the repository pays ``2**n`` for a universe
of ``n`` extended states; at ``n >= 22`` that is millions of candidate
initial sets and exhaustive checking is out of reach.  The symbolic
backend (:mod:`repro.symbolic`) pays ``n`` big-step image executions
plus one SAT call, so it is the first backend whose feasible universe
*size* grows rather than its constant factor.  This bench (a plain
script, so CI smoke-runs it via ``run_all.py``) asserts exactly that:

1. **headline** — on a 25-state universe (``x, y`` over ``0..4``;
   ``2**25`` ≈ 33.6M candidate sets) the backend returns Proved /
   Refuted verdicts, witness included, in single-digit seconds;
2. **parity sweep** — on every cross-check universe small enough to
   enumerate (``n <= 14`` states) the symbolic verdict must match the
   exhaustive engine's on a seeded generated workload plus hand-picked
   triples, refutation witnesses re-validated semantically (the SAT
   model's set need not be the engine's size-ordered first witness);
3. **speedup** — symbolic vs exhaustive wall-clock on the largest
   cross-check universe, each leg the fastest of 5 runs on a fresh
   session, printed as an ``N.Nx`` ratio for the ``BENCH_results.json``
   trajectory.

Any parity loss (verdict mismatch, invalid witness, undecided without a
recorded reason) raises — the script exits nonzero and fails the whole
``run_all.py`` run.

Usage::

    python benchmarks/bench_symbolic_backend.py            # full sweep
    python benchmarks/bench_symbolic_backend.py --quick    # CI smoke
"""

import argparse
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.api import Session, SymbolicBackend  # noqa: E402
from repro.assertions.sugar import box, low  # noqa: E402
from repro.gen import GenConfig  # noqa: E402
from repro.gen.triples import regenerate  # noqa: E402
from repro.lang.expr import V  # noqa: E402

#: The headline universe: 25 extended states, 2**25 candidate sets.
HEADLINE_PVARS = ("x", "y")
HEADLINE_HI = 4
HEADLINE_BUDGET_SECONDS = 9.0

#: Cross-check universes — every one has n <= 14 extended states, small
#: enough to run the exhaustive engine alongside the symbolic backend.
SWEEP = (
    (("x",), 1),        # 2 states
    (("x",), 3),        # 4 states
    (("x",), 13),       # 14 states
    (("x", "y"), 1),    # 4 states
    (("x", "y"), 2),    # 9 states
    (("x", "y", "z"), 1),  # 8 states
)

#: The sweep must actually decide this many triples symbolically —
#: a guard against the fragment classifier silently punting everything.
MIN_DECIDED = 22


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def validate_witness(outcome, triple, session):
    """A symbolic refutation must carry an independently valid witness."""
    witness = outcome.witness
    domain = session.universe.domain
    assert witness is not None, "refutation without a witness"
    assert triple[0].holds(witness.pre_set, domain), (
        "witness pre-set fails the precondition"
    )
    concrete = session.engine.sem(session.parse_program(triple[1]), witness.pre_set)
    assert concrete == witness.post_set, "witness post-set is not sem(C, S)"
    assert not triple[2].holds(witness.post_set, domain), (
        "witness post-set satisfies the postcondition"
    )


def headline(quick):
    banner(
        "headline: %d-state universe (2^%d candidate sets)"
        % (
            (HEADLINE_HI + 1) ** len(HEADLINE_PVARS),
            (HEADLINE_HI + 1) ** len(HEADLINE_PVARS),
        )
    )
    session = Session(list(HEADLINE_PVARS), lo=0, hi=HEADLINE_HI)
    backend = SymbolicBackend()
    triples = [
        ("low(x) preserved by havoc on y", (low("x"), "y := nonDet()", low("x")), True),
        ("havoc on x leaks", (low("x"), "x := nonDet()", low("x")), False),
        (
            "increment shifts the box",
            (box(V("x").eq(0)), "x := x + 1; y := nonDet()", box(V("x").eq(1))),
            True,
        ),
        (
            "loop drains x",
            (low("x"), "while (x > 0) { x := x - 1 }", box(V("x").eq(0))),
            True,
        ),
    ]
    started = time.perf_counter()
    for name, triple, expected in triples:
        task = session.task(*triple)
        t = time.perf_counter()
        outcome = backend.attempt(task, session)
        elapsed = time.perf_counter() - t
        assert outcome.verdict is not None, (
            "headline triple undecided: %s" % getattr(outcome, "reason", "")
        )
        assert outcome.verdict is expected, (
            "%s: symbolic said %r, expected %r" % (name, outcome.verdict, expected)
        )
        if not outcome.verdict:
            validate_witness(outcome, triple, session)
        print(
            "  %-32s %-7s in %6.3fs"
            % (name, "proved" if outcome.verdict else "refuted", elapsed)
        )
    total = time.perf_counter() - started
    print("  total: %.3fs (budget %.0fs)" % (total, HEADLINE_BUDGET_SECONDS))
    assert total < HEADLINE_BUDGET_SECONDS, (
        "headline verdicts took %.1fs, over the single-digit budget" % total
    )


def parity_sweep(quick):
    banner("parity sweep: symbolic vs exhaustive engine on n <= 14 states")
    trials_per_universe = 8 if quick else 25
    decided = undecided = 0
    for pvars, hi in SWEEP:
        config = GenConfig(
            pvars=pvars, lo=0, hi=hi, max_command_depth=2, max_assertion_depth=2
        )
        session = Session(list(pvars), lo=0, hi=hi)
        backend = SymbolicBackend()
        states = len(tuple(session.universe.ext_states()))
        assert states <= 14, "sweep universe too large to cross-check"
        for index in range(trials_per_universe):
            triple = regenerate(1, index, config).triple
            task = session.task(triple.pre, triple.command, triple.post)
            outcome = backend.attempt(task, session)
            if outcome.verdict is None:
                assert outcome.reason, "undecided without a recorded reason"
                undecided += 1
                continue
            decided += 1
            oracle = session.engine.check(triple.pre, triple.command, triple.post)
            assert outcome.verdict == oracle.valid, (
                "parity loss on %d states:\n%s" % (states, triple.describe())
            )
            if not outcome.verdict:
                validate_witness(
                    outcome, (triple.pre, triple.command, triple.post), session
                )
        print(
            "  %-14s %2d states: parity on %d generated trials"
            % ("/".join(pvars) + " 0..%d" % hi, states, trials_per_universe)
        )
    print("  decided %d, loudly undecided %d" % (decided, undecided))
    assert decided >= (8 if quick else MIN_DECIDED), (
        "sweep decided only %d triples" % decided
    )


#: Each speedup leg is timed as the fastest of this many runs, each on a
#: fresh session (cold caches), the two legs taking turns so both sample
#: the same stretch of a shared host: one scheduling hiccup cannot swing
#: the printed ratio.
SPEEDUP_RUNS = 5


def fastest(*legs):
    """Per leg, the fastest of :data:`SPEEDUP_RUNS` timed calls of
    ``leg(session)``, each on a fresh 14-state session."""
    best = [float("inf")] * len(legs)
    for _ in range(SPEEDUP_RUNS):
        for index, leg in enumerate(legs):
            session = Session(["x"], lo=0, hi=13)
            t = time.perf_counter()
            leg(session)
            best[index] = min(best[index], time.perf_counter() - t)
    return best


def speedup(quick):
    banner("speedup: symbolic vs exhaustive on the largest cross-check universe")
    # a *valid* triple: proving validity forces the exhaustive engine
    # through all 2^14 candidate sets (a refuted one would end at the
    # first size-ordered witness and measure nothing)
    triple = ("true", "x := 0", box(V("x").eq(0)))

    def symbolic(session):
        outcome = SymbolicBackend().attempt(session.task(*triple), session)
        assert outcome.verdict is True

    def exhaustive(session):
        oracle = session.engine.check(
            session.parse_condition(triple[0]),
            session.parse_program(triple[1]),
            session.parse_condition(triple[2]),
        )
        assert oracle.valid is True

    symbolic_elapsed, exhaustive_elapsed = fastest(symbolic, exhaustive)
    print(
        "  14 states (2^14 sets), fastest of %d: symbolic %.4fs, "
        "exhaustive %.4fs: %.1fx"
        % (
            SPEEDUP_RUNS,
            symbolic_elapsed,
            exhaustive_elapsed,
            exhaustive_elapsed / symbolic_elapsed if symbolic_elapsed else 0.0,
        )
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI smoke mode")
    args = parser.parse_args(argv)
    headline(args.quick)
    parity_sweep(args.quick)
    speedup(args.quick)
    print("\nall symbolic-vs-engine cross-validations passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
