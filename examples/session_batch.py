#!/usr/bin/env python3
"""Batch verification with the Session API.

One :class:`repro.api.Session` checks a whole spec suite over a shared
universe: programs and assertions are parsed once, entailment verdicts
are memoized across tasks, and the rolling report aggregates per-task
attempts.  Re-running the suite on a warm session costs almost nothing —
the "high-throughput" story the API redesign is about.

Run:  PYTHONPATH=src python examples/session_batch.py
"""

from repro import ExhaustiveBackend, SampledBackend, Session

SUITE = [
    # label, pre, program, post
    ("gni-otp",
     "forall <a>, <b>. a(l) == b(l)",
     "y := nonDet(); l := h xor y",
     "forall <a>, <b>. exists <c>. c(h) == a(h) && c(l) == b(l)"),
    ("leak",
     "true",
     "l := h",
     "forall <a>, <b>. a(l) == b(l)"),
    ("ni-branch",
     "forall <a>, <b>. a(l) == b(l)",
     "if (l > 0) { l := 1 } else { l := 0 }",
     "forall <a>, <b>. a(l) == b(l)"),
    ("const",
     "true",
     "l := 0",
     "forall <a>, <b>. a(l) == b(l)"),
]


def main():
    session = Session(["h", "l", "y"], 0, 1)
    tasks = [
        session.task(pre, prog, post, label=label)
        for label, pre, prog, post in SUITE
    ]

    print("cold batch (parses + entailments all fresh):")
    cold = session.verify_many(tasks)
    print(cold.summary())
    print()

    print("warm batch (same suite, memoized session):")
    warm = session.verify_many(tasks, max_workers=4)
    print(warm.summary())
    print()

    # Report.counters is the batch's delta of Session.counters(): the
    # warm batch answers every entailment from the memo
    print("warm batch counters:",
          {name: count for name, count in warm.counters.items() if count})
    assert warm.counters["entailment_misses"] == 0
    print("session caches:", session.cache_info())
    print()

    print("custom chain + budgets (capped refutation hunt, exhaustive closer):")
    # The capped stage refutes cheaply (small witnesses) but a capped
    # pass stays inconclusive, so sound verdicts fall to the closer.
    report = session.verify_many(
        tasks,
        backends=[SampledBackend(max_size=2), ExhaustiveBackend()],
        budgets={"exhaustive": 5.0},
    )
    for result in report:
        print("  %-10s %-9s via %s"
              % (result.task.label,
                 {True: "verified", False: "refuted", None: "undecided"}[result.verdict],
                 result.method))


if __name__ == "__main__":
    main()
