"""The cross-backend fuzz harness: seeded trials, optional process shards.

:func:`run_fuzz` drives :class:`~repro.conformance.differential.
DifferentialChecker` over the deterministic trial stream of
:func:`repro.gen.triples.trials` and aggregates a :class:`FuzzReport`.

Determinism contract: for a fixed ``(seed, count, config, biases)`` the
*trial log* — :meth:`FuzzReport.trial_log` — is identical byte-for-byte
on every run, every platform and every shard count.  Sharding cannot
perturb it because trial ``i`` is regenerated from ``(seed, i)`` alone
and the report reassembles outcomes by index; only the measured
``elapsed`` varies run to run.

With ``shards > 1`` the trial indices are dealt round-robin to worker
processes; each worker owns one checker (one session, one image cache),
so per-state executions amortize within a shard exactly as they do in a
serial run.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import monotonic
from typing import Tuple

from ..codec.mixin import WireCodec
from ..gen.config import FUZZ_CONFIG
from ..gen.triples import regenerate
from .differential import DifferentialChecker, TrialOutcome


@dataclass(frozen=True)
class FuzzReport(WireCodec):
    """Aggregate outcome of one fuzz run.

    Wire-serializable (kind ``fuzz-report``): ``python -m repro fuzz
    --json`` emits exactly this document, and
    ``FuzzReport.from_wire`` rebuilds the report — trials, outcomes and
    shrunk disagreement reproducers included.
    """

    seed: int
    count: int
    outcomes: Tuple[TrialOutcome, ...]
    elapsed: float = 0.0
    shards: int = 1

    @property
    def disagreements(self):
        out = []
        for outcome in self.outcomes:
            out.extend(outcome.disagreements)
        return tuple(out)

    @property
    def agreed(self):
        return not self.disagreements

    def __bool__(self):
        return self.agreed

    def trial_log(self):
        """One deterministic line per trial (the byte-for-byte contract)."""
        return "\n".join(outcome.describe_line() for outcome in self.outcomes)

    def summary(self):
        """Deterministic counts; timings reported separately by the CLI."""
        valid = sum(1 for o in self.outcomes if o.oracle_valid)
        checks = sum(len(o.checks) for o in self.outcomes)
        lines = [
            "fuzz: seed %d, %d trials (%d valid, %d invalid), "
            "%d differential checks, %d disagreements"
            % (
                self.seed,
                self.count,
                valid,
                self.count - valid,
                checks,
                len(self.disagreements),
            )
        ]
        for disagreement in self.disagreements:
            lines.append(disagreement.describe())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# worker side (process sharding)
# ---------------------------------------------------------------------------

_WORKER_CHECKER = None
_WORKER_PARAMS = None


def _init_fuzz_worker(config, embeddings, samples, checks):
    global _WORKER_CHECKER, _WORKER_PARAMS
    _WORKER_CHECKER = DifferentialChecker(
        config, embeddings=embeddings, samples=samples, checks=checks
    )
    _WORKER_PARAMS = (config,)


def _run_fuzz_chunk(seed, indices, straightline_bias, loop_bias):
    """Check the given trial indices → list of :class:`TrialOutcome`.

    Everything returned is built from module-level frozen dataclasses
    (trials, triples, disagreements), so the outcomes pickle back to the
    parent unchanged.
    """
    checker = _WORKER_CHECKER
    (config,) = _WORKER_PARAMS
    out = []
    for index in indices:
        trial = regenerate(seed, index, config, straightline_bias, loop_bias)
        out.append(checker.check_trial(trial))
    return out


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def run_fuzz(
    seed,
    count,
    config=FUZZ_CONFIG,
    shards=None,
    embeddings=True,
    samples=25,
    straightline_bias=0.4,
    loop_bias=0.15,
    on_outcome=None,
    checks=None,
):
    """Differentially check ``count`` seeded trials → :class:`FuzzReport`.

    ``shards=None`` or ``1`` runs inline (no processes).  ``on_outcome``
    is an optional callback invoked with each :class:`TrialOutcome` in
    index order (the CLI uses it to stream the trial log); under
    sharding it runs in the parent, after all workers finish.
    ``checks`` is the :class:`DifferentialChecker` selector tuple
    (substring include / ``-``-prefixed exclude against the check
    kinds); it ships to shard workers with the other checker parameters.
    """
    checks = None if checks is None else tuple(checks)
    started = monotonic()
    if shards is not None and shards < 1:
        raise ValueError("shards must be >= 1, got %d" % shards)
    effective = 1 if shards is None else min(shards, max(1, count))
    if effective <= 1:
        checker = DifferentialChecker(
            config, embeddings=embeddings, samples=samples, checks=checks
        )
        outcomes = []
        for index in range(count):
            trial = regenerate(seed, index, config, straightline_bias, loop_bias)
            outcome = checker.check_trial(trial)
            outcomes.append(outcome)
            if on_outcome is not None:
                on_outcome(outcome)
    else:
        index_chunks = [list(range(k, count, effective)) for k in range(effective)]
        by_index = {}
        with ProcessPoolExecutor(
            max_workers=effective,
            initializer=_init_fuzz_worker,
            initargs=(config, embeddings, samples, checks),
        ) as pool:
            futures = [
                pool.submit(_run_fuzz_chunk, seed, chunk, straightline_bias, loop_bias)
                for chunk in index_chunks
            ]
            for future in futures:
                for outcome in future.result():
                    by_index[outcome.trial.index] = outcome
        outcomes = [by_index[i] for i in range(count)]
        if on_outcome is not None:
            for outcome in outcomes:
                on_outcome(outcome)
    elapsed = monotonic() - started
    return FuzzReport(
        seed=seed,
        count=count,
        outcomes=tuple(outcomes),
        elapsed=elapsed,
        shards=effective,
    )
