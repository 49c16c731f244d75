"""The primary public surface: pluggable backends + batch sessions.

This package redesigns verification around three pieces, mirroring the
paper's own separation of the proof system (Fig. 3/5 rules), the
semantic oracle (Def. 5) and the entailment side conditions (Def. 3):

- :class:`~repro.api.backends.Backend` — the protocol every engine
  implements, with five first-class implementations
  (:class:`SyntacticWPBackend`, :class:`LoopBackend`,
  :class:`SymbolicBackend`, :class:`ExhaustiveBackend`,
  :class:`SampledBackend`), each returning
  an outcome from the closed algebra of :mod:`repro.api.outcome`:
  :class:`Proved` (with the checked proof tree), :class:`Refuted` (with
  the concrete :class:`~repro.checker.counterexample.Witness`) or
  :class:`Undecided` (with the reason);
- :class:`~repro.api.session.Session` — a reusable context owning the
  universe, parse caches and a memoizing entailment oracle, dispatching
  tasks through a configurable backend chain with per-backend budgets;
- :meth:`Session.verify_many` — batch verification with optional thread
  parallelism, process-parallel sharding
  (``sharding="process"``, see :mod:`repro.api.sharding`) and an
  aggregated :class:`~repro.api.session.Report`.

Every result object — tasks, outcomes, proofs, witnesses, task results,
reports — serializes through :mod:`repro.codec` (``to_wire`` /
``from_wire`` with a ``schema_version``), which is what process shards,
persistent caches and the ``--json`` CLI speak.
"""

from .backends import (
    Backend,
    ExhaustiveBackend,
    LoopBackend,
    SampledBackend,
    SymbolicBackend,
    SyntacticWPBackend,
)
from .outcome import Outcome, Proved, Refuted, Undecided
from .session import (
    CachingOracle,
    Report,
    Session,
    TaskResult,
    default_backends,
)
from .sharding import SessionSpec, default_shards, verify_many_sharded
from .task import Budget, VerificationTask

__all__ = [
    "Backend",
    "Budget",
    "CachingOracle",
    "ExhaustiveBackend",
    "LoopBackend",
    "Outcome",
    "Proved",
    "Refuted",
    "Report",
    "SampledBackend",
    "Session",
    "SessionSpec",
    "SymbolicBackend",
    "SyntacticWPBackend",
    "TaskResult",
    "Undecided",
    "VerificationTask",
    "default_backends",
    "default_shards",
    "verify_many_sharded",
]
