"""Structural fingerprints and dependency-cone invalidation.

The incremental re-verification subsystem (ROADMAP item 4): stable
Merkle-style content hashes for every command/expression/assertion
subtree (:mod:`~repro.deps.fingerprint`).  The session caches
(:class:`~repro.compile.cache.CompileCache`,
:class:`~repro.checker.engine.ImageCache`, the entailment memo, the
result ledger behind :meth:`~repro.api.session.Session.reverify`) key
their artifacts by these fingerprints and keep, in each entry, the
source trees its key was fingerprinted from; an edit invalidates
exactly the entries whose sources contain the changed subtree
(:func:`~repro.deps.fingerprint.cone_test`).
"""

from .fingerprint import (
    Fingerprint,
    FingerprintError,
    combine,
    cone_test,
    context_fingerprint,
    fingerprint,
    fingerprintable,
    task_fingerprint,
)

__all__ = [
    "Fingerprint",
    "FingerprintError",
    "combine",
    "cone_test",
    "context_fingerprint",
    "fingerprint",
    "fingerprintable",
    "task_fingerprint",
]
