"""The shared memo behind the compile-once evaluation core.

Compilation is cheap but not free (one tree walk per artifact), and the
hot paths — the checker engine's ``2**n`` enumeration, entailment
queries, fuzz trials — ask for the *same* artifacts over and over:
commands and assertions hash structurally, so a :class:`CompileCache`
turns every repeat compilation into a dictionary hit.

A :class:`~repro.api.session.Session` owns one cache alongside its
:class:`~repro.checker.engine.ImageCache`, so compiled artifacts persist
across tasks in a batch and across ``verify_many`` threads.  Code
without a session (``post_states``, module-level entailment helpers)
falls back to the module-wide :func:`default_cache`.

Keys are ``(kind, node, ...)`` tuples.  Before lookup each key is
*canonicalized*: AST/domain elements with a stable content encoding are
replaced by their :class:`~repro.deps.fingerprint.Fingerprint`, so equal
trees share one artifact no matter how they were built.  Each entry
keeps the elements that were fingerprinted — its *sources* — so that
:meth:`CompileCache.invalidate` can find the artifacts derived from a
tree containing an edited subtree.  Semantic assertions have no stable
encoding and stay in the key as objects (hashing by identity), which
still de-duplicates the repeated queries a session issues against the
same assertion object.  Unhashable keys bypass the cache entirely (the
caller just compiles fresh).
"""

import threading
from dataclasses import is_dataclass

from ..deps.fingerprint import FingerprintError, fingerprint
from ..values import Domain

_MISS = object()


def _canonical_key(key):
    """The canonical form of one cache key.

    Composite elements (dataclass AST nodes, domains) become their
    fingerprints; primitives pass through; anything unfingerprintable
    (semantic assertions) stays as the object itself.
    """
    if not isinstance(key, tuple):
        return key
    out = []
    for element in key:
        if (is_dataclass(element) and not isinstance(element, type)) or isinstance(
            element, Domain
        ):
            try:
                out.append(fingerprint(element))
            except FingerprintError:
                out.append(element)
        else:
            out.append(element)
    return tuple(out)


def _sources(key, canonical):
    """The key elements that were fingerprinted — exactly those the
    canonical key replaced."""
    if canonical is key:
        return ()
    return tuple(e for e, c in zip(key, canonical) if c is not e)


class CompileCache:
    """A thread-safe memo of compiled artifacts.

    Computation happens outside the lock, so a race costs at most one
    duplicated compilation, never a wrong entry.  ``fallbacks`` counts,
    per reason string, how many cached assertion evaluators could not be
    made incremental — the "never silent" record of
    :func:`~repro.compile.assertion.compile_assertion` fallbacks.
    """

    def __init__(self):
        # canonical key -> (artifact, sources)
        self._table = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.fallbacks = {}

    def get_or_build(self, key, build):
        """The artifact for ``key``, compiling via ``build()`` at most once
        (modulo benign races).  Unhashable keys compile fresh every call."""
        canonical = _canonical_key(key)
        try:
            hash(canonical)
        except TypeError:
            return build()
        with self._lock:
            entry = self._table.get(canonical, _MISS)
            if entry is not _MISS:
                self.hits += 1
                return entry[0]
        artifact = build()
        with self._lock:
            existing = self._table.get(canonical, _MISS)
            if existing is not _MISS:
                # lost the race: keep the first artifact so callers that
                # already hold it stay consistent with future lookups
                self.hits += 1
                return existing[0]
            self._table[canonical] = (artifact, _sources(key, canonical))
            self.misses += 1
        return artifact

    def invalidate(self, in_cone):
        """Drop every artifact whose sources are ``in_cone`` (a
        :func:`~repro.deps.fingerprint.cone_test` predicate) → the
        number dropped."""
        with self._lock:
            entries = list(self._table.items())
        doomed = [key for key, (_, sources) in entries if in_cone(sources)]
        with self._lock:
            return sum(self._table.pop(key, None) is not None for key in doomed)

    def record_fallback(self, reasons):
        """Count each fallback reason (called once per compiled assertion)."""
        if not reasons:
            return
        with self._lock:
            for reason in reasons:
                self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1

    def stats(self):
        """``{"hits", "misses", "size", "fallbacks"}`` (fallbacks by reason)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._table),
                "fallbacks": dict(self.fallbacks),
            }

    def clear(self):
        with self._lock:
            self._table.clear()
            self.hits = 0
            self.misses = 0
            self.fallbacks = {}

    def __len__(self):
        with self._lock:
            return len(self._table)

    def __repr__(self):
        return "CompileCache(%d artifacts)" % len(self)


_DEFAULT = CompileCache()


def default_cache():
    """The module-wide cache used by callers without a session."""
    return _DEFAULT
