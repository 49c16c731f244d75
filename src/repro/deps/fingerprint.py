"""Stable Merkle-style content hashes for syntax trees and contexts.

Every cache in the system keys artifacts by *whole-task identity*
(structural dataclass hashes in-process, sha256 of the full wire
document on disk), so the dominant CI-at-scale workload — "program
changed slightly, re-verify the suite" — pays a full recompute even
though almost every subterm survived the edit.  A *fingerprint* is the
missing primitive: a content hash computed bottom-up over a subtree, so

- equal subtrees have equal fingerprints no matter how, where or in
  what order they were constructed (parsed, sugar-built, unpickled,
  regenerated in a worker process);
- an edit to any node changes the fingerprint of exactly the *cone
  above it* — the edited node and its ancestors — and nothing else;
- the derivation never consults ``id()`` or Python ``hash()`` (which is
  ``PYTHONHASHSEED``-perturbed for strings), so fingerprints are stable
  across process restarts, machines and hash seeds, which is what lets
  the on-disk :class:`~repro.serve.store.ResultStore` and cross-process
  shard workers agree on keys.

:func:`fingerprint` handles the library's syntactic universe —
commands, program expressions, hyper-expressions, Def. 9 assertions,
tasks, domains — via one generic walk: frozen dataclasses hash as
``(class, field fingerprints)``, containers by their canonicalized
elements, primitives by tagged bytes.  Semantic assertions wrapping
Python callables have no stable content encoding and raise
:class:`FingerprintError`; callers fall back to today's object keys.

:func:`cone_test` turns the edited subtrees into a predicate over the
source trees a cache entry was keyed from: each cache finds the *cone
above an edit* — the entries whose sources contain a changed subtree —
by asking it of its own entries, only when
:meth:`~repro.api.session.Session.invalidate` runs.

:func:`fingerprint` is memoized per node (structural keys, so equal
subtrees share one entry) in one module-level table bounded by
:data:`FP_MEMO_MAX` — like the compile layer's
:func:`~repro.compile.cache.default_cache`, the memo is a process-wide
amortizer, not a correctness mechanism.  Nothing else is memoized across
calls: what a :func:`cone_test` predicate learns dies with it.
"""

import hashlib
from dataclasses import fields, is_dataclass
from operator import attrgetter

from ..errors import ReproError
from ..values import Domain


class FingerprintError(ReproError):
    """Raised for objects with no stable content encoding (callables,
    semantic assertions, open resources)."""


class Fingerprint(str):
    """A sha256-hex content hash, distinguishable from plain strings.

    Being a ``str`` subclass it hashes, sorts, pickles and
    JSON-serializes like the hex digest it is; being a distinct *type*
    lets cache keys mix fingerprints with ordinary string fields (kind
    tags, method names) without ambiguity.
    """

    __slots__ = ()

    def __repr__(self):
        return "Fingerprint('%s…')" % self[:12]


#: node -> Fingerprint (structural keys; unhashable nodes bypass).
_FP_MEMO = {}
#: The memo is emptied when it reaches this many entries, so a
#: long-lived process (a serve worker, a fuzz run) stays bounded.
FP_MEMO_MAX = 1 << 14

_CONTAINERS = (tuple, list, frozenset, set, dict)
#: The primitives :func:`_primitive_digest` encodes (bool is an int).
_LEAVES = (str, bytes, int, float, type(None))


def _digest(tag, parts):
    """sha256 over ``tag(part,part,...)`` — the one Merkle combiner."""
    h = hashlib.sha256()
    h.update(tag.encode("utf-8"))
    h.update(b"(")
    for part in parts:
        h.update(part.encode("ascii"))
        h.update(b",")
    h.update(b")")
    return Fingerprint(h.hexdigest())


def _primitive_digest(obj):
    """Tagged digest of a primitive, or ``None`` if not primitive.

    ``bool`` is checked before ``int`` (it subclasses it) and every tag
    is distinct, so ``1``, ``1.0``, ``True`` and ``"1"`` all fingerprint
    differently.
    """
    if obj is None:
        return _digest("none", ())
    if isinstance(obj, bool):
        return _digest("bool", ("1" if obj else "0",))
    if isinstance(obj, int):
        return _digest("int", (str(obj),))
    if isinstance(obj, float):
        return _digest("float", (repr(obj),))
    if isinstance(obj, str):
        return _digest("str", (obj.encode("utf-8").hex(),))
    if isinstance(obj, bytes):
        return _digest("bytes", (obj.hex(),))
    return None


#: dataclass -> (digest tag, field getter returning the field values)
_DATACLASS_SHAPES = {}


def _field_getter(cls):
    """``obj -> tuple of obj's field values`` for one dataclass."""
    names = [f.name for f in fields(cls)]
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        name = names[0]
        return lambda obj: (getattr(obj, name),)
    return lambda obj: ()


def _shape(obj):
    """``(tag, kind, children)`` of one non-primitive ``obj``.

    ``kind`` is ``"node"`` for the composite, edit-replaceable nodes
    (dataclass instances, domains), else how the container combines its
    children's digests: ``"seq"`` in order, ``"set"`` sorted, ``"map"``
    as sorted ``key:value`` pairs of the flattened items.
    """
    cls = type(obj)
    shape = _DATACLASS_SHAPES.get(cls)
    if shape is None and is_dataclass(cls) and not isinstance(obj, type):
        shape = (
            "dc:%s.%s" % (cls.__module__, cls.__qualname__),
            _field_getter(cls),
        )
        _DATACLASS_SHAPES[cls] = shape
    if shape is not None:
        return shape[0], "node", shape[1](obj)
    if isinstance(obj, Domain):
        # domains are plain classes compared by their type-tagged
        # values; the value digests are type-tagged too, and the name
        # (display only) takes no part, so equal domains share a digest
        return "domain", "node", obj.values
    if isinstance(obj, (tuple, list)):
        return "seq", "seq", obj
    if isinstance(obj, (frozenset, set)):
        return "set", "set", obj
    if isinstance(obj, dict):
        return "map", "map", [v for item in obj.items() for v in item]
    raise FingerprintError(
        "cannot fingerprint %s objects (no stable content encoding): %r"
        % (type(obj).__name__, obj)
    )


def _combine_shape(tag, kind, digests):
    """The digest of a shape whose children have ``digests``."""
    if kind == "set":
        digests = sorted(digests)
    elif kind == "map":
        digests = sorted(
            digests[i] + ":" + digests[i + 1] for i in range(0, len(digests), 2)
        )
    return _digest(tag, digests)


def fingerprint(obj):
    """The stable content hash of one (sub)tree → :class:`Fingerprint`.

    Total on commands, expressions, syntactic assertions, tasks, frozen
    config dataclasses, domains, and containers/primitives thereof.
    Raises :class:`FingerprintError` for anything whose content cannot
    be encoded stably (callables, semantic assertions, arbitrary
    objects).
    """
    if isinstance(obj, Fingerprint):
        return obj
    digest = _primitive_digest(obj)
    if digest is not None:
        return digest
    # containers are not memoized: ``(1,)`` and ``(True,)`` are equal
    # dict keys with different content
    memoize = not isinstance(obj, _CONTAINERS)
    if memoize:
        try:
            digest = _FP_MEMO.get(obj)
        except TypeError:
            memoize = False
        if digest is not None:
            return digest
    tag, kind, children = _shape(obj)
    digest = _combine_shape(tag, kind, [fingerprint(c) for c in children])
    if memoize:
        if len(_FP_MEMO) >= FP_MEMO_MAX:
            _FP_MEMO.clear()
        _FP_MEMO[obj] = digest
    return digest


def fingerprintable(obj):
    """Whether :func:`fingerprint` accepts ``obj`` (no exception probe
    needed by callers that just want the fallback path)."""
    try:
        fingerprint(obj)
    except FingerprintError:
        return False
    return True


def cone_test(changed):
    """``in_cone(sources)``: whether any tree in ``sources`` contains a
    composite subtree named in ``changed``.

    ``changed`` holds edited subtrees and/or raw :class:`Fingerprint`
    values; only composite nodes are edit targets, so primitives,
    containers and items with no stable encoding (semantic assertions)
    name nothing.  ``sources`` are the nodes a cache entry's key was
    fingerprinted from, so every one has a stable encoding.  A node is
    fingerprinted only when its class could match a changed subtree (a
    raw fingerprint matches any class), and a source object already
    found outside the cone is not walked again by the same predicate,
    so caches sharing subtrees share one walk per invalidation.
    """
    fps = set()
    tags = set()
    for item in changed:
        if isinstance(item, str):
            fps.add(Fingerprint(item))
            tags = None
            continue
        if isinstance(item, _LEAVES):
            continue
        try:
            tag, kind, _ = _shape(item)
            if kind == "node":
                fps.add(fingerprint(item))
                if tags is not None:
                    tags.add(tag)
        except FingerprintError:
            continue
    clean = {}  # id(root) -> root, for roots found outside the cone
    any_tag = tags is None
    node_shape = _DATACLASS_SHAPES.get

    def walk(root):
        stack = [root]
        pop, extend = stack.pop, stack.extend
        while stack:
            obj = pop()
            shape = node_shape(type(obj))
            if shape is not None:
                if id(obj) in clean:
                    continue
                tag, kind, children = shape[0], "node", shape[1](obj)
            elif isinstance(obj, _LEAVES):
                continue
            else:  # domains, containers, dataclasses not met before
                tag, kind, children = _shape(obj)
            if (
                kind == "node"
                and (any_tag or tag in tags)
                and fingerprint(obj) in fps
            ):
                return True
            extend(children)
        clean[id(root)] = root
        return False

    def in_cone(sources):
        return any(walk(source) for source in sources)

    if not fps:
        return lambda sources: False
    return in_cone


def combine(*parts):
    """One fingerprint from several (e.g. task content + context)."""
    return _digest("combine", [fingerprint(p) for p in parts])


def context_fingerprint(context):
    """The fingerprint of a JSON-safe semantic-context mapping.

    Dict insertion order never matters (maps hash by sorted entries);
    any semantic difference — domain bounds, entailment method, oracle
    caps, backend chain, budgets — changes the digest.
    """
    return fingerprint(dict(context or {}))


def task_fingerprint(task, context=None):
    """The content address of one task under one semantic context.

    ``task`` is a :class:`~repro.api.task.VerificationTask` (a frozen
    dataclass, so the task's own fingerprint covers pre, command, post,
    invariant and label); ``context`` is the session-side configuration
    the verdict additionally depends on.  Raises
    :class:`FingerprintError` for tasks with semantic assertions.
    """
    return combine(fingerprint(task), context_fingerprint(context))


def clear_memo():
    """Drop the process-wide memo (tests; never required for
    correctness — fingerprints are pure functions of content)."""
    _FP_MEMO.clear()
