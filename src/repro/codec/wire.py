"""The versioned wire codec core: registry, dispatch, version checks.

A *wire document* is a plain dict of JSON-safe values (str/int/float/
bool/None/list/dict) describing one library object:

- every node carries a ``"$kind"`` discriminator naming its codec;
- the *top-level* document additionally carries ``"schema_version"``
  (:data:`SCHEMA_VERSION`), the contract that lets documents persist in
  caches and cross process or release boundaries;
- nested objects are encoded as nested nodes without their own version
  (one document, one version).

:func:`to_wire` and :func:`from_wire` are total inverses on the
registered types: ``from_wire(to_wire(x)) == x`` (property-tested in
``tests/codec/``).  Encoding an unregistered or unserializable object
(for example a semantic assertion wrapping a Python callable) raises
:class:`WireError` rather than producing a lossy document.

Codecs for the library's types live in :mod:`repro.codec.codecs` and
are registered lazily on first use, which keeps this module free of
library imports (so low-level modules may import the
:class:`~repro.codec.mixin.WireCodec` mixin without cycles).

Versioning contract
-------------------
``schema_version`` bumps whenever the wire shape of any registered kind
changes (fields added/removed/renamed, value encodings changed).  A
decoder refuses documents from a different version loudly instead of
misreading them; golden fixture files under ``tests/codec/`` pin the
current shapes and CI fails when they drift without a bump.

Open maps are not shape: a ``report``'s ``counters`` object carries
whatever ``{name: int}`` keys :meth:`repro.api.session.Session.counters`
names, so adding a counter changes the contents of ``report.json``
(regenerate it) but needs no bump.
"""

from ..errors import ReproError

#: The version stamped on every top-level document.  Bump on ANY change
#: to the wire shape of ANY kind, and regenerate the golden fixtures
#: (``python tests/codec/test_golden.py --regen``).
SCHEMA_VERSION = 7

#: The discriminator key present on every node.
KIND_KEY = "$kind"

#: The version key present on top-level documents.
VERSION_KEY = "schema_version"


class WireError(ReproError):
    """Raised when an object cannot be encoded or a document decoded."""


#: type -> (kind, encode) — encode returns the node's field dict.
_ENCODERS = {}
#: kind -> decode — decode receives the node dict and returns the object.
_DECODERS = {}
_REGISTERED = False


def register(kind, types, encode, decode):
    """Register one wire kind.

    ``types`` is the class (or tuple of classes) the encoder handles —
    dispatch walks each object's MRO, so registering a base class covers
    its subclasses.  ``encode(obj)`` returns the field dict (no
    ``$kind``); ``decode(node)`` rebuilds the object.
    """
    if kind in _DECODERS:
        raise WireError("duplicate wire kind %r" % kind)
    if not isinstance(types, tuple):
        types = (types,)
    for cls in types:
        _ENCODERS[cls] = (kind, encode)
    _DECODERS[kind] = decode


def _ensure_registered():
    global _REGISTERED
    if not _REGISTERED:
        # the flag flips only once the import has run every registration:
        # a thread arriving mid-import waits on the module's import lock
        # instead of encoding against a half-filled registry
        from . import codecs  # noqa: F401  (imports run the registrations)
        _REGISTERED = True


def encode(obj):
    """Encode one object to a wire node (no top-level version stamp)."""
    _ensure_registered()
    for cls in type(obj).__mro__:
        entry = _ENCODERS.get(cls)
        if entry is not None:
            kind, encoder = entry
            node = encoder(obj)
            node[KIND_KEY] = kind
            return node
    raise WireError(
        "no wire codec for %s objects: %r" % (type(obj).__name__, obj)
    )


def decode(node):
    """Decode one wire node (nested: no version check)."""
    _ensure_registered()
    if not isinstance(node, dict):
        raise WireError("a wire node must be a dict, got %r" % (node,))
    try:
        kind = node[KIND_KEY]
    except KeyError:
        raise WireError("wire node missing %r: %r" % (KIND_KEY, node))
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise WireError("unknown (or encode-reject-only) wire kind %r" % (kind,))
    try:
        return decoder(node)
    except WireError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise WireError("malformed %r node: %s" % (kind, err))


def to_wire(obj):
    """Encode ``obj`` to a top-level wire document (version-stamped)."""
    node = encode(obj)
    node[VERSION_KEY] = SCHEMA_VERSION
    return node


def from_wire(document):
    """Decode a top-level wire document, checking its version.

    A document without ``schema_version`` is accepted (it is a nested
    node being decoded standalone); a document carrying a *different*
    version is refused loudly.
    """
    if isinstance(document, dict) and VERSION_KEY in document:
        version = document[VERSION_KEY]
        if version != SCHEMA_VERSION:
            raise WireError(
                "unsupported schema_version %r (this library speaks %d); "
                "re-encode with a matching release" % (version, SCHEMA_VERSION)
            )
    return decode(document)
