"""Which hyper-assertions the symbolic validity encoder covers.

The one-SAT-call validity query grounds both sides of the triple
propositionally: the precondition over selector atoms, the postcondition
over post-membership atoms (:func:`repro.solver.encode.ground_assertion`).
Over a finite universe that grounding is exact for every Def. 9
syntactic assertion — any nesting of state and value quantifiers,
alternating blocks (GNI's ``∀∀∃``) included — and for semantic
``And``/``Or``/``Not`` wrappers around such parts.  What it cannot
ground — opaque semantic lambdas, the constant predicates ``TRUE_H`` /
``FALSE_H``, set combinators — yields a recorded reason, never a silent
fallthrough: the :class:`~repro.symbolic.backend.SymbolicBackend` turns
the reasons into one loud :class:`~repro.api.outcome.Undecided`.
"""

from ..assertions.semantic import (
    FALSE_H,
    TRUE_H,
    AndAssertion,
    NotAssertion,
    OrAssertion,
    SemAssertion,
)
from ..assertions.syntax import SynAssertion

__all__ = ["fragment_reasons", "in_fragment"]


def fragment_reasons(assertion):
    """Why ``assertion`` cannot be grounded.

    Returns a tuple of human-readable reasons, ``()`` when the assertion
    is fully groundable, deduplicated in first-occurrence order.
    """
    reasons = []
    _classify(assertion, reasons)
    return tuple(dict.fromkeys(reasons))


def in_fragment(assertion):
    """Whether the symbolic encoder can ground ``assertion`` exactly."""
    return not fragment_reasons(assertion)


def _classify(node, reasons):
    if isinstance(node, (AndAssertion, OrAssertion)):
        for part in node.parts:
            _classify(part, reasons)
    elif isinstance(node, NotAssertion):
        _classify(node.operand, reasons)
    elif isinstance(node, SynAssertion):
        pass
    elif node is TRUE_H or node is FALSE_H:
        reasons.append(
            "constant semantic predicate %r has no syntactic grounding"
            % node.label
        )
    elif isinstance(node, SemAssertion):
        reasons.append("opaque semantic predicate %r" % node.label)
    else:
        reasons.append("non-groundable combinator %s" % type(node).__name__)
