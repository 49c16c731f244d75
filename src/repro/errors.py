"""Exception hierarchy for the Hyper Hoare Logic library.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing genuine Python bugs.
"""


class ReproError(Exception):
    """Base class of all library errors."""


class ParseError(ReproError):
    """Raised by the concrete-syntax parser on malformed input."""

    def __init__(self, message, position=None, text=None):
        self.position = position
        self.text = text
        if position is not None and text is not None:
            line = text.count("\n", 0, position) + 1
            col = position - (text.rfind("\n", 0, position) + 1) + 1
            message = "%s (line %d, column %d)" % (message, line, col)
        super().__init__(message)


class EvaluationError(ReproError):
    """Raised when an expression cannot be evaluated in a given state."""


class DomainError(ReproError):
    """Raised when a value falls outside the declared finite domain."""


class ProofError(ReproError):
    """Raised when an inference-rule application is ill-formed.

    A :class:`ProofError` means the *proof* is wrong (premises have the
    wrong shape, a side condition fails), not that the triple is invalid.
    """


class SideConditionError(ProofError):
    """A rule's side condition was violated (e.g. a free-variable check)."""


class EntailmentError(ProofError):
    """An entailment required by a rule (e.g. Cons) does not hold.

    The message may be a zero-argument callable, called on the first
    ``str()``: a caller that only catches the error then skips the work
    its text reports (the counterexample search of
    :meth:`~repro.assertions.entail.EntailmentOracle.require`).
    """

    def __str__(self):
        if self.args and callable(self.args[0]):
            self.args = (self.args[0](),)
        return super().__str__()

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, str(self))

    def __reduce__(self):
        return type(self), (str(self),)


class SolverError(ReproError):
    """Raised by the SAT backend on malformed input or resource limits."""
