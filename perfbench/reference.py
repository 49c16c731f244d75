"""Known answers from outside the code under test.

Verdicts come from ``naive_check_triple``, the interpreted Def. 5
reference: it enumerates every initial set, executes the program with
the tree-walking interpreter and evaluates assertions with their
interpreted ``holds``, so it shares no compiled closure, image cache,
wp rule or SAT encoding with the verifier.  A ``Refuted`` result is only
counted correct when its witness re-checks under the same interpreted
semantics.
"""

from repro.checker.validity import naive_check_triple
from repro.semantics.bigstep import post_states_interpreted
from repro.semantics.extended import sem


def reference_verdict(task, universe):
    """``True`` (valid) or ``False`` (invalid) by the naive oracle."""
    return naive_check_triple(task.pre, task.command, task.post, universe).valid


def witness_holds(task, witness, universe):
    """Whether ``witness`` really refutes ``task`` on ``universe``.

    The initial set must lie in the universe and satisfy the
    precondition, its recorded image must equal the interpreted
    ``sem``, and that image must violate the postcondition.
    """
    if witness is None:
        return False
    domain = universe.domain
    if not set(witness.pre_set) <= set(universe.ext_states()):
        return False
    if not task.pre.holds(witness.pre_set, domain):
        return False
    image = sem(task.command, witness.pre_set, domain, executor=post_states_interpreted)
    if image != witness.post_set:
        return False
    return not task.post.holds(image, domain)


class Checker:
    """Grades results against the reference, memoizing per task.

    ``expected`` maps a task key to the reference verdict (``None``
    marks a task whose known answer is in doubt: nothing counts as
    correct for it); witnesses are re-checked once per distinct
    ``(key, witness)``.
    """

    def __init__(self):
        self.expected = {}
        self._witnesses = {}

    def verdict(self, key, task, universe):
        if key not in self.expected:
            self.expected[key] = reference_verdict(task, universe)
        return self.expected[key]

    def correct(self, key, task, universe, verdict, witness):
        """Whether a result's verdict (and witness, when it refutes)
        matches the reference."""
        expected = self.verdict(key, task, universe)
        if expected is None or verdict is not expected:
            return False
        if expected:
            return True
        memo = (key, witness)
        if memo not in self._witnesses:
            self._witnesses[memo] = witness_holds(task, witness, universe)
        return self._witnesses[memo]
