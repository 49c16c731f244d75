"""Whole-triple Def. 5 validity as a single SAT query.

Every other oracle in the repository decides ``⊨ {P} C {Q}`` by
enumerating the ``2**n`` candidate initial sets.  This encoder asks the
complementary question once, propositionally::

    ∃ S ⊆ U :  P(S)  ∧  ¬Q(sem(C, S))

with

- one **selector atom** ``("sel", φ)`` per extended state ``φ`` of the
  universe — true iff ``φ ∈ S``;
- one **post atom** ``("post", ψ)`` per state ``ψ`` of the *post
  universe* ``V = ⋃_{φ∈U} image(φ)`` — true iff ``ψ ∈ sem(C, S)``;
- **link clauses** derived from the engine's precomputed image table
  (Lemma 1: ``sem(C, S) = ⋃_{φ∈S} image(φ)``), making the post atoms
  exactly the characteristic function of ``sem(C, S)``:

  - ``sel_φ → post_ψ`` for every ``ψ ∈ image(φ)`` (selecting a state
    contributes its whole image — this is how nondeterministic commands
    encode: each branch of ``image(φ)`` is one implication, and the
    solver is free to pick any selector valuation, i.e. any image
    choice, that refutes the triple);
  - ``post_ψ → ⋁ {sel_φ | ψ ∈ image(φ)}`` (nothing appears in the post
    set without a selected producer — required because ``¬Q`` need not
    be monotone in the post atoms).

``P`` grounds over the selector atoms, ``Q`` over the post atoms (both
via :func:`repro.solver.encode.ground_assertion` with the respective
atom constructors), and the query is ``⟦P⟧ ∧ links ∧ ¬⟦Q⟧``.  A SAT
model *is* a refuting candidate set: decode the true selectors into
``S``, recompute ``sem(C, S)`` concretely, and the pair is a
first-class :class:`~repro.checker.counterexample.Witness` — the same
payload every enumerating backend attaches to ``Refuted``.  UNSAT means
no subset of the universe refutes the triple: ``Proved``.

The encoding is exact for every groundable assertion — every Def. 9
syntactic assertion, alternating quantifier blocks included (see
:mod:`repro.symbolic.fragment`) — so the verdict matches the enumerating
engine's on every universe small enough to check both ways — which the
``symbolic-vs-engine`` differential check and
``benchmarks/bench_symbolic_backend.py`` assert.  Cost: ``n`` big-step
executions (shared with the engine through the session's
:class:`~repro.checker.engine.ImageCache`) plus one SAT call — no
``2**n`` term anywhere.
"""

from ..checker.counterexample import Witness
from ..solver.encode import ground_assertion
from ..solver.formula import f_or, fand, fnot, fvar
from ..solver.sat import solve_formula

__all__ = [
    "sel_atom",
    "post_atom",
    "post_universe",
    "encode_validity",
    "decide_validity",
]


def sel_atom(state):
    """The selector atom for ``state``: true iff ``state ∈ S``.

    This is the state-keyed constructor for direct
    :func:`~repro.solver.encode.ground_assertion` use;
    :func:`encode_validity` itself interns its namespaces (see
    :func:`_indexed`) so solver dictionaries hash ints, not states.
    """
    return ("sel", state)


def post_atom(state):
    """The post atom for ``state``: true iff ``state ∈ sem(C, S)``."""
    return ("post", state)


def _indexed(prefix, states):
    """State → ``(prefix, interned id)`` for the namespace ``prefix``.

    Both :func:`encode_validity` and :func:`decide_validity` derive the
    mapping from the same deterministic state tuple, so the encoder's
    atoms and the decoder's lookups agree without shipping the table.
    """
    return {u: (prefix, i) for i, u in enumerate(states)}


def post_universe(image_table):
    """The reachable post states, in deterministic order.

    Images may contain states outside the declared universe (program
    arithmetic can escape the initial-state grid), so the post universe
    is computed from the concrete images, not assumed equal to ``U``.
    """
    reachable = set()
    for image in image_table.values():
        reachable |= image
    return tuple(sorted(reachable, key=repr))


def encode_validity(pre, post, universe_states, image_table, domain):
    """The propositional query ``⟦P⟧ ∧ links ∧ ¬⟦Q⟧``.

    ``universe_states`` is the tuple of all extended states;
    ``image_table`` maps each of them to its precomputed
    ``image(φ) = sem(C, {φ})``.  Raises
    :class:`repro.solver.encode.Unsupported` when either assertion falls
    cannot be grounded (callers classify first via
    :func:`repro.symbolic.fragment.fragment_reasons` to report *why*).
    """
    universe_states = tuple(universe_states)
    posts = post_universe(image_table)
    sel_index = _indexed("sel", universe_states)
    post_index = _indexed("post", posts)
    pre_formula = ground_assertion(
        pre, universe_states, domain, atom=sel_index.__getitem__
    )
    post_formula = ground_assertion(
        post, posts, domain, atom=post_index.__getitem__
    )
    post_vars = {v: fvar(post_index[v]) for v in posts}
    producers = {v: [] for v in posts}
    links = []
    for u in universe_states:
        selector = fvar(sel_index[u])
        for v in image_table[u]:
            links.append(f_or(fnot(selector), post_vars[v]))
            producers[v].append(selector)
    for v in posts:
        links.append(f_or(fnot(post_vars[v]), f_or(*producers[v])))
    return fand(pre_formula, fnot(post_formula), *links)


def decide_validity(pre, command, post, engine, image_table=None):
    """Decide the triple with one SAT call; ``(valid, witness)``.

    ``engine`` supplies the universe, the domain, the image table (when
    not passed precomputed) and the concrete ``sem`` used to rebuild the
    witness post-set from a refuting model.  On UNSAT returns
    ``(True, None)``; on SAT decodes the selector valuation into the
    refuting initial set ``S`` and returns
    ``(False, Witness(S, sem(C, S)))``.
    """
    universe_states = tuple(engine.universe.ext_states())
    if image_table is None:
        image_table = engine.image_table(command, universe_states)
    query = encode_validity(
        pre, post, universe_states, image_table, engine.universe.domain
    )
    model = solve_formula(query)
    if model is None:
        return True, None
    sel_index = _indexed("sel", universe_states)
    refuting = frozenset(
        u for u in universe_states if model.get(sel_index[u], False)
    )
    post_set = frozenset()
    for u in refuting:
        post_set |= image_table[u]
    return False, Witness(refuting, post_set)
