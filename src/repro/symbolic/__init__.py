"""Symbolic (SAT-based) Def. 5 validity: one solver call instead of 2**n.

- :mod:`repro.symbolic.fragment` — which assertions the encoding covers
  (every Def. 9 syntactic assertion), with recorded reasons for
  everything it does not;
- :mod:`repro.symbolic.encode` — the selector/post-atom validity query
  built from the engine's precomputed image table;
- :mod:`repro.symbolic.backend` — the :class:`SymbolicBackend` chain
  stage wrapping the two.
"""

from .backend import SymbolicBackend
from .encode import (
    decide_validity,
    encode_validity,
    post_atom,
    post_universe,
    sel_atom,
)
from .fragment import fragment_reasons, in_fragment

__all__ = [
    "SymbolicBackend",
    "decide_validity",
    "encode_validity",
    "fragment_reasons",
    "in_fragment",
    "post_atom",
    "post_universe",
    "sel_atom",
]
