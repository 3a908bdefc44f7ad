"""taulab: a workbench for computable theories over the naturals.

The package bundles, in dependency order:

- ``codec``: the bitstring/natural bijection used to number program texts,
  and the quadratic pairing function with its partial inverse.
- ``fol``: terms and formulas of the first-order language {0, s, <, =, tau, pi},
  a parser and a canonical printer, capture-avoiding substitution.
- ``tpl``: a tiny imperative language with exact step accounting, its
  interpreter, the bounded-halting predicate ``tau``, and program templates.
- ``proofs``: a Hilbert-style proof system with two serializations (text
  scripts and structural natural-number codes) and enumeration-based search.
- ``theories``: two effectively axiomatized theories of the standard model,
  canonical axiom enumerations, a quantifier-elimination decider for the
  pure order fragment, and a budgeted standard-model evaluator.
- ``constructions``: executable completeness and incompleteness arguments
  (witness completion, prefix-conjunction decidability, self-referential
  unprovable sentences, paired searchers, a diagonal refuter, and an
  index-set reduction).

Everything is deterministic; randomness is confined to test corpora.
"""

from __future__ import annotations

import sys

# The parsers, the TPL compiler's block layout and the hot walks keep their
# own stacks.  The raised limit still carries the walks that recurse once per
# nesting level: substitute, printing of left-nested chains,
# theories._to_internal and _ev, and TPL expressions, whose compiled closures
# nest (and are compiled) once per level.
if sys.getrecursionlimit() < 20000:
    sys.setrecursionlimit(20000)

__version__ = "0.1.0"
