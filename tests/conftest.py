"""Shared test helpers: a deterministic sentence generator for the order
fragment (closed, pi-free, tau-free), used to cross-check the eliminator
against the scan-based evaluator, and a runner for scripts that must work
at Python's default recursion limit."""

from __future__ import annotations

import random
import subprocess
import sys

from taulab.fol import And, Eq, Exists, Forall, Iff, Imp, Less, Not, Num, Or, Var, succ


def _order_term(rng: random.Random, scope: list[str], num_cap: int, chain_cap: int):
    if scope and rng.random() < 0.6:
        base = Var(rng.choice(scope))
    else:
        base = Num(rng.randrange(num_cap + 1))
    return succ(base, rng.randrange(chain_cap + 1))


def _order_atom(rng, scope, num_cap, chain_cap):
    ctor = Less if rng.random() < 0.6 else Eq
    return ctor(_order_term(rng, scope, num_cap, chain_cap),
                _order_term(rng, scope, num_cap, chain_cap))


def _order_formula(rng, scope, qdepth, size, num_cap, chain_cap):
    roll = rng.random()
    if qdepth > 0 and roll < 0.42:
        name = f"q{len(scope)}"
        ctor = Forall if rng.random() < 0.5 else Exists
        body = _order_formula(rng, scope + [name], qdepth - 1, size, num_cap, chain_cap)
        return ctor(name, body)
    if size <= 0 or roll < 0.62:
        return _order_atom(rng, scope, num_cap, chain_cap)
    if roll < 0.70:
        return Not(_order_formula(rng, scope, qdepth, size - 1, num_cap, chain_cap))
    ctor = rng.choice((And, Or, Imp, Iff))
    return ctor(_order_formula(rng, scope, qdepth, size - 1, num_cap, chain_cap),
                _order_formula(rng, scope, qdepth, size - 1, num_cap, chain_cap))


def random_order_sentences(count: int, seed: int = 0) -> list:
    """Deterministic corpus of closed order-fragment sentences.

    Quantifier depth <= 3 and numerals <= 20 throughout; the deepest
    sentences use small numerals and short successor chains to keep the
    scan-based oracle affordable.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        qdepth = rng.choice((0, 1, 1, 2, 2, 2, 3, 3))
        if qdepth <= 2:
            num_cap, chain_cap = 20, 3
        else:
            num_cap, chain_cap = 5, 1
        out.append(_order_formula(rng, [], qdepth, rng.randrange(4), num_cap, chain_cap))
    return out


def _at_the_default_recursion_limit(*lines):
    """Run ``lines`` as a script in a fresh interpreter that imports taulab
    (which raises the recursion limit) and then sets it back to 1000."""
    script = "\n".join(["import sys", "import taulab", "sys.setrecursionlimit(1000)", *lines])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr[-2000:]
