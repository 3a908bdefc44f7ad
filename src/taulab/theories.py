"""Effectively presented theories of the standard model, and two deciders.

Two theories share the six order axioms over <N, 0, s, <>:

- the record theory ("T") adds every true bounded-halting record
  tau(e, x, t);
- the signed record theory ("S") adds, for every coded triple, the record
  *signed* (the atom when true, its negation when false), plus the segment
  axioms pinning each initial segment of the order ("x < k iff x is one of
  0 .. k-1").

Each theory carries a decidable membership predicate and a total TPL
enumerator whose stream interleaves the axioms with inert padding ("0 = 0")
so every index yields a sentence; ``enumerate_axioms`` is the host-side
mirror of those enumerator programs, slot for slot.

``decide_order_theory`` decides truth in <N, 0, s, <> outright: tau atoms
are totalized to tautologies, and each quantifier is eliminated as soon as
its body is translated.  A body is flattened to disjunctions of difference
constraints (val(u) < val(v) + c and friends, offsets in Z); an existential
then holds exactly when the interval cut out by the lower and upper bounds
contains a point missing all the punctures, which reduces to finitely many
candidate substitutions "greatest lower bound plus d".

``eval_std`` evaluates sentences in the standard model directly.  Order-only
quantifiers are scanned up to a threshold that provably suffices (values
beyond every numeral, parameter, and successor offset are interchangeable
for the remaining quantifier depth), so that fragment is exact and doubles
as an independent oracle for the eliminator.  Quantifiers over subformulas
mentioning tau or pi are scanned up to a caller budget and report unknown
when the scan is inconclusive, because only a concrete witness can settle
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Optional

from .codec import program_code, unpair
from .codec import pair as nat_pair
from .fol import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    FreeVariableError,
    Iff,
    Imp,
    Less,
    Not,
    Num,
    Or,
    Pi,
    Succ,
    Tau,
    Term,
    Var,
    _peel,
    conjoin_left,
    free_vars,
    parse_sentence,
    uses_pi,
    walk,
)
from .tpl import tau, template_source

__all__ = [
    "ORDER_AXIOMS", "PADDING", "FALSUM",
    "tau_atom", "closed_tau_args", "segment_axiom", "segment_axiom_index",
    "axiom_member_T", "axiom_member_S", "enumerate_axioms",
    "TheoryHandle", "theory_T", "theory_S", "theory_by_name",
    "Verdict", "TRUE_IN_STD", "FALSE_IN_STD", "unknown",
    "UnsupportedTermError", "decide_order_theory", "order_truth",
    "order_extension_derives", "eval_std",
]


class UnsupportedTermError(ValueError):
    """Raised when the order decider meets a pairing term."""


# --------------------------------------------------------------------------
# the fixed axioms

_ORDER_AXIOM_TEXTS = (
    "A x. A y. (x < y -> ~(y < x))",
    "A x. A y. A z. (x < y & y < z -> x < z)",
    "A x. A y. (x < y | x = y | y < x)",
    "A x. A y. (x < y <-> s(x) < y | s(x) = y)",
    "A x. ~(x < 0)",
    "A x. (0 < x -> E v. x = s(v))",
)

ORDER_AXIOMS: tuple[Formula, ...] = tuple(parse_sentence(t) for t in _ORDER_AXIOM_TEXTS)

PADDING: Formula = Eq(Num(0), Num(0))
FALSUM: Formula = Not(Eq(Num(0), Num(0)))


def tau_atom(e: int, x: int, t: int) -> Formula:
    """The closed bounded-halting atom tau(e, x, t) with numeral arguments."""
    return Tau(Num(e), Num(x), Num(t))


def closed_tau_args(f: Formula) -> tuple[int, int, int] | None:
    """The (e, x, t) of a closed tau atom, or None for any other formula."""
    if (isinstance(f, Tau) and isinstance(f.prog, Num)
            and isinstance(f.arg, Num) and isinstance(f.steps, Num)):
        return f.prog.value, f.arg.value, f.steps.value
    return None


# The atoms x = #i of every segment axiom, i = 0, 1, ..., grown on demand
# and shared: nodes are immutable, so only each axiom's Or spine is new.
_X = Var("x")
_x_equals: list[Formula] = []


def segment_axiom(k: int) -> Formula:
    """The sentence pinning the k-th initial segment of the order.

    "A x. (x < #k <-> x = 0 | ... | x = #(k-1))"; the empty disjunction at
    k = 0 is the canonical falsum "~(0 = 0)".
    """
    if k < 0:
        raise ValueError("segment index must be a natural number")
    atoms = _x_equals
    atoms.extend(Eq(_X, Num(i)) for i in range(len(atoms), k))
    body = FALSUM if k == 0 else atoms[k - 1]
    for i in range(k - 2, -1, -1):
        body = Or(atoms[i], body)
    return Forall("x", Iff(Less(_X, Num(k)), body))


def segment_axiom_index(f: Formula) -> int | None:
    """The k with f == segment_axiom(k), or None (exact, bit for bit)."""
    if not (isinstance(f, Forall) and f.var == "x" and isinstance(f.body, Iff)):
        return None
    guard = f.body.left
    if not (isinstance(guard, Less) and isinstance(guard.left, Var)
            and guard.left.name == "x" and isinstance(guard.right, Num)):
        return None
    k = guard.right.value
    body = f.body.right
    if k == 0:
        return 0 if body == FALSUM else None
    # one pass down the Or spine, allocating nothing: x = 0 | ... | x = #(k-1);
    # an axiom segment_axiom built shares its atoms, so test identity first
    atoms = _x_equals
    n = len(atoms)
    for i in range(k - 1):
        if type(body) is not Or or (i >= n or body.left is not atoms[i]) \
                and not _is_x_equals(body.left, i):
            return None
        body = body.right
    return k if _is_x_equals(body, k - 1) else None


def _is_x_equals(f: Formula, i: int) -> bool:
    """Whether f is exactly the atom x = #i."""
    return (type(f) is Eq and type(f.left) is Var and f.left.name == "x"
            and type(f.right) is Num and f.right.value == i)


# --------------------------------------------------------------------------
# axiom membership and enumeration

def axiom_member_T(s: Formula) -> bool:
    """Whether s is an order axiom, a true bounded-halting record, or the
    inert padding sentence (a logical triviality, admitted so the
    enumerator's range is exactly the membership extension)."""
    if s == PADDING or any(s == axiom for axiom in ORDER_AXIOMS):
        return True
    args = closed_tau_args(s)
    return args is not None and tau(*args)


def axiom_member_S(s: Formula) -> bool:
    """axiom_member_T, plus negated false records and segment axioms."""
    if axiom_member_T(s):
        return True
    if isinstance(s, Not):
        args = closed_tau_args(s.inner)
        if args is not None:
            return not tau(*args)
    return segment_axiom_index(s) is not None


def _triple(j: int) -> tuple[int, int, int] | None:
    outer = unpair(j)
    if outer is None:
        return None
    left, t = outer
    inner = unpair(left)
    if inner is None:
        return None
    e, x = inner
    return e, x, t


# name: (membership test, enumerator template), read by theory_by_name
_THEORIES = {"T": (axiom_member_T, "enum_t"), "S": (axiom_member_S, "enum_s")}


def _theory_name(name: str) -> str:
    if name not in _THEORIES:
        expected = " or ".join(map(repr, _THEORIES))
        raise ValueError(f"unknown theory {name!r} (expected {expected})")
    return name


def enumerate_axioms(theory: "TheoryHandle | str", index: int) -> Formula:
    """The index-th sentence of a theory's canonical axiom stream.

    Mirrors the shipped TPL enumerators slot for slot: the six order axioms
    first, then one slot per coded triple (e, x, t) — for "S" interleaved
    with the segment axioms on the odd offsets — with padding "0 = 0" at
    offsets that decode to no triple (and, for "T", at false records).
    """
    name = _theory_name(theory.name if isinstance(theory, TheoryHandle)
                        else str(theory))
    if index < 0:
        raise ValueError("enumeration index must be a natural number")
    if index < 6:
        return ORDER_AXIOMS[index]
    j = index - 6
    if name == "T":
        triple = _triple(j)
        if triple is None:
            return PADDING
        return tau_atom(*triple) if tau(*triple) else PADDING
    if j % 2 == 1:
        return segment_axiom((j - 1) // 2)
    triple = _triple(j // 2)
    if triple is None:
        return PADDING
    atom = tau_atom(*triple)
    return atom if tau(*triple) else Not(atom)


@dataclass(frozen=True)
class TheoryHandle:
    """A theory given by a membership test and/or a total axiom enumerator.

    When both are present the enumerator's range equals the membership
    extension.
    """

    name: str
    axiom_membership: Optional[Callable[[Formula], bool]]
    enumerator_code: Optional[int]
    language: frozenset[str]

    def enumerate(self, index: int) -> Formula:
        return enumerate_axioms(self, index)


@cache
def theory_by_name(name: str) -> TheoryHandle:
    """The handle of theory ``name``, "T" or "S", built once."""
    membership, template = _THEORIES[_theory_name(name)]
    return TheoryHandle(name, membership,
                        program_code(template_source(template)),
                        frozenset({"0", "s", "<", "tau"}))


def theory_T() -> TheoryHandle:
    """Order axioms plus all true bounded-halting records."""
    return theory_by_name("T")


def theory_S() -> TheoryHandle:
    """Order axioms, signed bounded-halting records, and segment axioms."""
    return theory_by_name("S")


# --------------------------------------------------------------------------
# verdicts

_BUDGETED_KINDS = ("unknown",)
_KINDS = ("true-in-std", "false-in-std") + _BUDGETED_KINDS


@dataclass(frozen=True, slots=True)
class Verdict:
    """Outcome of a decision attempt; budgeted kinds carry their budget."""

    kind: str
    budget: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if (self.budget is not None) != (self.kind in _BUDGETED_KINDS):
            raise ValueError(f"verdict {self.kind!r} and budget {self.budget!r} do not fit")

    def __str__(self) -> str:
        if self.budget is None:
            return self.kind
        return f"{self.kind}({self.budget})"


TRUE_IN_STD = Verdict("true-in-std")
FALSE_IN_STD = Verdict("false-in-std")


def unknown(budget: int) -> Verdict:
    return Verdict("unknown", int(budget))


# --------------------------------------------------------------------------
# quantifier elimination for the order fragment
#
# The internal language is nested tuples over bases (a variable's internal
# name, or 0 for the fixed zero point) with integer offsets:
#
#     ("lt", u, v, c)          val(u) <  val(v) + c
#     ("eq", u, v, c)          val(u) == val(v) + c
#     ("ne", u, v, c)          val(u) != val(v) + c
#     ("and", parts)           every part holds (a tuple of two or more)
#     ("or", parts)            some part holds (a tuple of two or more)
#
# with True and False for decided nodes.  There are no quantifier nodes:
# ``_to_internal`` eliminates each quantifier as soon as its body is
# translated.  ``_atom`` folds a same-base atom to its boolean, and
# ``_junction`` flattens nested junctions of its own tag and folds constant
# parts by ``_UNITS``: the part value that decides the junction, and the one
# it drops.  So ground formulas collapse as elimination proceeds.  Every
# dual is written once, in ``_DUAL``, and applied by ``_neg``; "lt" is its
# own dual, with its sides swapped: not (u < v + c) iff v < u + (1 - c).

_ZERO = 0

_DNF_TERM_CAP = 500_000
_PI_ERROR = "pairing terms have no place in the order fragment"

_DUAL = {"and": "or", "or": "and", "eq": "ne", "ne": "eq"}

_UNITS = {"and": (False, True), "or": (True, False)}

_JUNCTIONS = {And: "and", Or: "or", Imp: "or"}      # Imp negates its left side


def _atom(tag, u, v, c):
    if u != v:
        return (tag, u, v, c)
    return c > 0 if tag == "lt" else (c == 0) == (tag == "eq")


def _junction(tag, parts):
    decisive, unit = _UNITS[tag]
    flat = []
    for p in parts:
        if type(p) is tuple:
            if p[0] == tag:
                flat.extend(p[1])
            else:
                flat.append(p)
        elif p is decisive:
            return decisive
    if len(flat) == 1:
        return flat[0]
    return (tag, tuple(flat)) if flat else unit


def _base_offset(t: Term, names: dict[str, object]):
    k = 0
    if type(t) is Succ:
        t, k = _peel(t)
    if isinstance(t, Num):
        return _ZERO, t.value + k
    if isinstance(t, Var):
        return names[t.name], k
    raise UnsupportedTermError(_PI_ERROR)


def _to_internal(f: Formula, names: dict[str, object], fresh) -> object:
    """f without quantifiers, each eliminated once its body is translated."""
    kind = type(f)
    if kind is Tau:
        # a record's arguments are not translated, but must still be bound
        for n in walk(f):
            if type(n) is Var:
                names[n.name]
        return True
    if kind is Less or kind is Eq:
        a, i = _base_offset(f.left, names)
        b, j = _base_offset(f.right, names)
        return _atom("lt" if kind is Less else "eq", a, b, j - i)
    if kind is Not:
        return _neg(_to_internal(f.inner, names, fresh))
    if kind in _JUNCTIONS or kind is Iff:
        left = _to_internal(f.left, names, fresh)
        right = _to_internal(f.right, names, fresh)
        if kind is Iff:
            return _junction("and", (_junction("or", (_neg(left), right)),
                                     _junction("or", (_neg(right), left))))
        return _junction(_JUNCTIONS[kind], (_neg(left) if kind is Imp else left, right))
    if kind is Forall or kind is Exists:
        inner_name = next(fresh)
        body = _to_internal(f.body, {**names, f.var: inner_name}, fresh)
        if kind is Exists:
            return _eliminate(inner_name, body)
        return _neg(_eliminate(inner_name, _neg(body)))
    raise TypeError(f"not a formula: {f!r}")


def _neg(node):
    """The quantifier-free node that holds exactly when node fails."""
    if type(node) is not tuple:
        return not node
    tag = node[0]
    if tag == "lt":
        return ("lt", node[2], node[1], 1 - node[3])
    if tag in _UNITS:
        return _junction(_DUAL[tag], [_neg(p) for p in node[1]])
    return (_DUAL[tag],) + node[1:]


def _bkey(base):
    return ("", "") if base == _ZERO else ("v", base)


def _normalize_term(atoms) -> tuple | None:
    """Dedup a constraint conjunction and kill it when provably empty.

    Equality/disequality atoms are oriented canonically, exact duplicates
    are dropped, a shortest-path closure over the difference bounds detects
    contradictions, and punctures already entailed by strict bounds are
    removed (they would otherwise inflate the candidate case split).
    """
    bases: list = []
    dist: dict = {}

    def note(u, v, c):
        key = (u, v)
        old = dist.get(key)
        if old is None or c < old:
            dist[key] = c

    kept: list = []
    punct: list = []
    seen: set = set()
    for a in atoms:
        tag, u, v, c = a
        if _bkey(v) < _bkey(u) and tag != "lt":
            u, v, c = v, u, -c
            a = (tag, u, v, c)
        if a in seen:
            continue
        seen.add(a)
        for b in (u, v):
            if b not in bases:
                bases.append(b)
        if tag == "lt":
            note(u, v, c - 1)          # val(u) <= val(v) + c - 1
            kept.append(a)
        elif tag == "eq":
            note(u, v, c)
            note(v, u, -c)
            kept.append(a)
        else:
            punct.append(a)
    for mid in bases:
        for a_ in bases:
            am = dist.get((a_, mid))
            if am is None:
                continue
            for b_ in bases:
                mb = dist.get((mid, b_))
                if mb is not None:
                    note(a_, b_, am + mb)
    for b_ in bases:
        loop = dist.get((b_, b_))
        if loop is not None and loop < 0:
            return None
    for a in punct:
        _, u, v, c = a
        le = dist.get((u, v))
        ge = dist.get((v, u))
        if le is not None and ge is not None and le == c and ge == -c:
            return None                # the difference is pinned to c
        if (le is not None and le < c) or (ge is not None and ge < -c):
            continue                   # already strictly off c
        kept.append(a)
    return tuple(kept)


def _dnf(node) -> list[tuple]:
    if type(node) is not tuple:
        return [()] if node else []
    tag = node[0]
    if tag in ("lt", "eq", "ne"):
        return [(node,)]
    if tag == "or":
        out = []
        seen = set()
        for p in node[1]:
            for term in _dnf(p):
                key = frozenset(term)
                if key not in seen:
                    seen.add(key)
                    out.append(term)
        return out
    terms = [()]
    for p in node[1]:
        part_terms = _dnf(p)
        new: list[tuple] = []
        seen = set()
        for a in terms:
            for b in part_terms:
                merged = _normalize_term(a + b)
                if merged is None:
                    continue
                key = frozenset(merged)
                if key in seen:
                    continue
                seen.add(key)
                new.append(merged)
                if len(new) > _DNF_TERM_CAP:
                    raise RuntimeError("formula too large to flatten for elimination")
        terms = new
        if not terms:
            return []
    return terms


def _eliminate_term(x, atoms) -> list[tuple]:
    """Residual constraint conjunctions equivalent to: exists x, all atoms."""
    others: list[tuple] = []
    lowers: list[tuple] = [(_ZERO, 0)]          # x >= base + offset
    uppers: list[tuple] = []                    # x <= base + offset
    punct: list[tuple] = []                     # x != base + offset
    eqs: list[tuple] = []                       # x == base + offset
    for a in atoms:
        tag, u, v, c = a
        if u != x and v != x:
            others.append(a)
        elif tag == "lt":
            if u == x:
                uppers.append((v, c - 1))
            else:
                lowers.append((u, 1 - c))
        elif tag == "eq":
            eqs.append((v, c) if u == x else (u, -c))
        else:
            punct.append((v, c) if u == x else (u, -c))

    if eqs:
        v0, c0 = eqs[0]
        cons: list[object] = []
        for v, c in eqs[1:]:
            cons.append(_atom("eq", v0, v, c - c0))
        for w, j in lowers:                      # w + j <= v0 + c0
            cons.append(_atom("lt", w, v0, c0 - j + 1))
        for u, e in uppers:                      # v0 + c0 <= u + e
            cons.append(_atom("lt", v0, u, e - c0 + 1))
        for w, p in punct:                       # v0 + c0 != w + p
            cons.append(_atom("ne", v0, w, p - c0))
        if any(c is False for c in cons):
            return []
        return [tuple(others) + tuple(c for c in cons if c is not True)]

    # No equality pins x: case-split on which lower bound is greatest, then
    # try the candidates "greatest lower bound + d".  With P punctures, a
    # nonempty solution interval always contains one of the P + 1 smallest
    # admissible values.
    results = []
    for idx, (v, k) in enumerate(lowers):
        maxness = []
        dead = False
        for jdx, (w, j) in enumerate(lowers):
            if jdx == idx:
                continue
            m = _atom("lt", w, v, k - j + 1)          # w + j <= v + k
            if m is False:
                dead = True
                break
            if m is not True:
                maxness.append(m)
        if dead:
            continue
        for d in range(len(punct) + 1):
            offset = k + d
            cons = list(maxness)
            alive = True
            for u, e in uppers:                  # v + offset <= u + e
                c = _atom("lt", v, u, e - offset + 1)
                if c is False:
                    alive = False
                    break
                if c is not True:
                    cons.append(c)
            if alive:
                for w, p in punct:               # v + offset != w + p
                    c = _atom("ne", v, w, p - offset)
                    if c is False:
                        alive = False
                        break
                    if c is not True:
                        cons.append(c)
            if alive:
                results.append(tuple(others) + tuple(cons))
    return results


def _eliminate(x, qf):
    parts = []
    seen = set()
    for term in _dnf(qf):
        for residual in _eliminate_term(x, term):
            merged = _normalize_term(residual)
            if merged is None:
                continue
            key = frozenset(merged)
            if key not in seen:
                seen.add(key)
                parts.append(_junction("and", merged))
    return _junction("or", parts)


def order_truth(sentence: Formula) -> bool:
    """Truth of a pi-free sentence in <N, 0, s, <>, tau atoms totalized."""
    fresh = (f"v{i}" for i in itertools.count())
    try:
        result = _to_internal(sentence, {}, fresh)
    except (KeyError, TypeError, UnsupportedTermError, RuntimeError) as e:
        # a free variable fails its lookup and outranks every other failure;
        # a pairing term anywhere outranks the size cap, and a closed term
        # passed as a sentence keeps its TypeError
        names = free_vars(sentence)
        if names:
            raise FreeVariableError(names) from None
        if not isinstance(e, TypeError) and uses_pi(sentence):
            raise UnsupportedTermError(_PI_ERROR) from None
        raise
    if result is not True and result is not False:
        raise AssertionError("elimination left a non-ground residue")
    return result


def decide_order_theory(sentence: Formula) -> Verdict:
    """TRUE_IN_STD or FALSE_IN_STD for the totalized order fragment."""
    return TRUE_IN_STD if order_truth(sentence) else FALSE_IN_STD


# The last assumption tuple known to be all true, and the sentence the last
# goal's truth shows true: the goal, or the negated sentence of a false
# negation (None otherwise).  Both are compared by ==, the tuple as one
# tuple comparison: a member identical to the remembered one matches without
# a structural comparison, and an equal copy matches too, since truth
# depends only on the formula.
_known: tuple[tuple[Formula, ...], Optional[Formula]] = ((), None)


def order_extension_derives(assumptions: Iterable[Formula], goal: Formula) -> bool:
    """Whether the order theory plus finitely many sentences derives goal.

    For a complete base theory, derivability from finitely many extra
    sentences is truth of the single implication "conjunction -> goal",
    and truth of goal alone once every assumption is known to be true.
    A Henkin completion therefore decides each sentence once: it starts
    with no assumptions and extends them only by the side it was just
    told is true.  Any other call decides the whole implication and
    forgets what was known.
    """
    global _known
    gamma = tuple(assumptions)
    prefix, told = _known if gamma else ((), None)
    extra = len(gamma) - len(prefix)
    if (extra == 0 or extra == 1 and gamma[-1] == told) \
            and gamma[:len(prefix)] == prefix:
        truth = order_truth(goal)
        told = goal if truth else goal.inner if type(goal) is Not else None
        _known = gamma, told
        return truth
    _known = (), None
    return order_truth(Imp(conjoin_left(gamma), goal))


# --------------------------------------------------------------------------
# standard-model evaluation

def _profile(f: Formula, memo: dict) -> tuple[int, int, int, bool]:
    """(largest numeral, longest run of successors, quantifier depth, mentions
    tau or pi) of f, memoized by identity.

    The walk keeps its own stack, so it recurses only into quantifier
    bodies, whose profiles go through the same memo.  It stops at the first
    tau or pi: an impure profile is read only for its flag.
    """
    key = id(f)
    hit = memo.get(key)
    if hit is not None:
        return hit
    max_num = max_run = depth = 0
    impure = False
    stack = [f]
    while stack and not impure:
        node = stack.pop()
        kind = type(node)
        if kind is Succ:
            node, run = _peel(node)
            if run > max_run:
                max_run = run
            stack.append(node)
        elif kind is Num:
            if node.value > max_num:
                max_num = node.value
        elif kind is Tau or kind is Pi:
            impure = True
        elif kind is Forall or kind is Exists:
            num, run, qdepth, impure = _profile(node.body, memo)
            max_num, max_run = max(max_num, num), max(max_run, run)
            depth = max(depth, qdepth + 1)
        elif kind is Not:
            stack.append(node.inner)
        elif kind is not Var:
            stack.append(node.right)
            stack.append(node.left)
    memo[key] = result = (max_num, max_run, depth, impure)
    return result


def _free_in(f: Formula, memo: dict) -> frozenset[str]:
    key = ("fv", id(f))
    hit = memo.get(key)
    if hit is None:
        hit = free_vars(f)
        memo[key] = hit
    return hit


def _term_value(t: Term, env: dict[str, int]) -> int:
    k = 0
    if type(t) is Succ:
        t, k = _peel(t)
    if isinstance(t, Num):
        return t.value + k
    if isinstance(t, Var):
        return env[t.name] + k
    return nat_pair(_term_value(t.left, env), _term_value(t.right, env)) + k


def _ev(f: Formula, env: dict[str, int], budget: int, memo: dict):
    """Three-valued evaluation: True, False, or None for 'not settled'."""
    if isinstance(f, Less):
        return _term_value(f.left, env) < _term_value(f.right, env)
    if isinstance(f, Eq):
        return _term_value(f.left, env) == _term_value(f.right, env)
    if isinstance(f, Tau):
        return tau(_term_value(f.prog, env), _term_value(f.arg, env),
                   _term_value(f.steps, env))
    if isinstance(f, Not):
        r = _ev(f.inner, env, budget, memo)
        return None if r is None else not r
    if isinstance(f, (And, Or)):
        kind = type(f)
        decisive = kind is Or                   # one True settles Or, one False settles And
        parts = []
        stack = [f]
        while stack:
            g = stack.pop()
            if type(g) is kind:
                stack.append(g.right)
                stack.append(g.left)
            else:
                parts.append(g)
        saw_unknown = False
        for g in parts:
            r = _ev(g, env, budget, memo)
            if r is decisive:
                return decisive
            if r is None:
                saw_unknown = True
        return None if saw_unknown else (not decisive)
    if isinstance(f, Imp):
        a = _ev(f.left, env, budget, memo)
        if a is False:
            return True
        b = _ev(f.right, env, budget, memo)
        if b is True:
            return True
        if a is True and b is False:
            return False
        return None
    if isinstance(f, Iff):
        a = _ev(f.left, env, budget, memo)
        b = _ev(f.right, env, budget, memo)
        if a is None or b is None:
            return None
        return a is b
    if isinstance(f, (Forall, Exists)):
        exist = isinstance(f, Exists)
        max_num, max_run, depth, impure = _profile(f.body, memo)
        if impure:
            bound = budget
        else:
            # Exhaustive, not heuristic: two values whose distance to every
            # numeral and parameter exceeds (run + 1) * 2^depth cannot be
            # told apart by the remaining quantifiers (each round can at
            # most halve the gap a formula distinguishes, a run of
            # successors widens it by a factor of run + 1).
            params = [env[name] for name in _free_in(f, memo)]
            ceiling = max([max_num, *params]) if params else max_num
            bound = ceiling + (max_run + 1) * (1 << (depth + 1)) + 1
        scoped = dict(env)
        saw_unknown = False
        for value in range(bound + 1):
            scoped[f.var] = value
            r = _ev(f.body, scoped, budget, memo)
            if exist and r is True:
                return True
            if not exist and r is False:
                return False
            if r is None:
                saw_unknown = True
        if impure or saw_unknown:
            return None
        return not exist
    raise TypeError(f"not a formula: {f!r}")


def eval_std(sentence: Formula, budget: int = 10**6) -> Verdict:
    """Evaluate a sentence in the standard model, honestly budgeted.

    Closed atoms are computed outright (tau by running the coded program
    for at most its own step bound).  Pure order quantifiers are exact;
    quantifiers over tau/pi subformulas scan 0..budget and yield
    ``unknown(budget)`` when neither a witness nor a counterexample turns
    up within it.
    """
    names = free_vars(sentence)
    if names:
        raise FreeVariableError(names)
    if budget < 0:
        raise ValueError("budget must be a natural number")
    result = _ev(sentence, {}, budget, {})
    if result is True:
        return TRUE_IN_STD
    if result is False:
        return FALSE_IN_STD
    return unknown(budget)
