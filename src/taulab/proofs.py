"""Hilbert-style proofs over the fixed language, with coded proof objects.

A proof is a sequence of steps; each step is a formula together with a
justification: an instance of one of 27 logical axiom schemas, a theory
axiom (validated through an oracle), modus ponens from two earlier steps,
or generalization of an earlier step.  Generalization is unrestricted,
which is sound here because theories supply closed axioms only.

The schemas are data: ``_SCHEMAS`` lists, in schema-id order, each
schema's name, its shape (formula nodes with pattern variables at the
leaves) and an optional side condition on the pattern variables'
bindings; one structural matcher serves every row.

Two interchangeable oracle styles answer "is this formula an axiom?":

* ``HostDecider`` wraps a total host predicate on formulas; the index on a
  theory-axiom step is advisory.
* ``EnumeratorIndexed`` wraps the code of a TPL enumerator program; a
  theory-axiom step citing index i is valid exactly when the enumerator's
  i-th output decodes and parses to the step formula.  Enumerator runs are
  budgeted, and the steps they consume are reported so in-language callers
  can be charged honestly.

Proofs have a structural numeric code built from iterated pairing; the
layout (documented in docs/proof_encoding.md) is chosen so that short
proofs get small codes, e.g. the one-step proof citing theory axiom 0 has
code 10.  ``prove_search`` enumerates candidate codes from 0 upward, which
is the host-side mirror of the searcher program template.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .codec import decode_program_code, pair, program_code, unpair
from .fol import (
    And, Eq, Exists, FolError, Forall, Formula, Iff, Imp, Less, Node, Not,
    Num, Or, Pi, Succ, Tau, Term, Var, format_formula, free_vars,
    parse_formula, _APPLIED, _peel, substitute, succ,
)
from .tpl import output_code, run_code

__all__ = [
    "LogicalAxiom", "TheoryAxiom", "ModusPonens", "Gen", "ProofStep", "Proof",
    "HostDecider", "EnumeratorIndexed", "CheckResult",
    "SCHEMA_NAMES", "schema_id", "schema_matches", "is_logical_axiom",
    "check_proof", "check_coded_proof",
    "proof_to_code", "code_to_proof", "identifier_rank", "identifier_from_rank",
    "parse_proof_script", "format_proof_script", "prove_search",
]


# --------------------------------------------------------------------------
# proof objects

@dataclass(frozen=True)
class LogicalAxiom:
    schema: str


@dataclass(frozen=True)
class TheoryAxiom:
    index: int


@dataclass(frozen=True)
class ModusPonens:
    antecedent: int
    implication: int


@dataclass(frozen=True)
class Gen:
    premise: int
    var: str


@dataclass(frozen=True)
class ProofStep:
    formula: Formula | None
    justification: object


@dataclass(frozen=True)
class Proof:
    steps: tuple[ProofStep, ...]

    def conclusion(self) -> Formula | None:
        return self.steps[-1].formula if self.steps else None

    def __len__(self) -> int:
        return len(self.steps)


# --------------------------------------------------------------------------
# logical axiom schemas

class _Meta:
    """A pattern variable in a schema shape; repeated uses must be equal."""

    __slots__ = ()


P, Q, R = _Meta(), _Meta(), _Meta()
T, U, V, A, B = _Meta(), _Meta(), _Meta(), _Meta(), _Meta()
X = _Meta()  # binds the variable name of a quantifier


def _witness(body: Node, result: Node, var: str) -> Term:
    """The one term that can have been substituted for ``var`` to turn
    ``body`` into ``result``: in an instance every free occurrence of
    ``var`` holds it, so it is read off the first one met (through the
    successor runs on both sides).  ``Var(var)`` when none is met."""
    stack: list[tuple[Node, Node, bool]] = [(body, result, True)]
    while stack:
        a, b, active = stack.pop()
        d = e = 0
        if type(a) is Succ:
            (a, d), (b, e) = _peel(a), _peel(b)
        if isinstance(a, Var):
            if active and a.name == var:
                if isinstance(b, Num):
                    if b.value >= d:
                        return Num(b.value - d)
                elif isinstance(b, Term) and e >= d:
                    return succ(b, e - d)
        elif type(a) is type(b):
            if isinstance(a, (Forall, Exists)):
                stack.append((a.body, b.body, active and a.var != var))
            else:
                for name in type(a).__match_args__:
                    va = getattr(a, name)
                    if isinstance(va, Node):
                        stack.append((va, getattr(b, name), active))
    return Var(var)


def _substitution_instance(b) -> bool:
    """Whether R is P with some term put for the variable X."""
    body, var, result = b[P], b[X], b[R]
    return substitute(body, var, _witness(body, result, var)) == result


# One row per schema, in schema-id order: (name, shape, side condition).
# A side condition receives the bindings of the shape's pattern variables.
_SCHEMAS: tuple[tuple[str, Node, object], ...] = (
    ("weakening", Imp(P, Imp(Q, P)), None),
    ("distribution", Imp(Imp(P, Imp(Q, R)), Imp(Imp(P, Q), Imp(P, R))), None),
    ("contraposition", Imp(Imp(Not(Q), Not(P)), Imp(P, Q)), None),
    ("and-elim-left", Imp(And(P, Q), P), None),
    ("and-elim-right", Imp(And(P, Q), Q), None),
    ("and-intro", Imp(P, Imp(Q, And(P, Q))), None),
    ("or-intro-left", Imp(P, Or(P, Q)), None),
    ("or-intro-right", Imp(Q, Or(P, Q)), None),
    ("or-elim", Imp(Imp(P, R), Imp(Imp(Q, R), Imp(Or(P, Q), R))), None),
    ("iff-elim-left", Imp(Iff(P, Q), Imp(P, Q)), None),
    ("iff-elim-right", Imp(Iff(P, Q), Imp(Q, P)), None),
    ("iff-intro", Imp(Imp(P, Q), Imp(Imp(Q, P), Iff(P, Q))), None),
    ("forall-elim", Imp(Forall(X, P), R), _substitution_instance),
    ("forall-dist", Imp(Forall(X, Imp(P, Q)), Imp(P, Forall(X, Q))),
     lambda b: b[X] not in free_vars(b[P])),
    ("exists-intro", Imp(R, Exists(X, P)), _substitution_instance),
    ("exists-elim", Imp(Forall(X, Imp(P, Q)), Imp(Exists(X, P), Q)),
     lambda b: b[X] not in free_vars(b[Q])),
    ("eq-refl", Eq(T, T), None),
    ("eq-sym", Imp(Eq(T, U), Eq(U, T)), None),
    ("eq-trans", Imp(And(Eq(T, U), Eq(U, V)), Eq(T, V)), None),
    # not a plain shape: numerals fold, so 0 = 0 -> #1 = #1 is an instance
    ("eq-succ", Imp(Eq(T, U), Eq(A, B)),
     lambda b: b[A] == succ(b[T]) and b[B] == succ(b[U])),
    ("eq-pair-left", Imp(Eq(T, U), Eq(Pi(T, V), Pi(U, V))), None),
    ("eq-pair-right", Imp(Eq(T, U), Eq(Pi(V, T), Pi(V, U))), None),
    ("eq-less-left", Imp(Eq(T, U), Iff(Less(T, V), Less(U, V))), None),
    ("eq-less-right", Imp(Eq(T, U), Iff(Less(V, T), Less(V, U))), None),
    ("eq-halt-prog", Imp(Eq(T, U), Iff(Tau(T, A, B), Tau(U, A, B))), None),
    ("eq-halt-input", Imp(Eq(T, U), Iff(Tau(A, T, B), Tau(A, U, B))), None),
    ("eq-halt-bound", Imp(Eq(T, U), Iff(Tau(A, B, T), Tau(A, B, U))), None),
)


def _instantiates(shape: Node, side, f) -> bool:
    """Whether ``f`` has the form of ``shape`` and meets ``side``.

    Each pattern variable binds to what it meets first; every later
    occurrence must meet an equal subformula, term or variable name.
    """
    bound: dict[_Meta, object] = {}
    stack = [(shape, f)]
    while stack:
        pattern, node = stack.pop()
        if type(pattern) is _Meta:
            if pattern not in bound:
                bound[pattern] = node
            elif bound[pattern] != node:
                return False
        elif type(pattern) is not type(node):
            return False
        else:
            for name in type(pattern).__match_args__:
                stack.append((getattr(pattern, name), getattr(node, name)))
    return side is None or side(bound)


SCHEMA_NAMES: tuple[str, ...] = tuple(name for name, _, _ in _SCHEMAS)
_SCHEMA_BY_NAME = {name: (i, shape, side)
                   for i, (name, shape, side) in enumerate(_SCHEMAS)}


def schema_id(name: str) -> int:
    return _SCHEMA_BY_NAME[name][0]


def schema_matches(name: str, f: Formula) -> bool:
    entry = _SCHEMA_BY_NAME.get(name)
    return entry is not None and _instantiates(entry[1], entry[2], f)


def is_logical_axiom(f: Formula) -> str | None:
    """Name of the first schema that ``f`` instantiates, if any."""
    for name, shape, side in _SCHEMAS:
        if _instantiates(shape, side, f):
            return name
    return None


def _parse_coded_formula(code: int) -> Formula | None:
    """The formula whose text ``code`` packs, or None."""
    text = decode_program_code(code)
    if text is None:
        return None
    try:
        return parse_formula(text)
    except FolError:
        return None


# --------------------------------------------------------------------------
# oracles

class HostDecider:
    """Theory-axiom oracle backed by a total host predicate on formulas."""

    def __init__(self, predicate):
        self.predicate = predicate


class EnumeratorIndexed:
    """Theory-axiom oracle backed by a coded TPL enumerator program.

    ``materialize(i, budget)`` runs the enumerator on input i for at most
    ``budget`` steps and returns ``(formula_or_None, steps_consumed,
    out_of_budget)``.  With ``memo=True`` successful lookups are cached and
    replayed at zero cost — use only host-side; the in-language checker
    always pays.
    """

    def __init__(self, enum_code: int, memo: bool = False):
        self.enum_code = enum_code
        self._memo: dict[int, Formula] | None = {} if memo else None

    def materialize(self, index: int, budget: int):
        if self._memo is not None and index in self._memo:
            return self._memo[index], 0, False
        machine = run_code(self.enum_code, index, max(budget, 0))
        if machine is None:
            return None, 0, False
        if machine.halted:
            formula = _parse_coded_formula(output_code(machine))
            if self._memo is not None and formula is not None:
                self._memo[index] = formula
            return formula, machine.steps, False
        if machine.fault is not None:
            return None, machine.steps, False
        return None, max(budget, 0), True


# --------------------------------------------------------------------------
# checking

_VAR_NAME = re.compile(r"[a-z][a-z0-9_]*\Z")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a proof check.

    kind is one of: ok, empty, malformed, malformed_ref, missing_formula,
    unjustified, budget, conclusion, bad_target.  ``budget`` means the
    enumerator work needed to decide the proof exceeded the step budget —
    deliberately distinct from a negative verdict.  ``consumed`` counts
    enumerator steps, for charging in-language callers.
    """

    ok: bool
    kind: str
    step: int | None
    consumed: int
    formulas: tuple = field(default=(), compare=False)

    def __bool__(self) -> bool:
        return self.ok


def check_proof(proof: Proof, oracle, target: Formula | None = None,
                step_budget: int = 10 ** 6) -> CheckResult:
    """Decide whether ``proof`` is valid (and concludes ``target`` if given).

    ``oracle`` may be a HostDecider, an EnumeratorIndexed, or None to
    forbid theory axioms.  Steps may carry ``formula=None`` when it is
    recoverable (theory axioms under an enumerator oracle; modus ponens and
    generalization, whose formulas are determined by their premises).
    """
    consumed = 0

    def fail(kind: str, step: int) -> CheckResult:
        return CheckResult(False, kind, step, consumed)

    if not proof.steps:
        return CheckResult(False, "empty", None, consumed)
    formulas: list[Formula | None] = []
    for k, step in enumerate(proof.steps):
        just = step.justification
        formula = step.formula
        if isinstance(just, LogicalAxiom):
            if formula is None:
                return fail("missing_formula", k)
            if not schema_matches(just.schema, formula):
                return fail("unjustified", k)
        elif isinstance(just, TheoryAxiom):
            if (isinstance(just.index, bool) or not isinstance(just.index, int)
                    or just.index < 0):
                return fail("unjustified", k)
            if isinstance(oracle, EnumeratorIndexed):
                known, used, exhausted = oracle.materialize(
                    just.index, step_budget - consumed)
                consumed += used
                if exhausted:
                    return fail("budget", k)
                if known is None:
                    return fail("unjustified", k)
                if formula is None:
                    formula = known
                elif formula != known:
                    return fail("unjustified", k)
            elif isinstance(oracle, HostDecider):
                if formula is None:
                    return fail("missing_formula", k)
                if not oracle.predicate(formula):
                    return fail("unjustified", k)
            else:
                return fail("unjustified", k)
        elif isinstance(just, ModusPonens):
            i, j = just.antecedent, just.implication
            if not (0 <= i < k and 0 <= j < k):
                return fail("malformed_ref", k)
            fi, fj = formulas[i], formulas[j]
            if fi is None or fj is None:
                return fail("missing_formula", k)
            if not isinstance(fj, Imp) or fj.left != fi:
                return fail("unjustified", k)
            if formula is None:
                formula = fj.right
            elif formula != fj.right:
                return fail("unjustified", k)
        elif isinstance(just, Gen):
            i = just.premise
            if not 0 <= i < k:
                return fail("malformed_ref", k)
            if not _VAR_NAME.match(just.var) or just.var in _APPLIED:
                return fail("unjustified", k)
            fi = formulas[i]
            if fi is None:
                return fail("missing_formula", k)
            derived = Forall(just.var, fi)
            if formula is None:
                formula = derived
            elif formula != derived:
                return fail("unjustified", k)
        else:
            return fail("unjustified", k)
        formulas.append(formula)
    if target is not None and formulas[-1] != target:
        return CheckResult(False, "conclusion", len(proof.steps) - 1, consumed)
    return CheckResult(True, "ok", None, consumed, tuple(formulas))


# --------------------------------------------------------------------------
# structural codes

_TAG_LOGICAL, _TAG_THEORY, _TAG_MP, _TAG_GEN = 0, 1, 2, 3
_REST_ALPHABET = "0123456789_abcdefghijklmnopqrstuvwxyz"  # ASCII order
_MAX_DECODED_STEPS = 1_000_000  # resource guard for hostile codes


def identifier_rank(name: str) -> int:
    """Position of a variable name in length-then-lexicographic order."""
    if not _VAR_NAME.match(name):
        raise ValueError(f"not a variable name: {name!r}")
    offset = 0
    for length in range(1, len(name)):
        offset += 26 * 37 ** (length - 1)
    value = ord(name[0]) - 97
    for ch in name[1:]:
        value = value * 37 + _REST_ALPHABET.index(ch)
    return offset + value


def identifier_from_rank(rank: int) -> str:
    length = 1
    block = 26
    while rank >= block:
        rank -= block
        length += 1
        block = 26 * 37 ** (length - 1)
    rest = []
    for _ in range(length - 1):
        rest.append(_REST_ALPHABET[rank % 37])
        rank //= 37
    return chr(97 + rank) + "".join(reversed(rest))


def _step_to_code(step: ProofStep) -> int:
    just = step.justification
    if isinstance(just, LogicalAxiom):
        if step.formula is None:
            raise ValueError("logical-axiom steps must carry their instance")
        payload = pair(schema_id(just.schema),
                       program_code(format_formula(step.formula)))
        return pair(_TAG_LOGICAL, payload)
    if isinstance(just, TheoryAxiom):
        return pair(_TAG_THEORY, just.index)
    if isinstance(just, ModusPonens):
        return pair(_TAG_MP, pair(just.antecedent, just.implication))
    if isinstance(just, Gen):
        return pair(_TAG_GEN, pair(just.premise, identifier_rank(just.var)))
    raise ValueError(f"unknown justification: {just!r}")


def proof_to_code(proof: Proof) -> int:
    codes = [_step_to_code(s) for s in proof.steps]
    if not codes:
        return pair(0, 0)
    fold = codes[0]
    for c in codes[1:]:
        fold = pair(fold, c)
    return pair(len(codes), fold)


def code_to_proof(n: int) -> Proof | None:
    """Invert proof_to_code; None on any structural mismatch.

    Formulas of modus-ponens and generalization steps are rederived from
    their premises; theory-axiom formulas are left None for check_proof to
    materialize.
    """
    top = unpair(n)
    if top is None:
        return None
    length, fold = top
    if length == 0:
        return Proof(()) if fold == 0 else None
    if length > _MAX_DECODED_STEPS:
        return None
    # Step code 0 is schema 0 on the empty text, which never parses, so a
    # zero step code rejects the whole code; once the fold reaches 0 every
    # further peel would yield one.
    codes = []
    cur = fold
    for _ in range(length - 1):
        parts = unpair(cur)
        if parts is None:
            return None
        cur, last = parts
        if last == 0:
            return None
        codes.append(last)
    if cur == 0:
        return None
    codes.append(cur)
    codes.reverse()

    steps: list[ProofStep] = []
    for c in codes:
        parts = unpair(c)
        if parts is None:
            return None
        tag, payload = parts
        if tag == _TAG_LOGICAL:
            inner = unpair(payload)
            if inner is None:
                return None
            sid, fcode = inner
            if sid >= len(_SCHEMAS):
                return None
            formula = _parse_coded_formula(fcode)
            if formula is None:
                return None
            steps.append(ProofStep(formula, LogicalAxiom(SCHEMA_NAMES[sid])))
        elif tag == _TAG_THEORY:
            steps.append(ProofStep(None, TheoryAxiom(payload)))
        elif tag == _TAG_MP:
            inner = unpair(payload)
            if inner is None:
                return None
            steps.append(ProofStep(None, ModusPonens(*inner)))
        elif tag == _TAG_GEN:
            inner = unpair(payload)
            if inner is None:
                return None
            steps.append(ProofStep(None, Gen(inner[0], identifier_from_rank(inner[1]))))
        else:
            return None

    for k, step in enumerate(steps):
        just = step.justification
        if step.formula is not None:
            continue
        if isinstance(just, ModusPonens):
            i, j = just.antecedent, just.implication
            if i < k and j < k:
                fi, fj = steps[i].formula, steps[j].formula
                if fi is not None and isinstance(fj, Imp) and fj.left == fi:
                    steps[k] = ProofStep(fj.right, just)
        elif isinstance(just, Gen):
            if just.premise < k and steps[just.premise].formula is not None:
                steps[k] = ProofStep(Forall(just.var, steps[just.premise].formula), just)
    return Proof(tuple(steps))


# Searcher programs ask about the same (often kilobytes-long) target text
# millions of times; formulas are immutable, so decoding once per distinct
# code is observationally identical.
_formula_from_code = lru_cache(maxsize=256)(_parse_coded_formula)


# (code, formula) of the last target looked up.  A searcher passes the
# same int object on every call, and an identity test is free where hashing
# an 800k-bit code for the cache above is not.  One tuple, replaced whole.
_last_target: tuple = (None, None)


def _target_formula(sentence_code: int) -> Formula | None:
    global _last_target
    code, formula = _last_target
    if code is sentence_code:
        return formula
    formula = _formula_from_code(sentence_code)
    _last_target = (sentence_code, formula)
    return formula


# The two verdicts reached before any enumerator work, shared: a searcher
# gets one for almost every code it tries.  CheckResult is frozen.
_BAD_TARGET = CheckResult(False, "bad_target", None, 0)
_MALFORMED = CheckResult(False, "malformed", None, 0)


def check_coded_proof(enum_code: int, proof_code: int, sentence_code: int,
                      step_budget: int) -> CheckResult:
    """The in-language proof checker: everything arrives as numbers."""
    target = _target_formula(sentence_code)
    if target is None:
        return _BAD_TARGET
    proof = code_to_proof(proof_code)
    if proof is None:
        return _MALFORMED
    return check_proof(proof, EnumeratorIndexed(enum_code), target, step_budget)


# --------------------------------------------------------------------------
# proof scripts

_JUST_WORDS = {"LA", "AX", "MP", "GEN"}


def format_proof_script(proof: Proof) -> str:
    lines = []
    for k, step in enumerate(proof.steps):
        if step.formula is None:
            raise ValueError(f"step {k} has no formula to print")
        just = step.justification
        if isinstance(just, LogicalAxiom):
            tail = f"LA {just.schema}"
        elif isinstance(just, TheoryAxiom):
            tail = f"AX {just.index}"
        elif isinstance(just, ModusPonens):
            tail = f"MP {just.antecedent} {just.implication}"
        elif isinstance(just, Gen):
            tail = f"GEN {just.premise} {just.var}"
        else:
            raise ValueError(f"unknown justification: {just!r}")
        lines.append(f"{k}. {format_formula(step.formula)} ; {tail}")
    return "\n".join(lines) + "\n"


def parse_proof_script(text: str) -> Proof:
    """Parse the line format ``<k>. <formula> ; <justification>``.

    k is the 0-based step number and must match the line's position;
    blank lines and lines starting with '#' are skipped.
    """
    steps: list[ProofStep] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, dot, rest = line.partition(".")
        if not dot or not head.strip().isdigit():
            raise ValueError(f"expected '<k>. ...': {line!r}")
        k = int(head)
        if k != len(steps):
            raise ValueError(f"step numbered {k}, expected {len(steps)}")
        body, semi, just_text = rest.rpartition(";")
        if not semi:
            raise ValueError(f"missing '; <justification>': {line!r}")
        formula = parse_formula(body.strip())
        words = just_text.split()
        if not words or words[0] not in _JUST_WORDS:
            raise ValueError(f"bad justification: {just_text.strip()!r}")
        kind = words[0]
        if kind == "LA" and len(words) == 2:
            if words[1] not in _SCHEMA_BY_NAME:
                raise ValueError(f"unknown schema {words[1]!r}")
            just = LogicalAxiom(words[1])
        elif kind == "AX" and len(words) == 2:
            just = TheoryAxiom(int(words[1]))
        elif kind == "MP" and len(words) == 3:
            just = ModusPonens(int(words[1]), int(words[2]))
        elif kind == "GEN" and len(words) == 3:
            just = Gen(int(words[1]), words[2])
        else:
            raise ValueError(f"bad justification: {just_text.strip()!r}")
        steps.append(ProofStep(formula, just))
    return Proof(tuple(steps))


# --------------------------------------------------------------------------
# bounded search

def prove_search(oracle, target: Formula, code_budget: int,
                 step_budget: int = 10 ** 6) -> Proof | None:
    """First valid proof of ``target`` among structural codes 0..budget.

    Semi-decision of derivability, truncated at ``code_budget``.  The found
    proof is returned fully materialized; its code is ``proof_to_code`` of
    itself, i.e. the c at which it was found.
    """
    for c in range(code_budget + 1):
        proof = code_to_proof(c)
        if proof is None or not proof.steps:
            continue
        result = check_proof(proof, oracle, target, step_budget)
        if result.ok:
            steps = tuple(ProofStep(f, s.justification)
                          for f, s in zip(result.formulas, proof.steps))
            return Proof(steps)
    return None
