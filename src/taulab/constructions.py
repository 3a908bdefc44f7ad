"""Effective constructions over coded axiom streams.

Everything here turns theories-as-programs into other programs, sentences,
or verdict reports, entirely by computation:

- witness-constant saturation (``henkinize``) and stepwise completion of a
  decidable theory (``henkin_complete``), with a completeness probe;
- the prefix-conjunction closure of an axiom stream (``craig``), which is
  decidable even when the stream itself is not, plus explicit checked
  proofs each way between a stream and its closure;
- self-referential searcher programs: ``kleene_sentence`` (a sentence
  asserting its own searcher never halts on itself) and ``rosser_pair``
  (two searchers racing over a sentence that compares them);
- ``diagonal``, which refutes claimed provability deciders by running a
  program built to do the opposite of the decider's verdict on itself;
- ``rice_reduce``, which splices a contradiction detector in front of a
  second stream, tying the first stream's consistency to whether the
  output stream deviates.

Constructions never verify soundness or consistency of the streams they
are handed - those are the caller's obligations, and undecidable ones.
All functions are pure: identical inputs give identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, islice
from typing import Callable, Iterable, Optional, Sequence

from .codec import program_code
from .fol import (
    And,
    Eq,
    Exists,
    Forall,
    Formula,
    FreeVariableError,
    Imp,
    Less,
    Not,
    Num,
    Pi,
    Succ,
    Tau,
    Var,
    conjoin_left,
    format_formula,
    free_vars,
    parse_formula,
    rosser_sentence,
    substitute,
    walk,
)
from .proofs import (
    EnumeratorIndexed,
    LogicalAxiom,
    ModusPonens,
    Proof,
    ProofStep,
    TheoryAxiom,
    check_coded_proof,
    proof_to_code,
    prove_search,
)
from .theories import theory_T
from .tpl import (Machine, instantiate_template, output_code, program_from_code,
                  run_code)

__all__ = [
    "CONTRADICTION",
    "henkinize", "CompletionState", "henkin_complete", "completeness_probe",
    "CraigArtifact", "craig",
    "kleene_sentence", "RosserArtifact", "rosser_pair", "plant_axiom",
    "ContradictionReport", "diagonal",
    "RiceArtifact", "rice_reduce",
]


#: The canonical refutation target: one fixed, trivially false sentence.
#: "Consistent" always means "does not derive this sentence" here.
CONTRADICTION: Formula = And(Eq(Num(0), Num(0)), Not(Eq(Num(0), Num(0))))


# --------------------------------------------------------------------------
# display helpers

def _code_repr(code: Optional[int]) -> str:
    # program codes routinely exceed the interpreter's int-to-decimal
    # conversion limit, so repr them by size instead of by digits
    return "None" if code is None else f"<{code.bit_length()}-bit code>"


def _formula_repr(f: Formula) -> str:
    text = format_formula(f)
    return text if len(text) <= 48 else text[:45] + "..."


# --------------------------------------------------------------------------
# syntax walks shared by the constructions

def _all_names(f: Formula) -> set[str]:
    """Every identifier occurring in f, free or bound."""
    return {n.name if isinstance(n, Var) else n.var
            for n in walk(f) if isinstance(n, (Var, Forall, Exists))}


def _existentials_preorder(f: Formula) -> list[Exists]:
    """All existential subformulas of f, outermost-and-leftmost first."""
    return [n for n in walk(f) if isinstance(n, Exists)]


def _node_count(f: Formula) -> int:
    """Number of formula nodes in f; terms are not counted."""
    return sum(1 for n in walk(f) if isinstance(n, Formula))


_SYMBOL_OF = {Less: "<", Eq: "=", Tau: "tau", Succ: "s", Pi: "pi"}


def _symbols(f: Formula) -> set[str]:
    """Nonlogical symbols used by f, out of {0, s, <, =, tau, pi}."""
    used: set[str] = set()
    for node in walk(f):
        if isinstance(node, Num):
            used.add("0")
            if node.value > 0:
                used.add("s")
        elif type(node) in _SYMBOL_OF:
            used.add(_SYMBOL_OF[type(node)])
    return used


# --------------------------------------------------------------------------
# witness constants and completion

def henkinize(theory: Iterable[Formula | str],
              fresh_constant_budget: int) -> list[Formula]:
    """Extend a theory with witness axioms "E x. f  ->  f(c/x)".

    Walks the given formulas in order and then every emitted axiom, finds
    each distinct existential subformula once (outermost-and-leftmost
    first within a formula), and pairs it with the first constant c1, c2,
    ... that neither occurs in any formula seen so far nor has been used.
    Emission stops after ``fresh_constant_budget`` axioms; the returned
    list is the input followed by the emitted axioms.

    The chosen constants are plain identifiers, so the emitted axioms are
    open formulas in the unextended language - read them as sentences of
    the language extended by those constants.
    """
    if fresh_constant_budget < 0:
        raise ValueError("fresh_constant_budget must be a natural number")
    formulas = [parse_formula(f) if isinstance(f, str) else f for f in theory]
    seen_names: set[str] = set()
    for f in formulas:
        seen_names |= _all_names(f)
    used: set[str] = set()
    handled: set[Formula] = set()
    queue: list[Formula] = list(formulas)
    emitted: list[Formula] = []
    position = 0
    while position < len(queue) and len(emitted) < fresh_constant_budget:
        current = queue[position]
        position += 1
        for ex in _existentials_preorder(current):
            if ex in handled:
                continue
            handled.add(ex)
            constant = next(f"c{k}" for k in count(1)
                            if f"c{k}" not in seen_names and f"c{k}" not in used)
            used.add(constant)
            axiom = Imp(ex, substitute(ex.body, ex.var, Var(constant)))
            emitted.append(axiom)
            seen_names |= _all_names(axiom)
            queue.append(axiom)
            if len(emitted) >= fresh_constant_budget:
                break
    return formulas + emitted


@dataclass(frozen=True)
class CompletionState:
    """A completed prefix: every processed sentence or its negation, chosen
    so the base theory plus all choices so far stays consistent.

    ``base`` is a finite-extension derivability oracle: base(assumptions,
    goal) says whether the base theory plus the finitely many assumption
    sentences derives the goal.  ``committed`` records, per processed
    sentence, whether it was asserted (True) or its negation was (False).
    """

    base: Callable[[Sequence[Formula], Formula], bool]
    committed: tuple[tuple[Formula, bool], ...]
    next_index: int

    def committed_sentences(self) -> tuple[Formula, ...]:
        """The actual sentences added: f when asserted, ~f when negated."""
        return tuple(f if asserted else Not(f) for f, asserted in self.committed)

    def decide(self, sentence: Formula) -> bool:
        """Membership of ``sentence`` in the completed prefix, by replay.

        Defined for the processed sentences and their negations only;
        anything else raises LookupError.
        """
        for f, asserted in self.committed:
            if asserted and sentence == f:
                return True
            if not asserted and sentence == Not(f):
                return True
        for f, _ in self.committed:
            if sentence == f or sentence == Not(f):
                return False
        raise LookupError("sentence was not processed by this completion")


def henkin_complete(base: Callable[[Sequence[Formula], Formula], bool],
                    sentences: Iterable[Formula],
                    consider: int) -> CompletionState:
    """Process ``consider`` sentences, committing each or its negation.

    A sentence f is asserted unless the base theory plus everything
    committed so far already derives ~f, in which case ~f is committed
    instead.  A base that derives the canonical contradiction outright is
    rejected.  Sentences must be closed; the base oracle must be total on
    the stream (for the shipped order-theory oracle that means no pairing
    terms outside bounded-run atoms).
    """
    if consider < 0:
        raise ValueError("consider must be a natural number")
    if base((), CONTRADICTION):
        raise ValueError("the base oracle derives the canonical "
                         "contradiction; refusing to complete it")
    committed: list[tuple[Formula, bool]] = []
    chosen: list[Formula] = []
    for sentence in islice(sentences, consider):
        names = free_vars(sentence)
        if names:
            raise FreeVariableError(names)
        keep_negation = base(tuple(chosen), Not(sentence))
        committed.append((sentence, not keep_negation))
        chosen.append(Not(sentence) if keep_negation else sentence)
    return CompletionState(base, tuple(committed), len(committed))


def completeness_probe(decide: Callable[[Formula], bool],
                       sentences: Iterable[Formula],
                       language: Optional[frozenset[str]] = None,
                       ) -> list[tuple[Formula, str]]:
    """Check a decider for exactly-one-of f / ~f over given sentences.

    Returns one record per violation: (sentence, "both") when the decider
    accepts both the sentence and its negation, (sentence, "neither") when
    it accepts neither.  An empty list means the decider looks consistent
    and complete over the probe set.  When ``language`` is given (a set
    drawn from {"0", "s", "<", "tau", "pi"}; equality and the connectives
    are always admitted), sentences using other symbols are rejected.
    """
    violations: list[tuple[Formula, str]] = []
    for sentence in sentences:
        if language is not None:
            outside = _symbols(sentence) - set(language) - {"="}
            if outside:
                raise ValueError(
                    f"sentence uses symbols outside the probe language: "
                    f"{sorted(outside)}")
        holds = bool(decide(sentence))
        fails = bool(decide(Not(sentence)))
        if holds and fails:
            violations.append((sentence, "both"))
        elif not holds and not fails:
            violations.append((sentence, "neither"))
    return violations


# --------------------------------------------------------------------------
# the prefix-conjunction closure

@dataclass(frozen=True)
class CraigArtifact:
    """Decidable closure of an axiom stream by prefix conjunctions.

    Its members are exactly the left-associated conjunctions of the
    stream's outputs 0..k (and the bare first output for k = 0).  The
    closure derives the same sentences as the stream: ``proof_of_axiom``
    and ``proof_of_prefix`` return explicit checked proofs each way.

    ``decider_code`` and ``prefix_code`` are generated programs: a total
    membership decider (sentence code in, 1/0 out) and the enumerator of
    the conjunctions themselves (index in, sentence code out).
    """

    enumerator_code: int
    decider_code: int
    prefix_code: int
    step_budget: int
    _stream: EnumeratorIndexed = field(repr=False, compare=False)

    def __repr__(self) -> str:
        return (f"CraigArtifact(enumerator_code="
                f"{_code_repr(self.enumerator_code)}, "
                f"decider_code={_code_repr(self.decider_code)}, "
                f"prefix_code={_code_repr(self.prefix_code)}, "
                f"step_budget={self.step_budget})")

    def axiom(self, index: int) -> Formula:
        got, _, _ = self._stream.materialize(index, self.step_budget)
        if got is None:
            raise RuntimeError(f"the axiom stream produced no sentence at "
                               f"index {index} within the step budget")
        return got

    def prefix(self, length: int) -> Formula:
        """The member covering stream outputs 0..length-1."""
        if length < 1:
            raise ValueError("a prefix covers at least one axiom")
        return conjoin_left([self.axiom(i) for i in range(length)])

    def member(self, sentence: Formula) -> bool:
        """Host-side membership: structural equality with some prefix."""
        target_size = _node_count(sentence)
        acc: Formula | None = None
        for index in count():
            got, _, _ = self._stream.materialize(index, self.step_budget)
            if got is None:
                return False
            acc = got if acc is None else And(acc, got)
            if acc == sentence:
                return True
            if _node_count(acc) >= target_size:
                return False

    def proof_of_axiom(self, index: int) -> Proof:
        """A proof of stream output ``index`` from the closure.

        Check it against the closure as theory: an EnumeratorIndexed over
        ``prefix_code`` (or a HostDecider over ``member``).
        """
        ax = self.axiom(index)
        if index == 0:
            return Proof((ProofStep(ax, TheoryAxiom(0)),))
        covering = self.prefix(index + 1)
        return Proof((
            ProofStep(covering, TheoryAxiom(index)),
            ProofStep(Imp(covering, ax), LogicalAxiom("and-elim-right")),
            ProofStep(ax, ModusPonens(0, 1)),
        ))

    def proof_of_prefix(self, index: int) -> Proof:
        """A proof of the closure's output ``index`` from the stream.

        Check it against an EnumeratorIndexed over ``enumerator_code``.
        """
        steps = [ProofStep(self.axiom(0), TheoryAxiom(0))]
        acc = self.axiom(0)
        acc_line = 0
        for i in range(1, index + 1):
            ax = self.axiom(i)
            steps.append(ProofStep(ax, TheoryAxiom(i)))
            ax_line = len(steps) - 1
            joined = And(acc, ax)
            steps.append(ProofStep(Imp(acc, Imp(ax, joined)),
                                   LogicalAxiom("and-intro")))
            steps.append(ProofStep(Imp(ax, joined),
                                   ModusPonens(acc_line, len(steps) - 1)))
            steps.append(ProofStep(joined,
                                   ModusPonens(ax_line, len(steps) - 1)))
            acc, acc_line = joined, len(steps) - 1
        return Proof(tuple(steps))


def _needs_parens_as_left_conjunct(f: Formula) -> bool:
    """Whether the printer wraps f when it is the left operand of '&'."""
    probe = format_formula(And(f, Eq(Num(0), Num(0))))
    return probe != format_formula(f) + " & 0 = 0"


def craig(enumerator_code: int, *, step_budget: int = 10 ** 6) -> CraigArtifact:
    """Build the decidable prefix-conjunction closure of a coded stream.

    The stream must be total and must emit sentence codes; both are the
    caller's obligation (they are not decidable).  The generated decider
    agrees with ``member`` on canonical sentence texts whenever every
    stream output prints bare as a right conjunct - true of every
    enumerator shipped here.
    """
    stream = EnumeratorIndexed(enumerator_code, memo=True)
    first, _, _ = stream.materialize(0, step_budget)
    if first is None:
        raise RuntimeError("the axiom stream yields no first sentence "
                           "within the step budget")
    wrap_first = int(_needs_parens_as_left_conjunct(first))
    decider = instantiate_template(
        "craig_decider",
        {"ENUM_CODE": enumerator_code, "FIRST_NEEDS_PARENS": wrap_first})
    prefixes = instantiate_template(
        "craig_enum",
        {"ENUM_CODE": enumerator_code, "FIRST_NEEDS_PARENS": wrap_first})
    return CraigArtifact(enumerator_code,
                         program_code(decider.source),
                         program_code(prefixes.source),
                         step_budget,
                         stream)


# --------------------------------------------------------------------------
# self-referential searchers

def kleene_sentence(enumerator_code: int) -> tuple[int, Formula]:
    """A sentence asserting its own proof-searcher never halts on itself.

    Instantiates the searcher that, on input x, hunts for a stream-proof
    of "no stage witnesses program x on input x"; with m the searcher's
    own code, returns (m, that sentence for x = m).  When the stream is
    sound and extends the true-record theory, the sentence is true but
    the searcher never finds a proof of it - running program m on input
    m is exactly that search.
    """
    program = instantiate_template("kleene_searcher",
                                   {"ENUM_CODE": enumerator_code})
    m = program_code(program.source)
    sentence = Not(Exists("z", Tau(Num(m), Num(m), Var("z"))))
    return m, sentence


@dataclass(frozen=True)
class RosserArtifact:
    """Two searcher programs racing over the sentence that compares them.

    ``negative`` (the sentence's first index) searches the stream for a
    proof of the negated comparison sentence; ``positive`` (the second
    index) searches for the sentence itself.  Both take the paired input
    pair(k, l) and search for the sentence comparing (k, l), so feeding
    them pair(negative, positive) makes each hunt a proof about the race
    itself.
    """

    negative: int
    positive: int
    sentence: Formula
    enumerator_code: int

    def __post_init__(self):
        if self.sentence != rosser_sentence(self.negative, self.positive):
            raise ValueError("sentence does not compare the two searchers")
        for code in (self.negative, self.positive):
            if program_from_code(code) is None:
                raise ValueError("searcher codes must decode to programs")

    def __repr__(self) -> str:
        return (f"RosserArtifact(negative={_code_repr(self.negative)}, "
                f"positive={_code_repr(self.positive)}, "
                f"sentence={_formula_repr(self.sentence)!r}, "
                f"enumerator_code={_code_repr(self.enumerator_code)})")


def rosser_pair(enumerator_code: int) -> RosserArtifact:
    """Build the racing searcher pair over a coded axiom stream.

    The stream is assumed total, consistent, and strong enough to settle
    bounded-run facts - none of which is verifiable; the construction
    itself is total.  The returned sentence says "some stage witnesses
    the negative searcher on the paired input, before any stage witnesses
    the positive one"; with a consistent stream neither searcher ever
    finds its proof, so neither program halts on pair(negative, positive).
    """
    positive = instantiate_template(
        "searcher", {"ENUM_CODE": enumerator_code, "POLARITY": "pos"})
    negative = instantiate_template(
        "searcher", {"ENUM_CODE": enumerator_code, "POLARITY": "neg"})
    n = program_code(negative.source)
    m = program_code(positive.source)
    return RosserArtifact(n, m, rosser_sentence(n, m), enumerator_code)


def plant_axiom(axiom: Formula | str, base_enumerator_code: int) -> int:
    """Code of a stream equal to the base one with ``axiom`` at index 0.

    The base stream's outputs all shift up by one index.  Planting the
    sentence some searcher hunts for gives that searcher a one-line proof
    to find, turning "the stream derives it" into an observable halt.
    """
    text = axiom if isinstance(axiom, str) else format_formula(axiom)
    parse_formula(text)
    program = instantiate_template(
        "planted_enum",
        {"AXIOM_TEXT": text, "BASE_CODE": base_enumerator_code})
    return program_code(program.source)


# --------------------------------------------------------------------------
# the halting diagonal

@dataclass(frozen=True)
class ContradictionReport:
    """Verdict on a claimed decider for "provable that some stage
    witnesses program n on input n".

    ``claimed`` is the decider's own verdict on the diagonal program's
    sentence (None when it gave none within the budget); ``observed``
    says whether the diagonal program halted on itself within the budget.
    ``refuted`` is set only with a concrete ``witness_step``: a halt at
    step t makes the bounded-run record at t a true axiom, so the
    sentence the decider rejected is derivable after all.  A report that
    does not refute always carries its proof-search outcome instead:
    ``searched_codes`` proof codes tried without success, or the
    ``found_proof_code`` that confirmed the decider's claim.
    """

    decider_code: int
    diagonal_code: int
    claimed: Optional[bool]
    observed: bool
    refuted: bool
    witness_step: Optional[int]
    searched_codes: Optional[int]
    found_proof_code: Optional[int]

    def __post_init__(self):
        if self.refuted and self.witness_step is None:
            raise ValueError("a refutation needs its halting witness")
        if not self.refuted and (self.searched_codes is None
                                 and self.found_proof_code is None):
            raise ValueError("a non-refuting report must carry its "
                             "proof-search outcome")

    def __repr__(self) -> str:
        return (f"ContradictionReport(decider_code="
                f"{_code_repr(self.decider_code)}, "
                f"diagonal_code={_code_repr(self.diagonal_code)}, "
                f"claimed={self.claimed}, observed={self.observed}, "
                f"refuted={self.refuted}, "
                f"witness_step={self.witness_step}, "
                f"searched_codes={self.searched_codes}, "
                f"found_proof_code={_code_repr(self.found_proof_code)})")


def diagonal(decider_code: int, *, step_budget: int = 10 ** 6,
             search_budget: int = 10 ** 4) -> ContradictionReport:
    """Confront a claimed provability decider with its own diagonal.

    Builds the program that asks the decider about "some stage witnesses
    me on myself" and does the opposite of the answer, then runs it on
    its own code.  If the decider answers 0 ("not provable"), the program
    halts - and the halt step itself witnesses a true bounded-run axiom
    making the sentence provable, refuting the decider.  Otherwise the
    report records the bounded simulation and a bounded search for an
    actual proof of the sentence from the true-record stream.
    """
    program = instantiate_template("diagonal", {"DECIDER_CODE": decider_code})
    e = program_code(program.source)
    sentence = Exists("z", Tau(Num(e), Num(e), Var("z")))
    answer = run_code(decider_code, program_code(format_formula(sentence)),
                      step_budget)
    claimed = None
    if answer is not None and answer.halted:
        claimed = output_code(answer) != 0
    machine = Machine(program, e, step_budget).run()
    observed = machine.halted
    if claimed is False and observed:
        return ContradictionReport(decider_code, e, claimed, observed,
                                   True, machine.steps, None, None)
    stream = EnumeratorIndexed(theory_T().enumerator_code, memo=True)
    found = prove_search(stream, sentence, search_budget, step_budget)
    if found is not None:
        return ContradictionReport(decider_code, e, claimed, observed,
                                   False, None, None, proof_to_code(found))
    return ContradictionReport(decider_code, e, claimed, observed,
                               False, None, search_budget, None)


# --------------------------------------------------------------------------
# the consistency-to-deviation reduction

@dataclass(frozen=True)
class RiceArtifact:
    """A stream that equals a base stream until a contradiction shows up.

    Output k is the base stream's output k - unless k decodes, as a
    structural proof code, to a valid proof of ``contradiction`` from the
    prefix-conjunction closure of the scrutinized stream, in which case
    output k is ``contradiction`` itself.  So the emitted stream deviates
    from the base one somewhere exactly when the scrutinized stream is
    inconsistent, and the deviation index is itself a proof of that.
    """

    enumerator_code: int
    base_code: int
    prefix_code: int
    contradiction: Formula
    step_budget: int
    _base: EnumeratorIndexed = field(repr=False, compare=False)

    def __repr__(self) -> str:
        return (f"RiceArtifact(enumerator_code="
                f"{_code_repr(self.enumerator_code)}, "
                f"base_code={_code_repr(self.base_code)}, "
                f"prefix_code={_code_repr(self.prefix_code)}, "
                f"contradiction={_formula_repr(self.contradiction)!r}, "
                f"step_budget={self.step_budget})")

    def axiom(self, index: int) -> Formula:
        """Host-side mirror of the emitted stream."""
        target_code = program_code(format_formula(self.contradiction))
        if check_coded_proof(self.prefix_code, index, target_code,
                             self.step_budget).ok:
            return self.contradiction
        got, _, _ = self._base.materialize(index, self.step_budget)
        if got is None:
            raise RuntimeError(f"the base stream produced no sentence at "
                               f"index {index} within the step budget")
        return got


def rice_reduce(scrutinized_code: int, base_code: int, trigger: Formula,
                *, step_budget: int = 10 ** 6) -> RiceArtifact:
    """Tie one stream's consistency to another stream's exact replay.

    ``trigger`` must be closed; the planted deviation sentence is
    "trigger & ~trigger".  Both streams must be total (caller's
    obligation).  The returned artifact's ``enumerator_code`` is a
    generated total program; its host mirror is ``axiom``.
    """
    names = free_vars(trigger)
    if names:
        raise FreeVariableError(names)
    closure = craig(scrutinized_code, step_budget=step_budget)
    contradiction = And(trigger, Not(trigger))
    program = instantiate_template("rice_enum", {
        "PREFIX_ENUM_CODE": closure.prefix_code,
        "TARGET_CODE": program_code(format_formula(contradiction)),
        "BASE_CODE": base_code,
    })
    return RiceArtifact(program_code(program.source), base_code,
                        closure.prefix_code, contradiction, step_budget,
                        EnumeratorIndexed(base_code, memo=True))
