"""Constructions: witness completion, prefix closures, searchers, reports.

Expected values were derived by hand before implementation: the first
witness axiom by walking the documented enumeration order, commitment
polarities from truth in the standard order model, the one-line-proof code
10 from the structural proof encoding, and the deviation index of the
shadowed stream as that same code.  Halting claims are pinned as behavior
(halted / not halted within an explicit budget), never as exact step
counts.
"""

import hashlib

import pytest

from taulab.codec import nat_to_decimal, pair, program_code
from taulab.constructions import (
    CONTRADICTION,
    CompletionState,
    ContradictionReport,
    RosserArtifact,
    _all_names,
    completeness_probe,
    craig,
    diagonal,
    henkin_complete,
    henkinize,
    kleene_sentence,
    plant_axiom,
    rice_reduce,
    rosser_pair,
)
from taulab.fol import (
    And,
    Eq,
    Exists,
    FolError,
    Forall,
    FreeVariableError,
    Imp,
    Less,
    Not,
    Num,
    Tau,
    Var,
    format_formula,
    parse_formula,
    rosser_sentence,
)
from taulab.proofs import (
    EnumeratorIndexed,
    HostDecider,
    Proof,
    ProofStep,
    TheoryAxiom,
    check_proof,
    proof_to_code,
    prove_search,
)
from taulab.theories import (
    TRUE_IN_STD,
    decide_order_theory,
    order_extension_derives,
    theory_T,
)
from taulab.tpl import Machine, output_code, program_from_code, tau, template_source

from conftest import random_order_sentences

S_CODE = program_code(template_source("enum_s"))
T_CODE = program_code(template_source("enum_t"))


# --------------------------------------------------------------------------
# witness constants

def test_first_witness_axiom():
    base = parse_formula("E x. 0 < x")
    extended = henkinize(["E x. 0 < x"], 1)
    assert extended == [base, Imp(base, Less(Num(0), Var("c1")))]


def test_budget_zero_leaves_theory_unchanged():
    assert henkinize(["E x. 0 < x"], 0) == [parse_formula("E x. 0 < x")]
    with pytest.raises(ValueError):
        henkinize([], -1)


def test_taken_constants_are_skipped():
    [_, axiom] = henkinize(["E x. x < c1"], 1)
    assert axiom == Imp(parse_formula("E x. x < c1"),
                        Less(Var("c2"), Var("c1")))


def test_witness_closure_is_deduplicated_and_exhausts():
    theory = [parse_formula("E x. 0 < x"),
              parse_formula("E y. y < #2"),
              parse_formula("A z. E w. z < w")]
    extended = henkinize(theory, 10)
    emitted = extended[3:]
    # one axiom per distinct existential subformula, including the one under
    # the universal quantifier and none for repeated antecedents
    assert emitted == [
        Imp(theory[0], Less(Num(0), Var("c1"))),
        Imp(theory[1], Less(Var("c2"), Num(2))),
        Imp(parse_formula("E w. z < w"), Less(Var("z"), Var("c3"))),
    ]
    assert henkinize(theory, 2) == extended[:5]


def test_emitted_constants_are_fresh_and_distinct():
    theory = [parse_formula("E x. E y. x < y"), parse_formula("E v. v = c2")]
    extended = henkinize(theory, 10)
    seen = set()
    for f in theory:
        seen |= _all_names(f)
    taken = set(seen)
    for axiom in extended[len(theory):]:
        fresh = _all_names(axiom) - taken
        assert len(fresh) == 1
        constant = fresh.pop()
        assert constant.startswith("c") and constant not in seen
        taken |= _all_names(axiom)


# --------------------------------------------------------------------------
# stepwise completion

def test_contradiction_is_the_fixed_refutation_target():
    assert format_formula(CONTRADICTION) == "0 = 0 & ~(0 = 0)"


def test_false_sentence_is_negated_true_one_asserted():
    stream = [parse_formula("A x. A y. x = y"),
              parse_formula("A x. A y. (x < y -> ~(y < x))")]
    state = henkin_complete(order_extension_derives, stream, 2)
    assert state.committed == ((stream[0], False), (stream[1], True))
    assert state.next_index == 2
    assert state.decide(stream[0]) is False
    assert state.decide(Not(stream[0])) is True
    assert state.decide(stream[1]) is True
    with pytest.raises(LookupError):
        state.decide(parse_formula("0 = 0"))


def test_completion_follows_standard_truth_and_stays_consistent():
    corpus = random_order_sentences(60, seed=7)
    state = henkin_complete(order_extension_derives, corpus, 60)
    for sentence, asserted in state.committed:
        assert asserted == (decide_order_theory(sentence) == TRUE_IN_STD)
    assert not order_extension_derives(state.committed_sentences(),
                                       CONTRADICTION)


def test_completion_replays_identically_and_prefixes_agree():
    corpus = random_order_sentences(25, seed=11)
    full = henkin_complete(order_extension_derives, corpus, 25)
    again = henkin_complete(order_extension_derives, corpus, 25)
    assert full.committed == again.committed
    half = henkin_complete(order_extension_derives, corpus, 12)
    assert full.committed[:12] == half.committed
    assert not order_extension_derives(half.committed_sentences(),
                                       CONTRADICTION)


def test_inconsistent_base_is_refused():
    with pytest.raises(ValueError):
        henkin_complete(lambda assumptions, goal: True, [], 0)
    with pytest.raises(FreeVariableError):
        henkin_complete(order_extension_derives, [parse_formula("x = x")], 1)
    with pytest.raises(ValueError):
        henkin_complete(order_extension_derives, [], -1)


# --------------------------------------------------------------------------
# completeness probe

def test_probe_is_clean_over_a_completed_prefix():
    corpus = random_order_sentences(40, seed=3)
    state = henkin_complete(order_extension_derives, corpus, 40)
    assert completeness_probe(state.decide, corpus) == []


def test_probe_is_clean_over_the_order_decider():
    corpus = random_order_sentences(80, seed=5)
    decide = lambda f: decide_order_theory(f) == TRUE_IN_STD
    assert completeness_probe(decide, corpus) == []


def test_probe_reports_both_and_neither():
    sentences = [parse_formula("0 = 0"), parse_formula("0 < #1")]
    assert completeness_probe(lambda f: True, sentences) == [
        (sentences[0], "both"), (sentences[1], "both")]
    assert completeness_probe(lambda f: False, sentences) == [
        (sentences[0], "neither"), (sentences[1], "neither")]


def test_probe_language_check():
    in_language = parse_formula("tau(0, 0, 0)")
    outside = parse_formula("pi(0, 0) = 0")
    language = theory_T().language
    decide = lambda f: f == in_language
    assert completeness_probe(decide, [in_language], language) == []
    with pytest.raises(ValueError, match="pi"):
        completeness_probe(decide, [outside], language)


# --------------------------------------------------------------------------
# prefix-conjunction closure

@pytest.fixture(scope="module")
def closure():
    return craig(S_CODE)


def test_first_axiom_and_prefixes_are_members(closure):
    first = closure.axiom(0)
    assert format_formula(first) == "A x. A y. (x < y -> ~(y < x))"
    assert closure.member(first)
    assert closure.member(closure.prefix(2))
    assert closure.member(closure.prefix(7))
    assert closure.prefix(2) == And(closure.axiom(0), closure.axiom(1))
    assert "-bit code" in repr(closure)


def test_non_members_are_rejected(closure):
    assert not closure.member(closure.axiom(1))        # later axiom alone
    assert not closure.member(parse_formula("0 = 0"))
    # right-nested variant of a genuine prefix
    rogue = And(closure.axiom(0), And(closure.axiom(1), closure.axiom(2)))
    assert not closure.member(rogue)
    with pytest.raises(ValueError):
        closure.prefix(0)


def _tpl_accepts(decider_code: int, sentence) -> bool:
    machine = Machine(program_from_code(decider_code),
                      program_code(format_formula(sentence)), 10 ** 6).run()
    assert machine.halted
    return output_code(machine) == 1


def test_generated_decider_agrees_with_host_membership(closure):
    cases = [closure.axiom(0), closure.prefix(2), closure.prefix(6),
             closure.axiom(1), closure.axiom(3),
             parse_formula("0 = 0"),
             And(closure.axiom(0), And(closure.axiom(1), closure.axiom(2)))]
    for sentence in cases:
        assert _tpl_accepts(closure.decider_code, sentence) == \
            closure.member(sentence), format_formula(sentence)


def test_generated_prefix_stream_matches_host(closure):
    program = program_from_code(closure.prefix_code)
    for k in (0, 1, 2, 5):
        machine = Machine(program, k, 10 ** 6).run()
        assert machine.halted
        assert output_code(machine) == \
            program_code(format_formula(closure.prefix(k + 1)))


def test_closure_handles_a_conjunction_as_first_axiom():
    doubled = parse_formula("0 = 0 & 0 = 0")
    planted = plant_axiom(doubled, S_CODE)
    art = craig(planted)
    assert art.member(doubled)
    assert not art.member(parse_formula("0 = 0"))
    two = art.prefix(2)
    assert two == And(doubled, art.axiom(1))
    assert art.member(two)
    assert _tpl_accepts(art.decider_code, doubled)
    assert _tpl_accepts(art.decider_code, two)
    assert not _tpl_accepts(art.decider_code, And(Eq(Num(0), Num(0)),
                                                  And(Eq(Num(0), Num(0)),
                                                      art.axiom(1))))


def test_equivalence_witness_proofs_check_both_ways(closure):
    closure_oracle = EnumeratorIndexed(closure.prefix_code, memo=True)
    stream_oracle = EnumeratorIndexed(S_CODE, memo=True)
    for i in (0, 1, 2, 5, 9):
        from_closure = closure.proof_of_axiom(i)
        assert check_proof(from_closure, closure_oracle, closure.axiom(i)).ok
        assert check_proof(from_closure, HostDecider(closure.member),
                           closure.axiom(i)).ok
        from_stream = closure.proof_of_prefix(i)
        assert check_proof(from_stream, stream_oracle,
                           closure.prefix(i + 1)).ok
    # the directions are not interchangeable: a closure proof cites
    # conjunctions the bare stream never emits
    assert not check_proof(closure.proof_of_axiom(2), stream_oracle,
                           closure.axiom(2)).ok


# --------------------------------------------------------------------------
# the self-referential searcher

def test_searcher_sentence_shape_is_bit_exact():
    m, sentence = kleene_sentence(S_CODE)
    digits = nat_to_decimal(m)
    assert sentence == Not(Exists("z", Tau(Num(m), Num(m), Var("z"))))
    assert format_formula(sentence) == \
        f"~(E z. tau(#{digits}, #{digits}, z))"
    assert program_from_code(m) is not None
    # deterministic: same stream, same artifact
    assert kleene_sentence(S_CODE) == (m, sentence)


def test_searcher_halts_iff_its_sentence_is_planted():
    m, sentence = kleene_sentence(S_CODE)
    planted_stream = plant_axiom(sentence, S_CODE)
    planted_searcher, _ = kleene_sentence(planted_stream)
    run = Machine(program_from_code(planted_searcher), m, 10 ** 6).run()
    assert run.halted
    honest = Machine(program_from_code(m), m, 150_000).run()
    assert not honest.halted and honest.fault is None


# --------------------------------------------------------------------------
# the racing pair

@pytest.fixture(scope="module")
def racing():
    return rosser_pair(S_CODE)


def test_racing_pair_artifact_shape(racing):
    assert racing.negative != racing.positive
    assert racing.sentence == rosser_sentence(racing.negative, racing.positive)
    assert program_from_code(racing.negative) is not None
    assert program_from_code(racing.positive) is not None
    assert racing.enumerator_code == S_CODE
    # codes are too large for decimal display; repr must stay printable
    assert "-bit code" in repr(racing)


def test_racing_pair_validation():
    good = rosser_pair(S_CODE)
    with pytest.raises(ValueError, match="compare"):
        RosserArtifact(good.positive, good.negative, good.sentence, S_CODE)
    with pytest.raises(ValueError, match="decode"):
        RosserArtifact(1, good.positive,
                       rosser_sentence(1, good.positive), S_CODE)


def _code_digest(code: int) -> str:
    return hashlib.sha256(format(code, "x").encode()).hexdigest()[:16]


def test_racing_pair_codes_are_pinned(racing):
    # sha256 of the hex codes, frozen from the build that printed the
    # stream's numeral once for both searchers
    assert (_code_digest(racing.negative), _code_digest(racing.positive)) == (
        "693dd591e8652d2a", "2498e7a2de83cf9b")
    stream = plant_axiom(racing.sentence, S_CODE)
    planted = rosser_pair(stream)
    assert (stream.bit_length(), planted.negative.bit_length()) == (893_745, 2_163_529)
    assert (_code_digest(stream), _code_digest(planted.negative),
            _code_digest(planted.positive)) == (
        "a42feabc4c384693", "e4958c5020b2902b", "5b24e2a089c674b8")


def test_positive_searcher_halts_when_the_sentence_is_planted(racing):
    planted = rosser_pair(plant_axiom(racing.sentence, S_CODE))
    probe = pair(racing.negative, racing.positive)
    run = Machine(program_from_code(planted.positive), probe, 10 ** 6).run()
    assert run.halted


def test_negative_searcher_halts_when_the_negation_is_planted(racing):
    negated = "~(" + format_formula(racing.sentence) + ")"
    planted = rosser_pair(plant_axiom(negated, S_CODE))
    probe = pair(racing.negative, racing.positive)
    run = Machine(program_from_code(planted.negative), probe, 10 ** 6).run()
    assert run.halted


def test_honest_searchers_keep_searching(racing):
    probe = pair(racing.negative, racing.positive)
    run = Machine(program_from_code(racing.positive), probe, 150_000).run()
    assert not run.halted and run.fault is None


def test_searchers_fault_on_non_pairs(racing):
    # 3 is not in the range of the pairing function
    run = Machine(program_from_code(racing.positive), 3, 50_000).run()
    assert not run.halted and run.fault is not None


# --------------------------------------------------------------------------
# planted streams

def test_planted_stream_shifts_the_base_stream():
    planted = plant_axiom(parse_formula("0 < #1"), S_CODE)
    program = program_from_code(planted)
    base = program_from_code(S_CODE)
    first = Machine(program, 0, 10 ** 5).run()
    assert output_code(first) == program_code("0 < #1")
    for k in (0, 1, 6):
        shifted = Machine(program, k + 1, 10 ** 6).run()
        original = Machine(base, k, 10 ** 5).run()
        assert output_code(shifted) == output_code(original)


def test_planted_axiom_text_is_validated():
    with pytest.raises(FolError):
        plant_axiom("0 <", S_CODE)


# --------------------------------------------------------------------------
# the diagonal report

def test_always_no_decider_is_refuted_with_a_witness():
    report = diagonal(program_code("out = 0; halt;"), search_budget=100)
    assert report.claimed is False
    assert report.observed and report.refuted
    assert report.witness_step is not None
    assert tau(report.diagonal_code, report.diagonal_code,
               report.witness_step)
    assert report.searched_codes is None


def test_always_yes_decider_gets_a_failed_search():
    report = diagonal(program_code("out = 1; halt;"), search_budget=2_000)
    assert report.claimed is True
    assert not report.observed and not report.refuted
    assert report.witness_step is None
    assert report.searched_codes == 2_000
    assert report.found_proof_code is None
    assert "claimed=True" in repr(report) and "-bit code" in repr(report)


def test_silent_decider_yields_an_inconclusive_searched_report():
    report = diagonal(program_code("while (1) { }"),
                      step_budget=30_000, search_budget=500)
    assert report.claimed is None
    assert not report.observed and not report.refuted
    assert report.searched_codes == 500


def test_report_invariants_are_enforced():
    with pytest.raises(ValueError):
        ContradictionReport(0, 0, False, True, True, None, None, None)
    with pytest.raises(ValueError):
        ContradictionReport(0, 0, True, False, False, None, None, None)


# --------------------------------------------------------------------------
# the consistency-to-deviation reduction

def test_reduction_replays_the_base_stream_verbatim():
    art = rice_reduce(T_CODE, S_CODE, parse_formula("0 < #1"))
    assert "-bit code" in repr(art)
    program = program_from_code(art.enumerator_code)
    base = program_from_code(S_CODE)
    for k in range(0, 41, 5):
        ours = Machine(program, k, 10 ** 6).run()
        theirs = Machine(base, k, 10 ** 5).run()
        assert ours.halted
        assert output_code(ours) == output_code(theirs), k
        assert art.axiom(k) == art._base.materialize(k, 10 ** 5)[0]


def test_reduction_deviates_exactly_at_a_contradiction_proof():
    psi = parse_formula("0 < #1")
    contradiction = And(psi, Not(psi))
    tainted = plant_axiom(contradiction, T_CODE)
    art = rice_reduce(tainted, S_CODE, psi)
    assert art.contradiction == contradiction
    deviation = proof_to_code(Proof((ProofStep(contradiction,
                                               TheoryAxiom(0)),)))
    assert deviation == 10
    run = Machine(program_from_code(art.enumerator_code), deviation,
                  10 ** 6).run()
    assert run.halted
    assert output_code(run) == program_code(format_formula(contradiction))
    assert art.axiom(deviation) == contradiction
    # neighbours still replay the base stream
    base = program_from_code(S_CODE)
    for k in (deviation - 1, deviation + 1):
        ours = Machine(program_from_code(art.enumerator_code), k, 10 ** 6).run()
        assert output_code(ours) == output_code(Machine(base, k, 10 ** 5).run())


def test_reduction_requires_a_closed_trigger():
    with pytest.raises(FreeVariableError):
        rice_reduce(T_CODE, S_CODE, parse_formula("x = x"))
