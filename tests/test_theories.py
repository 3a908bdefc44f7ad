"""Theories: axiom oracles, enumerations, the order decider, evaluation.

Expected truth values in the hand-written decider cases were worked out on
paper from the standard order of the naturals before the eliminator ran.
"""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from conftest import _at_the_default_recursion_limit, random_order_sentences

from taulab.codec import pair, program_code
from taulab.fol import (
    Eq, Exists, Forall, Formula, Iff, Less, Not, Num, Or, Pi, Tau, Var,
    FreeVariableError, conjoin_left, disjoin_right, format_formula,
    parse_formula, parse_sentence, substitute, walk,
)
from taulab.theories import (
    FALSE_IN_STD, FALSUM, ORDER_AXIOMS, PADDING, TRUE_IN_STD,
    TheoryHandle, UnsupportedTermError, Verdict,
    axiom_member_S, axiom_member_T, closed_tau_args, decide_order_theory,
    enumerate_axioms, eval_std, order_extension_derives,
    order_truth, segment_axiom, segment_axiom_index, tau_atom, theory_S,
    theory_T, theory_by_name, unknown,
)
from taulab.theories import _to_internal
from taulab.tpl import Machine, output_code, parse_program, template_source

HALTER = program_code("halt;")
LOOPER = program_code("while (1) { }")


# --------------------------------------------------------------------------
# fixed axioms and segment instances

def test_there_are_six_order_axioms_all_closed():
    assert len(ORDER_AXIOMS) == 6
    assert len(set(ORDER_AXIOMS)) == 6


def test_segment_axiom_prints_canonically():
    assert format_formula(segment_axiom(0)) == "A x. (x < 0 <-> ~(0 = 0))"
    assert format_formula(segment_axiom(1)) == "A x. (x < #1 <-> x = 0)"
    assert format_formula(segment_axiom(2)) == "A x. (x < #2 <-> x = 0 | x = #1)"
    assert format_formula(segment_axiom(4)) == \
        "A x. (x < #4 <-> x = 0 | x = #1 | x = #2 | x = #3)"


def test_segment_axiom_index_roundtrip():
    for k in range(60):
        assert segment_axiom_index(segment_axiom(k)) == k


def _fresh_segment_axiom(k: int) -> Formula:
    """segment_axiom built with no shared node: the reference."""
    body = FALSUM if k == 0 else disjoin_right([Eq(Var("x"), Num(i)) for i in range(k)])
    return Forall("x", Iff(Less(Var("x"), Num(k)), body))


def test_segment_axioms_share_their_atoms_and_equal_the_reference():
    for k in (7, 3, 0, 12, 12, 1, 30, 5):  # the atom table grows out of order
        f = segment_axiom(k)
        assert f == _fresh_segment_axiom(k)
        assert format_formula(f) == format_formula(_fresh_segment_axiom(k))
        assert parse_sentence(format_formula(f)) == f
    first, second = segment_axiom(9).body, segment_axiom(4).body
    assert first.left.left is second.left.left  # the guard's x
    assert first.right.right.left is second.right.right.left  # x = #1


SEGMENT_IMPOSTORS = [
    "A x. (x < #2 <-> x = #1 | x = 0)",            # disjuncts out of order
    "A x. (x < #2 <-> x = 0)",                     # disjunct missing
    "A x. (x < #2 <-> x = 0 | x = #1 | x = #2)",   # disjunct extra
    "A y. (y < #2 <-> y = 0 | y = #1)",            # variable renamed
    "A x. (x < #2 -> x = 0 | x = #1)",             # implication, not iff
    "A x. (x = 0 | x = #1 <-> x < #2)",            # sides swapped
    "A x. (x < 0 <-> 0 = 0)",                      # wrong empty case
    "E x. (x < #2 <-> x = 0 | x = #1)",            # wrong quantifier
]


@pytest.mark.parametrize("text", SEGMENT_IMPOSTORS)
def test_segment_axiom_recognition_is_exact(text):
    assert segment_axiom_index(parse_sentence(text)) is None


def test_left_nested_disjunction_is_not_canonical():
    x = Var("x")
    lopsided = Forall("x", Iff(
        Less(x, Num(3)),
        Or(Or(Eq(x, Num(0)), Eq(x, Num(1))), Eq(x, Num(2)))))
    assert segment_axiom_index(lopsided) is None
    assert segment_axiom_index(segment_axiom(3)) == 3


@pytest.mark.parametrize("k", [3, 8, 41])
def test_segment_near_misses_inside_the_spine(k):
    x = Var("x")
    mid = k // 2

    def segment(disjuncts):
        return Forall("x", Iff(Less(x, Num(k)), disjoin_right(disjuncts)))

    canon = [Eq(x, Num(i)) for i in range(k)]
    assert segment_axiom_index(segment(canon)) == k
    variants = {
        "wrong numeral": {mid: Eq(x, Num(mid + 1))},
        "sides swapped": {mid: Eq(Num(mid), x)},
        "other variable": {mid: Eq(Var("y"), Num(mid))},
    }
    for what, change in variants.items():
        disjuncts = [change.get(i, d) for i, d in enumerate(canon)]
        assert segment_axiom_index(segment(disjuncts)) is None, what
    assert segment_axiom_index(segment(canon + [Eq(x, Num(k))])) is None


def test_segment_index_by_shared_atoms_keeps_the_structural_answers():
    k = 40
    f = segment_axiom(k)
    atoms = [f.body.right]
    while type(atoms[-1]) is Or:
        atoms[-1:] = [atoms[-1].left, atoms[-1].right]
    extra = segment_axiom(k + 1).body.right
    while type(extra) is Or:
        extra = extra.right     # the shared x = #k

    def segment(disjuncts, bound=k):
        return Forall("x", Iff(Less(Var("x"), Num(bound)), disjoin_right(disjuncts)))

    assert segment(atoms) == f and segment_axiom_index(segment(atoms)) == k
    # an equal atom that is not the shared one is recognised structurally
    for i in (0, 1, k // 2, k - 1):
        copy = atoms[:i] + [Eq(Var("x"), Num(i))] + atoms[i + 1:]
        assert segment_axiom_index(segment(copy)) == k
    assert segment_axiom_index(segment([atoms[0], Eq(Var("x"), Num(1))], 2)) == 2
    misses = {
        "wrong last index": atoms[:-1] + [extra],
        "wrong first index": [atoms[1]] + atoms[1:],
        "wrong variable": atoms[:5] + [Eq(Var("y"), Num(5))] + atoms[6:],
        "an Or for the atom": atoms[:5] + [Or(atoms[5], atoms[5])] + atoms[6:],
        "an Or for the last atom": atoms[:-1] + [Or(atoms[-1], atoms[-1])],
        "one disjunct extra": atoms + [extra],
    }
    for what, disjuncts in misses.items():
        assert segment_axiom_index(segment(disjuncts)) is None, what
    assert segment_axiom_index(segment([atoms[0]], 2)) is None
    assert segment_axiom_index(segment(atoms, k + 1)) is None
    # past the shared table only the structural test can answer
    import taulab.theories as theories
    m = len(theories._x_equals) + 3
    beyond = [atoms[0]] + [Eq(Var("x"), Num(i)) for i in range(1, m)]
    assert segment_axiom_index(segment(beyond, m)) == m
    assert segment_axiom_index(segment(beyond[:-1] + [Eq(Var("x"), Num(m))], m)) is None


# Recursive paths: these sizes work only because importing taulab raises the
# recursion limit (each raises RecursionError at Python's default limit).

def test_substitution_into_a_large_segment_axiom():
    k = 10_000
    got = substitute(segment_axiom(k).body, "x", Num(3))
    assert got == Iff(Less(Num(3), Num(k)),
                      disjoin_right([Eq(Num(3), Num(i)) for i in range(k)]))


def test_order_truth_of_a_long_left_nested_conjunction():
    assert order_truth(conjoin_left([Less(Num(i), Num(i + 1)) for i in range(10_000)]))


def test_closed_tau_args():
    assert closed_tau_args(tau_atom(4, 5, 6)) == (4, 5, 6)
    assert closed_tau_args(parse_formula("tau(x, 0, 0)")) is None
    assert closed_tau_args(PADDING) is None


# --------------------------------------------------------------------------
# membership oracles

def test_order_axioms_belong_to_both_theories():
    for axiom in ORDER_AXIOMS:
        assert axiom_member_T(axiom)
        assert axiom_member_S(axiom)


def test_true_records_belong_false_ones_do_not():
    assert axiom_member_T(tau_atom(HALTER, 0, 5))
    assert not axiom_member_T(tau_atom(LOOPER, 0, 5))
    assert not axiom_member_T(tau_atom(HALTER, 0, 0))   # needs one step


def test_signed_membership():
    assert axiom_member_S(Not(tau_atom(LOOPER, 0, 5)))
    assert not axiom_member_S(Not(tau_atom(HALTER, 0, 5)))
    assert axiom_member_S(segment_axiom(0))
    assert axiom_member_S(segment_axiom(17))
    assert not axiom_member_T(segment_axiom(17))


def test_padding_is_a_member_but_strays_are_not():
    assert axiom_member_T(PADDING)
    assert axiom_member_S(PADDING)
    for stray in (FALSUM, parse_formula("0 < #1"), parse_formula("A x. x = x"),
                  parse_formula("0 = s(0)"), parse_formula("s(0) = s(0)")):
        assert not axiom_member_T(stray)
        assert not axiom_member_S(stray)


def test_record_complementarity():
    rng = random.Random(7)
    program_pool = [HALTER, LOOPER, program_code("out = in; halt;"),
                    program_code("while (in < 3) { in = in + 1; } halt;")]
    for _ in range(500):
        e = rng.choice(program_pool) if rng.random() < 0.5 else rng.randrange(10**6)
        atom = tau_atom(e, rng.randrange(30), rng.randrange(30))
        assert axiom_member_T(atom) != axiom_member_S(Not(atom))


# --------------------------------------------------------------------------
# enumeration

def test_enumeration_starts_with_the_order_axioms():
    for theory in ("T", "S"):
        for i in range(6):
            assert enumerate_axioms(theory, i) == ORDER_AXIOMS[i]


def test_enumeration_known_slots():
    assert enumerate_axioms("T", 6) == tau_atom(0, 0, 0)
    assert enumerate_axioms("S", 6) == tau_atom(0, 0, 0)
    assert enumerate_axioms("S", 7) == segment_axiom(0)
    assert enumerate_axioms("S", 11) == segment_axiom(2)
    assert enumerate_axioms("S", 20) == PADDING                 # offset 14 -> 7, not a pair
    assert enumerate_axioms("S", 108) == Not(tau_atom(1, 0, 5)) # 51 = ((1,0),5)
    assert enumerate_axioms("T", 6 + 7) == PADDING
    halting_slot = 6 + pair(pair(HALTER, 0), 5)
    assert enumerate_axioms("T", halting_slot) == tau_atom(HALTER, 0, 5)
    assert enumerate_axioms("S", 6 + 2 * pair(pair(HALTER, 0), 5)) == tau_atom(HALTER, 0, 5)


def test_enumeration_rejects_junk():
    with pytest.raises(ValueError):
        enumerate_axioms("Q", 0)
    with pytest.raises(ValueError):
        enumerate_axioms("T", -1)


@pytest.mark.parametrize("name", ["T", "S"])
def test_host_enumeration_matches_the_tpl_enumerator(name):
    program = parse_program(template_source(f"enum_{name.lower()}"))
    for i in range(501):
        machine = Machine(program, i, 400_000).run()
        assert machine.halted, f"enumerator did not halt at index {i}"
        expected = program_code(format_formula(enumerate_axioms(name, i)))
        assert output_code(machine) == expected, f"disagreement at index {i}"


def test_enumerated_prefix_is_sound_and_in_range():
    for i in range(301):
        axiom = enumerate_axioms("S", i)
        assert axiom_member_S(axiom)
        assert eval_std(axiom, budget=64) == TRUE_IN_STD
    for i in range(2001):
        axiom = enumerate_axioms("T", i)
        assert axiom_member_T(axiom)
        if closed_tau_args(axiom):
            assert eval_std(axiom, budget=64) == TRUE_IN_STD


# --------------------------------------------------------------------------
# theory handles

def test_theory_handles():
    t, s = theory_T(), theory_S()
    assert isinstance(t, TheoryHandle) and isinstance(s, TheoryHandle)
    assert t.enumerator_code == program_code(template_source("enum_t"))
    assert s.enumerator_code == program_code(template_source("enum_s"))
    assert t.language == s.language == frozenset({"0", "s", "<", "tau"})
    assert t.axiom_membership is axiom_member_T
    assert theory_by_name("T") is t and theory_by_name("S") is s
    assert s.enumerate(7) == segment_axiom(0)
    with pytest.raises(ValueError):
        theory_by_name("X")


# --------------------------------------------------------------------------
# verdicts

def test_verdict_shapes():
    assert str(TRUE_IN_STD) == "true-in-std"
    assert str(unknown(99)) == "unknown(99)"
    with pytest.raises(ValueError):
        Verdict("maybe")
    with pytest.raises(ValueError):
        Verdict("unknown")                 # budgeted kind without budget
    with pytest.raises(ValueError):
        Verdict("true-in-std", budget=5)   # unbudgeted kind with budget


# --------------------------------------------------------------------------
# the order decider

DECIDER_CASES = [
    ("A x. A y. x = y", False),
    ("E x. 0 < x", True),
    ("E x. (0 < x & x < #2 & ~(x = #1))", False),
    ("E x. (0 < x & x < #3 & ~(x = #1))", True),
    ("A x. E y. s(s(s(x))) < y", True),
    ("E x. A y. ~(y < x)", True),
    ("E x. A y. x < y", False),
    ("A x. E y. y < x", False),
    ("A x. (x < #3 -> x = 0 | x = #1 | x = #2)", True),
    ("A x. (x < #3 <-> x = 0 | x = #1)", False),
    ("E v. #4 = s(v)", True),
    ("E v. 0 = s(v)", False),
    ("A x. E y. x = y", True),
    ("A x. A y. E z. (x < z | y < z) & ~(z = x)", True),
    ("A x. (E y. x = s(s(y))) -> #1 < x | #1 = x", True),
    ("0 < #1 & #1 < #2", True),
    ("s(0) = #1", True),
    ("A x. A y. A z. tau(x, y, z)", True),      # records totalized away
    ("~tau(0, 0, 0)", False),
]


@pytest.mark.parametrize("text,expected", DECIDER_CASES)
def test_decider_hand_cases(text, expected):
    assert order_truth(parse_sentence(text)) is expected
    verdict = decide_order_theory(parse_sentence(text))
    assert verdict == (TRUE_IN_STD if expected else FALSE_IN_STD)


def test_decider_accepts_every_order_axiom():
    for axiom in ORDER_AXIOMS:
        assert decide_order_theory(axiom) == TRUE_IN_STD


def test_decider_accepts_segment_axioms():
    for k in (0, 1, 2, 5, 17):
        assert decide_order_theory(segment_axiom(k)) == TRUE_IN_STD


def test_decider_rejects_pairing_terms():
    with pytest.raises(UnsupportedTermError):
        decide_order_theory(parse_sentence("E x. pi(x, 0) = 0"))
    # but pairing inside a totalized record is erased before term analysis
    assert order_truth(parse_sentence("tau(pi(0, 0), 0, 0)")) is True


def test_decider_requires_sentences():
    with pytest.raises(FreeVariableError):
        decide_order_theory(parse_formula("x = x"))


# the decider finds a free variable while it translates; an open sentence
# is refused with the same text whatever else is wrong with it
OPEN_SENTENCES = [
    ("x = x", "x"),
    ("tau(x, 0, #5)", "x"),
    ("A y. tau(y, z, 0)", "z"),
    ("pi(x, 0) = 0", "x"),                  # outranks the pairing term
    ("E y. pi(y, 0) = 0 & tau(w, y, 0)", "w"),
    ("A x. (x < y -> E y. s(y) = x & z < y)", "y, z"),
]


@pytest.mark.parametrize("text, names", OPEN_SENTENCES)
def test_decider_refuses_open_sentences_with_their_names(text, names):
    for decide in (order_truth, decide_order_theory):
        with pytest.raises(FreeVariableError) as raised:
            decide(parse_formula(text))
        assert str(raised.value) == f"sentence required, free variables: {names}"


def test_a_term_passed_as_a_sentence_fails_as_before():
    # a closed term is not a formula, pairing term or not; an open one is
    # refused as open
    closed = [Num(0), Pi(Num(0), Num(1)), Not(Pi(Num(0), Num(1)))]
    for decide in (order_truth, decide_order_theory):
        for t in closed:
            with pytest.raises(TypeError, match="^not a formula: "):
                decide(t)
        for t, names in [(Var("x"), "x"), (Pi(Var("y"), Num(0)), "y")]:
            with pytest.raises(FreeVariableError) as raised:
                decide(t)
            assert str(raised.value) == f"sentence required, free variables: {names}"


def test_an_open_sentence_past_the_size_cap_is_refused_as_open(monkeypatch):
    import taulab.theories as theories
    monkeypatch.setattr(theories, "_DNF_TERM_CAP", 1)
    left = "E x. ((x < #5 | #6 < x) & (x < #7 | #8 < x))"
    with pytest.raises(RuntimeError):       # the cap fails before y is read
        order_truth(parse_sentence(f"({left}) & 0 = 0"))
    for decide in (order_truth, decide_order_theory):
        with pytest.raises(FreeVariableError) as raised:
            decide(parse_formula(f"({left}) & y = 0"))
        assert str(raised.value) == "sentence required, free variables: y"


def test_an_open_deep_negation_chain_is_refused_as_open():
    # at the default limit the translation overflows before it meets x
    _at_the_default_recursion_limit(
        "from taulab.fol import FreeVariableError, parse_formula",
        "from taulab.theories import decide_order_theory, order_truth",
        "def chain(atom): return parse_formula('~(' * 3000 + atom + ')' * 3000)",
        "try:",
        "    order_truth(chain('0 = 0'))",
        "    raise AssertionError('no overflow')",
        "except RecursionError:",
        "    pass",
        "for decide in (order_truth, decide_order_theory):",
        "    try:",
        "        decide(chain('s(x) = 0'))",
        "        raise AssertionError('decided')",
        "    except FreeVariableError as e:",
        "        assert str(e) == 'sentence required, free variables: x', e",
    )
    with pytest.raises(FreeVariableError) as raised:
        order_truth(parse_formula("~(" * 3000 + "s(x) = 0" + ")" * 3000))
    assert str(raised.value) == "sentence required, free variables: x"


def test_decider_agrees_with_the_scan_oracle():
    for sentence in random_order_sentences(300, seed=20140918):
        verdict = eval_std(sentence, budget=0)
        assert verdict in (TRUE_IN_STD, FALSE_IN_STD)   # exact fragment
        assert order_truth(sentence) is (verdict == TRUE_IN_STD), \
            format_formula(sentence)


def test_order_extension_derivability():
    a, b = parse_sentence("0 < #1"), parse_sentence("0 < #2")
    assert order_extension_derives([], ORDER_AXIOMS[0])
    assert order_extension_derives([a], b)
    assert not order_extension_derives([a], parse_sentence("#1 < 0"))
    assert order_extension_derives([FALSUM], parse_sentence("#1 < 0"))
    assert order_extension_derives([a, parse_sentence("#1 < #2")], b)


def _tau_to_truth(f):
    if isinstance(f, Tau):
        return Eq(Num(0), Num(0))
    fields = (getattr(f, name) for name in type(f).__match_args__)
    return type(f)(*(_tau_to_truth(v) if isinstance(v, Formula) else v for v in fields))


def test_the_order_decider_takes_every_tau_atom_as_true():
    # closed records are not run: code 1 decodes to no program, so the
    # record is false in the standard model, yet the decider says true
    record = parse_sentence("tau(#1, 0, #5)")
    assert decide_order_theory(record) == TRUE_IN_STD
    assert eval_std(record) == FALSE_IN_STD
    for text in (f"tau(#{HALTER}, 0, 0) & 0 = 0",
                 f"A x. (tau(#{HALTER}, x, x) -> x < #3)",
                 "E x. (~tau(x, 0, x) & x < #2)",
                 "A x. E y. (x < y & (tau(y, x, #4) <-> ~(y = s(x))))",
                 f"~tau(#{LOOPER}, 0, #5) | 0 < 0"):
        f = parse_sentence(text)
        assert order_truth(f) is order_truth(_tau_to_truth(f)), text


# --------------------------------------------------------------------------
# standard-model evaluation

def test_eval_closed_records():
    assert eval_std(tau_atom(HALTER, 0, 5)) == TRUE_IN_STD
    assert eval_std(tau_atom(LOOPER, 0, 5)) == FALSE_IN_STD
    assert eval_std(Not(tau_atom(LOOPER, 0, 5))) == TRUE_IN_STD


def test_eval_halting_search():
    witness = parse_sentence(f"E z. tau(#{HALTER}, 0, z)")
    assert eval_std(witness, budget=10) == TRUE_IN_STD
    hopeless = parse_sentence(f"E z. tau(#{LOOPER}, 0, z)")
    assert eval_std(hopeless, budget=50) == unknown(50)
    assert eval_std(hopeless, budget=0) == unknown(0)
    # a universal over records can still be refuted by a concrete witness
    refuted = parse_sentence(f"A z. ~tau(#{HALTER}, 0, z)")
    assert eval_std(refuted, budget=10) == FALSE_IN_STD


def test_eval_budget_verdicts_are_consistent():
    hopeless = parse_sentence(f"E z. tau(#{LOOPER}, 0, z)")
    seen = {eval_std(hopeless, budget=b).kind for b in (0, 5, 50)}
    assert "true-in-std" not in seen or "false-in-std" not in seen


def test_eval_pure_fragment_is_exact_even_at_budget_zero():
    assert eval_std(parse_sentence("A x. E y. x < y"), budget=0) == TRUE_IN_STD
    assert eval_std(parse_sentence("E x. A y. x < y"), budget=0) == FALSE_IN_STD
    assert eval_std(parse_sentence("A x. E y. s(s(s(x))) < y"), budget=0) == TRUE_IN_STD
    assert eval_std(parse_sentence("A y < #3. y < #5"), budget=0) == TRUE_IN_STD


def test_eval_pairing_atoms():
    assert eval_std(parse_sentence("pi(#1, #2) = #10")) == TRUE_IN_STD
    assert eval_std(parse_sentence("E x. pi(x, x) = #18"), budget=5) == TRUE_IN_STD
    assert eval_std(parse_sentence("E x. pi(x, x) = #12"), budget=50) == unknown(50)


_LOOP_SEARCH = f"(E x. tau(#{LOOPER}, 0, x))"


@pytest.mark.parametrize("text, verdict", [
    (f"{_LOOP_SEARCH} | 0 = #1", unknown(20)),
    (f"{_LOOP_SEARCH} & 0 = 0", unknown(20)),
    (f"0 = 0 -> {_LOOP_SEARCH}", unknown(20)),
    (f"{_LOOP_SEARCH} <-> 0 = 0", unknown(20)),
    (f"A y. ({_LOOP_SEARCH} | y = y)", unknown(20)),
    (f"{_LOOP_SEARCH} -> 0 = 0", TRUE_IN_STD),
    (f"{_LOOP_SEARCH} | 0 = 0", TRUE_IN_STD),
    (f"{_LOOP_SEARCH} & 0 = #1", FALSE_IN_STD),
])
def test_eval_connectives_are_three_valued(text, verdict):
    # an unsettled operand decides nothing unless the other one does
    assert eval_std(parse_sentence(text), budget=20) == verdict


def test_eval_requires_sentences():
    with pytest.raises(FreeVariableError):
        eval_std(parse_formula("x = x"))
    with pytest.raises(ValueError):
        eval_std(PADDING, budget=-1)


def _gap_at_least(low: str, high: str, k: int, counter: list[int]) -> str:
    """Formula text forcing high >= low + 2^k, with quantifier depth k."""
    counter[0] += 1
    mid = f"g{counter[0]}"
    if k == 1:
        return f"E {mid}. ({low} < {mid} & {mid} < {high})"
    left = _gap_at_least(low, mid, k - 1, counter)
    right = _gap_at_least(mid, high, k - 1, counter)
    return f"E {mid}. (({left}) & ({right}))"


def test_eval_exact_on_doubling_gap_sentences():
    # Halving tricks let a depth-k prefix demand witnesses of size 2^(k-1),
    # so any witness ceiling linear in the quantifier depth would misread
    # these as false.  The least w with an 8-gap below it is exactly 8.
    counter = [0]
    body = _gap_at_least("0", "w", 3, counter)
    just_enough = parse_sentence(f"E w. (({body}) & w < #9)")
    too_tight = parse_sentence(f"E w. (({body}) & w < #8)")
    assert eval_std(just_enough, budget=0) == TRUE_IN_STD
    assert eval_std(too_tight, budget=0) == FALSE_IN_STD
    assert decide_order_theory(just_enough) == TRUE_IN_STD
    assert decide_order_theory(too_tight) == FALSE_IN_STD


def test_eval_std_of_a_deep_segment_axiom_at_the_default_recursion_limit():
    # the quantifier profile walks a body with an explicit stack
    _at_the_default_recursion_limit(
        "from taulab.theories import TRUE_IN_STD, eval_std, segment_axiom",
        "assert eval_std(segment_axiom(1200)) == TRUE_IN_STD",
    )


# --------------------------------------------------------------------------
# frozen digests of the eliminator's residues and the evaluator's verdicts,
# so that a rewrite of either keeps every internal form it builds

def _outermost_body(f: Formula):
    """The body of f's first quantifier in preorder, its variable named "x"
    inside, or f itself when f has no quantifier."""
    q = next((n for n in walk(f) if isinstance(n, (Forall, Exists))), None)
    return (f, {}) if q is None else (q.body, {q.var: "x"})


def test_frozen_eliminator_residues():
    h = hashlib.sha256()
    open_bodies = 0
    for sentence in random_order_sentences(2000, seed=20261018):
        body, names = _outermost_body(sentence)
        open_bodies += bool(names)
        for positive in (True, False):
            fresh = (f"v{i}" for i in itertools.count())
            h.update(repr(_to_internal(body if positive else Not(body), names, fresh)).encode())
        h.update(b"T" if order_truth(sentence) else b"F")
    assert (open_bodies, h.hexdigest()[:16]) == (1158, "3f1baa2b5676cc65")


@pytest.mark.parametrize("n", [2, 8, 16, 30])
def test_iff_chain_translation_is_linear(monkeypatch, n):
    # a quantifier-free side of <-> is negated as translated, not translated
    # again, so the n-atom chain costs 2n - 1 calls, not 2^(n+1) - 3
    import taulab.theories as theories
    calls = 0
    translate = theories._to_internal

    def counted(*args):
        nonlocal calls
        calls += 1
        assert calls < 2 * n, "the translation is not linear"  # stop an exponential run early
        return translate(*args)
    monkeypatch.setattr(theories, "_to_internal", counted)
    assert order_truth(parse_sentence(" <-> ".join(["0 < #1"] * n))) is True
    assert calls == 2 * n - 1


@pytest.mark.parametrize("text, quantifiers", [
    ("(E x. x < #1) <-> (E y. y < #2)", 2),
    ("A z. ((E x. x < z) <-> (E y. s(y) = z))", 3),
])
def test_each_quantifier_is_eliminated_once(monkeypatch, text, quantifiers):
    # each side of <-> is translated once, so its quantifiers are too
    import taulab.theories as theories
    eliminated = []
    eliminate = theories._eliminate
    monkeypatch.setattr(theories, "_eliminate",
                        lambda x, qf: eliminated.append(x) or eliminate(x, qf))
    assert order_truth(parse_sentence(text)) is True
    assert len(eliminated) == quantifiers


def test_a_pairing_term_outranks_an_earlier_size_overflow(monkeypatch):
    import taulab.theories as theories
    monkeypatch.setattr(theories, "_DNF_TERM_CAP", 1)
    left = "E x. ((x < #5 | #6 < x) & (x < #7 | #8 < x))"
    with pytest.raises(RuntimeError):
        order_truth(parse_sentence(left))
    with pytest.raises(UnsupportedTermError):
        order_truth(parse_sentence(f"({left}) & pi(0, 0) = 0"))


def _with_records(f: Formula, rng: random.Random, scope: list[str]) -> Formula:
    """f with some atoms swapped for a tau record or a pairing equation over
    the bound variables in scope."""
    kind = type(f)
    if kind is Less or kind is Eq:
        roll = rng.random()
        terms = [Var(name) for name in scope] + [Num(rng.randrange(4))]
        if roll < 0.5:
            return f
        if roll < 0.75:
            return Tau(Num(rng.choice((HALTER, LOOPER))), rng.choice(terms), rng.choice(terms))
        return Eq(Pi(rng.choice(terms), rng.choice(terms)), rng.choice(terms))
    if kind is Forall or kind is Exists:
        return kind(f.var, _with_records(f.body, rng, scope + [f.var]))
    if kind is Not:
        return Not(_with_records(f.inner, rng, scope))
    return kind(_with_records(f.left, rng, scope), _with_records(f.right, rng, scope))


_HAND_MADE_IMPURE = (
    f"E z. tau(#{HALTER}, 0, z)",
    f"E z. tau(#{LOOPER}, 0, z)",
    f"A z. ~tau(#{HALTER}, 0, z)",
    f"A x. (x < #3 -> E z. tau(#{HALTER}, x, z))",
    f"A x. E y. (x < y & (tau(#{LOOPER}, x, y) | s(x) = y))",
    "E x. pi(x, x) = #18",
    "E x. pi(x, x) = #12",
    "A x. A y. (pi(x, y) = pi(y, x) -> x = y)",
    "E x. E y. (pi(x, s(y)) = #13 & x < y)",
    f"A x. (pi(x, 0) = #6 <-> ~tau(#{HALTER}, x, pi(0, x)))",
)


def test_frozen_eval_verdicts():
    rng = random.Random(20261019)
    sentences = [parse_sentence(text) for text in _HAND_MADE_IMPURE]
    for i, f in enumerate(random_order_sentences(600, seed=20261019)):
        sentences.append(_with_records(f, rng, []) if i % 2 else f)
    verdicts = [str(eval_std(f, budget=6)) for f in sentences]
    digest = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()[:16]
    kinds = tuple(sum(v.startswith(k) for v in verdicts) for k in ("true", "false", "unknown"))
    assert (kinds, digest) == ((235, 326, 49), "229a841a7a08c278")
