"""Proof system: schema matching, checking, codes, scripts, search.

The numeric pins (code 10 for the one-step axiom citation, the
single-step ceiling 10405, the three-step example 15194407) were computed
by hand from the pairing polynomial before the encoder existed.
"""

import random
import re
from pathlib import Path

import pytest
from conftest import _at_the_default_recursion_limit
from hypothesis import given, settings, strategies as st

from taulab.codec import nat_to_decimal, pair, program_code, unpair
from taulab.fol import (
    And, Eq, Exists, Forall, Imp, Less, Node, Not, Num, Or, Pi, Succ, Var,
    parse_formula, substitute, succ,
)
from taulab.proofs import (
    CheckResult, EnumeratorIndexed, Gen, HostDecider, LogicalAxiom,
    ModusPonens, Proof, ProofStep, TheoryAxiom, check_coded_proof,
    check_proof, code_to_proof, format_proof_script, identifier_from_rank,
    identifier_rank, is_logical_axiom, parse_proof_script, proof_to_code,
    prove_search, schema_id, schema_matches, SCHEMA_NAMES,
    _MAX_DECODED_STEPS, _SCHEMAS, _TAG_GEN, _TAG_LOGICAL, _TAG_MP, _TAG_THEORY,
    _parse_coded_formula,
)
from taulab.tpl import Machine, instantiate_template, parse_program, template_source

DATA = Path(__file__).parent / "data" / "proofs"

ENUM_S_CODE = program_code(template_source("enum_s"))


def host_set(*texts):
    axioms = {parse_formula(t) for t in texts}
    return HostDecider(lambda f: f in axioms)


# --------------------------------------------------------------------------
# schema recognition

POSITIVE_INSTANCES = [
    ("0 = 0 -> (0 < #1 -> 0 = 0)", "weakening"),
    ("(A x. x = x) -> 0 = 0", "forall-elim"),
    ("(A x. x = x) -> x = x", "forall-elim"),          # identity substitution
    ("(A x. 0 = 0) -> 0 = 0", "forall-elim"),          # vacuous
    ("(A x. x < s(x)) -> #3 < #4", "forall-elim"),     # folds the numeral
    ("(A x. E y. x < y) -> E y0. y < y0", "forall-elim"),  # renamed binder
    # the candidate term for x is peeled out of successors in the instance
    ("(A x. s(x) = s(x)) -> s(s(y)) = s(s(y))", "forall-elim"),  # x := s(y)
    ("(A x. s(y) = x) -> s(y) = #3", "forall-elim"),    # s(y) is not over x
    ("(A x. s(x) < x) -> s(pi(y,0)) < pi(y,0)", "forall-elim"),
    ("0 = 0 -> E x. x = x", "exists-intro"),
    ("#3 < #4 -> E x. x < s(x)", "exists-intro"),
    ("0 = 0 & 0 < #1 -> 0 = 0", "and-elim-left"),
    ("0 = 0 & 0 < #1 -> 0 < #1", "and-elim-right"),
    ("x = x -> x = x | 0 = 0", "or-intro-left"),
    ("x = x -> 0 = 0 | x = x", "or-intro-right"),
    ("x = y -> y = x", "eq-sym"),
    ("x = y & y = z -> x = z", "eq-trans"),
    ("x = y -> s(x) = s(y)", "eq-succ"),
    ("0 = 0 -> #1 = #1", "eq-succ"),                   # fully folded instance
    ("x = y -> pi(x,z) = pi(y,z)", "eq-pair-left"),
    ("x = y -> pi(z,x) = pi(z,y)", "eq-pair-right"),
    ("x = y -> (x < z <-> y < z)", "eq-less-left"),
    ("x = y -> (z < x <-> z < y)", "eq-less-right"),
    ("x = y -> (tau(x, 0, z) <-> tau(y, 0, z))", "eq-halt-prog"),
    ("x = y -> (tau(0, x, z) <-> tau(0, y, z))", "eq-halt-input"),
    ("x = y -> (tau(0, z, x) <-> tau(0, z, y))", "eq-halt-bound"),
    ("0 = 0", "eq-refl"),
    ("pi(x,y) = pi(x,y)", "eq-refl"),
    ("(x < y -> (y < z -> z < w)) -> ((x < y -> y < z) -> (x < y -> z < w))",
     "distribution"),
    ("(~(y < z) -> ~(x < y)) -> (x < y -> y < z)", "contraposition"),
    ("x < y -> (y < z -> x < y & y < z)", "and-intro"),
    ("(x < y -> z < w) -> ((y < z -> z < w) -> (x < y | y < z -> z < w))",
     "or-elim"),
    ("(x < y <-> y < z) -> (x < y -> y < z)", "iff-elim-left"),
    ("(x < y <-> y < z) -> (y < z -> x < y)", "iff-elim-right"),
    ("(x < y -> y < z) -> ((y < z -> x < y) -> (x < y <-> y < z))", "iff-intro"),
    ("(A x. (y < z -> x < y)) -> (y < z -> A x. x < y)", "forall-dist"),
    ("(A x. (x < y -> y < z)) -> ((E x. x < y) -> y < z)", "exists-elim"),
]


@pytest.mark.parametrize("text,schema", POSITIVE_INSTANCES)
def test_schema_instances_are_recognized(text, schema):
    f = parse_formula(text)
    assert schema_matches(schema, f)
    assert is_logical_axiom(f) is not None
    assert _quantifier_axioms(f) == _parent_quantifier_axioms(f)


NON_INSTANCES = [
    "0 = 0 & 0 < #1",                       # a conjunction is never a schema
    "A x. (x = x -> 0 = 0)",                # quantifier read maximally: not Q1
    "(A x. E y. x < y) -> E y. y < y",      # substitution would capture y
    "0 = 0 -> 0 < #1",
    "x = y -> s(y) = s(x)",                 # successor congruence, swapped
    "(A x. x < s(x)) -> #3 < #5",           # wrong numeral
    "(A x. s(s(x)) = 0) -> s(y) = 0",       # two successors to peel, one there
    "0 < 0",
    # near misses: one occurrence of a repeated pattern variable differs,
    # or a side condition fails (schema and variable named on each line)
    "x < y -> (y < z -> w < x)",                                    # weakening p
    "(x < y -> (y < z -> z < w)) -> ((w < x -> y < z) -> (x < y -> z < w))",  # distribution p
    "(x < y -> (y < z -> z < w)) -> ((x < y -> y < z) -> (w < x -> z < w))",  # distribution p
    "(x < y -> (y < z -> z < w)) -> ((x < y -> w < x) -> (x < y -> z < w))",  # distribution q
    "(x < y -> (y < z -> z < w)) -> ((x < y -> y < z) -> (x < y -> w < x))",  # distribution r
    "(~(y < z) -> ~(x < y)) -> (w < x -> y < z)",                  # contraposition p
    "(~(y < z) -> ~(x < y)) -> (x < y -> w < x)",                  # contraposition q
    "x < y & y < z -> w < x",                                       # and-elim-left p, -right q
    "x < y -> (y < z -> w < x & y < z)",                            # and-intro p
    "x < y -> (y < z -> x < y & w < x)",                            # and-intro q
    "x < y -> y < z | z < w",                                       # or-intro-left p, -right q
    "(x < y -> z < w) -> ((y < z -> z < w) -> (w < x | y < z -> z < w))",  # or-elim p
    "(x < y -> z < w) -> ((y < z -> z < w) -> (x < y | w < x -> z < w))",  # or-elim q
    "(x < y -> z < w) -> ((y < z -> w < x) -> (x < y | y < z -> z < w))",  # or-elim r
    "(x < y -> z < w) -> ((y < z -> z < w) -> (x < y | y < z -> w < x))",  # or-elim r
    "(x < y <-> y < z) -> (w < x -> y < z)",                        # iff-elim-left p
    "(x < y <-> y < z) -> (x < y -> w < x)",                        # iff-elim-left q
    "(x < y <-> y < z) -> (y < z -> w < x)",                        # iff-elim-right p
    "(x < y <-> y < z) -> (w < x -> x < y)",                        # iff-elim-right q
    "(x < y -> y < z) -> ((y < z -> w < x) -> (x < y <-> y < z))",  # iff-intro p
    "(x < y -> y < z) -> ((w < x -> x < y) -> (x < y <-> y < z))",  # iff-intro q
    "(x < y -> y < z) -> ((y < z -> x < y) -> (w < x <-> y < z))",  # iff-intro p
    "(x < y -> y < z) -> ((y < z -> x < y) -> (x < y <-> w < x))",  # iff-intro q
    "(x < y -> y < z) -> ((y < z -> x < y) -> (y < z <-> x < y))",  # iff-intro, swapped
    "(A x. (x < y -> y < z)) -> (x < y -> A x. y < z)",             # forall-dist, x free in p
    "(A x. (z < w -> w < z)) -> (z < w -> A y. w < z)",             # forall-dist x
    "(A x. (z < w -> w < z)) -> (w < x -> A x. w < z)",             # forall-dist p
    "(A x. (z < w -> w < z)) -> (z < w -> A x. y < z)",             # forall-dist q
    "0 = 0 -> E x. x < x",                                          # exists-intro
    "#3 < #5 -> E x. x < s(x)",                                     # exists-intro, wrong numeral
    "(A x. (z < w -> x < y)) -> ((E x. z < w) -> x < y)",           # exists-elim, x free in q
    "(A x. (z < w -> w < z)) -> ((E y. z < w) -> w < z)",           # exists-elim x
    "(A x. (z < w -> w < z)) -> ((E x. w < x) -> w < z)",           # exists-elim p
    "(A x. (z < w -> w < z)) -> ((E x. z < w) -> y < z)",           # exists-elim q
    "x = y",                                                        # eq-refl t
    "x = y -> y = z",                                               # eq-sym t
    "x = y -> z = x",                                               # eq-sym u
    "x = y & y = z -> w = z",                                       # eq-trans t
    "x = y & w = z -> x = z",                                       # eq-trans u
    "x = y & y = z -> x = w",                                       # eq-trans v
    "0 = 0 -> #1 = #2",                                             # eq-succ, folded numerals
    "x = y -> pi(z,w) = pi(y,w)",                                   # eq-pair-left t
    "x = y -> pi(x,w) = pi(z,w)",                                   # eq-pair-left u
    "x = y -> pi(x,w) = pi(y,z)",                                   # eq-pair-left v
    "x = y -> pi(w,z) = pi(w,y)",                                   # eq-pair-right t
    "x = y -> pi(w,x) = pi(w,z)",                                   # eq-pair-right u
    "x = y -> pi(w,x) = pi(z,y)",                                   # eq-pair-right v
    "x = y -> (z < w <-> y < w)",                                   # eq-less-left t
    "x = y -> (x < w <-> z < w)",                                   # eq-less-left u
    "x = y -> (x < w <-> y < z)",                                   # eq-less-left v
    "x = y -> (w < z <-> w < y)",                                   # eq-less-right t
    "x = y -> (w < x <-> w < z)",                                   # eq-less-right u
    "x = y -> (w < x <-> z < y)",                                   # eq-less-right v
    "x = y -> (tau(z, 0, w) <-> tau(y, 0, w))",                     # eq-halt-prog t
    "x = y -> (tau(x, 0, w) <-> tau(z, 0, w))",                     # eq-halt-prog u
    "x = y -> (tau(x, 0, w) <-> tau(y, #1, w))",                    # eq-halt-prog a
    "x = y -> (tau(x, 0, w) <-> tau(y, 0, z))",                     # eq-halt-prog b
    "x = y -> (tau(0, z, w) <-> tau(0, y, w))",                     # eq-halt-input t
    "x = y -> (tau(0, x, w) <-> tau(0, z, w))",                     # eq-halt-input u
    "x = y -> (tau(0, x, w) <-> tau(#1, y, w))",                    # eq-halt-input a
    "x = y -> (tau(0, x, w) <-> tau(0, y, z))",                     # eq-halt-input b
    "x = y -> (tau(0, w, z) <-> tau(0, w, y))",                     # eq-halt-bound t
    "x = y -> (tau(0, w, x) <-> tau(0, w, z))",                     # eq-halt-bound u
    "x = y -> (tau(0, w, x) <-> tau(#1, w, y))",                    # eq-halt-bound a
    "x = y -> (tau(0, w, x) <-> tau(0, z, y))",                     # eq-halt-bound b
]


@pytest.mark.parametrize("text", NON_INSTANCES)
def test_non_instances_are_rejected(text):
    f = parse_formula(text)
    assert is_logical_axiom(f) is None
    assert _quantifier_axioms(f) == _parent_quantifier_axioms(f)


# The quantifier-axiom check before it read one witness: every candidate
# term is collected and tried.  Kept verbatim as the reference that the two
# tables above and the seeded triples below are checked against.
def _parent_candidate_terms(body: Node, result: Node, var: str) -> list:
    """Terms that may have been substituted for ``var`` when turning
    ``body`` into ``result`` (candidates only; callers verify exactly)."""
    found: list = []
    stack: list[tuple[Node, Node, bool]] = [(body, result, True)]
    while stack:
        a, b, active = stack.pop()
        if isinstance(a, Var):
            if active and a.name == var and isinstance(b, (Num, Var, Succ, Pi)):
                found.append(b)
            continue
        if isinstance(a, Succ):
            depth = 0
            core = a
            while isinstance(core, Succ):
                depth += 1
                core = core.inner
            if active and isinstance(core, Var) and core.name == var:
                if isinstance(b, Num):
                    if b.value >= depth:
                        found.append(Num(b.value - depth))
                else:
                    peeled = b
                    k = 0
                    while isinstance(peeled, Succ) and k < depth:
                        peeled = peeled.inner
                        k += 1
                    if k == depth:
                        found.append(peeled)
            elif isinstance(b, Succ):
                stack.append((a.inner, b.inner, active))
            continue
        if type(a) is type(b):
            if isinstance(a, (Forall, Exists)):
                stack.append((a.body, b.body, active and a.var != var))
            else:
                for name in type(a).__match_args__:
                    va = getattr(a, name)
                    if isinstance(va, Node):
                        stack.append((va, getattr(b, name), active))
    return found


def _parent_is_substitution_instance(body, var, result) -> bool:
    candidates = _parent_candidate_terms(body, result, var)
    candidates.append(Var(var))
    return any(substitute(body, var, t) == result for t in candidates)


def _parent_quantifier_axioms(f) -> tuple[bool, bool]:
    """(forall-elim, exists-intro) of ``f`` by the reference check."""
    if not isinstance(f, Imp):
        return False, False
    left, right = f.left, f.right
    return (isinstance(left, Forall)
            and _parent_is_substitution_instance(left.body, left.var, right),
            isinstance(right, Exists)
            and _parent_is_substitution_instance(right.body, right.var, left))


def _quantifier_axioms(f) -> tuple[bool, bool]:
    return schema_matches("forall-elim", f), schema_matches("exists-intro", f)


def _random_term(rng: random.Random, depth: int = 2):
    """A successor run over a variable, a numeral or a pi core."""
    roll = rng.random()
    if depth and roll < 0.15:
        core = Pi(_random_term(rng, depth - 1), _random_term(rng, depth - 1))
    elif roll < 0.65:
        core = Var(rng.choice("xxyzw"))
    else:
        core = Num(rng.randrange(5))
    return succ(core, rng.choice((0, 0, 1, 2, 3)))


def _random_body(rng: random.Random, size: int):
    """A formula over x, y, z and w whose binders are x, y and z, so that a
    term over y or z is renamed around, and a term under a binder x is
    left alone."""
    roll = rng.random()
    if size <= 0 or roll < 0.3:
        return rng.choice((Less, Eq))(_random_term(rng), _random_term(rng))
    if roll < 0.5:
        return rng.choice((Forall, Exists))(rng.choice("xyz"), _random_body(rng, size - 1))
    if roll < 0.6:
        return Not(_random_body(rng, size - 1))
    return rng.choice((And, Or, Imp))(_random_body(rng, size - 1), _random_body(rng, size - 1))


def _random_triple(rng: random.Random):
    """(body, "x", result): the free x of ``body`` get one term, the free w
    of the same draw get the same term, its successor or another term, or
    the result is an unrelated formula."""
    drawn = _random_body(rng, rng.randrange(5))
    body = substitute(drawn, "w", Var("x"))
    roll = rng.random()
    if roll < 0.1:
        return body, "x", _random_body(rng, rng.randrange(5))
    term = _random_term(rng)
    other = term if roll < 0.6 else succ(term) if roll < 0.8 else _random_term(rng)
    return body, "x", substitute(substitute(drawn, "x", term), "w", other)


def test_the_witness_agrees_with_the_reference_on_seeded_triples():
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for _ in range(4000):
        body, var, result = _random_triple(rng)
        for f in (Imp(Forall(var, body), result), Imp(result, Exists(var, body))):
            got = _quantifier_axioms(f)
            assert got == _parent_quantifier_axioms(f), f
        verdicts[got[1]] += 1
    assert min(verdicts.values()) >= 500, verdicts  # both verdicts are common


def test_every_schema_name_is_distinct():
    assert len(set(SCHEMA_NAMES)) == 27
    assert schema_id("weakening") == 0
    assert schema_id("eq-halt-bound") == 26


def test_documented_schema_ids_match_the_table():
    doc = (Path(__file__).parent.parent / "docs" / "proof_encoding.md").read_text()
    rows = re.findall(r"^\| (\d+) \| `([a-z-]+)` \|", doc, re.MULTILINE)
    assert [(int(i), name) for i, name in rows] == list(enumerate(SCHEMA_NAMES))


# --------------------------------------------------------------------------
# checking

def ax(text, i):
    return ProofStep(parse_formula(text), TheoryAxiom(i))


def la(text, schema):
    return ProofStep(parse_formula(text), LogicalAxiom(schema))


def test_one_step_axiom_citation():
    oracle = host_set("A x. ~(x < 0)")
    proof = Proof((ax("A x. ~(x < 0)", 0),))
    assert check_proof(proof, oracle, parse_formula("A x. ~(x < 0)")).ok


def test_modus_ponens_against_enumerated_axioms():
    enum = ('if (in == 0) { out = tonat("0 = 0 -> 0 < #1"); halt; }'
            'out = tonat("0 = 0"); halt;')
    oracle = EnumeratorIndexed(program_code(enum))
    proof = Proof((
        ax("0 = 0 -> 0 < #1", 0),
        ax("0 = 0", 1),
        ProofStep(parse_formula("0 < #1"), ModusPonens(1, 0)),
    ))
    result = check_proof(proof, oracle, parse_formula("0 < #1"))
    assert result.ok and result.consumed > 0


def test_failure_kinds_are_reported_distinctly():
    refl = parse_formula("0 = 0")
    # empty
    assert check_proof(Proof(()), None).kind == "empty"
    # forward/self reference
    bad_ref = Proof((ProofStep(refl, ModusPonens(0, 1)),))
    assert check_proof(bad_ref, None).kind == "malformed_ref"
    # wrong schema name for the instance
    assert check_proof(Proof((la("0 = 0", "weakening"),)), None).kind == "unjustified"
    # unknown schema
    assert check_proof(Proof((la("0 = 0", "nonsense"),)), None).kind == "unjustified"
    # axiom not in the host set
    assert check_proof(Proof((ax("0 < 0", 0),)), host_set("0 = 0")).kind == "unjustified"
    # no oracle means no theory axioms
    assert check_proof(Proof((ax("0 = 0", 0),)), None).kind == "unjustified"
    # missing formula under a host oracle
    skeleton = Proof((ProofStep(None, TheoryAxiom(0)),))
    assert check_proof(skeleton, host_set("0 = 0")).kind == "missing_formula"
    # conclusion mismatch
    ok_proof = Proof((la("0 = 0", "eq-refl"),))
    assert check_proof(ok_proof, None, parse_formula("0 < #1")).kind == "conclusion"
    # generalization over a reserved name
    bad_gen = Proof((la("0 = 0", "eq-refl"),
                     ProofStep(None, Gen(0, "pi"))))
    assert check_proof(bad_gen, None).kind == "unjustified"


def test_gen_derives_its_formula():
    proof = Proof((
        la("x = x", "eq-refl"),
        ProofStep(None, Gen(0, "x")),
    ))
    result = check_proof(proof, None, parse_formula("A x. x = x"))
    assert result.ok
    assert result.formulas[-1] == Forall("x", parse_formula("x = x"))


def test_budget_exhaustion_is_not_a_verdict():
    slow = 'while (1) { }'
    oracle = EnumeratorIndexed(program_code(slow))
    proof = Proof((ProofStep(None, TheoryAxiom(0)),))
    result = check_proof(proof, oracle, None, step_budget=50)
    assert not result.ok and result.kind == "budget" and result.consumed == 50


def test_a_logical_axiom_step_needs_its_formula():
    proof = Proof((ProofStep(None, LogicalAxiom("eq-refl")),))
    assert check_proof(proof, None).kind == "missing_formula"


@pytest.mark.parametrize("index", [True, -1, "3"])
def test_theory_axiom_indices_must_be_naturals(index):
    proof = Proof((ax("0 = 0", index),))
    assert check_proof(proof, host_set("0 = 0")).kind == "unjustified"


def test_an_enumerator_output_that_does_not_parse_justifies_nothing():
    oracle = EnumeratorIndexed(program_code('out = tonat("0 <"); halt;'))
    result = check_proof(Proof((ProofStep(None, TheoryAxiom(0)),)), oracle)
    assert (result.kind, result.step, result.consumed) == ("unjustified", 0, 2)


def test_modus_ponens_derives_its_formula_from_coded_steps():
    enum = ('if (in == 0) { out = tonat("0 = 0"); halt; }'
            'out = tonat("0 = 0 -> 0 < #1"); halt;')
    oracle = EnumeratorIndexed(program_code(enum))
    code = proof_to_code(Proof((ProofStep(None, TheoryAxiom(0)),
                                ProofStep(None, TheoryAxiom(1)),
                                ProofStep(None, ModusPonens(0, 1)))))
    proof = code_to_proof(code)
    assert [s.formula for s in proof.steps] == [None, None, None]
    result = check_proof(proof, oracle, parse_formula("0 < #1"))
    assert result.ok and result.formulas[-1] == parse_formula("0 < #1")
    coded = check_coded_proof(oracle.enum_code, code, program_code("0 < #1"), 10 ** 6)
    assert coded.ok and coded.consumed == result.consumed


def test_an_unknown_justification_is_unjustified():
    proof = Proof((ProofStep(parse_formula("0 = 0"), object()),))
    assert check_proof(proof, None).kind == "unjustified"


# --------------------------------------------------------------------------
# structural codes

def test_one_step_theory_axiom_has_code_ten():
    proof = Proof((ProofStep(None, TheoryAxiom(0)),))
    assert proof_to_code(proof) == pair(1, pair(1, 0)) == 10


def test_small_axiom_citations_have_small_codes():
    for i in range(10):
        code = proof_to_code(Proof((ProofStep(None, TheoryAxiom(i)),)))
        assert code <= 10405
    three_step = Proof((
        ProofStep(None, TheoryAxiom(0)),
        ProofStep(None, TheoryAxiom(1)),
        ProofStep(None, ModusPonens(0, 1)),
    ))
    assert proof_to_code(three_step) == 15194407 < 10 ** 9


def test_empty_proof_codes_to_zero():
    assert proof_to_code(Proof(())) == 0
    assert code_to_proof(0) == Proof(())


def test_code_to_proof_on_junk_is_none_or_a_proof():
    assert code_to_proof(3) is None
    for n in range(2000):
        decoded = code_to_proof(n)  # must never raise
        assert decoded is None or isinstance(decoded, Proof)


def test_code_to_proof_of_deep_parentheses_at_the_default_recursion_limit():
    # the formula parser keeps its own stack, so a logical-axiom step with
    # 6 000 nested parentheses decodes at Python's default recursion limit
    _at_the_default_recursion_limit(
        "from taulab.codec import pair, program_code",
        "from taulab.proofs import Proof, code_to_proof",
        "text = '(' * 6000 + '0 = 0' + ')' * 6000",
        "assert isinstance(code_to_proof(pair(1, pair(0, pair(0, program_code(text))))), Proof)",
    )


def test_code_to_proof_on_non_ascii_digits_is_none():
    assert code_to_proof(pair(1, pair(0, pair(0, program_code("#\xb2 = #\xb2"))))) is None


# The decoder before it rejected zero step codes early, kept verbatim as
# the reference for the differential tests below.
def _parent_code_to_proof(n: int) -> Proof | None:
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
    codes = []
    cur = fold
    for _ in range(length - 1):
        parts = unpair(cur)
        if parts is None:
            return None
        cur, last = parts
        codes.append(last)
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



def _random_built_code(rng: random.Random) -> int:
    """A code declaring 1-40 steps, pair-built from at most 8 step codes
    (each pair squares the fold), some of them 0 and some not step codes;
    with fewer codes than steps the decoder peels into the first one."""
    texts = ["0 = 0", "0 = 0 -> (0 < #1 -> 0 = 0)", "x = y -> y = x", "", "0 =", "A x. x < s(x)"]
    length = rng.randint(1, 40)
    codes = []
    for _ in range(min(length, rng.randint(1, 8))):
        roll = rng.random()
        if roll < 0.08:
            codes.append(0)
        elif roll < 0.3:
            sid = rng.choice((0, 1, 12, rng.randrange(len(SCHEMA_NAMES) + 2)))
            codes.append(pair(0, pair(sid, program_code(rng.choice(texts)))))
        elif roll < 0.55:
            codes.append(pair(1, rng.randrange(50)))
        elif roll < 0.75:
            codes.append(pair(2, pair(rng.randrange(len(codes) + 2), rng.randrange(len(codes) + 2))))
        elif roll < 0.9:
            codes.append(pair(3, pair(rng.randrange(len(codes) + 1), rng.randrange(40))))
        else:
            codes.append(rng.randrange(1, 10 ** rng.randint(1, 12)))
    fold = codes[0]
    for c in codes[1:]:
        fold = pair(fold, c)
    return pair(length, fold)


def test_code_to_proof_agrees_with_the_reference_on_small_codes():
    for c in range(10 ** 5):
        assert code_to_proof(c) == _parent_code_to_proof(c), c


def test_code_to_proof_agrees_with_the_reference_on_built_codes():
    rng = random.Random(7)
    decoded = 0
    for _ in range(2000):
        c = _random_built_code(rng)
        got = code_to_proof(c)
        assert got == _parent_code_to_proof(c), c
        decoded += got is not None
    big = [rng.getrandbits(rng.randint(1, 4096)) for _ in range(300)]
    for c in big:
        assert code_to_proof(c) == _parent_code_to_proof(c), c
    assert decoded >= 20  # the built codes reach the whole decoder


def test_skeleton_roundtrip_without_formulas():
    proof = Proof((
        ProofStep(None, TheoryAxiom(4)),
        ProofStep(None, TheoryAxiom(7)),
        ProofStep(None, ModusPonens(1, 0)),
        ProofStep(None, Gen(2, "x")),
    ))
    code = proof_to_code(proof)
    decoded = code_to_proof(code)
    assert [s.justification for s in decoded.steps] == [s.justification for s in proof.steps]
    assert proof_to_code(decoded) == code


def test_logical_axiom_roundtrip_preserves_instances():
    proof = Proof((
        la("0 = 0", "eq-refl"),
        la("0 = 0 -> (0 < #1 -> 0 = 0)", "weakening"),
        ProofStep(None, Gen(0, "v_2")),
    ))
    decoded = code_to_proof(proof_to_code(proof))
    assert decoded.steps[0].formula == parse_formula("0 = 0")
    assert decoded.steps[1].formula == parse_formula("0 = 0 -> (0 < #1 -> 0 = 0)")
    assert decoded.steps[2].justification == Gen(0, "v_2")
    assert decoded.steps[2].formula == parse_formula("A v_2. 0 = 0")


def test_identifier_ranking():
    assert identifier_rank("a") == 0
    assert identifier_rank("x") == 23
    assert identifier_rank("z") == 25
    assert identifier_rank("a0") == 26
    for r in range(3000):
        assert identifier_rank(identifier_from_rank(r)) == r
    with pytest.raises(ValueError):
        identifier_rank("X")
    with pytest.raises(ValueError):
        identifier_rank("0x")


@settings(max_examples=200, deadline=None)
@given(st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True))
def test_identifier_rank_roundtrip(name):
    assert identifier_from_rank(identifier_rank(name)) == name


# --------------------------------------------------------------------------
# scripts

def test_script_roundtrip():
    text = (DATA / "17_forall_dist.proof").read_text()
    proof = parse_proof_script(text)
    assert len(proof) == 6
    printed = format_proof_script(proof)
    assert parse_proof_script(printed) == proof


def test_script_numbering_is_enforced():
    with pytest.raises(ValueError):
        parse_proof_script("1. 0 = 0 ; LA eq-refl\n")
    with pytest.raises(ValueError):
        parse_proof_script("0. 0 = 0 ; LA eq-refl\n0. 0 = 0 ; LA eq-refl\n")
    with pytest.raises(ValueError):
        parse_proof_script("0. 0 = 0 LA eq-refl\n")
    with pytest.raises(ValueError):
        parse_proof_script("0. 0 = 0 ; ZZ 1\n")


# oracle requirements for every vendored script
SIGNED_STREAM = "enum_s"
VENDORED = {
    "01_identity.proof": None,
    "02_refl_zero.proof": None,
    "03_refl_numeral.proof": None,
    "04_gen_refl.proof": None,
    "05_forall_elim.proof": None,
    "06_exists_intro.proof": None,
    "07_derive_exists.proof": None,
    "08_and_intro.proof": None,
    "09_or_intro.proof": None,
    "10_iff_refl.proof": None,
    "11_eq_sym.proof": None,
    "12_eq_trans.proof": None,
    "13_congruence_succ.proof": None,
    "14_congruence_pair.proof": None,
    "15_congruence_less.proof": None,
    "16_congruence_halt.proof": None,
    "17_forall_dist.proof": None,
    "18_exists_elim.proof": None,
    "19_contraposition.proof": None,
    "20_or_elim.proof": None,
    "21_axiom_citation.proof": SIGNED_STREAM,
    "22_no_below_zero.proof": SIGNED_STREAM,
    "23_halting_fact.proof": SIGNED_STREAM,
    "24_successor_order.proof": SIGNED_STREAM,
    "25_mp_with_host_axioms.proof": host_set("0 < #1", "0 < #1 -> 0 < #2"),
    "26_padding_axiom.proof": SIGNED_STREAM,
    "27_finite_segment.proof": SIGNED_STREAM,
    "28_negated_halting.proof": SIGNED_STREAM,
    "29_prefix_elim_chain.proof": host_set(
        "(A x. A y. (x < y -> ~(y < x))) & "
        "A x. A y. A z. (x < y & y < z -> x < z)"),
    "30_prefix_intro_chain.proof": SIGNED_STREAM,
    "31_forall_elim_fold.proof": None,
    "32_forall_elim_successor.proof": None,
    "33_forall_elim_renaming.proof": None,
    "34_exists_intro_successor.proof": None,
}

# scripts that must not check, with the kind of their failure
REJECTED = {"35_near_miss_fold.proof": "unjustified"}


def test_vendored_corpus_is_complete():
    names = sorted(p.name for p in DATA.glob("*.proof"))
    assert names == sorted([*VENDORED, *REJECTED])
    assert len(names) >= 20


@pytest.mark.parametrize("name", sorted(VENDORED))
def test_vendored_scripts_check_out(name):
    oracle = VENDORED[name]
    if oracle == SIGNED_STREAM:
        oracle = EnumeratorIndexed(ENUM_S_CODE, memo=True)
    proof = parse_proof_script((DATA / name).read_text())
    result = check_proof(proof, oracle, proof.conclusion())
    assert result.ok, f"{name}: {result.kind} at step {result.step}"
    # and their structural codes replay through the numeric checker
    code = proof_to_code(proof)
    decoded = code_to_proof(code)
    assert proof_to_code(decoded) == code


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_vendored_near_misses_are_rejected(name):
    proof = parse_proof_script((DATA / name).read_text())
    result = check_proof(proof, None, proof.conclusion())
    assert (result.ok, result.kind, result.step) == (False, REJECTED[name], 0)


# --------------------------------------------------------------------------
# bounded search and the in-language checker

@pytest.fixture(scope="module")
def planted_oracle():
    base = program_code(template_source("enum_t"))
    program = instantiate_template(
        "planted_enum", {"AXIOM_TEXT": "0 < s(0)", "BASE_CODE": base})
    return EnumeratorIndexed(program_code(program.source), memo=True)


def test_prove_search_finds_the_planted_axiom_at_code_ten(planted_oracle):
    target = parse_formula("0 < #1")  # "0 < s(0)" folds to this
    proof = prove_search(planted_oracle, target, code_budget=50)
    assert proof is not None
    assert proof_to_code(proof) == 10
    assert proof.conclusion() == target
    assert [s.justification for s in proof.steps] == [TheoryAxiom(0)]


def test_prove_search_gives_up_within_budget(planted_oracle):
    missing = parse_formula("0 < 0")
    assert prove_search(planted_oracle, missing, code_budget=300) is None


def test_check_coded_proof_end_to_end(planted_oracle):
    target_code = program_code("0 < #1")
    result = check_coded_proof(planted_oracle.enum_code, 10, target_code,
                               step_budget=10 ** 6)
    assert result.ok and result.consumed > 0
    assert check_coded_proof(planted_oracle.enum_code, 10, 29, 10 ** 6).kind == "bad_target"
    assert check_coded_proof(planted_oracle.enum_code, 3, target_code, 10 ** 6).kind == "malformed"


def test_checkproof_builtin_matches_the_host_checker(planted_oracle):
    e = nat_to_decimal(planted_oracle.enum_code)
    t = program_code("0 < #1")
    text = f"out = checkproof({e}, 10, {t}); halt;"
    m = Machine(parse_program(text), 0, 10 ** 6).run()
    assert m.halted and m.env["out"] == 1
    host = check_coded_proof(planted_oracle.enum_code, 10, t, step_budget=10 ** 6)
    assert m.steps == 2 + host.consumed  # assign + halt + charged enumerator work
    # a three-bit perturbation of the proof code must not verify
    m2 = Machine(parse_program(f"out = checkproof({e}, 13, {t}); halt;"), 0, 10 ** 6).run()
    assert m2.halted and m2.env["out"] == 0


def test_verdicts_before_any_enumerator_work_are_shared(planted_oracle):
    e, t = planted_oracle.enum_code, program_code("0 < #1")
    malformed = [c for c in range(40) if code_to_proof(c) is None]
    assert len(malformed) > 5
    results = [check_coded_proof(e, c, t, 10 ** 6) for c in malformed]
    results += [check_coded_proof(e, c, 29, 10 ** 6) for c in (3, 10)]
    assert results[0] == CheckResult(False, "malformed", None, 0)
    assert results[-1] == CheckResult(False, "bad_target", None, 0)
    assert all(r is results[0] for r in results[:-2])
    assert results[-2] is results[-1]
    # the builtin charges nothing for them, and answers 0 on any budget
    for proof, target in [(c, t) for c in malformed] + [(10, 29)]:
        for budget in (1, 2, 3):
            text = f"out = checkproof({nat_to_decimal(e)}, {proof}, {target}); halt;"
            m = Machine(parse_program(text),
                        0, budget).run()
            assert (m.halted, m.fault, m.steps, m.env["out"]) == (budget >= 2, None, min(budget, 2), 0)


def test_checkproof_on_a_target_with_non_ascii_digits_is_zero():
    assert check_coded_proof(0, 10, program_code("#\xb2 = 0"), 100).kind == "bad_target"
    m = Machine(parse_program('out = checkproof(0, 10, tonat("#\xb2 = 0")); halt;'), 0, 100).run()
    assert m.halted and m.env["out"] == 0


def test_target_lookup_by_identity_agrees_with_lookup_by_value(planted_oracle):
    e = planted_oracle.enum_code
    t = program_code("0 < #1" + " & 0 = 0" * 200)  # too big to be a cached small int
    assert check_coded_proof(e, 10, program_code("0 < #1"), step_budget=10 ** 6).ok
    first = check_coded_proof(e, 10, t, step_budget=10 ** 6)
    assert first.kind == "conclusion"
    assert check_coded_proof(e, 10, t, step_budget=10 ** 6) == first  # the same object
    equal = (t + 1) - 1
    assert equal is not t
    assert check_coded_proof(e, 10, equal, step_budget=10 ** 6) == first
    assert check_coded_proof(e, 10, 29, step_budget=10 ** 6).kind == "bad_target"
    assert check_coded_proof(e, 10, t, step_budget=10 ** 6) == first


def test_bit_flips_kill_the_planted_proof(planted_oracle):
    e = planted_oracle.enum_code
    t = program_code("0 < #1")
    for bit in range(12):
        mutant = 10 ^ (1 << bit)
        if mutant == 10:
            continue
        result = check_coded_proof(e, mutant, t, step_budget=10 ** 6)
        assert not result.ok
