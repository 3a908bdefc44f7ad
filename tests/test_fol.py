"""Syntax kernel: parsing, canonical printing, substitution, variable scans.

Expected strings below are frozen oracle values: each was derived by hand
from the grammar and precedence table before the printer existed, then
pinned.  The printer/parser pair must reproduce them byte for byte.
"""

import hashlib
import random
import re
from pathlib import Path

import pytest
from conftest import _at_the_default_recursion_limit, random_order_sentences
from hypothesis import given, settings, strategies as st

from taulab.fol import (
    _Parser,
    And, Eq, Exists, Forall, FolSyntaxError, FreeVariableError, Iff, Imp,
    Less, Node, Not, Num, Or, Pi, Succ, Tau, Var,
    conjoin_left, disjoin_right, format_formula, format_term, free_vars,
    fresh_name, is_sentence, node_count, parse_formula, parse_sentence,
    parse_term, read_fol_text, rosser_sentence, substitute, succ,
    uses_pi, uses_tau, walk,
)
from taulab.theories import segment_axiom

x, y, z = Var("x"), Var("y"), Var("z")


# --------------------------------------------------------------------------
# terms

def test_term_parsing():
    assert parse_term("0") == Num(0)
    assert parse_term("#12") == Num(12)
    assert parse_term("x") == Var("x")
    assert parse_term("v_1") == Var("v_1")
    assert parse_term("s(x)") == Succ(x)
    assert parse_term("pi(#1,#2)") == Pi(Num(1), Num(2))
    assert parse_term("pi(s(x), 0)") == Pi(Succ(x), Num(0))


def test_succ_folds_numerals():
    # s over a literal numeral is not a canonical shape: it folds at once.
    assert parse_term("s(#2)") == Num(3)
    assert parse_term("s(s(0))") == Num(2)
    assert succ(Num(41)) == Num(42)
    assert succ(x, 3) == Succ(Succ(Succ(x)))
    assert succ(Num(2), 0) == Num(2)
    with pytest.raises(ValueError):
        Succ(Num(2))


def test_term_formatting():
    assert format_term(Num(0)) == "0"
    assert format_term(Num(11)) == "#11"
    assert format_term(Pi(Num(1), Num(2))) == "pi(#1,#2)"
    assert format_term(Succ(Pi(x, Num(0)))) == "s(pi(x,0))"


def test_bare_nonzero_number_rejected():
    with pytest.raises(FolSyntaxError):
        parse_term("12")
    with pytest.raises(FolSyntaxError):
        parse_formula("12 < x")


@pytest.mark.parametrize("text", ["#\xb2 = 0", "#1\xb2 = 0", "0 < #\xb9"])
def test_non_ascii_digits_are_syntax_errors(text):
    # str.isdigit accepts the latin-1 superscripts; numerals take 0-9 only
    with pytest.raises(FolSyntaxError):
        parse_formula(text)


def test_bare_digit_runs_keep_their_message():
    with pytest.raises(FolSyntaxError, match="bare number '0\xb2'"):
        parse_formula("0\xb2 = 0")


# A name starts at any character that str.islower accepts and goes on over
# islower, isdigit and '_'; these pins would move if names were scanned by a
# pattern over [a-z].  Each row: the text, then its variable name or its error.
@pytest.mark.parametrize("text, outcome", [
    ("\xe9 = 0", "\xe9"),                                  # e acute, lower case
    ("\xaa = 0", "\xaa"),                                  # feminine ordinal, lower case
    ("x\xe9 = 0", "x\xe9"),
    ("x\xb2 = 0", "x\xb2"),                                # superscript two, a digit
    ("x\u03a9 = 0", "unexpected character '\u03a9' (line 1, column 2)"),  # capital omega
    ("x\xbd = 0", "unexpected character '\xbd' (line 1, column 2)"),      # one half
    ("\u03a9 = 0", "unexpected character '\u03a9' (line 1, column 1)"),
    ("\u4e2d = 0", "unexpected character '\u4e2d' (line 1, column 1)"),    # a CJK ideograph
    ("A\xb2 . 0 = 0", "unexpected character 'A' (line 1, column 1)"),
])
def test_non_ascii_names(text, outcome):
    try:
        got = parse_formula(text)
    except FolSyntaxError as error:
        assert str(error) == outcome
    else:
        assert got == Eq(Var(outcome), Num(0))
        assert format_formula(got) == text


def test_a_parse_shares_one_var_per_name():
    """The parse's cost guard, counted rather than timed: every disjunct of a
    parsed segment axiom holds the one Var the parse made for x."""
    built = segment_axiom(1997)
    parsed = parse_formula(format_formula(built))
    assert parsed == built
    names, body = {id(parsed.body.left.left)}, parsed.body.right
    while type(body) is Or:
        names.add(id(body.left.left))
        body = body.right
    names.add(id(body.left))
    assert len(names) == 1


def test_a_long_blank_run_before_an_error_lexes_in_linear_time():
    # a scan that backed up into the blanks, or restarted inside them, would
    # take quadratic time here
    with pytest.raises(FolSyntaxError, match=r"'@' \(line 1, column 200001\)"):
        parse_formula(" " * 200_000 + "@")


def test_numeral_validation():
    with pytest.raises(ValueError):
        Num(-1)
    with pytest.raises(ValueError):
        Num(True)


# --------------------------------------------------------------------------
# formula parsing: sugar, precedence, scope

def test_relation_sugar_expands_at_parse_time():
    assert parse_formula("x < y") == Less(x, y)
    assert parse_formula("x = y") == Eq(x, y)
    assert parse_formula("x <= y") == Or(Less(x, y), Eq(x, y))
    assert parse_formula("x > y") == Less(y, x)
    # and the printer never reintroduces the sugar
    assert format_formula(parse_formula("x <= y")) == "x < y | x = y"
    assert format_formula(parse_formula("x > y")) == "y < x"


def test_bounded_quantifier_sugar():
    assert parse_formula("A y < x. y = 0") == Forall("y", Imp(Less(y, x), Eq(y, Num(0))))
    assert parse_formula("E y < s(x). y = x") == Exists("y", And(Less(y, Succ(x)), Eq(y, x)))
    got = format_formula(parse_formula("A y < x. 0 < y"))
    assert got == "A y. (y < x -> 0 < y)"


def test_precedence():
    a, b, c = Eq(x, Num(0)), Eq(y, Num(0)), Eq(z, Num(0))
    assert parse_formula("x = 0 & y = 0 | z = 0") == Or(And(a, b), c)
    assert parse_formula("x = 0 | y = 0 -> z = 0") == Imp(Or(a, b), c)
    assert parse_formula("x = 0 -> y = 0 <-> z = 0") == Iff(Imp(a, b), c)
    assert parse_formula("~x = 0 & y = 0") == And(Not(a), b)
    assert parse_formula("~(x = 0 & y = 0)") == Not(And(a, b))


def test_right_associativity():
    a, b, c = Eq(x, Num(0)), Eq(y, Num(0)), Eq(z, Num(0))
    assert parse_formula("x = 0 | y = 0 | z = 0") == Or(a, Or(b, c))
    assert parse_formula("x = 0 & y = 0 & z = 0") == And(a, And(b, c))
    assert parse_formula("x = 0 -> y = 0 -> z = 0") == Imp(a, Imp(b, c))
    assert parse_formula("x = 0 <-> y = 0 <-> z = 0") == Iff(a, Iff(b, c))


def test_precedence_table_in_the_docs_matches_the_connectives():
    from taulab.fol import _CONNECTIVES, _PREC
    docs = Path(__file__).resolve().parents[1] / "docs" / "fol_grammar.md"
    rows = re.findall(r"^\| (\d+) +\| `(.*?)` +\|$", docs.read_text(encoding="utf-8"), re.M)
    documented = {sym.replace("\\|", "|"): int(level) for level, sym in rows}
    want = {sym: _PREC[cls] for sym, cls in _CONNECTIVES}
    assert documented == {**want, "~": _PREC[Not]}
    # loosest first, tightest last, negation tighter still
    assert list(want.values()) == list(range(1, len(_CONNECTIVES) + 1))
    assert _PREC[Not] == len(_CONNECTIVES) + 1


def test_quantifier_scope_is_maximal():
    f = parse_formula("A x. x = 0 -> 0 < x")
    assert f == Forall("x", Imp(Eq(x, Num(0)), Less(Num(0), x)))
    g = parse_formula("(A x. x = 0) -> 0 = 0")
    assert g == Imp(Forall("x", Eq(x, Num(0))), Eq(Num(0), Num(0)))
    h = parse_formula("~A x. x < y & x = y")
    assert h == Not(Forall("x", And(Less(x, y), Eq(x, y))))


def test_tau_atom():
    f = parse_formula("tau(#3, pi(#3,#4), x)")
    assert f == Tau(Num(3), Pi(Num(3), Num(4)), x)
    assert uses_tau(f) and uses_pi(f)
    assert not uses_tau(parse_formula("x < y"))
    assert not uses_pi(parse_formula("A x. x < s(x)"))


def test_reserved_identifiers():
    for bad in ("s < 0", "pi = 0", "tau < 0", "A s. s = 0", "E tau. tau = 0"):
        with pytest.raises(FolSyntaxError):
            parse_formula(bad)


def test_syntax_errors_carry_positions():
    with pytest.raises(FolSyntaxError) as info:
        parse_formula("x <")
    assert info.value.line == 1 and info.value.column >= 3
    for bad in ("", "x", "x &", "(x < y", "x < y)", "#", "x - y", "A . x = 0",
                "X < 0", "x << y", "A x x = 0"):
        with pytest.raises(FolSyntaxError):
            parse_formula(bad)


@pytest.mark.parametrize("text, message", [
    # the tokenizer
    ("x - y", "stray '-' (did you mean '->') (line 1, column 3)"),
    ("0 = 0 <- 0 = 0", "stray '-' (did you mean '->') (line 1, column 8)"),
    ("x <-= y", "stray '-' (did you mean '->') (line 1, column 4)"),
    ("0 < #", "'#' must be followed by digits (line 1, column 5)"),
    ("12 < x", "bare number '12'; numerals other than 0 are written #<digits> "
               "(line 1, column 1)"),
    ("A1 = 0", "unexpected character 'A' (line 1, column 1)"),
    # reserved names as variables and as terms
    ("A s. s = 0", "'s' is reserved and cannot be a variable (line 1, column 3)"),
    ("E tau. 0 = 0", "'tau' is reserved and cannot be a variable (line 1, column 3)"),
    ("pi = 0", "'pi' is reserved and cannot be a variable (line 1, column 1)"),
    ("0 < tau", "'tau' is reserved and cannot be a variable (line 1, column 5)"),
    ("s(tau(0, 0, 0)) = 0", "'tau' is reserved and cannot be a variable (line 1, column 3)"),
    # missing ')', ',' and '.'
    ("(0 = 0", "expected ')', found None (line 1, column 7)"),
    ("s(x = 0", "expected ')', found '=' (line 1, column 5)"),
    ("pi(x y) = 0", "expected ',', found 'y' (line 1, column 6)"),
    ("tau(0, 0) = 0", "expected ',', found ')' (line 1, column 9)"),
    ("tau(0, 0 0)", "expected ',', found 0 (line 1, column 10)"),
    ("A x x = 0", "expected '.', found 'x' (line 1, column 5)"),
    ("E x < 0 0 = 0", "expected '.', found 0 (line 1, column 9)"),
    ("A x. E", "expected variable name, found None (line 1, column 7)"),
    # a missing relation, a missing term, trailing input
    ("x & y", "expected a relation (<, =, <=, >) after a term (line 1, column 3)"),
    ("x => y", "expected a term (line 1, column 4)"),
    ("~", "expected a term (line 1, column 2)"),
    ("0 = 0 0", "expected end of input, found 0 (line 1, column 7)"),
    ("0 = 0)", "expected end of input, found ')' (line 1, column 6)"),
    # lines are counted and columns restart after each newline
    ("0 = 0 &\n  x - y", "stray '-' (did you mean '->') (line 2, column 5)"),
    ("0 = 0 &\n\n  (x < y", "expected ')', found None (line 3, column 9)"),
    # the whole text is lexed first: a lexical error wins over an earlier
    # parse error
    ("x & y - z", "stray '-' (did you mean '->') (line 1, column 7)"),
    ("(0 = 0 @", "unexpected character '@' (line 1, column 8)"),
])
def test_syntax_error_texts(text, message):
    with pytest.raises(FolSyntaxError) as info:
        parse_formula(text)
    assert str(info.value) == message
    line, column = map(int, re.search(r"line (\d+), column (\d+)\)$", message).groups())
    assert (info.value.line, info.value.column) == (line, column)


# --------------------------------------------------------------------------
# canonical printing: frozen examples

ORDER_AXIOM_STRINGS = [
    "A x. A y. (x < y -> ~(y < x))",
    "A x. A y. A z. (x < y & y < z -> x < z)",
    "A x. A y. (x < y | x = y | y < x)",
    "A x. A y. (x < y <-> s(x) < y | s(x) = y)",
    "A x. ~(x < 0)",
    "A x. (0 < x -> E v. x = s(v))",
]


def test_order_axiom_strings_are_fixed_points():
    for text in ORDER_AXIOM_STRINGS:
        f = parse_sentence(text)
        assert format_formula(f) == text


def test_totality_axiom_is_right_nested():
    f = parse_sentence("A x. A y. (x < y | x = y | y < x)")
    assert f == Forall("x", Forall("y", Or(
        Less(x, y), Or(Eq(x, y), Less(y, x)))))


def test_printing_negation_forms():
    assert format_formula(Not(Eq(Num(0), Num(0)))) == "~(0 = 0)"
    assert format_formula(And(Eq(Num(0), Num(0)), Not(Eq(Num(0), Num(0))))) \
        == "0 = 0 & ~(0 = 0)"
    assert format_formula(Not(Tau(Num(1), Num(2), x))) == "~tau(#1, #2, x)"
    assert format_formula(Not(Not(Eq(x, Num(0))))) == "~~(x = 0)"
    assert format_formula(Not(Forall("x", Less(x, Num(0))))) == "~(A x. x < 0)"


def test_printing_quantifier_operands():
    f = Imp(Exists("x", Less(Num(0), x)), Less(Num(0), Var("c1")))
    assert format_formula(f) == "(E x. 0 < x) -> 0 < c1"
    g = Imp(Eq(Num(0), Num(0)), Forall("x", Eq(x, x)))
    assert format_formula(g) == "0 = 0 -> A x. x = x"
    assert parse_formula(format_formula(g)) == g


def test_printing_explicit_left_nesting():
    a, b, c = Eq(x, Num(0)), Eq(y, Num(0)), Eq(z, Num(0))
    assert format_formula(And(And(a, b), c)) == "(x = 0 & y = 0) & z = 0"
    assert format_formula(Or(And(a, b), c)) == "x = 0 & y = 0 | z = 0"
    assert format_formula(Imp(Imp(a, b), c)) == "(x = 0 -> y = 0) -> z = 0"
    assert format_formula(conjoin_left([a, b, c])) == "(x = 0 & y = 0) & z = 0"
    assert format_formula(disjoin_right([a, b, c])) == "x = 0 | y = 0 | z = 0"


def test_rosser_sentence_exact_text():
    f = rosser_sentence(1, 2)
    want = ("E x. (tau(#1, pi(#1,#2), x) & "
            "A y. (y < x -> ~tau(#2, pi(#1,#2), y)))")
    assert format_formula(f) == want
    assert parse_sentence(want) == f
    assert is_sentence(f)


def test_negated_search_sentence_exact_text():
    f = Not(Exists("z", Tau(Num(5), Num(5), Var("z"))))
    assert format_formula(f) == "~(E z. tau(#5, #5, z))"
    assert parse_sentence(format_formula(f)) == f


# --------------------------------------------------------------------------
# variables and substitution

def test_free_vars():
    assert free_vars(parse_formula("x < y")) == {"x", "y"}
    assert free_vars(parse_formula("A x. x < y")) == {"y"}
    assert free_vars(parse_formula("A x. E y. x < y")) == frozenset()
    assert free_vars(parse_formula("(A x. x = 0) & x < y")) == {"x", "y"}
    assert free_vars(Pi(x, Succ(y))) == {"x", "y"}


def test_parse_sentence_rejects_free_variables():
    with pytest.raises(FreeVariableError) as info:
        parse_sentence("x < y")
    assert info.value.names == ("x", "y")
    assert parse_sentence("A x. x < s(x)") == Forall("x", Less(x, Succ(x)))


def test_substitute_basic():
    f = parse_formula("x < y")
    assert substitute(f, "x", Num(3)) == Less(Num(3), y)
    assert substitute(f, "z", Num(3)) == f
    # numeral folding happens during substitution too
    assert substitute(parse_formula("s(x) < #4"), "x", Num(3)) == Less(Num(4), Num(4))


def test_substitute_respects_binding():
    f = Forall("x", Less(x, Num(1)))
    assert substitute(f, "x", Num(5)) is f or substitute(f, "x", Num(5)) == f
    g = Forall("x", Less(x, y))
    assert substitute(g, "y", Num(5)) == Forall("x", Less(x, Num(5)))


def test_substitute_avoids_capture_with_numeric_suffix():
    f = Exists("y", Less(x, y))
    got = substitute(f, "x", y)
    assert got == Exists("y0", Less(y, Var("y0")))
    # the suffix is the smallest unused one
    g = Exists("y", And(Less(x, y), Less(Var("y0"), x)))
    got2 = substitute(g, "x", y)
    assert got2 == Exists("y1", And(Less(y, Var("y1")), Less(Var("y0"), y)))


def test_fresh_name():
    assert fresh_name("y", {"x"}) == "y0"
    assert fresh_name("y", {"y0", "y1"}) == "y2"


# --------------------------------------------------------------------------
# documents

def test_read_fol_text():
    doc = """
# leading comment
A x. ~(x < 0)

0 = 0
  # indented comment
"""
    sentences = read_fol_text(doc)
    assert sentences == [parse_sentence("A x. ~(x < 0)"), Eq(Num(0), Num(0))]
    with pytest.raises(FreeVariableError):
        read_fol_text("x < y\n")


# --------------------------------------------------------------------------
# deep structures stay iterative

def test_deep_disjunction_chain_round_trips():
    k = 5000
    parts = [Eq(x, Num(i)) for i in range(k)]
    body = disjoin_right(parts)
    f = Forall("x", Iff(Less(x, Num(k)), body))
    text = format_formula(f)
    assert text.startswith("A x. (x < #5000 <-> x = 0 | x = #1 | x = #2")
    g = parse_sentence(text)
    assert g == f
    assert hash(g) == hash(f)
    assert node_count(body) == 4 * k - 1
    assert free_vars(f) == frozenset()


def test_deep_quantifier_prefix_round_trips():
    f: object = Less(Var("v0"), Var("v1"))
    names = [f"q{i}" for i in range(2000)]
    for name in names:
        f = Forall(name, f)
    text = format_formula(f)
    assert text.startswith("A q1999. A q1998. ")
    assert parse_formula(text) == f


# Deep inputs.  The parser keeps its own stacks, so parsing alone works at
# any depth; the printing of a left-nested chain still recurses, and that
# round trip works only because importing taulab raises the recursion limit
# (it raises RecursionError at Python's default limit).

def test_deeply_parenthesized_formula_parses():
    assert parse_formula("(" * 1500 + "0 = 0" + ")" * 1500) == Eq(Num(0), Num(0))


def test_deep_negation_chain_round_trips():
    f = Eq(Num(0), Num(0))
    for _ in range(10_000):
        f = Not(f)
    text = format_formula(f)
    assert text == "~" * 10_000 + "(0 = 0)"
    assert parse_formula(text) == f


def test_long_left_nested_conjunction_round_trips():
    f = conjoin_left([Less(x, Num(i)) for i in range(1500)])
    assert parse_formula(format_formula(f)) == f


def test_deep_successor_nesting_parses():
    text = "s(" * 10_000 + "x" + ")" * 10_000
    assert parse_formula(text + " = 0") == Eq(succ(x, 10_000), Num(0))


def test_negation_runs_round_trip_at_the_default_recursion_limit():
    # a run of ~ is counted, not recursed, by the parser and by the printer
    _at_the_default_recursion_limit(
        "from taulab.fol import format_formula, parse_formula",
        "f = parse_formula('~' * 30000 + '0 = 0')",
        "text = format_formula(f)",
        "assert text == '~' * 30000 + '(0 = 0)', text[-20:]",
        "assert parse_formula(text) == f",
    )


def test_deep_nesting_parses_at_the_default_recursion_limit():
    # parentheses, argument lists and bounded quantifier prefixes open
    # frames on the parser's own stack, not Python's
    _at_the_default_recursion_limit(
        "from taulab.fol import Eq, Forall, Num, Succ, Var, parse_formula",
        "f = parse_formula('s(' * 50000 + 'x' + ')' * 50000 + ' = 0')",
        "t, depth = f.left, 0",
        "while isinstance(t, Succ): t, depth = t.inner, depth + 1",
        "assert (depth, t, f.right) == (50000, Var('x'), Num(0)), depth",
        "assert parse_formula('(' * 6000 + '0 = 0' + ')' * 6000) == Eq(Num(0), Num(0))",
        "f = parse_formula('A x < s(s(y)). ' * 3000 + 'x = 0')",
        "depth = 0",
        "while isinstance(f, Forall): f, depth = f.body.right, depth + 1",
        "assert (depth, f) == (3000, Eq(Var('x'), Num(0))), depth",
    )


def test_deep_successor_runs_at_the_default_recursion_limit():
    # a successor run is peeled by one loop in printing, substitution, the
    # decider, the evaluator and the proof checker; term walks recurse only
    # per pi level.  Hashing and free_vars keep their own stacks, on deep
    # runs and on long left chains alike (no left chain is printed here:
    # printing one still recurses).
    _at_the_default_recursion_limit(
        "from taulab.fol import Eq, Less, Num, Var, conjoin_left, format_formula, free_vars,"
        " is_sentence, parse_formula, substitute, succ",
        "from taulab.proofs import schema_matches",
        "from taulab.theories import TRUE_IN_STD, eval_std, order_truth, segment_axiom",
        "run = 's(' * 50000 + 'x' + ')' * 50000",
        "f = parse_formula(run + ' = 0')",
        "assert hash(f) == hash(parse_formula(run + ' = 0'))",
        "assert free_vars(f) == {'x'}",
        "assert parse_formula(format_formula(f)) == f",
        "assert substitute(f, 'x', Num(3)) == Eq(Num(50003), Num(0))",
        "assert substitute(f, 'x', Var('y')) == Eq(succ(Var('y'), 50000), Num(0))",
        "assert order_truth(parse_formula('A x. ' + run + ' = #50000 -> x = 0'))",
        "assert eval_std(parse_formula('E x. ' + run + ' = #50002')) == TRUE_IN_STD",
        "instance = '(A x. ' + run + ' = 0) -> ' + run.replace('x', 's(y)') + ' = 0'",
        "assert schema_matches('forall-elim', parse_formula(instance))",
        "a = conjoin_left([Less(Var('x'), Num(i)) for i in range(10000)])",
        "b = conjoin_left([Less(Var('x'), Num(i)) for i in range(10000)])",
        "assert a is not b and hash(a) == hash(b) and a == b",
        "assert free_vars(a) == free_vars(b) == {'x'}",
        "g = segment_axiom(10_000)",
        "assert hash(g) == hash(segment_axiom(10_000)) and is_sentence(g)",
    )


# --------------------------------------------------------------------------
# a frozen corpus: random texts from grammar pieces, and printed random
# formulas with none, one or two token edits.  Each text's outcome (its
# canonical print, or its error with line and column) goes into one digest.

_PIECES = ("0", "#7", "#12", "#", "x", "y", "v_1", "s", "pi", "tau", "s(", "pi(",
           "tau(", "(", ")", ",", ".", "~", "&", "|", "->", "<->", "<", "<=",
           "=", ">", "A", "E", "-", "A1", "X", "12", "0\xb2", "\n")
_SWAPS = {"<": ("=", "<=", ">"), "=": ("<", "<=", ">"), "&": ("|", "->", "<->"),
          "|": ("&", "->", "<->"), "->": ("&", "|", "<->"), "<->": ("&", "|", "->"),
          "A": ("E",), "E": ("A",), "x": ("y", "0", "#7"), "y": ("x", "0", "#7")}
_SEPARATORS = (" ",) * 8 + ("", "\n")
_TOKEN = re.compile(r"<->|->|<=|[A-Za-z_][A-Za-z0-9_]*|#[0-9]*|[0-9]+|\S")


def _corpus_term(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        return Num(rng.randrange(12)) if roll < 0.25 else Var(rng.choice("xyz"))
    if roll < 0.8:
        return succ(_corpus_term(rng, depth - 1))
    return Pi(_corpus_term(rng, depth - 1), _corpus_term(rng, depth - 1))


def _corpus_formula(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        ctor = rng.choice((Less, Eq, Tau))
        return ctor(*(_corpus_term(rng, 2) for _ in ctor.__match_args__))
    if roll < 0.45:
        return Not(_corpus_formula(rng, depth - 1))
    if roll < 0.6:
        return rng.choice((Forall, Exists))(rng.choice("xyz"), _corpus_formula(rng, depth - 1))
    ctor = rng.choice((And, Or, Imp, Iff))
    return ctor(_corpus_formula(rng, depth - 1), _corpus_formula(rng, depth - 1))


def _corpus_texts(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        if rng.random() < 0.4:
            parts = [rng.choice(_PIECES) for _ in range(rng.randrange(1, 12))]
        else:
            parts = _TOKEN.findall(format_formula(_corpus_formula(rng, 4)))
            for _ in range(rng.randrange(3)):
                k = rng.randrange(len(parts))
                edit = rng.randrange(6)
                if edit == 0 and len(parts) > 1:
                    del parts[k]
                elif edit == 1:
                    parts.insert(k, rng.choice(_PIECES))
                elif edit == 2:
                    parts[k] = rng.choice(_PIECES)
                elif edit == 3 and k + 1 < len(parts):
                    parts[k], parts[k + 1] = parts[k + 1], parts[k]
                elif edit == 4:
                    parts.insert(k, "~")
                elif parts[k] in _SWAPS:
                    parts[k] = rng.choice(_SWAPS[parts[k]])
        yield "".join(part + rng.choice(_SEPARATORS) for part in parts)


def _outcome(text):
    try:
        return "ok " + format_formula(parse_formula(text))
    except FolSyntaxError as error:
        return f"{type(error).__name__} {error} {error.line}:{error.column}"


def test_frozen_corpus_outcomes():
    outcomes = [_outcome(text) for text in _corpus_texts(20261018, 5000)]
    parsed = sum(o.startswith("ok ") for o in outcomes)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]
    assert (parsed, digest) == (1260, "17c3ad53c4d05f85")


def _offset(text, line, column):
    return sum(len(row) + 1 for row in text.split("\n")[:line - 1]) + column - 1


def _tokens(text):
    """``text``'s tokens as (kind, value, line, column), up to EOF or up to its
    lexical error, which then stands in for EOF; and that error's text."""
    try:
        parser, error = _Parser(text), None
    except FolSyntaxError as e:
        parser, error = _Parser(text[:_offset(text, e.line, e.column)]), str(e)
    tokens = []
    for k, token in enumerate(parser.tokens):
        value = parser.value(token)
        kind = ("EOF" if not token else "NUM" if type(value) is int
                else "QUANT" if token in ("A", "E") else "IDENT" if token[0].islower() else token)
        tokens.append((kind, value, *parser.where(4 * k + 2)[1:]))
        if not token:
            return tokens, error


def test_frozen_corpus_token_streams():
    h = hashlib.sha256()
    for text in _corpus_texts(20261018, 5000):
        tokens, error = _tokens(text)
        for kind, value, line, column in tokens:
            h.update(ascii((kind, type(value).__name__, line, column, value)).encode())
        h.update(ascii(error).encode())
    assert h.hexdigest()[:16] == "51858f3b26705258"


# --------------------------------------------------------------------------
# properties

_names = st.sampled_from(["x", "y", "z", "u", "w1", "v_2"])
_terms = st.recursive(
    st.one_of(st.builds(Num, st.integers(0, 30)), st.builds(Var, _names)),
    lambda children: st.one_of(
        children.map(succ),
        st.builds(Pi, children, children)),
    max_leaves=6)
_formulas = st.recursive(
    st.one_of(
        st.builds(Less, _terms, _terms),
        st.builds(Eq, _terms, _terms),
        st.builds(Tau, _terms, _terms, _terms)),
    lambda children: st.one_of(
        children.map(Not),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Imp, children, children),
        st.builds(Iff, children, children),
        st.builds(Forall, _names, children),
        st.builds(Exists, _names, children)),
    max_leaves=14)


@settings(max_examples=300, deadline=None)
@given(_formulas)
def test_parse_inverts_canonical_format(f):
    assert parse_formula(format_formula(f)) == f


@settings(max_examples=200, deadline=None)
@given(_formulas)
def test_format_is_stable(f):
    text = format_formula(f)
    assert format_formula(parse_formula(text)) == text


@settings(max_examples=200, deadline=None)
@given(_formulas, _names)
def test_substitution_eliminates_the_variable(f, name):
    got = substitute(f, name, Num(7))
    assert name not in free_vars(got)


@settings(max_examples=200, deadline=None)
@given(_formulas)
def test_structural_equality_matches_text_equality(f):
    g = parse_formula(format_formula(f))
    assert g == f and hash(g) == hash(f)


# --------------------------------------------------------------------------
# free_vars against its generic form

_QUANT = (Forall, Exists)


# The scan before it dispatched on node class, kept verbatim as the
# reference for the differential tests below.
def _generic_free_vars(node: Node) -> frozenset[str]:
    """Free variables of a term or formula."""
    free: set[str] = set()
    stack: list[tuple[Node, frozenset[str]]] = [(node, frozenset())]
    while stack:
        n, bound = stack.pop()
        if isinstance(n, Var):
            if n.name not in bound:
                free.add(n.name)
        elif isinstance(n, _QUANT):
            stack.append((n.body, bound | {n.var}))
        else:
            for name in type(n).__match_args__:
                v = getattr(n, name)
                if isinstance(v, Node):
                    stack.append((v, bound))
    return frozenset(free)


@settings(max_examples=300, deadline=None)
@given(_formulas)
def test_free_vars_agrees_with_the_reference_on_random_formulas(f):
    for n in walk(f):
        assert free_vars(n) == _generic_free_vars(n)


def test_free_vars_agrees_with_the_reference_on_order_sentences():
    open_nodes = 0
    for sentence in random_order_sentences(300, seed=11):
        for n in walk(sentence):
            got = free_vars(n)
            assert got == _generic_free_vars(n), format_formula(sentence)
            open_nodes += bool(got)
    assert open_nodes > 1000  # the subformulas reach bound variables


@pytest.mark.parametrize("text, free", [
    ("(A x. x = 0) & x < y", {"x", "y"}),
    ("E y. A y. y < x", {"x"}),
    ("A y. (E y. y = x) & y < z", {"x", "z"}),
    ("A x. tau(x, pi(y, s(x)), z)", {"y", "z"}),
    ("E z. pi(z, w) = s(pi(x, s(s(z))))", {"w", "x"}),
    ("tau(pi(0, #3), s(u), 0) <-> A u. pi(u, u) < u", {"u"}),
])
def test_free_vars_agrees_with_the_reference_on_shadowing(text, free):
    f = parse_formula(text)
    assert free_vars(f) == _generic_free_vars(f) == free
    for n in walk(f):
        assert free_vars(n) == _generic_free_vars(n)
