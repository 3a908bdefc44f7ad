"""Interpreter semantics: step exactness, charging, faults, templates.

Expected step counts are derived from the cost rule (one step per executed
statement, headers cost one per evaluation, simulation builtins add their
inner consumption) and frozen here as literals.
"""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from taulab.codec import pair, program_code
import taulab
from taulab.constructions import rosser_pair
from taulab.tpl import (
    _BUILTINS, _lex,
    DigitLoop, If, Machine, TemplateError, TplProgram, TplSyntaxError, While,
    instantiate_template, output_code,
    parse_program, program_from_code, run_code, tau, template_source,
)


def run(text, input_value=0, budget=10_000):
    return Machine(parse_program(text), input_value, budget).run()


# --------------------------------------------------------------------------
# parsing

def test_parse_basics():
    parse_program("")
    parse_program("halt;")
    parse_program("x = 1; if (x) { y = x + 1; } else { halt; } while (0) { }")
    parse_program('s = "hi\\n"; t = concat(s, "\\"q\\"");')


def test_parse_errors():
    bad = [
        "x = 1",                 # missing ;
        "halt",
        "if x { }",
        "while (1) {",
        'x = "unterminated;',
        "x = concat(1);",        # arity
        "len = 3;",              # builtin as assignment target
        "if = 3;",               # keyword as assignment target
        "x = while;",
        "x = 1 +;",
        "x = $;",
        "x = \"bad\\q\";",
    ]
    for text in bad:
        with pytest.raises(TplSyntaxError):
            parse_program(text)
    # a call-looking use of a non-builtin is not an expression form
    with pytest.raises(TplSyntaxError):
        parse_program("x = foo(1);")


@pytest.mark.parametrize("literal, value", [
    ('""', ""),
    ('"plain text, {{X}} # not a comment"', "plain text, {{X}} # not a comment"),
    (r'"\\"', "\\"),
    (r'"\""', '"'),
    (r'"\n"', "\n"),
    (r'"\t"', "\t"),
    (r'"a\\b\"c\nd\te"', 'a\\b"c\nd\te'),
    (r'"\\\\\"\"\n\n\t\t"', '\\\\""\n\n\t\t'),
    ('"tab\there, cr\rthere"', "tab\there, cr\rthere"),
    ('"' + "x" * 5000 + r'\n' + "y" * 5000 + '"', "x" * 5000 + "\n" + "y" * 5000),
])
def test_string_literal_escapes(literal, value):
    m = run(f"s = {literal}; halt;")
    assert m.halted and m.env["s"] == value


@pytest.mark.parametrize("text, message", [
    ('x = "abc', "unterminated string literal (line 1, column 5)"),
    ('\n  x = ""; y = "ab\ny";', "unterminated string literal (line 2, column 15)"),
    ('x = "ok";\ny = "a\\"', "unterminated string literal (line 2, column 5)"),
    ('x = "a\\q";', "bad escape \\q (line 1, column 5)"),
    ('x = 1;\n\n y = "abc\\', "bad escape \\ (line 3, column 6)"),
    ('x = "a\\\nb";', "bad escape \\\n (line 1, column 5)"),
])
def test_string_literal_error_texts(text, message):
    with pytest.raises(TplSyntaxError) as info:
        parse_program(text)
    assert str(info.value) == message


def _token_digest(text: str) -> str:
    h = hashlib.sha256()
    for tok in _lex(text):
        v = tok.value
        data = (v.encode("latin-1") if type(v) is str
                else b"" if v is None else format(v, "x").encode())
        h.update(f"{tok.kind}:{type(v).__name__}:{tok.line}:{tok.column}:{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()[:16]


# token streams (kind, value, line, column) of the raw templates, frozen
# from the character-at-a-time string-literal lexer
_TEMPLATE_TOKENS = {
    "craig_decider": "7147a6a92439e97d",
    "craig_enum": "0e065b6e2436aa9d",
    "diagonal": "4cc9cd59f0858f62",
    "enum_s": "7686e2c51e71180b",
    "enum_t": "37a73b97d2509382",
    "kleene_searcher": "b4a33598427050c5",
    "planted_enum": "768ff21efe136f43",
    "rice_enum": "9423356c04112348",
    "searcher": "c35d52eaf84442af",
}


def test_template_token_streams_are_unchanged():
    names = sorted(p.stem for p in Path(taulab.__file__).parent.joinpath("templates").glob("*.tpl"))
    assert names == sorted(_TEMPLATE_TOKENS)
    for name in names:
        assert _token_digest(template_source(name)) == _TEMPLATE_TOKENS[name], name


@pytest.mark.parametrize("text", ["x = \xb2;", "x = 1\xb2;", "x = \xb9\xb3;"])
def test_non_ascii_digits_are_syntax_errors(text):
    # str.isdigit accepts the latin-1 superscripts; numerals take 0-9 only
    with pytest.raises(TplSyntaxError, match="unexpected character"):
        parse_program(text)
    assert program_from_code(program_code(text)) is None
    assert tau(program_code(text), 0, 10) is False


def test_superscript_digits_still_continue_identifiers():
    m = run("x\xb2 = 4; out = x\xb2 + 1; halt;")
    assert m.halted and m.env["out"] == 5


@pytest.mark.parametrize("first", ["taulab.tpl", "taulab.proofs"])
def test_checkproof_works_whichever_module_is_imported_first(first):
    # proofs imports tpl, and the checkproof builtin calls back into proofs
    script = "\n".join([
        f"import {first}",
        "from taulab.tpl import Machine, parse_program",
        "p = parse_program('out = checkproof(0, 10, tonat(\"0 = 0\")); halt;')",
        "m = Machine(p, 0, 100).run()",
        "assert m.halted and m.env['out'] == 0 and m.steps == 2, (m.halted, m.env, m.steps)",
    ])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# --------------------------------------------------------------------------
# step exactness

def test_halt_costs_exactly_one_step():
    m = run("halt;")
    assert m.halted and m.steps == 1
    assert not run("halt;", 0, 0).halted


def test_two_statements_cost_two_steps():
    m = run("out = 7; halt;")
    assert m.halted and m.steps == 2 and output_code(m) == 7


def test_empty_program_halts_at_zero_steps():
    m = run("", 5, 0)
    assert m.halted and m.steps == 0
    assert tau(program_code(""), 123, 0) is True
    assert program_code("") == 0  # the least code is the empty program


def test_falling_off_the_end_costs_nothing_extra():
    m = run("x = 1; y = 2;")
    assert m.halted and m.steps == 2


def test_if_else_and_loop_counting():
    m = run("if (0) { out = 1; } else { out = 2; } halt;")
    assert m.halted and m.steps == 3 and output_code(m) == 2
    # 1 init + 4 header evaluations + 3 body statements + 1 halt
    m = run("i = 0; while (i < 3) { i = i + 1; } halt;")
    assert m.halted and m.steps == 9


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40))
def test_straight_line_programs_halt_at_exactly_their_length(k):
    text = "".join(f"v{i} = {i};" for i in range(k))
    e = program_code(text)
    assert tau(e, 0, k) is True
    if k > 0:
        assert tau(e, 0, k - 1) is False
    finished = run_code(e, 0, k + 100)
    assert finished.halted and finished.steps == k


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 50))
def test_counting_loop_flips_at_the_predicted_step(k):
    text = f"i = 0; while (i < {k}) {{ i = i + 1; }} halt;"
    e = program_code(text)
    cutoff = 2 * k + 3
    assert tau(e, 0, cutoff) is True
    assert tau(e, 0, cutoff - 1) is False


# --------------------------------------------------------------------------
# value semantics

def probe(expr, input_value=0):
    m = run(f"out = {expr}; halt;", input_value)
    assert m.halted, f"fault: {m.fault}"
    return m.env["out"]


def test_natural_arithmetic():
    assert probe("2 + 3") == 5
    assert probe("2 - 7") == 0          # monus
    assert probe("7 - 2") == 5
    assert probe("6 * 7") == 42
    assert probe("7 / 2") == 3
    assert probe("5 / 0") == 0
    assert probe("7 % 3") == 1
    assert probe("5 % 0") == 5
    assert probe("1 + 2 * 3") == 7
    assert probe("(1 + 2) * 3") == 9


def test_comparisons():
    assert probe("1 < 2") == 1
    assert probe("2 < 1") == 0
    assert probe("2 <= 2") == 1
    assert probe("3 <= 2") == 0
    assert probe("2 == 2") == 1
    assert probe("2 == 3") == 0
    assert probe('"ab" == "ab"') == 1
    assert probe('"ab" == "ac"') == 0
    assert probe('"1" == 1') == 0       # cross-type equality is plain false


def test_truthiness():
    m = run('if ("") { out = 1; } else { out = 2; } if ("x") { out2 = 3; } halt;')
    assert m.env["out"] == 2 and m.env["out2"] == 3


def test_string_builtins():
    assert probe('len("hello")') == 5
    assert probe('concat("ab", "cd")') == "abcd"
    assert probe('substr("hello", 1, 3)') == "ell"
    assert probe('substr("hello", 3, 99)') == "lo"    # clamped
    assert probe('substr("hello", 99, 2)') == ""
    assert probe('charat("abc", 1)') == "b"
    assert probe('charat("abc", 7)') == ""            # out of range


def test_codec_builtins():
    assert probe('tonat("halt;")') == program_code("halt;")
    assert probe('tostr(tonat("abc"))') == "abc"
    assert probe("pairN(1, 2)") == 10
    assert probe("unpairL(10)") == 1
    assert probe("unpairR(10)") == 2
    assert probe("inrange(7)") == 0
    assert probe("inrange(10)") == 1


def test_input_variable():
    assert probe("in + 1", input_value=41) == 42


# --------------------------------------------------------------------------
# faults: a stuck machine never halts

@pytest.mark.parametrize("text", [
    "x = y; halt;",                    # undefined variable
    'x = 1 + "a"; halt;',              # type error
    'x = "a" < "b"; halt;',            # order is for naturals only
    "x = len(3); halt;",
    "x = tostr(1); halt;",             # bit length 1 is not a packed string
    "x = unpairL(7); halt;",           # 7 is not a pair
    'x = tonat(5); halt;',
])
def test_faults_never_halt(text):
    m = run(text, budget=10_000)
    assert not m.halted and m.fault is not None
    assert tau(program_code(text), 0, 10_000) is False


_NAT = "{} needs a natural, got a string"
_STR = "{} needs a string, got a natural"
_HALT = program_code("halt;")


# `taulab tpl run` prints these texts as `fault: ...`, so they are pinned
# verbatim: every builtin with a wrong type in each argument position, every
# typed operator with a string on either side, and the builtin-specific
# faults.
@pytest.mark.parametrize("expr, fault", [
    ("len(1)", _STR.format("len")),
    ('concat(1, "b")', _STR.format("concat")),
    ('concat("a", 2)', _STR.format("concat")),
    ("substr(1, 0, 0)", _STR.format("substr")),
    ('substr("a", "b", 0)', _NAT.format("substr")),
    ('substr("a", 0, "b")', _NAT.format("substr")),
    ("charat(1, 0)", _STR.format("charat")),
    ('charat("a", "b")', _NAT.format("charat")),
    ("tonat(5)", _STR.format("tonat")),
    ('tostr("a")', _NAT.format("tostr")),
    ('pairN("a", 1)', _NAT.format("pairN")),
    ('pairN(1, "a")', _NAT.format("pairN")),
    ('unpairL("a")', _NAT.format("unpairL")),
    ('unpairR("a")', _NAT.format("unpairR")),
    ('inrange("a")', _NAT.format("inrange")),
    ('taub("a", 0, 0)', _NAT.format("taub")),
    ('taub(0, "a", 0)', _NAT.format("taub")),
    ('taub(0, 0, "a")', _NAT.format("taub")),
    ('runout("a", 0, 0)', _NAT.format("runout")),
    ('runout(0, "a", 0)', _NAT.format("runout")),
    ('runout(0, 0, "a")', _NAT.format("runout")),
    ('checkproof("a", 0, 0)', _NAT.format("checkproof")),
    ('checkproof(0, "a", 0)', _NAT.format("checkproof")),
    ('checkproof(0, 0, "a")', _NAT.format("checkproof")),
    *[(f'"a" {op} 1', _NAT.format(op)) for op in ("+", "-", "*", "/", "%", "<", "<=")],
    *[(f'1 {op} "a"', _NAT.format(op)) for op in ("+", "-", "*", "/", "%", "<", "<=")],
    ("y", "undefined variable 'y'"),
    ("tostr(1)", "tostr: code is not a packed string"),
    ("unpairL(7)", "unpairL: number is not a pair"),
    ("unpairR(7)", "unpairR: number is not a pair"),
    ("runout(1, 0, 5)", "runout: program never halts"),
    (f"runout({_HALT}, 0, 0)", "runout: program did not halt within the bound"),
    # every argument and operand is evaluated before any type is checked,
    # and types are checked in argument order
    ("concat(1, y)", "undefined variable 'y'"),
    ('"a" + y', "undefined variable 'y'"),
    ('substr(1, "b", 0)', _STR.format("substr")),
])
def test_fault_messages(expr, fault):
    m = run(f"x = {expr}; halt;")
    assert (m.halted, m.fault, m.steps) == (False, fault, 1)


def test_builtin_table_in_the_docs_matches_the_interpreter():
    docs = Path(__file__).resolve().parents[1] / "docs" / "tpl.md"
    rows = re.findall(r"^\| (`.*?) \|", docs.read_text(encoding="utf-8"), re.M)
    documented = {name: len(args.split(","))
                  for row in rows
                  for name, args in re.findall(r"`(\w+)\(([^)]*)\)`", row)}
    assert documented == {name: len(types) for name, (types, _) in _BUILTINS.items()}


def test_divergence():
    e = program_code("while (1) { }")
    for t in (0, 1, 10, 1000):
        assert tau(e, 0, t) is False
    finished = run_code(e, 0, 1000)     # a finished run that did not halt
    assert isinstance(finished, Machine)
    assert not finished.halted and finished.fault is None and finished.steps == 1000
    assert tau(1, 0, 1000) is False     # bit length not a multiple of 8
    assert run_code(1, 0, 1000) is None
    assert run_code(program_code("x = 1"), 0, 1000) is None  # text does not parse


# --------------------------------------------------------------------------
# deep expressions: the parser and the evaluator recurse, and these depths
# (about half of what parses today) work only because importing taulab raises
# the recursion limit

def test_deeply_parenthesized_expression_halts():
    m = run("out = " + "(" * 2000 + "1" + ")" * 2000 + "; halt;")
    assert m.halted and m.env["out"] == 1


def test_long_sum_evaluates():
    # one left-nested chain of 10 000 additions, one evaluator frame each
    assert probe("0" + " + 1" * 10_000) == 10_000


def test_deeply_nested_builtin_calls_evaluate():
    assert probe("len(" + "tostr(tonat(" * 1000 + '"ab"' + "))" * 1000 + ")") == 2


# --------------------------------------------------------------------------
# nested simulation and charging

def test_taub_charges_inner_steps():
    hc = program_code("halt;")
    m = run(f"out = taub({hc}, 0, 5); halt;")
    # assign(1) + inner run(1) + halt(1)
    assert m.halted and m.env["out"] == 1 and m.steps == 3


def test_taub_verdicts():
    loop = program_code("while (1) { }")
    assert probe(f"taub({loop}, 0, 50)") == 0
    assert probe("taub(1, 0, 50)") == 0           # undecodable: never halts
    assert probe("taub(0, 0, 0)") == 1            # empty program halts at 0
    hc = program_code("halt;")
    assert probe(f"taub({hc}, 0, 0)") == 0
    assert probe(f"taub({hc}, 0, 1)") == 1


def test_inner_run_capped_by_outer_budget_is_not_a_verdict():
    loop = program_code("while (1) { }")
    text = f"out = taub({loop}, 0, 100); halt;"
    m = run(text, 0, 50)
    # the inner run consumed everything left; the outer machine is out of
    # budget, not halted, and reports no fault
    assert not m.halted and m.fault is None and m.steps == 50
    # with room to actually run 100 inner steps the verdict lands
    m2 = run(text, 0, 102)
    assert m2.halted and m2.env["out"] == 0 and m2.steps == 102


def test_runout_returns_the_packed_out_value():
    inc = program_code("out = in + 1; halt;")
    m = run(f"out = runout({inc}, 3, 10); halt;")
    assert m.halted and m.env["out"] == 4 and m.steps == 4  # 1 + inner 2 + 1
    say = program_code('out = "ok"; halt;')
    assert probe(f"runout({say}, 0, 10)") == program_code("ok")


def test_runout_faults_when_the_target_does_not_halt():
    loop = program_code("while (1) { }")
    m = run(f"x = runout({loop}, 0, 5); halt;", budget=10_000)
    assert not m.halted and m.fault is not None
    m2 = run("x = runout(1, 0, 5); halt;", budget=10_000)
    assert not m2.halted and m2.fault is not None


def test_output_code_packs_strings():
    m = run('out = "hi"; halt;')
    assert output_code(m) == program_code("hi")
    m2 = run("halt;")
    assert output_code(m2) == 0  # out unset


# --------------------------------------------------------------------------
# determinism and monotonicity

_POOL = [
    "",
    "halt;",
    "while (1) { }",
    "i = 0; while (i < 7) { i = i + 1; } halt;",
    "x = in; while (0 < x) { x = x - 2; } halt;",
    "x = in % 3; if (x == 0) { halt; } while (1) { }",
    f"out = taub({program_code('halt;')}, in, 3); halt;",
]
_POOL_CODES = [program_code(p) for p in _POOL]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, len(_POOL) - 1), st.integers(0, 40),
       st.integers(0, 200), st.integers(0, 200))
def test_tau_is_monotone_in_the_budget(which, x, t, extra):
    e = _POOL_CODES[which]
    if tau(e, x, t):
        assert tau(e, x, t + extra)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(_POOL) - 1), st.integers(0, 40), st.integers(0, 200))
def test_runs_are_deterministic(which, x, t):
    program = parse_program(_POOL[which])
    a = Machine(program, x, t).run()
    b = Machine(program, x, t).run()
    assert (a.halted, a.steps, a.fault, a.env) == (b.halted, b.steps, b.fault, b.env)
    # the run of the program's code is the same run, and the one behind tau
    e = _POOL_CODES[which]
    c, d = run_code(e, x, t), run_code(e, x, t)
    assert (c.halted, c.steps, c.fault, c.env) == (d.halted, d.steps, d.fault, d.env) \
        == (a.halted, a.steps, a.fault, a.env)
    assert tau(e, x, t) == (c is not None and c.halted)


# --------------------------------------------------------------------------
# templates

def test_searcher_template_instantiates_and_parses():
    program = instantiate_template("searcher", {"ENUM_CODE": 99, "POLARITY": "pos"})
    assert "99" in program.source and "{{" not in program.source


def test_unbound_placeholder_is_an_error():
    with pytest.raises(TemplateError):
        instantiate_template("searcher", {"ENUM_CODE": 99})
    with pytest.raises(TemplateError):
        instantiate_template("no_such_template", {})


def test_searcher_diverges_on_non_pair_inputs():
    program = instantiate_template("searcher", {"ENUM_CODE": 0, "POLARITY": "pos"})
    m = Machine(program, 7, 5_000).run()   # 7 is not a pair
    assert not m.halted and m.fault is not None


def test_numeral_rendering_idiom():
    text = """
v = in;
if (v == 0) { n = "0"; } else {
  d = ""; w = v;
  while (0 < w) { d = concat(charat("0123456789", w % 10), d); w = w / 10; }
  n = concat("#", d);
}
out = n;
halt;
"""
    for value, want in [(0, "0"), (7, "#7"), (120, "#120"), (98765, "#98765")]:
        m = run(text, input_value=value, budget=10_000)
        assert m.halted and m.env["out"] == want


def _enum_output(name: str, index: int, budget: int = 200_000) -> int | None:
    program = instantiate_template(name, {})
    m = Machine(program, index, budget).run()
    return output_code(m) if m.halted else None


def test_base_enumerator_emits_the_order_axioms():
    for name in ("enum_t", "enum_s"):
        assert _enum_output(name, 0) == program_code("A x. A y. (x < y -> ~(y < x))")
        assert _enum_output(name, 4) == program_code("A x. ~(x < 0)")
        assert _enum_output(name, 5) == program_code("A x. (0 < x -> E v. x = s(v))")


def test_true_halting_enumerator_slots():
    # offset pair(pair(0,0),0) = 0: the empty program halts within 0 steps
    assert _enum_output("enum_t", 6) == program_code("tau(0, 0, 0)")
    # e=1 never halts: plain padding in the positive-facts stream
    bad = 6 + pair(pair(1, 0), 5)
    assert _enum_output("enum_t", bad) == program_code("0 = 0")
    # a non-pair offset is padding
    assert _enum_output("enum_t", 6 + 7) == program_code("0 = 0")


def test_signed_halting_enumerator_slots():
    assert _enum_output("enum_s", 6) == program_code("tau(0, 0, 0)")
    signed = 6 + 2 * pair(pair(1, 0), 5)
    assert _enum_output("enum_s", signed) == program_code("~tau(#1, 0, #5)")
    assert _enum_output("enum_s", 6 + 2 * 7) == program_code("0 = 0")


def test_finite_segment_enumerator_slots():
    assert _enum_output("enum_s", 6 + 1) == program_code("A x. (x < 0 <-> ~(0 = 0))")
    assert _enum_output("enum_s", 6 + 2 * 2 + 1) == \
        program_code("A x. (x < #2 <-> x = 0 | x = #1)")
    assert _enum_output("enum_s", 6 + 2 * 4 + 1) == \
        program_code("A x. (x < #4 <-> x = 0 | x = #1 | x = #2 | x = #3)")


def test_planted_enumerator_shifts_the_base_stream():
    base_code = program_code(template_source("enum_t"))
    planted = instantiate_template(
        "planted_enum", {"AXIOM_TEXT": "0 < s(0)", "BASE_CODE": base_code})
    m0 = Machine(planted, 0, 10_000).run()
    assert m0.halted and output_code(m0) == program_code("0 < s(0)")
    m1 = Machine(planted, 1, 500_000).run()
    assert m1.halted and output_code(m1) == program_code("A x. A y. (x < y -> ~(y < x))")
    m7 = Machine(planted, 7, 500_000).run()
    assert m7.halted and output_code(m7) == program_code("tau(0, 0, 0)")


def test_template_source_is_ascii_and_parses():
    for name in ("searcher", "kleene_searcher", "enum_t", "enum_s"):
        text = template_source(name)
        assert text.isascii()


# --------------------------------------------------------------------------
# golden template runs: (halted, fault, steps, env digest) frozen from the
# statement-by-statement interpreter, at budgets that stop inside and
# around the templates' decimal-digit loops

def _env_digest(env) -> str:
    h = hashlib.sha256()
    for key in sorted(env):
        value = env[key]
        data = value.encode("latin-1") if type(value) is str else format(value, "x").encode()
        h.update(f"{key}:{type(value).__name__}:{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()[:16]


def _golden(m: Machine):
    return (m.halted, m.fault, m.steps, _env_digest(m.env))


@pytest.fixture(scope="module")
def race_probe():
    """Both searchers of rosser_pair(enum_s) and the probe pair(negative,
    positive); each first writes both ~55k-bit codes in decimal."""
    art = rosser_pair(program_code(template_source("enum_s")))
    programs = {"pos": program_from_code(art.positive), "neg": program_from_code(art.negative)}
    return programs, pair(art.negative, art.positive)


_RACE_GOLDEN = {
    ('pos', 0): (False, None, 0, '15fc97e8d376e78d'),
    ('pos', 5): (False, None, 5, '404bfaa8b8a55808'),
    ('pos', 6): (False, None, 6, '1583fcc857c07657'),
    ('pos', 7): (False, None, 7, '1583fcc857c07657'),
    ('pos', 8): (False, None, 8, '7ca7aa3e4a220d1d'),
    ('pos', 9): (False, None, 9, '0288ffb6783c487e'),
    ('pos', 10): (False, None, 10, '0288ffb6783c487e'),
    ('pos', 11): (False, None, 11, 'e3d6a0cf9277f3fb'),
    ('pos', 12): (False, None, 12, '8cfc9c617f00616b'),
    ('pos', 50000): (False, None, 50000, 'e5e22c17901223f0'),
    ('pos', 50001): (False, None, 50001, 'ed63ee8270e0f985'),
    ('pos', 50002): (False, None, 50002, 'ed63ee8270e0f985'),
    ('pos', 100299): (False, None, 100299, 'db2371ebd716ab1d'),
    ('pos', 100300): (False, None, 100300, 'db2371ebd716ab1d'),
    ('pos', 100301): (False, None, 100301, '191d66538bd7a045'),
    ('pos', 150000): (False, None, 150000, 'abc284106f228d99'),
    ('neg', 0): (False, None, 0, '15fc97e8d376e78d'),
    ('neg', 5): (False, None, 5, '404bfaa8b8a55808'),
    ('neg', 6): (False, None, 6, '1583fcc857c07657'),
    ('neg', 7): (False, None, 7, '1583fcc857c07657'),
    ('neg', 8): (False, None, 8, '7ca7aa3e4a220d1d'),
    ('neg', 9): (False, None, 9, '0288ffb6783c487e'),
    ('neg', 10): (False, None, 10, '0288ffb6783c487e'),
    ('neg', 11): (False, None, 11, 'e3d6a0cf9277f3fb'),
    ('neg', 12): (False, None, 12, '8cfc9c617f00616b'),
    ('neg', 50000): (False, None, 50000, 'e5e22c17901223f0'),
    ('neg', 50001): (False, None, 50001, 'ed63ee8270e0f985'),
    ('neg', 50002): (False, None, 50002, 'ed63ee8270e0f985'),
    ('neg', 100299): (False, None, 100299, 'e7e20e0ce422a241'),
    ('neg', 100300): (False, None, 100300, 'e7e20e0ce422a241'),
    ('neg', 100301): (False, None, 100301, 'e7e20e0ce422a241'),
    ('neg', 150000): (False, None, 150000, 'fc2f2a58a755e28a'),
}


@pytest.mark.parametrize("polarity, budget", sorted(_RACE_GOLDEN))
def test_race_searchers_match_their_golden_runs(race_probe, polarity, budget):
    programs, probe_input = race_probe
    m = Machine(programs[polarity], probe_input, budget).run()
    assert _golden(m) == _RACE_GOLDEN[polarity, budget]
    if budget == 150_000:
        # past the preamble, c counts the proof codes already rejected
        assert m.env["c"] == {"pos": 16493, "neg": 16492}[polarity]


# (slot, budget): budget None runs to halt; 16337..16339 stop slot 4001 in
# the digit loop of w = 1091 before its second header, inside the body
# after one assignment, and after the body (the header not yet charged)
_ENUM_S_GOLDEN = {
    (0, None): (True, None, 4, '700acd90509896b1'),
    (1, None): (True, None, 5, 'e6438a6e7fb12608'),
    (2, None): (True, None, 6, '30449eee8ce7bcfc'),
    (3, None): (True, None, 7, '2db98a35e397a755'),
    (4, None): (True, None, 8, 'e844b5d6580f9f55'),
    (5, None): (True, None, 9, 'f129b86401a52fea'),
    (6, None): (True, None, 33, 'de3c88435d0986ba'),
    (7, None): (True, None, 22, 'a5a6d54abdeb9b30'),
    (8, None): (True, None, 39, '70fabf1036284659'),
    (9, None): (True, None, 30, '8e935bce09e3e26b'),
    (10, None): (True, None, 39, '67d20ca00f03587a'),
    (11, None): (True, None, 39, '79c774561da17934'),
    (12, None): (True, None, 14, '3992aaebd91cc7e1'),
    (13, None): (True, None, 48, '4b941985b6d5a66e'),
    (14, None): (True, None, 39, '355e45867579950e'),
    (15, None): (True, None, 57, 'fdfe09ff3d3512c3'),
    (16, None): (True, None, 45, '0461a50be3d6e394'),
    (17, None): (True, None, 66, '18a9a324f907e645'),
    (18, None): (True, None, 40, 'adc9e0e28af9fe57'),
    (19, None): (True, None, 75, '136b308ca55c65c7'),
    (20, None): (True, None, 14, 'c0242837d236599c'),
    (21, None): (True, None, 84, 'a5067f2cad7b017c'),
    (22, None): (True, None, 14, 'faf1d697ba626746'),
    (23, None): (True, None, 93, '567037c02ab9f531'),
    (24, None): (True, None, 39, '0f8350b60f60d0ac'),
    (25, None): (True, None, 102, '243ac23d29769162'),
    (26, None): (True, None, 45, '693ad8ee66fc5f76'),
    (27, None): (True, None, 114, '5cb1991038d6dab0'),
    (28, None): (True, None, 46, 'cbb126ea347af2d9'),
    (29, None): (True, None, 126, 'd0ee113daf9d27b7'),
    (30, None): (True, None, 17, '4795c76d39f20063'),
    (31, None): (True, None, 138, 'ada97f7b40b06e0d'),
    (32, None): (True, None, 14, '99dbef3d42fb36ef'),
    (33, None): (True, None, 150, '48722196678b220a'),
    (34, None): (True, None, 14, 'fd55cf6d55084699'),
    (35, None): (True, None, 162, 'b55892e8ce0641ae'),
    (36, None): (True, None, 14, '5725eb5a6aee6bac'),
    (37, None): (True, None, 174, 'ce24fca1a65e8096'),
    (38, None): (True, None, 39, '3df43a5c88b55add'),
    (39, None): (True, None, 186, '44c97875a6b8cd7f'),
    (40, None): (True, None, 45, 'f52142da7b2888bb'),
    (4001, None): (True, None, 32646, '4e49fb65b2b6853d'),
    (4001, 16337): (False, None, 16337, '5f38ea7ee348dc4e'),
    (4001, 16338): (False, None, 16338, '1f910e3d79f8d51d'),
    (4001, 16339): (False, None, 16339, 'b00d1923eb70a5df'),
}


@pytest.mark.parametrize("slot, budget", list(_ENUM_S_GOLDEN))
def test_enum_s_matches_its_golden_runs(slot, budget):
    program = instantiate_template("enum_s", {})
    m = Machine(program, slot, 10 ** 6 if budget is None else budget).run()
    assert _golden(m) == _ENUM_S_GOLDEN[slot, budget]


# --------------------------------------------------------------------------
# the decimal-digit loop superinstruction

_DIGIT_LOOP = ('while (0 < v) {{ d = concat(charat("0123456789", v % {ten}), d); '
               'v = v / {ten}; }}')


def _loop_and_twin(prefix: str):
    """``prefix``, the digit loop and ``halt;``, once as written and once as
    its twin, which divides by ``(10 + 0)``: the same loop, step for step,
    that the recogniser must not match."""
    loop, twin = (parse_program(f"{prefix} {_DIGIT_LOOP.format(ten=ten)} halt;")
                  for ten in ("10", "(10 + 0)"))
    assert type(loop.body[-2]) is DigitLoop and type(twin.body[-2]) is While
    return loop, twin


def _state(m: Machine):
    return (m.halted, m.fault, m.steps, dict(m.env), [i for _, i in m._frames])


def _stepped_states(program: TplProgram, input_value: int, last: int) -> list:
    """The states of ``program`` at budgets 0..last, from one run whose
    budget is raised a step at a time: a plain statement runs out before it
    has any effect, so running on continues the same run."""
    m = Machine(program, input_value, 0)
    states = []
    for budget in range(last + 1):
        m.budget = budget
        states.append(_state(m.run()))
    return states


_DIGIT_VALUES = [0, 1, 9, 10, *(10 ** k + s for k in (2, 5, 19) for s in (-1, 0, 1)),
                 (1 << 4000) - 12345]


@pytest.mark.parametrize("d", ["", "ab"])
@pytest.mark.parametrize("v", _DIGIT_VALUES, ids=lambda v: f"{v.bit_length()}bits{v % 1000}")
def test_digit_loop_agrees_with_its_twin_at_every_budget(v, d):
    loop, twin = _loop_and_twin(f'v = in; d = "{d}";')
    n = len(str(v)) if v else 0
    last = 2 + 1 + 3 * n + 1  # prefix, final header, halt
    expected = _stepped_states(twin, v, last + 1)
    assert expected[-1][0] and expected[-1][2] == last
    assert Machine(twin, v, last // 2).run().env == expected[last // 2][3]
    for budget in range(last + 2):
        assert _state(Machine(loop, v, budget).run()) == expected[budget], budget


def test_digit_loop_past_the_str_digit_limit():
    v = 7 ** 6000  # 5 071 digits; str() refuses past 4 300
    loop, twin = _loop_and_twin('v = in; d = "ab";')
    expected = _stepped_states(twin, v, 3 * 5071 + 5)
    for budget in (0, 3, 4, 5, 6, 7, 8, 9000, 9001, 9002, 3 * 5071 + 3, 3 * 5071 + 4):
        assert _state(Machine(loop, v, budget).run()) == expected[budget], budget


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1 << 12000), st.integers(0, 3 * 3620), st.sampled_from(["", "xy"]))
def test_digit_loop_agrees_with_its_twin_at_random(v, budget, d):
    loop, twin = _loop_and_twin(f'v = in; d = "{d}";')
    assert _state(Machine(loop, v, budget).run()) == _state(Machine(twin, v, budget).run())


@pytest.mark.parametrize("prefix, fault", [
    ('v = 25; d = 5;', "concat needs a string, got a natural"),
    ('v = "25"; d = "";', "< needs a natural, got a string"),
    ('v = 25;', "undefined variable 'd'"),
    ('v = 0;', None),  # the loop never runs, so d is never read
])
def test_digit_loop_faults_and_exits_as_its_twin(prefix, fault):
    loop, twin = _loop_and_twin(prefix)
    for budget in range(12):
        got, want = Machine(loop, 0, budget).run(), Machine(twin, 0, budget).run()
        assert _state(got) == _state(want), budget
    assert got.fault == fault and got.halted == (fault is None)


def _digit_loop_count(stmts) -> int:
    count = 0
    for s in stmts:
        if type(s) is DigitLoop:
            count += 1
        elif type(s) is If:
            count += _digit_loop_count(s.then) + _digit_loop_count(s.other)
        elif type(s) is While:
            count += _digit_loop_count(s.body)
    return count


def test_every_template_digit_loop_is_recognised():
    want = {"searcher": 2, "enum_s": 5, "enum_t": 3, "diagonal": 1, "kleene_searcher": 1}
    names = sorted(p.stem for p in Path(taulab.__file__).parent.joinpath("templates").glob("*.tpl"))
    assert len(names) == 9
    for name in names:
        text = re.sub(r"\{\{[A-Z0-9_]+\}\}", "0", template_source(name))
        assert _digit_loop_count(parse_program(text).body) == want.get(name, 0), name


@pytest.mark.parametrize("text", [
    'while (0 < v) { v = v / 10; d = concat(charat("0123456789", v % 10), d); }',
    'while (0 < v) { d = concat(charat("0123456789", v % 10), d); v = v / 100; }',
    'while (0 < v) { d = concat(charat("0123456789x", v % 10), d); v = v / 10; }',
    'while (0 < v) { d = concat(d, charat("0123456789", v % 10)); v = v / 10; }',
    'while (0 < v) { v = concat(charat("0123456789", v % 10), v); v = v / 10; }',
    'while (1 < v) { d = concat(charat("0123456789", v % 10), d); v = v / 10; }',
])
def test_digit_loop_near_misses_stay_plain_loops(text):
    assert type(parse_program(text).body[0]) is While
