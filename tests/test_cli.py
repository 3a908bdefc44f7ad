"""Command-line wiring: exit codes, report shapes, artifacts, determinism.

Runs the dispatcher in-process (fast, capturable) except where the test is
about the installed entry point or environment inheritance, which use a
subprocess.
"""

import errno
import os
import subprocess
import sys

import pytest

from taulab.cli import dispatch
from taulab.codec import nat_to_decimal, program_code
from taulab.constructions import kleene_sentence
from taulab.fol import format_formula
from taulab.tpl import parse_program, tau, template_source

LOOPER = "i = 0;\nwhile (i < in) { i = i + 1; }\n"


@pytest.fixture()
def s_axioms(tmp_path):
    path = tmp_path / "s_axioms.tpl"
    path.write_text(template_source("enum_s"), encoding="ascii")
    return path


@pytest.fixture()
def t_axioms(tmp_path):
    path = tmp_path / "t_axioms.tpl"
    path.write_text(template_source("enum_t"), encoding="ascii")
    return path


def run(capsys, *argv):
    code = dispatch([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# codec

def test_pair_prints_ten(capsys):
    assert run(capsys, "codec", "pair", "1", "2") == (0, "10\n", "")


def test_decode_29_is_an_input_error(capsys):
    code, out, err = run(capsys, "codec", "decode", "29")
    assert code == 3
    assert out == ""
    assert "multiple of 8" in err


def test_encode_decode_roundtrip(capsys, tmp_path):
    source = tmp_path / "p.tpl"
    source.write_text(LOOPER, encoding="ascii")
    code, out, _ = run(capsys, "codec", "encode", source)
    assert code == 0
    assert out.strip() == nat_to_decimal(program_code(LOOPER))
    code, out, _ = run(capsys, "codec", "decode", out.strip())
    assert code == 0
    assert out == LOOPER


def test_encode_missing_file(capsys):
    code, out, err = run(capsys, "codec", "encode", "no-such-file.tpl")
    assert code == 3 and out == "" and "no such file" in err


@pytest.mark.parametrize("name, error", [("loop.tpl/x.tpl", errno.ENOTDIR),
                                         ("a" * 300 + ".tpl", errno.ENAMETOOLONG)],
                         ids=["under-a-file", "name-too-long"])
def test_an_unreadable_input_path_is_an_input_error(capsys, tmp_path, name, error):
    (tmp_path / "loop.tpl").write_text(LOOPER, encoding="ascii")
    path = tmp_path / name
    assert run(capsys, "tpl", "code", path) == \
        (3, "", f"input error: cannot read {path}: {os.strerror(error)}\n")


def test_unpair(capsys):
    assert run(capsys, "codec", "unpair", "10") == (0, "1 2\n", "")
    code, out, _ = run(capsys, "codec", "unpair", "3")
    assert code == 1 and out == "not-a-pair\n"


# --------------------------------------------------------------------------
# tpl

def test_run_reports_a_halting_program(capsys, tmp_path):
    source = tmp_path / "p.tpl"
    source.write_text('out = "ok"; halt;', encoding="ascii")
    code, out, _ = run(capsys, "tpl", "run", source, "--input", "0")
    assert code == 0
    assert out.splitlines() == [
        "halted: yes",
        "steps: 2",
        f"output-code: {nat_to_decimal(program_code('ok'))}",
        "output-text: ok",
    ]


def test_run_reports_budget_exhaustion(capsys, tmp_path):
    source = tmp_path / "p.tpl"
    source.write_text("while (1) { }", encoding="ascii")
    code, out, _ = run(capsys, "tpl", "run", source,
                       "--input", "0", "--steps", "50")
    assert code == 1
    assert "halted: no" in out and "steps: 50" in out


def test_run_reports_a_fault(capsys, tmp_path):
    source = tmp_path / "p.tpl"
    source.write_text('x = 1;\nout = concat("a", x);\nhalt;\n', encoding="ascii")
    code, out, err = run(capsys, "tpl", "run", source, "--input", "0")
    assert (code, err) == (1, "")
    assert out == ("halted: no\n"
                   "steps: 2\n"
                   "fault: concat needs a string, got a natural\n")


def test_run_rejects_a_malformed_program(capsys, tmp_path):
    source = tmp_path / "p.tpl"
    source.write_text("out = ;", encoding="ascii")
    code, _, err = run(capsys, "tpl", "run", source, "--input", "0")
    assert code == 3 and "p.tpl" in err


def test_tau_and_code(capsys, tmp_path):
    assert run(capsys, "tpl", "tau", "0", "0", "0") == (0, "1\n", "")
    source = tmp_path / "p.tpl"
    source.write_text(LOOPER, encoding="ascii")
    code, out, _ = run(capsys, "tpl", "code", source)
    assert code == 0 and out.strip() == nat_to_decimal(program_code(LOOPER))


def test_tau_reads_a_code_past_the_int_digit_cap(capsys):
    # the code of enum_s.tpl has 5 540 digits; int() refuses more than 4 300
    e = program_code(template_source("enum_s"))
    text = nat_to_decimal(e)
    assert len(text) > 4300
    for x, t in ((8, 100), (8, 10), (0, 1000)):
        holds = tau(e, x, t)
        assert run(capsys, "tpl", "tau", text, x, t) == (0 if holds else 1,
                                                         f"{int(holds)}\n", "")


def test_tau_reads_signed_and_spaced_numerals_as_int_does(capsys):
    assert run(capsys, "tpl", "tau", "+0", " 0", "-0") == (0, "1\n", "")
    assert run(capsys, "tpl", "tau", "-1", "0", "0")[0] == 2


# --------------------------------------------------------------------------
# theory

def test_member_exit_codes(capsys):
    code, out, _ = run(capsys, "theory", "member", "T", "0 = 0")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "theory", "member", "T", "0 < 0")
    assert (code, out) == (1, "no\n")


def test_enum_lists_axioms(capsys):
    code, out, _ = run(capsys, "theory", "enum", "S",
                       "--from", "0", "--count", "2")
    assert code == 0
    assert out.splitlines() == [
        "0: A x. A y. (x < y -> ~(y < x))",
        "1: A x. A y. A z. (x < y & y < z -> x < z)",
    ]


def test_decide_and_eval(capsys):
    assert run(capsys, "theory", "decide", "A x. E y. x < y") == \
        (0, "true-in-std\n", "")
    assert run(capsys, "theory", "decide", "E x. x < 0") == \
        (0, "false-in-std\n", "")
    code, _, err = run(capsys, "theory", "decide", "pi(0, 0) = 0")
    assert code == 3 and "order fragment" in err
    code, _, err = run(capsys, "theory", "decide", "x = x")
    assert code == 3 and err != ""
    assert run(capsys, "theory", "eval", "A x. ~(x < 0)") == \
        (0, "true-in-std\n", "")


def test_decide_past_the_size_cap_is_an_input_error(capsys, monkeypatch):
    import taulab.theories as theories
    monkeypatch.setattr(theories, "_DNF_TERM_CAP", 1)
    assert run(capsys, "theory", "decide", "E x. ((x < #5 | #6 < x) & (x < #7 | #8 < x))") == \
        (3, "", "input error: formula too large to flatten for elimination\n")


def test_eval_reports_budget_exhaustion(capsys, tmp_path):
    looper_code = nat_to_decimal(program_code(LOOPER))
    sentence = f"E z. tau(#{looper_code}, #1000000000, z)"
    code, out, _ = run(capsys, "theory", "eval", sentence, "--budget", "10")
    assert code == 1
    assert out == "unknown(10)\n"


# --------------------------------------------------------------------------
# proof

PROOFS = "tests/data/proofs"


def test_check_a_known_good_script(capsys, s_axioms):
    code, out, _ = run(capsys, "proof", "check", f"{PROOFS}/01_identity.proof",
                       "--theory", s_axioms,
                       "--target", "0 = 0 -> 0 = 0")
    assert code == 0
    assert "ok: yes" in out and "kind: ok" in out and "steps: 5" in out


def test_check_against_the_wrong_target(capsys, s_axioms):
    code, out, _ = run(capsys, "proof", "check", f"{PROOFS}/01_identity.proof",
                       "--theory", s_axioms, "--target", "0 = 0")
    assert code == 1
    assert "ok: no" in out and "kind: conclusion" in out


def test_check_rejects_a_malformed_script(capsys, s_axioms, tmp_path):
    bad = tmp_path / "bad.proof"
    bad.write_text("0. 0 = 0 ; NOPE", encoding="ascii")
    code, _, err = run(capsys, "proof", "check", bad, "--theory", s_axioms)
    assert code == 3 and "bad.proof" in err


def test_search_finds_the_first_axiom_at_code_ten(capsys, s_axioms):
    code, out, _ = run(capsys, "proof", "search", "--theory", s_axioms,
                       "--target", "A x. A y. (x < y -> ~(y < x))",
                       "--budget", "100")
    assert code == 0
    lines = out.splitlines()
    assert "found: yes" in lines and "code: 10" in lines
    assert lines[-1] == "0. A x. A y. (x < y -> ~(y < x)) ; AX 0"


def test_search_failure_is_negative_but_valid(capsys, s_axioms):
    code, out, _ = run(capsys, "proof", "search", "--theory", s_axioms,
                       "--target", "0 < 0", "--budget", "50")
    assert code == 1
    assert "found: no" in out and "searched: 50" in out


# --------------------------------------------------------------------------
# construct

def test_henkin_is_deterministic_and_clean(capsys, tmp_path):
    args = ("construct", "henkin", "--base", "order", "--count", "8",
            "--seed", "3", "--out", tmp_path / "h")
    code, first, _ = run(capsys, *args)
    assert code == 0
    assert "violations: 0" in first and "consistent: yes" in first
    report = (tmp_path / "h" / "henkin.report").read_text(encoding="ascii")
    assert report == first
    code, second, _ = run(capsys, *args)
    assert second == first


def test_henkin_rejects_an_unknown_base(capsys, tmp_path):
    code, _, err = run(capsys, "construct", "henkin", "--base", "peano",
                       "--count", "1", "--out", tmp_path)
    assert code == 3 and "peano" in err


def test_craig_writes_runnable_artifacts(capsys, s_axioms, tmp_path):
    out_dir = tmp_path / "c"
    code, out, _ = run(capsys, "construct", "craig", s_axioms,
                       "--out", out_dir)
    assert code == 0
    assert "axiom-0: A x. A y. (x < y -> ~(y < x))" in out
    for name in ("craig_decider.tpl", "craig_prefixes.tpl"):
        parse_program((out_dir / name).read_text(encoding="ascii"))
    assert (out_dir / "craig.report").read_text(encoding="ascii") == out


def test_kleene_artifacts_match_the_library(capsys, s_axioms, tmp_path):
    out_dir = tmp_path / "k"
    code, out, _ = run(capsys, "construct", "kleene", s_axioms,
                       "--out", out_dir)
    assert code == 0
    searcher, sentence = kleene_sentence(
        program_code(template_source("enum_s")))
    saved = (out_dir / "sentence.fol").read_text(encoding="ascii")
    assert saved.rstrip("\n") == format_formula(sentence)
    source = (out_dir / "searcher.tpl").read_text(encoding="ascii")
    assert program_code(source) == searcher


def test_rosser_emits_the_pinned_artifact_set(capsys, s_axioms, tmp_path):
    out_dir = tmp_path / "r"
    code, out, _ = run(capsys, "construct", "rosser", s_axioms,
                       "--out", out_dir)
    assert code == 0
    assert "plant: none" in out
    for name in ("rosser.report", "searcher_pos.tpl",
                 "searcher_neg.tpl", "sentence.fol"):
        assert (out_dir / name).exists(), name
    parse_program((out_dir / "searcher_pos.tpl").read_text(encoding="ascii"))


def test_rosser_planted_run_halts(capsys, s_axioms, tmp_path):
    code, out, _ = run(capsys, "construct", "rosser", s_axioms,
                       "--plant", "pos", "--out", tmp_path / "rp")
    assert code == 0
    assert "plant: pos" in out and "planted-run-halted: yes" in out


def test_diagonal_refutes_the_constant_no_decider(capsys, tmp_path):
    decider = tmp_path / "no.tpl"
    decider.write_text("out = 0; halt;", encoding="ascii")
    out_dir = tmp_path / "d"
    code, out, _ = run(capsys, "construct", "diagonal", decider,
                       "--budget", "50", "--out", out_dir)
    assert code == 0
    assert "claimed: not-provable" in out and "refuted: yes" in out
    assert "witness-step:" in out
    parse_program((out_dir / "diagonal.tpl").read_text(encoding="ascii"))


def test_diagonal_unrefuted_is_negative(capsys, tmp_path):
    decider = tmp_path / "yes.tpl"
    decider.write_text("out = 1; halt;", encoding="ascii")
    code, out, _ = run(capsys, "construct", "diagonal", decider,
                       "--budget", "50", "--out", tmp_path / "d")
    assert code == 1
    assert "refuted: no" in out and "searched-codes: 50" in out


def test_rice_emits_the_spliced_stream(capsys, t_axioms, s_axioms, tmp_path):
    out_dir = tmp_path / "rc"
    code, out, _ = run(capsys, "construct", "rice", t_axioms, s_axioms,
                       "--psi", "0 < #1", "--out", out_dir)
    assert code == 0
    assert "contradiction: 0 < #1 & ~(0 < #1)" in out
    parse_program((out_dir / "rice_enum.tpl").read_text(encoding="ascii"))
    code, _, err = run(capsys, "construct", "rice", t_axioms, s_axioms,
                       "--psi", "x = x", "--out", out_dir)
    assert code == 3 and err != ""


@pytest.mark.parametrize("argv", [
    ("henkin", "--base", "equality", "--count", "1"),
    ("craig", "{missing}"),
    ("craig", "{under_a_file}"),
    ("kleene", "{missing}"),
    ("rosser", "{missing}", "--plant", "pos"),
    ("diagonal", "{missing}"),
    ("rice", "{missing}", "{s}", "--psi", "0 = 0"),
    ("rice", "{s}", "{missing}", "--psi", "0 = 0"),
    ("rice", "{s}", "{s}", "--psi", "0 ="),
])
def test_an_input_error_writes_nothing(capsys, s_axioms, tmp_path, argv):
    out_dir = tmp_path / "out" / "nested"
    paths = {"{missing}": str(tmp_path / "missing.tpl"), "{s}": str(s_axioms),
             "{under_a_file}": str(s_axioms / "x.tpl")}
    code, out, err = run(capsys, "construct",
                         *(paths.get(arg, arg) for arg in argv),
                         "--out", out_dir)
    assert code == 3 and out == "" and err.startswith("input error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ("henkin", "--base", "order", "--count", "5"),
    ("kleene", "{s}"),
])
@pytest.mark.parametrize("out", ["{file}", "{file}/nested"])
def test_an_unwritable_out_is_an_input_error(capsys, s_axioms, tmp_path, argv, out):
    existing = tmp_path / "existing"
    existing.write_text("kept\n", encoding="ascii")
    before = sorted(tmp_path.rglob("*"))
    paths = {"{s}": str(s_axioms)}
    code, stdout, err = run(capsys, "construct",
                            *(paths.get(arg, arg) for arg in argv),
                            "--out", out.replace("{file}", str(existing)))
    assert code == 3 and stdout == ""
    assert err.startswith("input error: cannot write under --out ")
    assert err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert existing.read_text(encoding="ascii") == "kept\n"


# --------------------------------------------------------------------------
# configuration and usage

def test_usage_errors_exit_two(capsys):
    assert run(capsys, "codec", "frobnicate")[0] == 2
    assert run(capsys, "theory", "member", "U", "0 = 0")[0] == 2
    assert dispatch([]) == 2
    capsys.readouterr()


def test_bad_budget_env_is_a_configuration_error(capsys, monkeypatch,
                                                 tmp_path):
    source = tmp_path / "p.tpl"
    source.write_text("halt;", encoding="ascii")
    monkeypatch.setenv("LAB_STEP_BUDGET", "zero")
    code, _, err = run(capsys, "tpl", "run", source, "--input", "0")
    assert code == 2 and "LAB_STEP_BUDGET" in err
    monkeypatch.setenv("LAB_STEP_BUDGET", "0")
    assert run(capsys, "tpl", "run", source, "--input", "0")[0] == 2


def test_a_budget_flag_leaves_its_variable_unread(capsys, monkeypatch,
                                                 s_axioms, tmp_path):
    source = tmp_path / "p.tpl"
    source.write_text("while (1) { }", encoding="ascii")
    monkeypatch.setenv("LAB_STEP_BUDGET", "zero")
    code, out, _ = run(capsys, "tpl", "run", source, "--input", "0",
                       "--steps", "7")
    assert code == 1 and "steps: 7" in out
    assert run(capsys, "theory", "eval", "0 = 0", "--budget", "3")[:2] == \
        (0, "true-in-std\n")
    monkeypatch.setenv("LAB_STEP_BUDGET", "1000")
    monkeypatch.setenv("LAB_CODE_BUDGET", "zero")
    code, out, _ = run(capsys, "proof", "search", "--theory", s_axioms,
                       "--target", "0 < 0", "--budget", "5")
    assert code == 1 and "searched: 5" in out


def test_budget_env_is_honoured(capsys, monkeypatch, tmp_path):
    source = tmp_path / "p.tpl"
    source.write_text("while (1) { }", encoding="ascii")
    monkeypatch.setenv("LAB_STEP_BUDGET", "25")
    code, out, _ = run(capsys, "tpl", "run", source, "--input", "0")
    assert code == 1 and "steps: 25" in out


def test_installed_entry_point_matches(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "taulab.cli", "codec", "pair", "1", "2"],
        capture_output=True)
    assert result.returncode == 0
    assert result.stdout == b"10\n"
    again = subprocess.run(
        [sys.executable, "-m", "taulab.cli", "codec", "pair", "1", "2"],
        capture_output=True)
    assert again.stdout == result.stdout
