"""Command-line entry point.

Subcommand tree::

    codec     encode | decode | pair | unpair
    tpl       run | tau | code
    theory    member | enum | decide | eval
    proof     check | search
    construct henkin | craig | kleene | rosser | diagonal | rice

Exit codes: 0 success, 1 negative-but-valid result (not a member, proof
not found, run did not halt, ...), 2 usage or configuration error, 3 input
error (unreadable file, unparsable sentence or program, undecodable
number).  Diagnostics go to stderr; results and reports go to stdout.
A ``construct`` report shows an input program as its path and ``-bits``,
a written program as ``-file`` and ``-bits``, a written sentence as
``-file``; it is saved as ``<command>.report`` under ``--out``.

Budgets come from ``LAB_STEP_BUDGET`` and ``LAB_CODE_BUDGET`` (default
1000000 each, must be at least 1); per-command flags override them.  The
``--seed`` of ``construct henkin`` feeds only the sentence corpus; no
construction consults it.  Identical inputs and configuration produce
byte-identical output, so reports contain no timing or host information.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from pathlib import Path
from typing import Sequence

from .codec import (
    decimal_to_nat,
    decode_program_code,
    nat_to_decimal,
    pair,
    program_code,
    unpair,
)
from .constructions import (
    CONTRADICTION,
    completeness_probe,
    craig,
    diagonal,
    henkin_complete,
    kleene_sentence,
    plant_axiom,
    rice_reduce,
    rosser_pair,
)
from .fol import (
    And,
    Eq,
    Exists,
    FolError,
    Forall,
    Formula,
    Imp,
    Less,
    Not,
    Num,
    Or,
    Var,
    format_formula,
    parse_sentence,
    succ,
)
from .proofs import (
    EnumeratorIndexed,
    check_proof,
    format_proof_script,
    parse_proof_script,
    proof_to_code,
    prove_search,
)
from .theories import (
    decide_order_theory,
    eval_std,
    order_extension_derives,
    theory_by_name,
)
from .tpl import (
    Machine,
    TplProgram,
    TplSyntaxError,
    output_code,
    parse_program,
    run_code,
    tau,
)

SUCCESS, NEGATIVE, USAGE, BAD_INPUT = 0, 1, 2, 3


class _InputError(Exception):
    """Anything wrong with the data the user pointed us at."""


# --------------------------------------------------------------------------
# configuration

def _env_budget(name: str, given: int | None = None) -> int:
    if given is not None:
        return given
    raw = os.environ.get(name)
    if raw is None:
        return 10 ** 6
    try:
        value = int(raw)
    except ValueError:
        raise _ConfigError(f"{name} must be an integer, got {raw!r}")
    if value < 1:
        raise _ConfigError(f"{name} must be at least 1, got {value}")
    return value


class _ConfigError(Exception):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _natural(text: str) -> int:
    # int() refuses more than a few thousand digits; a plain numeral of any
    # length goes through the codec, every other text keeps int()'s reading
    value = decimal_to_nat(text) if text.isascii() and text.isdigit() else int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a natural number")
    return value


# --------------------------------------------------------------------------
# small input helpers

def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="ascii")
    except FileNotFoundError:
        raise _InputError(f"no such file: {path}")
    except IsADirectoryError:
        raise _InputError(f"not a file: {path}")
    except OSError as err:
        raise _InputError(f"cannot read {path}: {err.strerror}")
    except (UnicodeDecodeError, ValueError):
        raise _InputError(f"not ASCII text: {path}")


def _program_file(path: str) -> tuple[TplProgram, int]:
    """Parsed program and code of a program file."""
    text = _read_text(path)
    try:
        program = parse_program(text)
    except TplSyntaxError as err:
        raise _InputError(f"{path}: {err}")
    return program, program_code(text)


def _sentence(text: str) -> Formula:
    try:
        return parse_sentence(text)
    except FolError as err:
        raise _InputError(str(err))


def _decimal(text: str) -> int:
    try:
        return decimal_to_nat(text)
    except ValueError as err:
        raise _InputError(str(err))


class _Report:
    """Line-oriented ``key: value`` report, echoed and optionally saved.

    A ``construct`` report also owns its ``--out`` directory, made at the
    first write, so a command that fails before writing leaves none.
    """

    def __init__(self, out: str | None = None) -> None:
        self.lines: list[str] = []
        self.out = out

    def add(self, key: str, value: object) -> None:
        self.lines.append(f"{key}: {value}")

    def input(self, key: str, path: str) -> int:
        """Read the program file at ``path``; report it and its bit size."""
        _, code = _program_file(path)
        self.add(key, path)
        self.add(f"{key}-bits", code.bit_length())
        return code

    def program(self, key: str, filename: str, code: int) -> None:
        self.file(key, filename, decode_program_code(code))
        self.add(f"{key}-bits", code.bit_length())

    def file(self, key: str, filename: str, text: str) -> None:
        self._write(filename, text if text.endswith("\n") else text + "\n")
        self.add(f"{key}-file", filename)

    def emit(self, filename: str | None = None) -> None:
        text = "".join(line + "\n" for line in self.lines)
        if filename is not None:
            self._write(filename, text)
        sys.stdout.write(text)

    def _write(self, filename: str, text: str) -> None:
        try:
            Path(self.out).mkdir(parents=True, exist_ok=True)
            Path(self.out, filename).write_text(text, encoding="ascii")
        except OSError as err:
            raise _InputError(f"cannot write under --out {self.out}: "
                              f"{err.strerror or err}")


# --------------------------------------------------------------------------
# codec subcommands

def _cmd_codec_encode(args) -> int:
    print(nat_to_decimal(program_code(_read_text(args.file))))
    return SUCCESS


def _cmd_codec_decode(args) -> int:
    text = decode_program_code(_decimal(args.code))
    if text is None:
        raise _InputError(
            f"code {args.code} does not name a text: its bit string's "
            f"length is not a multiple of 8")
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return SUCCESS


def _cmd_codec_pair(args) -> int:
    print(nat_to_decimal(pair(args.n, args.m)))
    return SUCCESS


def _cmd_codec_unpair(args) -> int:
    parts = unpair(_decimal(args.code))
    if parts is None:
        print("not-a-pair")
        return NEGATIVE
    print(f"{nat_to_decimal(parts[0])} {nat_to_decimal(parts[1])}")
    return SUCCESS


# --------------------------------------------------------------------------
# tpl subcommands

def _cmd_tpl_run(args) -> int:
    program, _ = _program_file(args.file)
    machine = Machine(program, args.input,
                      _env_budget("LAB_STEP_BUDGET", args.steps)).run()
    report = _Report()
    report.add("halted", "yes" if machine.halted else "no")
    report.add("steps", machine.steps)
    if machine.fault is not None:
        report.add("fault", machine.fault)
    if machine.halted:
        report.add("output-code", nat_to_decimal(output_code(machine)))
        out = machine.env.get("out", 0)
        if type(out) is str and "\n" not in out:
            report.add("output-text", out)
    report.emit()
    return SUCCESS if machine.halted else NEGATIVE


def _cmd_tpl_tau(args) -> int:
    holds = tau(args.e, args.x, args.t)
    print(1 if holds else 0)
    return SUCCESS if holds else NEGATIVE


def _cmd_tpl_code(args) -> int:
    _, code = _program_file(args.file)
    print(nat_to_decimal(code))
    return SUCCESS


# --------------------------------------------------------------------------
# theory subcommands

def _cmd_theory_member(args) -> int:
    member = theory_by_name(args.theory).axiom_membership(
        _sentence(args.sentence))
    print("yes" if member else "no")
    return SUCCESS if member else NEGATIVE


def _cmd_theory_enum(args) -> int:
    handle = theory_by_name(args.theory)
    for index in range(args.start, args.start + args.count):
        print(f"{index}: {format_formula(handle.enumerate(index))}")
    return SUCCESS


def _cmd_theory_decide(args) -> int:
    sentence = _sentence(args.sentence)
    try:
        verdict = decide_order_theory(sentence)
    except (ValueError, RuntimeError) as err:  # RuntimeError: the elimination size cap
        raise _InputError(str(err))
    print(verdict)
    return SUCCESS


def _cmd_theory_eval(args) -> int:
    verdict = eval_std(_sentence(args.sentence),
                       _env_budget("LAB_STEP_BUDGET", args.budget))
    print(verdict)
    return SUCCESS if verdict.budget is None else NEGATIVE


# --------------------------------------------------------------------------
# proof subcommands

def _theory_oracle(path: str) -> EnumeratorIndexed:
    _, code = _program_file(path)
    return EnumeratorIndexed(code, memo=True)


def _cmd_proof_check(args) -> int:
    try:
        proof = parse_proof_script(_read_text(args.script))
    except (FolError, ValueError) as err:
        raise _InputError(f"{args.script}: {err}")
    oracle = _theory_oracle(args.theory)
    target = _sentence(args.target) if args.target is not None else None
    result = check_proof(proof, oracle, target,
                         _env_budget("LAB_STEP_BUDGET"))
    report = _Report()
    report.add("ok", "yes" if result.ok else "no")
    report.add("kind", result.kind)
    if result.step is not None:
        report.add("at-step", result.step)
    report.add("steps", len(proof))
    report.add("consumed", result.consumed)
    report.emit()
    return SUCCESS if result.ok else NEGATIVE


def _cmd_proof_search(args) -> int:
    oracle = _theory_oracle(args.theory)
    target = _sentence(args.target)
    code_budget = _env_budget("LAB_CODE_BUDGET", args.budget)
    proof = prove_search(oracle, target, code_budget,
                         _env_budget("LAB_STEP_BUDGET"))
    report = _Report()
    report.add("found", "yes" if proof is not None else "no")
    report.add("searched", code_budget)
    if proof is None:
        report.emit()
        return NEGATIVE
    report.add("code", nat_to_decimal(proof_to_code(proof)))
    report.add("steps", len(proof))
    report.emit()
    sys.stdout.write(format_proof_script(proof))
    return SUCCESS


# --------------------------------------------------------------------------
# construct subcommands

def _order_corpus(count: int, seed: int) -> list[Formula]:
    """Deterministic sentence corpus over the order language.

    Randomness begins and ends here: constructions receive the sentences,
    never the generator.
    """
    rng = random.Random(seed)

    def term(depth, bound):
        if bound and rng.random() < 0.45:
            base = Var(rng.choice(bound))
        else:
            base = Num(rng.randrange(4))
        return succ(base, rng.randrange(depth + 1))

    def formula(depth, bound):
        if depth == 0 or rng.random() < 0.3:
            left, right = term(1, bound), term(1, bound)
            return (Less if rng.random() < 0.6 else Eq)(left, right)
        roll = rng.randrange(6)
        if roll == 0:
            return Not(formula(depth - 1, bound))
        if roll < 4:
            op = rng.choice((And, Or, Imp))
            return op(formula(depth - 1, bound), formula(depth - 1, bound))
        var = f"q{len(bound)}"
        quant = Forall if roll == 4 else Exists
        return quant(var, formula(depth - 1, bound + [var]))

    return [formula(3, []) for _ in range(count)]


def _cmd_construct_henkin(args) -> int:
    if args.base != "order":
        raise _InputError(f"unknown base theory {args.base!r}")
    corpus = _order_corpus(args.count, args.seed)
    state = henkin_complete(order_extension_derives, corpus, args.count)
    violations = completeness_probe(state.decide, corpus)
    report = _Report(args.out)
    report.add("base", args.base)
    report.add("count", args.count)
    report.add("seed", args.seed)
    for index, (sentence, asserted) in enumerate(state.committed):
        report.add(str(index),
                   ("+ " if asserted else "- ") + format_formula(sentence))
    report.add("violations", len(violations))
    report.add("consistent", "no" if order_extension_derives(
        state.committed_sentences(), CONTRADICTION) else "yes")
    report.emit("henkin.report")
    return SUCCESS if not violations else NEGATIVE


def _cmd_construct_craig(args) -> int:
    report = _Report(args.out)
    code = report.input("enumerator", args.enumerator)
    artifact = craig(code, step_budget=_env_budget("LAB_STEP_BUDGET"))
    report.program("decider", "craig_decider.tpl", artifact.decider_code)
    report.program("prefixes", "craig_prefixes.tpl", artifact.prefix_code)
    report.add("axiom-0", format_formula(artifact.axiom(0)))
    report.add("prefix-2", format_formula(artifact.prefix(2)))
    report.emit("craig.report")
    return SUCCESS


def _cmd_construct_kleene(args) -> int:
    report = _Report(args.out)
    searcher, sentence = kleene_sentence(
        report.input("enumerator", args.enumerator))
    report.program("searcher", "searcher.tpl", searcher)
    report.file("sentence", "sentence.fol", format_formula(sentence))
    report.emit("kleene.report")
    return SUCCESS


def _cmd_construct_rosser(args) -> int:
    report = _Report(args.out)
    code = report.input("enumerator", args.enumerator)
    artifact = rosser_pair(code)
    report.program("negative", "searcher_neg.tpl", artifact.negative)
    report.program("positive", "searcher_pos.tpl", artifact.positive)
    report.file("sentence", "sentence.fol", format_formula(artifact.sentence))
    report.add("plant", args.plant if args.plant else "none")
    halted = True
    if args.plant is not None:
        target = (artifact.sentence if args.plant == "pos"
                  else Not(artifact.sentence))
        planted_stream = plant_axiom(target, code)
        planted = rosser_pair(planted_stream)
        runner = planted.positive if args.plant == "pos" else planted.negative
        probe = pair(artifact.negative, artifact.positive)
        machine = run_code(runner, probe, _env_budget("LAB_STEP_BUDGET"))
        report.file("planted-stream", "planted_stream.tpl",
                    decode_program_code(planted_stream))
        report.add("planted-run-halted", "yes" if machine.halted else "no")
        report.add("planted-run-steps", machine.steps)
        halted = machine.halted
    report.emit("rosser.report")
    return SUCCESS if halted else NEGATIVE


def _cmd_construct_diagonal(args) -> int:
    report = _Report(args.out)
    result = diagonal(report.input("decider", args.decider),
                      step_budget=_env_budget("LAB_STEP_BUDGET"),
                      search_budget=args.budget)
    report.program("diagonal", "diagonal.tpl", result.diagonal_code)
    report.add("claimed", {None: "none", True: "provable",
                           False: "not-provable"}[result.claimed])
    report.add("observed-halt", "yes" if result.observed else "no")
    report.add("refuted", "yes" if result.refuted else "no")
    if result.witness_step is not None:
        report.add("witness-step", result.witness_step)
    if result.searched_codes is not None:
        report.add("searched-codes", result.searched_codes)
    if result.found_proof_code is not None:
        report.add("found-proof-code", nat_to_decimal(result.found_proof_code))
    report.emit("diagonal.report")
    return SUCCESS if result.refuted else NEGATIVE


def _cmd_construct_rice(args) -> int:
    report = _Report(args.out)
    scrutinized = report.input("scrutinized", args.scrutinized)
    base = report.input("base", args.base)
    trigger = _sentence(args.psi)
    artifact = rice_reduce(scrutinized, base, trigger,
                           step_budget=_env_budget("LAB_STEP_BUDGET"))
    report.add("trigger", format_formula(trigger))
    report.add("contradiction", format_formula(artifact.contradiction))
    report.program("enumerator", "rice_enum.tpl", artifact.enumerator_code)
    report.emit("rice.report")
    return SUCCESS


# --------------------------------------------------------------------------
# argument tree

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taulab",
        description="Coded theories, budgeted proof search, and "
                    "incompleteness constructions.")
    top = parser.add_subparsers(dest="group", required=True)

    codec = top.add_parser("codec", help="text/number codings").add_subparsers(
        dest="command", required=True)
    cmd = codec.add_parser("encode", help="print the code of a text file")
    cmd.add_argument("file")
    cmd.set_defaults(handler=_cmd_codec_encode)
    cmd = codec.add_parser("decode", help="print the text named by a code")
    cmd.add_argument("code")
    cmd.set_defaults(handler=_cmd_codec_decode)
    cmd = codec.add_parser("pair", help="pair two naturals")
    cmd.add_argument("n", type=_natural)
    cmd.add_argument("m", type=_natural)
    cmd.set_defaults(handler=_cmd_codec_pair)
    cmd = codec.add_parser("unpair", help="split a paired natural")
    cmd.add_argument("code")
    cmd.set_defaults(handler=_cmd_codec_unpair)

    tpl = top.add_parser("tpl", help="program runs").add_subparsers(
        dest="command", required=True)
    cmd = tpl.add_parser("run", help="run a program file on an input")
    cmd.add_argument("file")
    cmd.add_argument("--input", type=_natural, required=True)
    cmd.add_argument("--steps", type=_positive_int)
    cmd.set_defaults(handler=_cmd_tpl_run)
    cmd = tpl.add_parser("tau", help="bounded-halting check")
    cmd.add_argument("e", type=_natural)
    cmd.add_argument("x", type=_natural)
    cmd.add_argument("t", type=_natural)
    cmd.set_defaults(handler=_cmd_tpl_tau)
    cmd = tpl.add_parser("code", help="print the code of a program file")
    cmd.add_argument("file")
    cmd.set_defaults(handler=_cmd_tpl_code)

    theory = top.add_parser("theory", help="axiom streams and deciders"
                            ).add_subparsers(dest="command", required=True)
    cmd = theory.add_parser("member", help="axiom membership")
    cmd.add_argument("theory", choices=("T", "S"))
    cmd.add_argument("sentence")
    cmd.set_defaults(handler=_cmd_theory_member)
    cmd = theory.add_parser("enum", help="list enumerated axioms")
    cmd.add_argument("theory", choices=("T", "S"))
    cmd.add_argument("--from", dest="start", type=_natural, default=0)
    cmd.add_argument("--count", type=_positive_int, default=10)
    cmd.set_defaults(handler=_cmd_theory_enum)
    cmd = theory.add_parser("decide", help="exact order-fragment decision")
    cmd.add_argument("sentence")
    cmd.set_defaults(handler=_cmd_theory_decide)
    cmd = theory.add_parser("eval", help="budgeted standard-model evaluation")
    cmd.add_argument("sentence")
    cmd.add_argument("--budget", type=_positive_int)
    cmd.set_defaults(handler=_cmd_theory_eval)

    proof = top.add_parser("proof", help="checking and search").add_subparsers(
        dest="command", required=True)
    cmd = proof.add_parser("check", help="check a proof script")
    cmd.add_argument("script")
    cmd.add_argument("--theory", required=True, metavar="ENUM_TPL")
    cmd.add_argument("--target")
    cmd.set_defaults(handler=_cmd_proof_check)
    cmd = proof.add_parser("search", help="search proof codes in order")
    cmd.add_argument("--theory", required=True, metavar="ENUM_TPL")
    cmd.add_argument("--target", required=True)
    cmd.add_argument("--budget", type=_positive_int)
    cmd.set_defaults(handler=_cmd_proof_search)

    construct = top.add_parser(
        "construct", help="completion and incompleteness constructions"
        ).add_subparsers(dest="command", required=True)

    def with_out(sub):
        sub.add_argument("--out", default=".",
                         help="directory for reports and artifacts")
        return sub

    cmd = with_out(construct.add_parser(
        "henkin", help="stepwise completion over a sentence corpus"))
    cmd.add_argument("--base", required=True)
    cmd.add_argument("--count", type=_positive_int, required=True)
    cmd.add_argument("--seed", type=_natural, default=0)
    cmd.set_defaults(handler=_cmd_construct_henkin)
    cmd = with_out(construct.add_parser(
        "craig", help="decidable prefix-conjunction closure"))
    cmd.add_argument("enumerator")
    cmd.set_defaults(handler=_cmd_construct_craig)
    cmd = with_out(construct.add_parser(
        "kleene", help="self-referential non-halting sentence"))
    cmd.add_argument("enumerator")
    cmd.set_defaults(handler=_cmd_construct_kleene)
    cmd = with_out(construct.add_parser(
        "rosser", help="racing searcher pair"))
    cmd.add_argument("enumerator")
    cmd.add_argument("--plant", choices=("pos", "neg"))
    cmd.set_defaults(handler=_cmd_construct_rosser)
    cmd = with_out(construct.add_parser(
        "diagonal", help="refute a claimed provability decider"))
    cmd.add_argument("decider")
    cmd.add_argument("--budget", type=_positive_int, default=10 ** 4,
                     help="proof-search budget after the diagonal run")
    cmd.set_defaults(handler=_cmd_construct_diagonal)
    cmd = with_out(construct.add_parser(
        "rice", help="consistency-to-deviation stream splice"))
    cmd.add_argument("scrutinized")
    cmd.add_argument("base")
    cmd.add_argument("--psi", required=True, metavar="SENTENCE")
    cmd.set_defaults(handler=_cmd_construct_rice)

    return parser


def dispatch(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return USAGE if exit_.code not in (0, None) else SUCCESS
    try:
        return args.handler(args)
    except _ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return USAGE
    except (_InputError, FolError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return BAD_INPUT


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
