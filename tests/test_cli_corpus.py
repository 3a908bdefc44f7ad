"""Frozen CLI corpus: the bytes of every case in ``data/cli_corpus.txt``.

Each case runs in process through ``cli.dispatch`` with both budgets
pinned.  Its digest covers the exit code, stdout, stderr and every file
written under ``--out``, with the case's paths replaced by their tokens,
so a change to any byte of the command's output fails its case.

To add a case, print its line with the same digest and paste it into the
corpus:

    PYTHONPATH=src python tests/test_cli_corpus.py STEP CODE ARGV...

where STEP and CODE are the two budgets and ARGV may use the path tokens.
"""

import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import taulab
from taulab.cli import dispatch

DATA = Path(__file__).parent / "data"
TEMPLATES = Path(taulab.__file__).parent / "templates"


def _cases():
    cases = []
    for line in (DATA / "cli_corpus.txt").read_text(encoding="ascii").splitlines():
        if line and not line.startswith("#"):
            digest, step, code, *argv = shlex.split(line)
            cases.append(pytest.param(digest, step, code, argv,
                                      id=f"{len(cases):03d}-{argv[0]}-{argv[1]}"))
    return cases


def _outcome_digest(argv, out_dir: Path) -> str:
    """sha256 prefix of one dispatch of argv, paths shown as tokens."""
    paths = {"{out}": str(out_dir), "{data}": str(DATA), "{templates}": str(TEMPLATES)}

    def masked(text: str) -> str:
        for token, path in paths.items():
            text = text.replace(path, token)
        return text

    for token, path in paths.items():
        argv = [arg.replace(token, path) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        exit_code = dispatch(argv)
    record = [exit_code, masked(out.getvalue()), masked(err.getvalue())]
    if out_dir.exists():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            record += [path.relative_to(out_dir).as_posix(),
                       masked(path.read_text(encoding="ascii"))]
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()[:16]


@pytest.mark.parametrize("digest, step, code, argv", _cases())
def test_cli_case_bytes_are_frozen(digest, step, code, argv, tmp_path, monkeypatch):
    monkeypatch.setenv("LAB_STEP_BUDGET", step)
    monkeypatch.setenv("LAB_CODE_BUDGET", code)
    assert _outcome_digest(argv, tmp_path / "out") == digest, shlex.join(argv)


if __name__ == "__main__":
    step, code, *argv = sys.argv[1:]
    os.environ["LAB_STEP_BUDGET"], os.environ["LAB_CODE_BUDGET"] = step, code
    with tempfile.TemporaryDirectory() as tmp:
        digest = _outcome_digest(argv, Path(tmp) / "out")
    print(f"{digest}  {step} {code}  {shlex.join(argv)}")
