"""TPL: the fixed toy programming language behind the bounded-halting relation.

TPL is a deterministic, dynamically typed imperative language.  Values are
arbitrary-precision naturals and byte strings (latin-1 characters).  A
program reads its single input from the variable ``in`` and, by convention,
leaves its result in ``out`` (0 if never assigned).

Grammar (``#`` starts a comment running to end of line)::

    program  :=  stmt*
    stmt     :=  name '=' expr ';'
              |  'if' '(' expr ')' block ('else' block)?
              |  'while' '(' expr ')' block
              |  'halt' ';'
    block    :=  '{' stmt* '}'
    expr     :=  sum (('<' | '<=' | '==') sum)?
    sum      :=  prod (('+' | '-') prod)*
    prod     :=  unit (('*' | '/' | '%') unit)*
    unit     :=  number | string | name | builtin '(' expr, ... ')' | '(' expr ')'

Arithmetic is on naturals: ``-`` is monus (truncated at 0), ``x / 0 = 0``,
``x % 0 = x``.  ``<`` and ``<=`` require naturals; ``==`` compares any two
values (different types are simply unequal).  Truthiness: 0 and the empty
string are false.  The builtins are::

    len(s)  concat(a,b)  substr(s,i,n)  charat(s,i)          strings
    tonat(s)  tostr(n)  pairN(a,b)  unpairL(p)  unpairR(p)  inrange(p)
    taub(e,x,t)  runout(e,x,t)  checkproof(e,p,c)

A run is budgeted.  Every executed statement costs one step (``if``/``while``
headers cost one step per evaluation); ``taub``, ``runout`` and
``checkproof`` additionally charge the steps their inner simulations and
enumerator runs consume, capped by the caller's remaining budget, so nested
simulation can never exceed the outer bound.  Faults (type errors, undefined
variables, out-of-range decodings, an inner run that provably fails to halt
in time) make the machine stick forever: a faulted program never halts, on
any budget.  Running out of budget is different — the verdict is simply
"not halted yet", and it is monotone: giving more budget can only move a
run from "not yet" to "halted", never the reverse.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .codec import (decimal_to_nat, decode_program_code, nat_to_decimal,
                    pair, program_code, unpair)

__all__ = [
    "TplSyntaxError", "TemplateError", "TplProgram", "Machine",
    "parse_program", "program_from_code", "run_code", "tau",
    "output_code", "instantiate_template", "template_source",
]


class TplSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class TemplateError(ValueError):
    pass


# --------------------------------------------------------------------------
# syntax trees

@dataclass(frozen=True, slots=True)
class Lit:
    value: object


@dataclass(frozen=True, slots=True)
class Name:
    name: str


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True, slots=True)
class Call:
    name: str
    args: tuple


@dataclass(frozen=True, slots=True)
class Assign:
    name: str
    expr: object


@dataclass(frozen=True, slots=True)
class If:
    cond: object
    then: tuple
    other: tuple


@dataclass(frozen=True, slots=True)
class While:
    cond: object
    body: tuple


@dataclass(frozen=True, slots=True)
class Halt:
    pass


@dataclass(frozen=True, slots=True)
class DigitLoop:
    """The templates' decimal-digit loop over naturals ``v`` and text ``d``,
    ``loop`` being that very ``While`` (see _digit_loop_shape)::

        while (0 < v) { d = concat(charat("0123456789", v % 10), d); v = v / 10; }

    The machine runs it with one host conversion, charging and leaving
    ``env`` exactly as the statement-by-statement loop would.
    """
    v: str
    d: str
    loop: While


@dataclass(frozen=True)
class TplProgram:
    source: str
    body: tuple


_KEYWORDS = {"if", "else", "while", "halt"}


# --------------------------------------------------------------------------
# lexer / parser

_PUNCT2 = ("==", "<=")
_PUNCT1 = "=<+-*/%(){},;"

_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


class _Tok:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


# Numerals are ASCII digits only; other characters that str.isdigit accepts
# (such as the latin-1 superscripts) are not numerals and fail to lex.
_DIGITS = re.compile(r"[0-9]+")
# The characters of a string literal that stand for themselves; a spliced
# axiom text runs to ~100 KB of them.
_STRING_RUN = re.compile(r'[^"\\\n]*')


def _lex(text: str) -> list[_Tok]:
    tokens: list[_Tok] = []
    i, n = 0, len(text)
    line, line_start = 1, 0
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        col = i - line_start + 1
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text[i:i + 2] in _PUNCT2:
            tokens.append(_Tok(text[i:i + 2], text[i:i + 2], line, col))
            i += 2
            continue
        if ch in _PUNCT1:
            tokens.append(_Tok(ch, ch, line, col))
            i += 1
            continue
        if "0" <= ch <= "9":
            j = _DIGITS.match(text, i).end()
            tokens.append(_Tok("NUMBER", decimal_to_nat(text[i:j]), line, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Tok("IDENT", text[i:j], line, col))
            i = j
            continue
        if ch == '"':
            j = i + 1
            chars: list[str] = []
            while True:
                k = _STRING_RUN.match(text, j).end()
                chars.append(text[j:k])
                j = k
                if j >= n or text[j] == "\n":
                    raise TplSyntaxError("unterminated string literal", line, col)
                if text[j] == '"':
                    j += 1
                    break
                esc = text[j + 1] if j + 1 < n else ""  # text[j] is a backslash
                if esc not in _ESCAPES:
                    raise TplSyntaxError(f"bad escape \\{esc}", line, col)
                chars.append(_ESCAPES[esc])
                j += 2
            tokens.append(_Tok("STRING", "".join(chars), line, col))
            i = j
            continue
        raise TplSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Tok("EOF", None, line, n - line_start + 1))
    return tokens


class _TplParser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def next(self) -> _Tok:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Tok:
        tok = self.peek()
        if tok.kind != kind:
            raise TplSyntaxError(f"expected {kind!r}, found {tok.value!r}",
                                 tok.line, tok.column)
        return self.next()

    def fail(self, message: str):
        tok = self.peek()
        raise TplSyntaxError(message, tok.line, tok.column)

    def program(self) -> tuple:
        stmts = []
        while self.peek().kind != "EOF":
            stmts.append(self.statement())
        return tuple(stmts)

    def block(self) -> tuple:
        self.expect("{")
        stmts = []
        while self.peek().kind != "}":
            if self.peek().kind == "EOF":
                self.fail("unterminated block")
            stmts.append(self.statement())
        self.next()
        return tuple(stmts)

    def statement(self):
        tok = self.peek()
        if tok.kind != "IDENT":
            self.fail("expected a statement")
        word = tok.value
        if word == "halt":
            self.next()
            self.expect(";")
            return Halt()
        if word == "if":
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then = self.block()
            other: tuple = ()
            if self.peek().kind == "IDENT" and self.peek().value == "else":
                self.next()
                other = self.block()
            return If(cond, then, other)
        if word == "while":
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            return _recognise(While(cond, self.block()))
        if word in _KEYWORDS or word in _BUILTINS:
            self.fail(f"{word!r} cannot be assigned")
        self.next()
        self.expect("=")
        value = self.expr()
        self.expect(";")
        return Assign(word, value)

    def expr(self):
        left = self.sum()
        if self.peek().kind in ("<", "<=", "=="):
            op = self.next().kind
            return BinOp(op, left, self.sum())
        return left

    def sum(self):
        node = self.prod()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            node = BinOp(op, node, self.prod())
        return node

    def prod(self):
        node = self.unit()
        while self.peek().kind in ("*", "/", "%"):
            op = self.next().kind
            node = BinOp(op, node, self.unit())
        return node

    def unit(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.next()
            return Lit(tok.value)
        if tok.kind == "STRING":
            self.next()
            return Lit(tok.value)
        if tok.kind == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "IDENT":
            name = tok.value
            if name in _KEYWORDS:
                self.fail(f"{name!r} is a keyword, not a value")
            self.next()
            if name in _BUILTINS:
                self.expect("(")
                args = [self.expr()]
                while self.peek().kind == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                arity = len(_BUILTINS[name][0])
                if len(args) != arity:
                    raise TplSyntaxError(f"{name} takes {arity} arguments, got {len(args)}",
                                         tok.line, tok.column)
                return Call(name, tuple(args))
            return Name(name)
        self.fail("expected an expression")


def _digit_loop_shape(v: str, d: str) -> While:
    return While(BinOp("<", Lit(0), Name(v)), (
        Assign(d, Call("concat", (
            Call("charat", (Lit("0123456789"), BinOp("%", Name(v), Lit(10)))),
            Name(d)))),
        Assign(v, BinOp("/", Name(v), Lit(10))),
    ))


def _recognise(loop: While):
    """``loop`` as a DigitLoop when it has exactly the digit loop's shape."""
    cond, body = loop.cond, loop.body
    if type(cond) is not BinOp or type(cond.right) is not Name \
            or not body or type(body[0]) is not Assign:
        return loop
    v, d = cond.right.name, body[0].name
    if v == d or loop != _digit_loop_shape(v, d):
        return loop
    return DigitLoop(v, d, loop)


def parse_program(text: str) -> TplProgram:
    return TplProgram(source=text, body=_TplParser(text).program())


# --------------------------------------------------------------------------
# machine

class _OutOfBudget(Exception):
    pass


class _Fault(Exception):
    def __init__(self, message: str):
        self.message = message


class Machine:
    """One budgeted run of a TPL program on one input."""

    __slots__ = ("env", "steps", "budget", "halted", "fault", "_frames")

    def __init__(self, program: TplProgram, input_value: int, budget: int):
        if input_value < 0 or budget < 0:
            raise ValueError("input and budget must be naturals")
        self.env: dict[str, object] = {"in": input_value}
        self.steps = 0
        self.budget = budget
        self.halted = False
        self.fault: str | None = None
        self._frames: list[list] = [[program.body, 0]]

    # -- driving

    def run(self) -> "Machine":
        if self.halted or self.fault is not None:
            return self
        try:
            self._loop()
            self.halted = True
        except _OutOfBudget:
            self.steps = self.budget
        except _Fault as f:
            self.fault = f.message
        return self

    def _loop(self):
        frames = self._frames
        while frames:
            top = frames[-1]
            stmts, idx = top
            if idx >= len(stmts):
                frames.pop()
                continue
            stmt = stmts[idx]
            cls = type(stmt)
            self._charge(1)
            if cls is Assign:
                value = self._eval(stmt.expr)
                self.env[stmt.name] = value
                top[1] = idx + 1
            elif cls is If:
                branch = stmt.then if _truthy(self._eval(stmt.cond)) else stmt.other
                top[1] = idx + 1
                if branch:
                    frames.append([branch, 0])
            elif cls is While:
                if _truthy(self._eval(stmt.cond)):
                    if stmt.body:
                        frames.append([stmt.body, 0])
                else:
                    top[1] = idx + 1
            elif cls is DigitLoop:
                # with v or d missing or mistyped, the loop's own header
                # faults or exits, or else its body faults
                if self._digits(stmt) or not _truthy(self._eval(stmt.loop.cond)):
                    top[1] = idx + 1
                else:
                    frames.append([stmt.loop.body, 0])
            else:  # Halt
                return

    def _digits(self, stmt: DigitLoop) -> bool:
        """Finish a digit loop whose first header step is charged; False,
        changing nothing, when ``v`` is not a natural or ``d`` not a text.

        Each digit costs 3 steps (two assignments and the next header).
        When the budget ends first, ``env`` and the frames are left as the
        statement-by-statement run leaves them: q whole digits done, then
        r < 3 more statements.
        """
        env = self.env
        v, d = env.get(stmt.v), env.get(stmt.d)
        if type(v) is not int or type(d) is not str:
            return False
        text = nat_to_decimal(v) if v else ""  # str() raises past 4300 digits
        n = len(text)
        left = self.budget - self.steps
        if 3 * n <= left:
            env[stmt.d] = text + d
            env[stmt.v] = 0
            self.steps += 3 * n
            return True
        q, r = divmod(left, 3)
        env[stmt.d] = text[n - q - (r >= 1):] + d
        env[stmt.v] = v // 10 ** (q + (r >= 2))
        if r < 2:  # stopped inside the body, before statement r
            self._frames.append([stmt.loop.body, r])
        self.steps = self.budget
        raise _OutOfBudget

    def _charge(self, k: int):
        if self.steps + k > self.budget:
            raise _OutOfBudget
        self.steps += k

    # -- expressions: one frame per level, operands and arguments are all
    # evaluated before any of their types is checked

    def _eval(self, e):
        cls = type(e)
        if cls is Lit:
            return e.value
        if cls is Name:
            try:
                return self.env[e.name]
            except KeyError:
                raise _Fault(f"undefined variable {e.name!r}") from None
        if cls is BinOp:
            a = self._eval(e.left)
            b = self._eval(e.right)
            if e.op == "==":
                return 1 if (type(a) is type(b) and a == b) else 0
            if type(a) is not int or type(b) is not int:
                raise _Fault(f"{e.op} needs a natural, got a string")
            return _BINOPS[e.op](a, b)
        types, builtin = _BUILTINS[e.name]
        args = [self._eval(a) for a in e.args]
        i = 0
        for want in types:  # zip() costs more than this loop
            if type(args[i]) is not want:
                raise _Fault(f"{e.name} needs a {_TYPE_NAMES[want]}, "
                             f"got a {_TYPE_NAMES[type(args[i])]}")
            i += 1
        return builtin(self, *args)

    # -- simulating builtins

    def _simulate(self, e: int, x: int, t: int) -> "Machine | None":
        """Run coded program e on x, capped by both t and our remaining
        budget; charge whatever the inner run consumed."""
        cap = min(t, self.budget - self.steps)
        inner = run_code(e, x, cap)
        if inner is None:
            return None
        self._charge(inner.steps)
        if not inner.halted and inner.fault is None and cap < t:
            # the cap that stopped the run was ours, not the caller's t:
            # the outcome at t is unknown within this budget
            raise _OutOfBudget
        return inner

    def _taub(self, e, x, t):
        inner = self._simulate(e, x, t)
        return 1 if inner is not None and inner.halted else 0  # undecodable: never halts

    def _runout(self, e, x, t):
        inner = self._simulate(e, x, t)
        if inner is None:
            raise _Fault("runout: program never halts")
        if inner.halted:
            return output_code(inner)
        raise _Fault("runout: program did not halt within the bound")

    def _checkproof(self, enum_code, proof_code, sentence_code):
        result = proofs.check_coded_proof(enum_code, proof_code, sentence_code,
                                          step_budget=self.budget - self.steps)
        self._charge(result.consumed)
        if result.kind == "budget":
            raise _OutOfBudget
        return 1 if result.ok else 0


# Both operands of these operators must be naturals; ``==`` compares any
# two values and is evaluated on its own.
_BINOPS = {
    "+": operator.add,
    "-": lambda a, b: a - b if a > b else 0,
    "*": operator.mul,
    "/": lambda a, b: 0 if b == 0 else a // b,
    "%": lambda a, b: a if b == 0 else a % b,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
}

_TYPE_NAMES = {int: "natural", str: "string"}


def _tostr(m, n):
    text = decode_program_code(n)
    if text is None:
        raise _Fault("tostr: code is not a packed string")
    return text


def _unpair(name, p):
    parts = unpair(p)
    if parts is None:
        raise _Fault(f"{name}: number is not a pair")
    return parts


# name -> (argument types, implementation taking the machine first).  The
# parser takes each builtin's arity from here and reserves its name.
_BUILTINS = {
    "len": ((str,), lambda m, s: len(s)),
    "concat": ((str, str), lambda m, a, b: a + b),
    "substr": ((str, int, int), lambda m, s, i, k: s[min(i, len(s)):min(i + k, len(s))]),
    "charat": ((str, int), lambda m, s, i: s[i] if i < len(s) else ""),
    "tonat": ((str,), lambda m, s: program_code(s)),
    "tostr": ((int,), _tostr),
    "pairN": ((int, int), lambda m, a, b: pair(a, b)),
    "unpairL": ((int,), lambda m, p: _unpair("unpairL", p)[0]),
    "unpairR": ((int,), lambda m, p: _unpair("unpairR", p)[1]),
    "inrange": ((int,), lambda m, p: 1 if unpair(p) is not None else 0),
    "taub": ((int, int, int), Machine._taub),
    "runout": ((int, int, int), Machine._runout),
    "checkproof": ((int, int, int), Machine._checkproof),
}


def _truthy(v) -> bool:
    return v != 0 if type(v) is int else v != ""


def output_code(machine: Machine) -> int:
    """The ``out`` value of a halted run, as a natural (strings are packed)."""
    out = machine.env.get("out", 0)
    return out if type(out) is int else program_code(out)


# --------------------------------------------------------------------------
# the bounded-halting relation and friends

@lru_cache(maxsize=512)
def program_from_code(e: int):
    text = decode_program_code(e)
    if text is None:
        return None
    try:
        return parse_program(text)
    except TplSyntaxError:
        return None


def run_code(e: int, x: int, t: int) -> Machine | None:
    """The finished run of coded program e on input x within t steps, or
    None when e decodes or parses to no program (such a code never halts).
    """
    program = program_from_code(e)
    if program is None:
        return None
    return Machine(program, x, t).run()


def tau(e: int, x: int, t: int) -> bool:
    """True iff coded program e, run on input x, halts within t steps.

    Total: every natural is a legal code; numbers that fail to decode or
    parse denote programs that never halt.
    """
    run = run_code(e, x, t)
    return run is not None and run.halted


# --------------------------------------------------------------------------
# templates

_PLACEHOLDER = re.compile(r"\{\{([A-Z][A-Z0-9_]*)\}\}")


def template_source(name: str) -> str:
    ref = resources.files("taulab").joinpath("templates", f"{name}.tpl")
    try:
        return ref.read_text(encoding="ascii")
    except FileNotFoundError:
        raise TemplateError(f"no template named {name!r}") from None


def instantiate_template(name: str, bindings: dict) -> TplProgram:
    """Splice ``bindings`` into the {{PLACEHOLDER}} slots of a template."""
    text = template_source(name)

    def fill(match):
        key = match.group(1)
        if key not in bindings:
            raise TemplateError(f"unbound placeholder {{{{{key}}}}} in template {name!r}")
        value = bindings[key]
        if isinstance(value, int) and not isinstance(value, bool):
            return nat_to_decimal(value)
        return str(value)

    return parse_program(_PLACEHOLDER.sub(fill, text))


# proofs imports this module, so it is imported last, once every name it
# takes from here exists; Machine._checkproof looks it up at call time.
from . import proofs  # noqa: E402
