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
from functools import cached_property, lru_cache, partial
from importlib import resources

from ._syntax import Cursor, PositionedError
from .codec import (decimal_to_nat, decode_program_code, in_pair_range,
                    nat_to_decimal, pair, program_code, unpair)

__all__ = [
    "TplSyntaxError", "TemplateError", "TplProgram", "Machine",
    "parse_program", "program_from_code", "run_code", "tau",
    "output_code", "instantiate_template", "template_source",
]


class TplSyntaxError(PositionedError):
    pass


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


@dataclass(frozen=True, slots=True)
class SearchLoop:
    """The searchers' proof-search loop, ``loop`` being that very ``While``,
    with ``e`` and ``t`` literals or names other than ``c``::

        while (1) { if (checkproof(e, c, t)) { halt; } c = c + 1; }

    The machine runs it as one host loop, charging what the plain loop would.
    """
    c: str
    loop: While


@dataclass(frozen=True)
class TplProgram:
    source: str
    body: tuple

    @cached_property
    def compiled(self) -> tuple:
        """The body as statement closures (``_compile``), built for the first run."""
        return _compile(self.body)


_KEYWORDS = {"if", "else", "while", "halt"}


# --------------------------------------------------------------------------
# lexer / parser

# a string literal up to its closing quote: plain characters and escapes
_STRING_HEAD = r'"[^"\\\n]*(?:\\[\\"nt][^"\\\n]*)*'
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


def _token(wide: str) -> str:
    """The token pattern (see _syntax) for a text with non-ASCII characters
    ``wide``: a name is an str.isalpha character or '_', then \\w ones
    (str.isalnum or '_'); a number's digits are ASCII, so a superscript
    fails to lex."""
    alpha = "".join(c for c in wide if c.isalpha())
    return rf"""== | <= | [=<+\-*/%(){{}},;]    # symbol
        | [A-Za-z_{alpha}] \w*               # name
        | [0-9]+                            # number
        | {_STRING_HEAD}"                   # string"""


def _is_name(text: str) -> bool:
    return text[:1].isalpha() or text[:1] == "_"


def _literal(text: str):
    """The value of a number or a string token, or None."""
    if text[:1] == '"':
        return re.sub(r"\\(.)", lambda m: _ESCAPES[m[1]], text[1:-1])
    return decimal_to_nat(text) if "0" <= text[:1] <= "9" else None


# the infix operators, loosest level first, with their associativity
_INFIX = ((("<", "<=", "=="), "none"), (("+", "-"), "left"), (("*", "/", "%"), "left"))
# infix symbol -> (precedence, associativity, node), for Cursor.expression
_LEVELS = {op: (prec, assoc, partial(BinOp, op))
           for prec, (ops, assoc) in enumerate(_INFIX) for op in ops}


class _TplParser(Cursor):
    error = TplSyntaxError
    skip = r"(?: [ \t\r\n]+ | \#[^\n]* )*"    # blanks and comments
    token = staticmethod(_token)

    def value(self, token: str):
        value = _literal(token)
        return token or None if value is None else value

    def lexical(self, offset: int) -> str:
        text = self.text
        if text[offset] != '"':
            return f"unexpected character {text[offset]!r}"
        end = re.compile(_STRING_HEAD).match(text, offset).end()
        if text[end:end + 1] == "\\":
            return f"bad escape \\{text[end + 1:end + 2]}"
        return "unterminated string literal"

    def program(self) -> tuple:
        """The statements up to EOF.  Each open block waits on a stack with
        the statement list it sits in and its header: the keyword, the
        condition and, for an else block, the then block."""
        tokens = self.tokens
        stmts, blocks = [], []
        while True:
            word, header = tokens[self.pos], None
            self.pos += 1
            if word == "}" and blocks:
                body = tuple(stmts)
                stmts, word, cond, then_block = blocks.pop()
                if word == "if" and tokens[self.pos] == "else":
                    self.pos += 1
                    header = "else", cond, body
                elif word == "while":
                    stmts.append(_recognise(While(cond, body)))
                elif word == "if":
                    stmts.append(If(cond, body, ()))
                else:
                    stmts.append(If(cond, then_block, body))
            elif not _is_name(word):
                if word:
                    self.fail("expected a statement", self.pos - 1)
                if blocks:
                    self.fail("unterminated block", self.pos - 1)
                return tuple(stmts)
            elif word == "halt":
                stmts.append(Halt())
                self.expect(";")
            elif word == "if" or word == "while":
                self.expect("(")
                header = word, self.expression(_LEVELS, self.operand), None
                self.expect(")")
            elif word in _KEYWORDS or word in _BUILTINS:
                self.fail(f"{word!r} cannot be assigned", self.pos - 1)
            else:
                self.expect("=")
                stmts.append(Assign(word, self.expression(_LEVELS, self.operand)))
                self.expect(";")
            if header:
                self.expect("{")
                blocks.append((stmts, *header))
                stmts = []

    def operand(self):
        """A literal or a name, or an opener for a parenthesized expression
        or the arguments of a builtin call."""
        at = self.pos
        name = self.tokens[at]
        self.pos = at + 1
        value = _literal(name)
        if value is not None:
            return Lit(value)
        if name == "(":
            return self.close, _LEVELS, self.operand
        if not _is_name(name):
            self.fail("expected an expression", at)
        if name in _KEYWORDS:
            self.fail(f"{name!r} is a keyword, not a value", at)
        if name not in _BUILTINS:
            return Name(name)
        self.expect("(")
        return partial(self.argument, name, at, []), _LEVELS, self.operand

    def argument(self, name: str, at: int, args: list, arg):
        """The resume of a builtin's argument list, as in fol._Parser.argument."""
        args.append(arg)
        if self.tokens[self.pos] == ",":
            self.pos += 1
            return partial(self.argument, name, at, args), _LEVELS, self.operand
        self.expect(")")
        arity = len(_BUILTINS[name][0])
        if len(args) != arity:
            self.fail(f"{name} takes {arity} arguments, got {len(args)}", at)
        return Call(name, tuple(args))


def _digit_loop_shape(v: str, d: str) -> While:
    return While(BinOp("<", Lit(0), Name(v)), (
        Assign(d, Call("concat", (
            Call("charat", (Lit("0123456789"), BinOp("%", Name(v), Lit(10)))),
            Name(d)))),
        Assign(v, BinOp("/", Name(v), Lit(10))),
    ))


def _recognise(loop: While):
    """``loop`` as a DigitLoop or a SearchLoop when it has exactly that shape."""
    cond, body = loop.cond, loop.body
    if len(body) == 2 and type(body[0]) is If and type(body[1]) is Assign \
            and type(body[0].cond) is Call and len(body[0].cond.args) == 3:
        (e, _, t), c = body[0].cond.args, Name(body[1].name)
        shape = While(Lit(1), (If(Call("checkproof", (e, c, t)), (Halt(),), ()),
                               Assign(c.name, BinOp("+", c, Lit(1)))))
        ok = {type(e), type(t)} <= {Lit, Name} and c not in (e, t) and loop == shape
        return SearchLoop(c.name, loop) if ok else loop
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

    __slots__ = ("env", "steps", "budget", "halted", "fault", "_code", "_pc")

    def __init__(self, program: TplProgram, input_value: int, budget: int):
        if input_value < 0 or budget < 0:
            raise ValueError("input and budget must be naturals")
        self.env: dict[str, object] = {"in": input_value}
        self.steps = 0
        self.budget = budget
        self.halted = False
        self.fault: str | None = None
        self._code = program.compiled
        self._pc = 0  # the next statement, where a run out of budget resumes

    def run(self) -> "Machine":
        if self.halted or self.fault is not None:
            return self
        code, env, budget = self._code, self.env, self.budget
        n, pc = len(code), self._pc
        try:
            while pc < n:
                # charged first: the simulating builtins read the steps left
                if self.steps >= budget:
                    break
                self.steps += 1
                pc = code[pc](self, env)
            else:
                self.halted = True
        except _OutOfBudget:
            self.steps = budget
        except _Fault as f:
            self.fault = f.message
        self._pc = pc
        return self

    # -- simulating builtins

    def _simulate(self, e: int, x: int, t: int) -> "Machine | None":
        """Run coded program e on x, capped by both t and our remaining
        budget; charge whatever the inner run consumed."""
        cap = min(t, self.budget - self.steps)
        inner = run_code(e, x, cap)
        if inner is None:
            return None
        self.steps += inner.steps  # at most cap, so within the budget
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
        self.steps += result.consumed  # at most step_budget
        if result.kind == "budget":
            raise _OutOfBudget
        return 1 if result.ok else 0


# Every operator but ``==`` needs two naturals; ``==`` compares any two
# values, and values of different types are unequal.
_BINOPS = {
    "+": operator.add,
    "-": lambda a, b: a - b if a > b else 0,
    "*": operator.mul,
    "/": lambda a, b: 0 if b == 0 else a // b,
    "%": lambda a, b: a if b == 0 else a % b,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    "==": lambda a, b: 1 if type(a) is type(b) and a == b else 0,
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
    "inrange": ((int,), lambda m, p: 1 if in_pair_range(p) else 0),
    "taub": ((int, int, int), Machine._taub),
    "runout": ((int, int, int), Machine._runout),
    "checkproof": ((int, int, int), Machine._checkproof),
}


# --------------------------------------------------------------------------
# compiler: a program runs as a flat tuple of statement closures.  Each one
# takes the machine and its env, runs its statement, and returns the index
# of the statement to run next.

def _compile(body: tuple) -> tuple:
    """``body`` laid out flat, each statement followed by its blocks.  The
    end of a block is no statement and costs no step: the last statement of
    an ``if`` block returns the index after the ``if``, the last of a loop
    body the loop's header, and ``halt`` the length of the code.  A jump
    target is a cell, filled in when the statement it names is placed;
    blocks wait on a stack, so compiling never recurses per block level."""
    placed, end = [], [None]  # (builder, node, target cells) per statement
    stack = [[body, 0, end, [None]]]  # block, next index, exit and entry cells
    while stack:
        frame = stack[-1]
        block, i, out, entry = frame
        if i == len(block):
            stack.pop()
            continue
        entry[0], stmt, blocks = len(placed), block[i], ()
        nxt = out if i == len(block) - 1 else [None]
        frame[1], frame[3] = i + 1, nxt
        if type(stmt) is Assign:
            placed.append((_assign, stmt, (nxt,)))
        elif type(stmt) is Halt:  # a header whose both ways lead to the end
            placed.append((_branch, Lit(1), (end, end)))
        elif type(stmt) is If:  # an empty block's entry is its exit
            yes, no = [None] if stmt.then else nxt, [None] if stmt.other else nxt
            placed.append((_branch, stmt.cond, (yes, no)))
            blocks = (stmt.other, nxt, no), (stmt.then, nxt, yes)
        else:
            head, loop = [len(placed)], stmt if type(stmt) is While else stmt.loop
            yes = [None] if loop.body else head
            placed.append((_branch, loop.cond, (yes, nxt)) if loop is stmt
                          else (_digit_loop, stmt, (head, yes, nxt)) if type(stmt) is DigitLoop
                          else (_search_loop, stmt, (head, yes, end)))
            blocks = (loop.body, head, yes),
        stack += [[b, 0, out, first] for b, out, first in blocks if b]
    end[0] = len(placed)
    return tuple(build(node, *(cell[0] for cell in cells)) for build, node, cells in placed)


def _assign(stmt: Assign, nxt: int):
    name, value = stmt.name, _expr(stmt.expr)

    def assign(m, env):
        env[name] = value(m, env)
        return nxt
    return assign


def _branch(cond, yes: int, no: int):
    """An ``if`` or ``while`` header.  Every value is an int or a str, whose
    Python truth is TPL's: 0 and "" are false."""
    test = _expr(cond)
    return lambda m, env: yes if test(m, env) else no


def _digit_loop(stmt: DigitLoop, head: int, body: int, out: int):
    """The header of a digit loop, running the whole loop by one host
    conversion when ``v`` is a natural and ``d`` a text.

    Each digit costs 3 steps (two assignments and the next header).  When
    the budget ends first, ``env`` is left as the statement-by-statement run
    leaves it, q whole digits done and then r < 3 more statements, and the
    run resumes at body statement r, or at the header for r = 2.
    """
    v, d, plain = stmt.v, stmt.d, _branch(stmt.loop.cond, body, out)

    def digits(m, env):
        n, tail = env.get(v), env.get(d)
        if type(n) is not int or type(tail) is not str:
            # the loop's own header faults or exits, or else its body faults
            return plain(m, env)
        text = nat_to_decimal(n) if n else ""  # str() raises past 4300 digits
        k, left = len(text), m.budget - m.steps
        if 3 * k <= left:
            env[d], env[v] = text + tail, 0
            m.steps += 3 * k
            return out
        q, r = divmod(left, 3)
        env[d] = text[k - q - (r >= 1):] + tail
        env[v] = n // 10 ** (q + (r >= 2))
        m.steps = m.budget
        return head if r == 2 else body + r
    return digits


def _search_loop(stmt: SearchLoop, head: int, body: int, end: int):
    """The header of a search loop, whose body lies at ``body`` as the
    ``if``, ``halt`` and the increment, running the whole loop in one host
    loop when ``e``, ``c`` and ``t`` are naturals.  Each statement costs 1
    step, the ``if`` then the checker's ``consumed``.  When the budget ends
    before a statement, the run stands there; inside a check, at the ``if``.
    """
    name, args = stmt.c, stmt.loop.body[0].cond.args

    def search(m, env):
        values = [env.get(a.name) if type(a) is Name else a.value for a in args]
        if any(type(v) is not int for v in values):
            return body  # the plain if faults with its own text
        (e, c, t), budget, check = values, m.budget, m._checkproof
        try:
            while m.steps < budget:
                m.steps += 1
                if check(e, c, t):
                    if m.steps >= budget:
                        return body + 1
                    m.steps += 1
                    return end
                if m.steps >= budget:
                    return body + 2
                c += 1
                env[name] = c
                m.steps += 2
                if m.steps > budget:
                    m.steps = budget
                    return head
        except _OutOfBudget:
            m.steps = budget
        return body
    return search


# -- expressions: one closure per node, which evaluates every operand or
# argument before checking the type of any

def _expr(e):
    cls = type(e)
    if cls is Lit:
        value = e.value
        return lambda m, env: value
    if cls is Name:
        name = e.name

        def read(m, env):
            try:
                return env[name]
            except KeyError:
                raise _Fault(f"undefined variable {name!r}") from None
        return read
    # the operands are compiled in this frame: one frame per level
    if cls is BinOp:
        return _binop(e, _expr(e.left), _expr(e.right))
    return _call(e.name, tuple(map(_expr, e.args)))


def _binop(e: BinOp, fl, fr):
    op = e.op
    f, nat, fault = _BINOPS[op], op != "==", f"{op} needs a natural, got a string"
    if type(e.left) is Name and type(e.right) is Lit:  # read inline, as in i + 1
        name, b = e.left.name, e.right.value

        def binop(m, env):
            try:
                a = env[name]
            except KeyError:
                raise _Fault(f"undefined variable {name!r}") from None
            if nat and (type(a) is not int or type(b) is not int):
                raise _Fault(fault)
            return f(a, b)
        return binop

    def binop(m, env):
        a, b = fl(m, env), fr(m, env)
        if nat and (type(a) is not int or type(b) is not int):
            raise _Fault(fault)
        return f(a, b)
    return binop


def _call(name: str, args: tuple):
    types, impl = _BUILTINS[name]

    def mistyped(*values) -> _Fault:
        want, got = next((w, type(v)) for w, v in zip(types, values) if type(v) is not w)
        return _Fault(f"{name} needs a {_TYPE_NAMES[want]}, got a {_TYPE_NAMES[got]}")

    if len(args) == 1:
        (f0,), (t0,) = args, types

        def call(m, env):
            a = f0(m, env)
            if type(a) is t0:
                return impl(m, a)
            raise mistyped(a)
    elif len(args) == 2:
        (f0, f1), (t0, t1) = args, types

        def call(m, env):
            a, b = f0(m, env), f1(m, env)
            if type(a) is t0 and type(b) is t1:
                return impl(m, a, b)
            raise mistyped(a, b)
    else:
        (f0, f1, f2), (t0, t1, t2) = args, types

        def call(m, env):
            a, b, c = f0(m, env), f1(m, env), f2(m, env)
            if type(a) is t0 and type(b) is t1 and type(c) is t2:
                return impl(m, a, b, c)
            raise mistyped(a, b, c)
    return call


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
    ref = resources.files(__package__).joinpath("templates", f"{name}.tpl")
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
