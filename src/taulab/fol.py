"""Terms and formulas of the first-order language {0, s, <, =, tau, pi}.

The language has a constant 0, a unary successor s, a binary order <,
equality, a ternary relation tau (bounded halting of coded programs), and a
binary function pi (the quadratic pairing polynomial).  Numerals are kept as
literal ``Num`` nodes: the canonical form never wraps a numeral in ``Succ``,
so ``s(#2)`` parses straight to ``#3``.

Concrete syntax, fixed here and documented in docs/fol_grammar.md:

    term     :=  0  |  #<decimal>  |  s(term)  |  pi(term,term)  |  ident
    ident    :=  lower (lower | digit | _)*  (str.islower/isdigit; s, pi, tau reserved)
    atom     :=  term < term  |  term = term  |  term <= term  |  term > term
              |  tau(term, term, term)
    formula  :=  atom  |  ~f  |  f & f  |  f | f  |  f -> f  |  f <-> f
              |  A x. f  |  E x. f  |  A x < term. f  |  E x < term. f  |  (f)

Precedence ~ > & > | > -> > <->; every binary connective is right
associative; quantifier scope extends as far as possible.  ``t <= u`` and
``t > u`` are sugar for ``t < u | t = u`` and ``u < t``; the bounded
quantifiers expand to ``A x. (x < t -> f)`` and ``E x. (x < t & f)``.  All
sugar disappears at parse time and the printer never reintroduces it.

Equality, hashing, printing and variable scans are iterative on the deep
spines (long right-nested disjunction chains occur in generated axioms),
and parsing at every depth, so they stay safe far beyond Python's stack.
A hash is one flat pre-order pass over the tree.
Printing and substitution peel a successor run in one loop, ``_peel``, so
they recurse on terms only once per pi level.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from itertools import takewhile

from ._syntax import Cursor, PositionedError, then
from .codec import _SAFE_DIGITS, decimal_to_nat, nat_to_decimal

__all__ = [
    "Term", "Num", "Var", "Succ", "Pi",
    "Formula", "Less", "Eq", "Tau", "Not", "And", "Or", "Imp", "Iff",
    "Forall", "Exists",
    "FolError", "FolSyntaxError", "FreeVariableError",
    "succ", "free_vars", "is_sentence", "substitute", "fresh_name", "walk",
    "parse_term", "parse_formula", "parse_sentence", "read_fol_text",
    "format_term", "format_formula", "node_count", "uses_pi", "uses_tau",
    "conjoin_left", "disjoin_right", "rosser_sentence",
]


class FolError(ValueError):
    """Base class for syntax-level errors."""


class FolSyntaxError(FolError, PositionedError):
    pass


class FreeVariableError(FolError):
    def __init__(self, names):
        self.names = tuple(sorted(names))
        super().__init__(f"sentence required, free variables: {', '.join(self.names)}")


class Node:
    """Shared structural behaviour for terms and formulas.

    Every concrete node is a dataclass, so ``type(n).__match_args__`` names
    its fields in declaration order.
    """

    __slots__ = ()

    def __eq__(self, other):
        if self is other:
            return True
        if type(self) is not type(other):
            return False
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b):
                return False
            for name in type(a).__match_args__:
                va = getattr(a, name)
                vb = getattr(b, name)
                if isinstance(va, Node):
                    stack.append((va, vb))
                elif va != vb:
                    return False
        return True

    def __hash__(self):
        # each class has fixed fields, so the pre-order sequence of classes
        # and non-node fields determines the tree
        parts: list = []
        stack: list[Node] = [self]
        while stack:
            node = stack.pop()
            cls = type(node)
            parts.append(cls)
            for name in cls.__match_args__:
                v = getattr(node, name)
                if isinstance(v, Node):
                    stack.append(v)
                else:
                    parts.append(v)
        return hash(tuple(parts))

    def __repr__(self):
        if isinstance(self, Term):
            return f"<term {format_term(self)}>"
        return f"<formula {format_formula(self)}>"


class Term(Node):
    __slots__ = ()


class Formula(Node):
    __slots__ = ()


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Num(Term):
    value: int

    def __post_init__(self):
        if not isinstance(self.value, int) or isinstance(self.value, bool) or self.value < 0:
            raise ValueError(f"numeral value must be a natural, got {self.value!r}")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Var(Term):
    name: str


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Succ(Term):
    inner: Term

    def __post_init__(self):
        if isinstance(self.inner, Num):
            raise ValueError("canonical form forbids Succ around a numeral; use succ()")


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Pi(Term):
    left: Term
    right: Term


def succ(term: Term, times: int = 1) -> Term:
    """Apply successor ``times`` times, folding numerals into numerals."""
    if times < 0:
        raise ValueError("times must be a natural")
    if isinstance(term, Num):
        return Num(term.value + times)
    for _ in range(times):
        term = Succ(term)
    return term


def _peel(term: Term) -> tuple[Term, int]:
    """``(core, k)`` with ``term == succ(core, k)`` and ``core`` not a Succ:
    the one loop over a successor run."""
    k = 0
    while type(term) is Succ:
        term = term.inner
        k += 1
    return term, k


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Less(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Tau(Formula):
    prog: Term
    arg: Term
    steps: Term


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Not(Formula):
    inner: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Exists(Formula):
    var: str
    body: Formula


# The syntax tables, read by the parser and the printer.  A symbol token's
# kind is its text, so the symbols here are the token kinds the parser
# looks for.

# binary connectives, loosest first; every one is right associative
_CONNECTIVES = (("<->", Iff), ("->", Imp), ("|", Or), ("&", And))

# relation symbol -> atom built from the two sides; "<=" and ">" are sugar
# that the printer never reintroduces
_RELATIONS = {
    "<": Less,
    "=": Eq,
    "<=": lambda t, u: Or(Less(t, u), Eq(t, u)),
    ">": lambda t, u: Less(u, t),
}

# reserved name -> (constructor, arity) of an application "name(a, ...)"
_APPLIED = {"s": (succ, 1), "pi": (Pi, 2), "tau": (Tau, 3)}

_BINARY = tuple(cls for _, cls in _CONNECTIVES)
_QUANT = (Forall, Exists)


def free_vars(node: Node) -> frozenset[str]:
    """Free variables of a term or formula."""
    free: set[str] = set()
    stack: list[tuple[Node, frozenset[str]]] = [(node, frozenset())]
    while stack:
        n, bound = stack.pop()
        cls = type(n)
        if cls is Var:
            if n.name not in bound:
                free.add(n.name)
        elif cls is Forall or cls is Exists:
            stack.append((n.body, bound | {n.var}))
        elif cls is not Num:
            # past Var, Num and the quantifiers, every field is a node
            for name in cls.__match_args__:
                stack.append((getattr(n, name), bound))
    return frozenset(free)


def is_sentence(f: Formula) -> bool:
    return not free_vars(f)


def walk(node: Node) -> Iterator[Node]:
    """Every node under ``node``, itself first, in left-to-right preorder."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        for name in reversed(type(n).__match_args__):
            v = getattr(n, name)
            if isinstance(v, Node):
                stack.append(v)


def node_count(node: Node) -> int:
    return sum(1 for _ in walk(node))


def _uses(node: Node, cls: type) -> bool:
    return any(isinstance(n, cls) for n in walk(node))


def uses_pi(node: Node) -> bool:
    return _uses(node, Pi)


def uses_tau(node: Node) -> bool:
    return _uses(node, Tau)


def fresh_name(base: str, avoid) -> str:
    """Smallest numeric suffix making ``base`` fresh (y -> y0, y1, ...)."""
    k = 0
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


def _substitute_term(t: Term, var: str, replacement: Term) -> Term:
    if isinstance(t, Var):
        return replacement if t.name == var else t
    if isinstance(t, Num):
        return t
    if isinstance(t, Succ):
        core, k = _peel(t)
        return succ(_substitute_term(core, var, replacement), k)
    if isinstance(t, Pi):
        return Pi(_substitute_term(t.left, var, replacement),
                  _substitute_term(t.right, var, replacement))
    raise TypeError(f"not a term: {t!r}")


def substitute(f: Formula, var: str, replacement: Term) -> Formula:
    """Capture-avoiding substitution of ``replacement`` for free ``var``.

    Bound variables that would capture are renamed with the smallest unused
    numeric suffix.
    """
    repl_vars = free_vars(replacement)

    def go(f: Formula) -> Formula:
        if isinstance(f, (Less, Eq)):
            return type(f)(_substitute_term(f.left, var, replacement),
                           _substitute_term(f.right, var, replacement))
        if isinstance(f, Tau):
            return Tau(_substitute_term(f.prog, var, replacement),
                       _substitute_term(f.arg, var, replacement),
                       _substitute_term(f.steps, var, replacement))
        if isinstance(f, Not):
            return Not(go(f.inner))
        if isinstance(f, _BINARY):
            return type(f)(go(f.left), go(f.right))
        if isinstance(f, _QUANT):
            if f.var == var or var not in free_vars(f.body):
                return f
            if f.var in repl_vars:
                renamed = fresh_name(f.var, repl_vars | free_vars(f.body) | {var})
                body = substitute(f.body, f.var, Var(renamed))
                return type(f)(renamed, substitute(body, var, replacement))
            return type(f)(f.var, go(f.body))
        raise TypeError(f"not a formula: {f!r}")

    return go(f)


# --------------------------------------------------------------------------
# printing

# binding strength; atoms (absent here) bind tightest
_PREC = {Forall: 0, Exists: 0, Not: 5}
_PREC.update((cls, level) for level, (_, cls) in enumerate(_CONNECTIVES, 1))
_OPSYM = {cls: sym for sym, cls in _CONNECTIVES}
_RELSYM = {cls: sym for sym, cls in _RELATIONS.items() if isinstance(cls, type)}  # no sugar


def format_term(t: Term) -> str:
    if isinstance(t, Num):
        return "0" if t.value == 0 else "#" + nat_to_decimal(t.value)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Succ):
        core, k = _peel(t)
        return f"{'s(' * k}{format_term(core)}{')' * k}"
    if isinstance(t, Pi):
        return f"pi({format_term(t.left)},{format_term(t.right)})"
    raise TypeError(f"not a term: {t!r}")


def _fmt(f: Formula) -> tuple[str, bool]:
    """Render ``f``; the flag says the text ends in an open quantifier body
    (which would swallow anything printed after it in the same group)."""
    if isinstance(f, (Less, Eq)):
        return f"{format_term(f.left)} {_RELSYM[type(f)]} {format_term(f.right)}", False
    if isinstance(f, Tau):
        return (f"tau({format_term(f.prog)}, {format_term(f.arg)}, "
                f"{format_term(f.steps)})"), False
    if isinstance(f, Not):
        run = 0
        while isinstance(f, Not):
            run += 1
            f = f.inner
        text, _ = _fmt(f)
        return "~" * run + (text if isinstance(f, Tau) else "(" + text + ")"), False
    if isinstance(f, _QUANT):
        prefix: list[str] = []
        cur: Formula = f
        while isinstance(cur, _QUANT):
            letter = "A" if isinstance(cur, Forall) else "E"
            prefix.append(f"{letter} {cur.var}. ")
            cur = cur.body
        body, _ = _fmt(cur)
        if isinstance(cur, _BINARY):
            body = "(" + body + ")"
        return "".join(prefix) + body, True
    if isinstance(f, _BINARY):
        cls = type(f)
        prec = _PREC[cls]
        parts: list[Formula] = [f.left]
        cur = f.right
        while type(cur) is cls:
            parts.append(cur.left)
            cur = cur.right
        parts.append(cur)
        rendered: list[str] = []
        open_tail = False
        last = len(parts) - 1
        for i, part in enumerate(parts):
            text, part_open = _fmt(part)
            part_prec = _PREC.get(type(part), 9)
            if i < last:
                wrap = part_open or part_prec <= prec
            else:
                wrap = part_prec < prec and not isinstance(part, _QUANT)
            if wrap:
                text = "(" + text + ")"
                part_open = False
            rendered.append(text)
            if i == last:
                open_tail = part_open
        return f" {_OPSYM[cls]} ".join(rendered), open_tail
    raise TypeError(f"not a formula: {f!r}")


def format_formula(f: Formula) -> str:
    """Canonical text of ``f``; ``parse_formula`` inverts it exactly."""
    return _fmt(f)[0]


# --------------------------------------------------------------------------
# parsing

def _token(wide: str) -> str:
    """The token pattern (see _syntax) for a text with non-ASCII characters
    ``wide``: a name is an str.islower character, then islower or isdigit
    ones or '_'; a numeral's digits are ASCII."""
    lower = "".join(c for c in wide if c.islower())
    digit = "".join(c for c in wide if c.isdigit())
    return rf"""<-> | -> | <= | [<(),.~&|=>] | [AE](?![a-z0-9_{lower}{digit}])   # symbol
        | [a-z{lower}] [a-z0-9_{lower}{digit}]*                              # name
        | \#[0-9]+ | 0(?![0-9{digit}])                                      # numeral"""


# infix symbol -> (precedence, associativity, node), for Cursor.expression
_LEVELS = {sym: (prec, "right", cls) for prec, (sym, cls) in enumerate(_CONNECTIVES)}
_QUANTIFIERS = {"A": Forall, "E": Exists}


class _Leaves(dict):
    """A parse's one Var per name, by text.  A numeral is built at each use (few
    repeat); any other text, a reserved name included, maps to None."""

    def __missing__(self, text):
        if text[:1] == "#":
            return Num(decimal_to_nat(text[1:]))
        leaf = self[text] = Var(text) if text[:1].islower() else Num(0) if text == "0" else None
        return leaf


class _Parser(Cursor):
    """Formulas are expressions over _LEVELS and ``operand``, terms over {} and ``term``."""

    error = FolSyntaxError
    skip = r"[ \t\r\n]*"
    token = staticmethod(_token)

    def __init__(self, text: str):
        super().__init__(text)
        self.leaves = _Leaves.fromkeys(("", *_APPLIED))

    def value(self, token: str):
        leaf = self.leaves[token]
        return leaf.value if type(leaf) is Num else token or None

    def lexical(self, offset: int) -> str:
        """A digit run is read on over str.isdigit, superscripts included."""
        ch = self.text[offset]
        if ch == "-":
            return "stray '-' (did you mean '->')"
        if ch == "#":
            return "'#' must be followed by digits"
        if ch.isdigit():
            run = "".join(takewhile(str.isdigit, self.text[offset:]))
            return f"bare number {run!r}; numerals other than 0 are written #<digits>"
        return f"unexpected character {ch!r}"

    def operand(self):
        """An atom, a parenthesized formula or a quantified one, after a run
        of ~ that is counted, not recursed.  An atom of two one-token terms,
        most of a generated axiom, is built here in one step."""
        tokens, pos, leaves = self.tokens, self.pos, self.leaves
        left = leaves[tokens[pos]]
        relation = left is not None and _RELATIONS.get(tokens[pos + 1])
        right = tokens[pos + 2] if relation else ""
        short = right[:1] == "#" and len(right) <= _SAFE_DIGITS  # int() reads it exactly
        right = Num(int(right[1:])) if short else leaves[right]
        if right is not None:
            self.pos = pos + 3
            return relation(left, right)
        start = pos
        while tokens[pos] == "~":
            pos += 1
        run = pos - start
        self.pos = pos
        if tokens[pos] == "(":
            self.pos += 1
            got = self.close, _LEVELS, self.operand
        elif tokens[pos] in _QUANTIFIERS:
            got = self.binders([])
        else:
            got = then(self.term(_APPLIED), self.relation)
        if not run:
            return got

        def negate(f):
            for _ in range(run):
                f = Not(f)
            return f
        return then(got, negate)

    def binders(self, binders: list, bounded=None):
        """Quantifier prefixes, then their body; ``bounded`` is a binder
        whose bound term was just read.  The sugar is expanded here."""
        if bounded:
            self.expect(".")
            binders.append(bounded)
        tokens = self.tokens
        while tokens[self.pos] in _QUANTIFIERS:
            cls = _QUANTIFIERS[tokens[self.pos]]
            self.pos += 1
            name = tokens[self.pos]
            var = self.leaves[name]
            if type(var) is not Var:
                if name in _APPLIED:
                    self.fail(f"{name!r} is reserved and cannot be a variable")
                self.fail(f"expected variable name, found {self.value(name)!r}")
            self.pos += 1
            if tokens[self.pos] == "<":
                self.pos += 1
                return (lambda bound: self.binders(binders, (cls, var, bound))), {}, self.term
            self.expect(".")
            binders.append((cls, var, None))

        def bind(body):
            for cls, var, bound in reversed(binders):
                if bound is not None:
                    body = (Imp if cls is Forall else And)(Less(var, bound), body)
                body = cls(var.name, body)
            return body
        return bind, _LEVELS, self.operand

    def relation(self, left: Term):
        """The atom whose left term is ``left``; a tau atom is whole."""
        if type(left) is Tau:
            return left
        relation = _RELATIONS.get(self.tokens[self.pos])
        if relation is None:
            self.fail(f"expected a relation ({', '.join(_RELATIONS)}) after a term")
        self.pos += 1
        right = self.term()
        if type(right) is tuple:
            return then(right, partial(relation, left))
        return relation(left, right)

    def term(self, heads=("s", "pi")):
        """A term, or an opener for the arguments of an applied name;
        ``heads`` are the applied names accepted here."""
        pos = self.pos
        name = self.tokens[pos]
        self.pos = pos + 1
        leaf = self.leaves[name]
        if leaf is not None:
            return leaf
        if name not in _APPLIED:
            self.fail("expected a term", pos)
        if name not in heads or self.tokens[pos + 1] != "(":
            self.fail(f"{name!r} is reserved and cannot be a variable", pos)
        self.pos = pos + 2
        return partial(self.argument, name, []), {}, self.term

    def argument(self, name: str, args: list, arg: Term):
        """The resume of an argument list: the opener of the next argument, or
        the node.  A partial, not a closure that names itself, so that a parse
        leaves no reference cycle holding its parser and tokens."""
        args.append(arg)
        build, arity = _APPLIED[name]
        if len(args) < arity:
            self.expect(",")
            return partial(self.argument, name, args), {}, self.term
        self.expect(")")
        return build(*args)


def parse_term(text: str) -> Term:
    parser = _Parser(text)
    t = parser.expression({}, parser.term)
    parser.expect("", "end of input")
    return t


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    f = parser.expression(_LEVELS, parser.operand)
    parser.expect("", "end of input")
    return f


def parse_sentence(text: str) -> Formula:
    f = parse_formula(text)
    names = free_vars(f)
    if names:
        raise FreeVariableError(names)
    return f


def read_fol_text(text: str) -> list[Formula]:
    """Sentences of a .fol document: one per line, '#' lines are comments."""
    sentences = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        sentences.append(parse_sentence(line))
    return sentences


# --------------------------------------------------------------------------
# builders

def conjoin_left(parts) -> Formula:
    """Left-associated conjunction p1 & p2 & ... (at least one part)."""
    parts = list(parts)
    if not parts:
        raise ValueError("conjoin_left needs at least one formula")
    acc = parts[0]
    for part in parts[1:]:
        acc = And(acc, part)
    return acc


def disjoin_right(parts) -> Formula:
    """Right-associated disjunction p1 | (p2 | ...) (at least one part)."""
    parts = list(parts)
    if not parts:
        raise ValueError("disjoin_right needs at least one formula")
    acc = parts[-1]
    for part in parts[-2::-1]:
        acc = Or(part, acc)
    return acc


def rosser_sentence(first_program: int, second_program: int) -> Formula:
    """The balanced self-comparison sentence for two program codes.

    Read as: some stage witnesses program ``first_program`` on the paired
    input before any stage witnesses program ``second_program`` on it:

        E x. (tau(#a, pi(#a,#b), x) & A y. (y < x -> ~tau(#b, pi(#a,#b), y)))

    with a = first_program and b = second_program.
    """
    pair_term = Pi(Num(first_program), Num(second_program))
    return Exists("x", And(
        Tau(Num(first_program), pair_term, Var("x")),
        Forall("y", Imp(
            Less(Var("y"), Var("x")),
            Not(Tau(Num(second_program), pair_term, Var("y"))),
        )),
    ))
