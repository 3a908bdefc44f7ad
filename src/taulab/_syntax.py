"""The parsing core shared by the FOL and TPL front ends.

Each front end scans its own tokens (``tokenize`` runs the line, column and
blank skeleton around a per-language ``scan``) and parses them with a
``Cursor``.  ``Cursor.expression`` is one operator-precedence loop over
explicit stacks: an operand that opens a nested expression (a parenthesis,
a quantifier body, an argument list) hands back an opener instead of
recursing, so no parse nests Python calls per level of the text.
"""

from __future__ import annotations


class Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


class PositionedError(ValueError):
    """A syntax error, with the line and column where it was found."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


def tokenize(text: str, scan, symbols: str) -> list[Token]:
    """The tokens of ``text``, then EOF.  Line breaks, blanks and the
    one-character ``symbols`` (kind = text) are read here, any other token by
    ``scan(text, i, text[i], line, column)``: its kind (None for a comment),
    value and end.  ``scan`` raises the front end's errors itself."""
    tokens: list[Token] = []
    i, n = 0, len(text)
    line, line_start = 1, 0
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
        elif ch in " \t\r":
            i += 1
        elif ch in symbols:
            tokens.append(Token(ch, ch, line, i - line_start + 1))
            i += 1
        else:
            col = i - line_start + 1
            kind, value, i = scan(text, i, ch, line, col)
            if kind is not None:
                tokens.append(Token(kind, value, line, col))
    tokens.append(Token("EOF", None, line, n - line_start + 1))
    return tokens


def then(got, finish):
    """Apply ``finish`` to the node of ``got``: now, or by a wrapping opener."""
    if type(got) is not tuple:
        return finish(got)
    resume, levels, operand = got
    return (lambda node: then(resume(node), finish)), levels, operand


class Cursor:
    """A position in a token list; ``error`` is the front end's error class."""

    error = PositionedError

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            self.fail(f"expected {what or repr(kind)}, found {tok.value!r}")
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise self.error(message, tok.line, tok.column)

    def close(self, node):
        """The resume of a parenthesis: its ')' must follow."""
        self.expect(")")
        return node

    def expression(self, levels: dict, operand):
        """One expression: operands joined by the infix operators of ``levels``
        (token kind -> (precedence, associativity, build); higher binds
        tighter; associativity "left", "right" or "none", where a second
        operator of that precedence ends the expression).  ``operand()``
        gives an operand's node or an opener (resume, levels, operand): the
        nested expression of that grammar is read next while the outer one
        waits on a stack, and ``resume(node)`` gives a node or an opener."""
        frames = []     # (resume, levels, operand, nodes, ops) of waiting expressions
        nodes, ops = [], []
        got = operand()
        while True:
            if type(got) is tuple:
                frames.append((got[0], levels, operand, nodes, ops))
                _, levels, operand = got
                nodes, ops = [], []
                got = operand()
                continue
            nodes.append(got)
            row = levels.get(self.tokens[self.pos].kind)
            if row and row[1] == "none" and any(op[0] == row[0] for op in ops):
                row = None
            prec, assoc, _ = row or (-1, None, None)   # no operator: reduce all
            while ops and (ops[-1][0] > prec or ops[-1][0] == prec and assoc == "left"):
                right = nodes.pop()
                nodes[-1] = ops.pop()[2](nodes[-1], right)
            if row:
                ops.append(row)
                self.pos += 1
                got = operand()
                continue
            if not frames:
                return nodes[0]
            resume, levels, operand, outer_nodes, ops = frames.pop()
            got = resume(nodes[0])
            nodes = outer_nodes
