"""The parsing core shared by the FOL and TPL front ends.

A front end lexes with one master pattern, ``(skip)(?:(token|\\Z)|(.))``,
run once over the whole text by ``re.split`` in C.  Each match gives four
parts: the text before it that no match took (always empty), the blanks,
the token (empty at the end of the text: EOF) and a lexical error.  A
token is its text.  A lexical error anywhere wins over a parse error; an
error's line and column come from the lengths of the parts before it.

``Cursor.expression`` is one operator-precedence loop over explicit stacks:
an operand that opens a nested expression (a parenthesis, a quantifier
body, an argument list) hands back an opener instead of recursing, so no
parse nests Python calls per level of the text.
"""

from __future__ import annotations

import re
from functools import lru_cache


class PositionedError(ValueError):
    """A syntax error, with the line and column where it was found."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@lru_cache(maxsize=64)
def _master(skip: str, token, wide: str) -> re.Pattern:
    return re.compile(f"({skip}) (?: ({token(wide)}\n | \\Z) | (.) )", re.VERBOSE)


def then(got, finish):
    """Apply ``finish`` to the node of ``got``: now, or by a wrapping opener."""
    if type(got) is not tuple:
        return finish(got)
    resume, levels, operand = got
    return (lambda node: then(resume(node), finish)), levels, operand


class Cursor:
    """A position in the tokens of ``text``.  A front end sets ``error``;
    ``skip``, the pattern before a token; ``token(wide)``, the token pattern
    for a text whose non-ASCII characters are ``wide``, whose classes take
    them by ``str`` predicates; ``value(token)`` for messages; and
    ``lexical(offset)``, the message of the lexical error there."""

    error = PositionedError

    def __init__(self, text: str):
        wide = "" if text.isascii() else "".join(sorted(c for c in set(text) if not c.isascii()))
        self.text = text
        self.parts = _master(self.skip, self.token, wide).split(text)
        self.tokens = self.parts[2::4]
        self.pos = 0
        errors = self.parts[3::4]
        if any(errors):
            first = next(i for i, lexeme in enumerate(errors) if lexeme)
            offset, line, column = self.where(4 * first + 3)
            raise self.error(self.lexical(offset), line, column)

    def where(self, k: int) -> tuple[int, int, int]:
        """The offset, line and column of part ``k``; token t is part 4t + 2."""
        offset, text = sum(map(len, filter(None, self.parts[:k]))), self.text
        return offset, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    def expect(self, symbol: str, what: str | None = None):
        """Step over ``symbol``; the empty one is EOF."""
        token = self.tokens[self.pos]
        if token != symbol:
            self.fail(f"expected {what or repr(symbol)}, found {self.value(token)!r}")
        self.pos += 1

    def fail(self, message: str, at: int | None = None):
        """Raise ``message`` at token ``at``, the current one by default."""
        _, line, column = self.where(4 * (self.pos if at is None else at) + 2)
        raise self.error(message, line, column)

    def close(self, node):
        """The resume of a parenthesis: its ')' must follow."""
        self.expect(")")
        return node

    def expression(self, levels: dict, operand):
        """One expression: operands joined by the infix operators of ``levels``
        (symbol -> (precedence, associativity, build); higher binds
        tighter; associativity "left", "right" or "none", where a second
        operator of that precedence ends the expression).  ``operand()``
        gives an operand's node or an opener (resume, levels, operand): the
        nested expression of that grammar is read next while the outer one
        waits on a stack, and ``resume(node)`` gives a node or an opener."""
        tokens = self.tokens
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
            row = levels.get(tokens[self.pos])
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
