"""Word expressions over the generators.

Syntax: a, b for the generators, A, B for their inverses, ^k for integer
exponents (k may be negative), parentheses for grouping, and whitespace
between factors.  "ab^2" means a * b^2; "(ab)^3" cubes the product.
"""

from __future__ import annotations

from .portrait import Portrait

__all__ = ["MAX_NESTING", "WordSyntaxError", "evaluate_word", "parse_word"]

# Deepest parenthesis nesting accepted.  The parser recurses once per open
# parenthesis, so a deeper word would exhaust Python's recursion limit.
MAX_NESTING = 100


class WordSyntaxError(ValueError):
    """Malformed word expression; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class _Parser:
    def __init__(self, text: str, a: Portrait, b: Portrait):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.atoms = {"a": a, "b": b}  # A and B join on first use
        self.identity = Portrait.identity(a.shape)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Portrait:
        result = self.word()
        if self.peek():
            raise WordSyntaxError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return result

    def word(self, in_group: bool = False) -> Portrait:
        result = self.identity
        while True:
            c = self.peek()
            if not c or c == ")":
                if not c and in_group:
                    raise WordSyntaxError("unclosed parenthesis", self.pos)
                return result
            result = result * self.factor()

    def factor(self) -> Portrait:
        c = self.peek()
        if c == "(":
            if self.depth == MAX_NESTING:
                raise WordSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", self.pos
                )
            self.depth += 1
            self.pos += 1
            atom = self.word(in_group=True)
            self.pos += 1  # consume ')'
            self.depth -= 1
        elif c.lower() in self.atoms:
            if c not in self.atoms:
                self.atoms[c] = self.atoms[c.lower()].inverse()
            atom = self.atoms[c]
            self.pos += 1
        else:
            raise WordSyntaxError(f"expected a, b, A, B or '(' , got {c!r}", self.pos)
        if self.peek() == "^":
            self.pos += 1
            atom = atom ** self.integer()
        return atom

    def integer(self) -> int:
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise WordSyntaxError("expected an integer exponent", self.pos)
        return int(self.text[start : self.pos])


def evaluate_word(text: str, a: Portrait, b: Portrait) -> Portrait:
    """Evaluate a word expression against given generator portraits."""
    return _Parser(text, a, b).parse()


def parse_word(text: str, group) -> Portrait:
    """Evaluate a word over a quotient's generators; result is group-bound."""
    return group.element(evaluate_word(text, group.a, group.b).labels)
