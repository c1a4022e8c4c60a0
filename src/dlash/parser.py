"""Parser for Dyer-Lashof sums.

Grammar (whitespace-insensitive):

    sum   := term ('+' term)*
    term  := ('Q^' int)+ class
    class := ident '[' int ']'

Examples: ``Q^6 Q^2 x[2]`` or ``Q^3 x[1] + Q^2 Q^1 x[1]``.  A sum parses
to a DLSum: each term's word is added over F2, so a word written twice
cancels, and every term must name the same class.
"""

from __future__ import annotations

import re

from .dyer_lashof import DLSum, GradedClass


class ParseError(ValueError):
    """Raised on malformed input.  Carries the offset of the failure."""

    def __init__(self, message: str, text: str, pos: int, expected: tuple[str, ...]):
        self.pos = pos
        self.expected = expected
        snippet = text[pos : pos + 12] or "<end of input>"
        super().__init__(
            f"{message} at position {pos} (near {snippet!r}); "
            f"expected {' or '.join(expected)}"
        )


_TOKEN = re.compile(
    r"""
    (?P<Q>Q\^)
    | (?P<INT>\d+)
    | (?P<PLUS>\+)
    | (?P<LBRACK>\[)
    | (?P<RBRACK>\])
    | (?P<IDENT>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<WS>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError("unexpected character", text, pos, ("Q^", "integer", "identifier"))
        kind = m.lastgroup
        if kind != "WS":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def expect(self, kind: str, expected: tuple[str, ...]):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError("syntax error", self.text, tok[2], expected)
        self.i += 1
        return tok

    def parse_sum(self) -> DLSum:
        terms = [self.parse_term()]
        while self.peek()[0] == "PLUS":
            self.i += 1
            terms.append(self.parse_term())
        self.expect("EOF", ("'+'", "end of input"))
        klass = terms[0][1]
        words: set = set()
        for word, k in terms:
            if k != klass:
                raise ParseError(
                    "mixed generator classes in one sum", self.text,
                    len(self.text), ("matching class",),
                )
            words ^= {word}
        return DLSum(klass, words)

    def parse_term(self) -> tuple:
        """(word, class) of one term Q^{i1}...Q^{ik} x[n]."""
        word = []
        # IDENT with no Q^ prefix would be a bare class; require at least one Q
        tok = self.peek()
        if tok[0] != "Q":
            raise ParseError("syntax error", self.text, tok[2], ("Q^",))
        while self.peek()[0] == "Q":
            self.i += 1
            num = self.expect("INT", ("integer",))
            word.append(int(num[1]))
        return tuple(word), self.parse_class()

    def parse_class(self) -> GradedClass:
        name = self.expect("IDENT", ("identifier",))
        self.expect("LBRACK", ("'['",))
        deg = self.expect("INT", ("integer",))
        self.expect("RBRACK", ("']'",))
        return GradedClass(name[1], int(deg[1]))


def parse_sum(text: str) -> DLSum:
    return _Parser(text).parse_sum()
