"""Parser for Dyer-Lashof sums.

Grammar (whitespace-insensitive):

    sum   := term ('+' term)*
    term  := ('Q^' int)+ class
    class := ident '[' int ']'

Examples: ``Q^6 Q^2 x[2]`` or ``Q^3 x[1] + Q^2 Q^1 x[1]``.  A sum parses
to a DLSum: each term's word is added over F2, so a word written twice
cancels, and every term must name the same class.

A malformed sum raises ParseError, reporting the first fault in this
order: a character that no token matches, then the first token the
grammar does not allow, then terms that name different classes.
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


def parse_sum(text: str) -> DLSum:
    tokens = _tokenize(text)
    i = 0

    def take(kind: str, expected: tuple[str, ...]) -> str:
        nonlocal i
        tok = tokens[i]
        if tok[0] != kind:
            raise ParseError("syntax error", text, tok[2], expected)
        i += 1
        return tok[1]

    words: set = set()
    classes = []
    while True:
        take("Q", ("Q^",))  # a bare class is not a term
        word = [int(take("INT", ("integer",)))]
        while tokens[i][0] == "Q":
            i += 1
            word.append(int(take("INT", ("integer",))))
        name = take("IDENT", ("identifier",))
        take("LBRACK", ("'['",))
        classes.append(GradedClass(name, int(take("INT", ("integer",)))))
        take("RBRACK", ("']'",))
        words ^= {tuple(word)}
        if tokens[i][0] != "PLUS":
            break
        i += 1
    take("EOF", ("'+'", "end of input"))
    if len(set(classes)) > 1:
        raise ParseError(
            "mixed generator classes in one sum", text, len(text), ("matching class",)
        )
    return DLSum(classes[0], words)
