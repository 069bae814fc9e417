"""Master-regex scanner for the Verilog-2001 subset.

Design notes
------------
* One compiled regular expression does the scanning.  Each match is a
  run of trivia (spaces, tabs, ``\\r``, a ``//`` comment or a compiler
  directive such as `` `timescale`` running to end of line) followed by
  exactly one named alternative: a token, a newline, a block comment,
  the end of text, or a lexical error.  ``match.lastindex`` says which,
  so the Python loop runs once per token, not once per character.
* Lines are counted by the alternatives that can hold a newline: the
  newline itself, block comments and strings.  A token's column is its
  offset from the start of its line, so nothing is counted per
  character.
* Comments and compiler directives are skipped; the augmentation
  pipeline operates on the code itself.
* Based numbers (``8'hFF``, ``'b10x1``) are lexed as a single NUMBER token
  containing the exact source text.  Numeric *interpretation* lives in
  :mod:`repro.sim.values`, keeping the lexer purely lexical.
* Positions are 1-based (line, column) to match yosys error messages.
* :func:`tokenize` keeps the token streams of the :data:`MEMO_SIZE`
  texts it was most recently asked for.  The frontend lexes the same text
  several times in a row (lint, parse, mutation spans and simulation
  of one candidate), so a small memo removes most scans.  It stays
  small on purpose: reuse is local to one piece of work, and every
  cached stream holds its ``Token`` objects alive, so a large memo buys
  little and costs resident memory.  Only successful scans are cached,
  and every call returns a fresh list.
"""

from __future__ import annotations

import functools
import re

from .errors import VerilogLexError
from .tokens import (KEYWORDS, MULTI_CHAR_OPS, SINGLE_CHAR_OPS, Token,
                     TokenKind)

#: Token streams :func:`tokenize` keeps, keyed by source text.
MEMO_SIZE = 16

_BASE_DIGITS = "[0-9a-fA-FxXzZ?_]"
_BASE = r"'[sS]?[bodhBODH][ \t]*"
_OPS = "|".join([re.escape(op) for op in MULTI_CHAR_OPS]
                + ["[" + re.escape(SINGLE_CHAR_OPS.replace("/", "")) + "]",
                   r"/(?!\*)"])

# The alternatives have distinct first characters, except where an
# error alternative follows the token it stands in for ("'" with no
# base digits, "'" with no base, a '"' or "/*" never closed).
_SCANNER = re.compile(
    r"[ \t\r]*(?://[^\n]*|`[^\n]*)?"
    r"(?:(?P<id>[A-Za-z_][A-Za-z0-9_$]*)"
    rf"|(?P<op>{_OPS})"
    r"|(?P<newline>\n)"
    r"|(?P<number>[0-9][0-9_]*"
    rf"(?:\.[0-9][0-9_]*|[ \t]*{_BASE}{_BASE_DIGITS}+)?)"
    rf"|(?P<based>{_BASE}{_BASE_DIGITS}+)"
    rf"|(?P<no_digits>{_BASE})"
    r'|(?P<string>"[^"\\]*(?:\\[\s\S][^"\\]*)*")'
    r"|(?P<system_id>\$[A-Za-z0-9_$]*)"
    r"|(?P<escaped_id>\\[^ \t\r\n]*)"
    r"|(?P<comment>/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)"
    r"|(?P<eof>\Z)"
    r"|(?P<error>[\s\S]))")

# Group numbers of the alternatives: ``match.lastindex`` is one of them.
(_ID, _OP, _NEWLINE, _NUMBER, _BASED, _NO_DIGITS, _STRING, _SYSTEM_ID,
 _ESCAPED_ID, _COMMENT, _EOF) = (
    _SCANNER.groupindex[name]
    for name in ("id", "op", "newline", "number", "based", "no_digits",
                 "string", "system_id", "escaped_id", "comment", "eof"))

#: Messages for a character that starts no complete token.
_ERRORS = {"/": "unterminated block comment",
           '"': "unterminated string",
           "'": "invalid based literal"}


class Lexer:
    """Tokenise Verilog source text.

    >>> [t.value for t in Lexer("module m; endmodule").tokenize()[:3]]
    ['module', 'm', ';']
    """

    def __init__(self, text: str, filename: str = "<input>"):
        self.text = text
        self.filename = filename

    def tokenize(self) -> list[Token]:
        """Return the full token stream, terminated by an EOF token."""
        text = self.text
        tokens: list[Token] = []
        append = tokens.append
        ident, keyword, op = TokenKind.ID, TokenKind.KEYWORD, TokenKind.OP
        line, line_start = 1, 0
        # Every position matches (``error`` takes any character, ``eof``
        # the end of text), so the loop ends in one of the last branches.
        for match in _SCANNER.finditer(text):
            kind = match.lastindex
            start, end = match.span(kind)
            col = start - line_start + 1
            if kind == _ID:
                value = text[start:end]
                append(Token(keyword if value in KEYWORDS else ident,
                             value, line, col))
            elif kind == _OP:
                append(Token(op, text[start:end], line, col))
            elif kind == _NEWLINE:
                line += 1
                line_start = end
            elif kind == _NUMBER or kind == _BASED:
                append(Token(TokenKind.NUMBER, text[start:end], line, col))
            elif kind == _STRING:
                value = text[start + 1:end - 1]
                append(Token(TokenKind.STRING, value, line, col))
                line, line_start = _skip_lines(value, start + 1, line,
                                               line_start)
            elif kind == _SYSTEM_ID:
                append(Token(TokenKind.SYSTEM_ID, text[start:end], line,
                             col))
            elif kind == _ESCAPED_ID:
                append(Token(ident, text[start + 1:end], line, col))
            elif kind == _COMMENT:
                line, line_start = _skip_lines(text[start:end], start, line,
                                               line_start)
            elif kind == _EOF:
                append(Token(TokenKind.EOF, "", line, col))
                return tokens
            elif kind == _NO_DIGITS:
                raise VerilogLexError("based literal has no digits", line,
                                      end - line_start + 1, self.filename)
            else:
                char = text[start]
                raise VerilogLexError(
                    _ERRORS.get(char, f"unexpected character '{char}'"),
                    line, col, self.filename)


def _skip_lines(chunk: str, offset: int, line: int,
                line_start: int) -> tuple[int, int]:
    """(line, line_start) after ``chunk``, which starts at ``offset``."""
    last = chunk.rfind("\n")
    if last < 0:
        return line, line_start
    return line + chunk.count("\n"), offset + last + 1


@functools.lru_cache(maxsize=MEMO_SIZE)
def _memo_scan(text: str) -> tuple[Token, ...]:
    return tuple(Lexer(text).tokenize())


def tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Tokenize ``text`` in one call, reusing a recent scan of it.

    A lexical error is raised with ``filename``, on every call.
    """
    try:
        return list(_memo_scan(text))
    except VerilogLexError as err:
        raise VerilogLexError(err.message, err.line, err.col,
                              filename) from None
