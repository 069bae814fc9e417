"""Reference oracle: the character-at-a-time Verilog lexer.

This is the cursor loop (``_peek``/``_advance``) that
:mod:`repro.verilog.lexer` used before its master-regex scanner.  It
lives in the tests only, as the oracle the differential tests and
``benchmarks/bench_frontend.py`` compare the scanner against: for any
text both must produce the same ``Token`` stream, or raise the same
``VerilogLexError`` (message, line and column).

It carries one fix over the historical loop: an unterminated block
comment reports the column where the comment starts, not the column
at end of text.
"""

from __future__ import annotations

from repro.verilog.errors import VerilogLexError
from repro.verilog.tokens import (KEYWORDS, MULTI_CHAR_OPS, SINGLE_CHAR_OPS,
                                  Token, TokenKind)

_ID_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ID_CHARS = _ID_START | frozenset("0123456789$")
_DIGITS = frozenset("0123456789")
_BASE_CHARS = frozenset("0123456789abcdefABCDEFxXzZ?_")


class ReferenceLexer:
    """Tokenise Verilog source text one character at a time."""

    def __init__(self, text: str, filename: str = "<input>"):
        self.text = text
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.col = 1

    # -- low-level cursor helpers -------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.text[idx] if idx < len(self.text) else ""

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos >= len(self.text):
                return
            if self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    # -- skipping ------------------------------------------------------------

    def _skip_trivia(self) -> None:
        """Skip whitespace, comments and preprocessor directives."""
        while self.pos < len(self.text):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line, start_col = self.line, self.col
                self._advance(2)
                while self.pos < len(self.text):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise VerilogLexError("unterminated block comment",
                                          start_line, start_col,
                                          self.filename)
            elif ch == "`":
                # Compiler directive: consume to end of line.
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            else:
                return

    # -- token producers -------------------------------------------------

    def _lex_identifier(self) -> Token:
        line, col = self.line, self.col
        start = self.pos
        while self._peek() in _ID_CHARS:
            self._advance()
        word = self.text[start:self.pos]
        kind = TokenKind.KEYWORD if word in KEYWORDS else TokenKind.ID
        return Token(kind, word, line, col)

    def _lex_escaped_identifier(self) -> Token:
        line, col = self.line, self.col
        self._advance()  # backslash
        start = self.pos
        while self.pos < len(self.text) and self._peek() not in " \t\r\n":
            self._advance()
        return Token(TokenKind.ID, self.text[start:self.pos], line, col)

    def _lex_system_id(self) -> Token:
        line, col = self.line, self.col
        start = self.pos
        self._advance()  # $
        while self._peek() in _ID_CHARS:
            self._advance()
        return Token(TokenKind.SYSTEM_ID, self.text[start:self.pos], line, col)

    def _lex_string(self) -> Token:
        line, col = self.line, self.col
        self._advance()  # opening quote
        start = self.pos
        while self.pos < len(self.text) and self._peek() != '"':
            if self._peek() == "\\":
                self._advance()
            self._advance()
        if self.pos >= len(self.text):
            raise VerilogLexError("unterminated string", line, col,
                                  self.filename)
        value = self.text[start:self.pos]
        self._advance()  # closing quote
        return Token(TokenKind.STRING, value, line, col)

    def _lex_number(self) -> Token:
        """Lex decimal, based, or real literals as one token."""
        line, col = self.line, self.col
        start = self.pos
        while self._peek() in _DIGITS or self._peek() == "_":
            self._advance()
        # Real literal: 3.14 (no base follows).
        if self._peek() == "." and self._peek(1) in _DIGITS:
            self._advance()
            while self._peek() in _DIGITS or self._peek() == "_":
                self._advance()
            return Token(TokenKind.NUMBER, self.text[start:self.pos],
                         line, col)
        self._maybe_consume_base()
        return Token(TokenKind.NUMBER, self.text[start:self.pos], line, col)

    def _lex_based_number(self) -> Token:
        """Number starting with ' (width-less based literal, e.g. 'b1010)."""
        line, col = self.line, self.col
        start = self.pos
        if not self._consume_base():
            raise VerilogLexError("invalid based literal", line, col,
                                  self.filename)
        return Token(TokenKind.NUMBER, self.text[start:self.pos], line, col)

    def _maybe_consume_base(self) -> None:
        # Allow whitespace between the size and the base, as Verilog does:
        # "8 'hFF".  We only look ahead past spaces/tabs, not newlines.
        save = (self.pos, self.line, self.col)
        while self._peek() and self._peek() in " \t":
            self._advance()
        if not self._consume_base():
            self.pos, self.line, self.col = save

    def _consume_base(self) -> bool:
        if self._peek() != "'":
            return False
        signed_offset = 2 if self._peek(1) and self._peek(1) in "sS" else 1
        base_char = self._peek(signed_offset).lower()
        if not base_char or base_char not in "bodh":
            return False
        self._advance(signed_offset + 1)
        while self._peek() and self._peek() in " \t":
            self._advance()
        if self._peek() not in _BASE_CHARS:
            raise VerilogLexError("based literal has no digits",
                                  self.line, self.col, self.filename)
        while self._peek() in _BASE_CHARS:
            self._advance()
        return True

    def _lex_operator(self) -> Token:
        line, col = self.line, self.col
        for op in MULTI_CHAR_OPS:
            if self.text.startswith(op, self.pos):
                self._advance(len(op))
                return Token(TokenKind.OP, op, line, col)
        ch = self._peek()
        if ch in SINGLE_CHAR_OPS:
            self._advance()
            return Token(TokenKind.OP, ch, line, col)
        raise VerilogLexError(f"unexpected character '{ch}'", line, col,
                              self.filename)

    # -- public API ------------------------------------------------------

    def tokenize(self) -> list[Token]:
        """Return the full token stream, terminated by an EOF token."""
        tokens: list[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.text):
                tokens.append(Token(TokenKind.EOF, "", self.line, self.col))
                return tokens
            ch = self._peek()
            if ch in _ID_START:
                tokens.append(self._lex_identifier())
            elif ch == "\\":
                tokens.append(self._lex_escaped_identifier())
            elif ch == "$":
                tokens.append(self._lex_system_id())
            elif ch == '"':
                tokens.append(self._lex_string())
            elif ch in _DIGITS:
                tokens.append(self._lex_number())
            elif ch == "'":
                tokens.append(self._lex_based_number())
            else:
                tokens.append(self._lex_operator())


def reference_tokenize(text: str, filename: str = "<input>") -> list[Token]:
    """Tokenize ``text`` with the reference loop (no memo)."""
    return ReferenceLexer(text, filename).tokenize()
