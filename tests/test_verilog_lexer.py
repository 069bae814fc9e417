"""Unit tests for the Verilog lexer."""

import pytest

from repro.verilog import Lexer, TokenKind, VerilogLexError, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)[:-1]]


def values(text):
    return [t.value for t in tokenize(text)[:-1]]


class TestBasicTokens:
    def test_keywords_and_identifiers(self):
        toks = tokenize("module counter endmodule foo")
        assert toks[0].kind is TokenKind.KEYWORD
        assert toks[1].kind is TokenKind.ID
        assert toks[2].kind is TokenKind.KEYWORD
        assert toks[3].kind is TokenKind.ID

    def test_identifier_with_dollar_and_digits(self):
        assert values("a1_$x") == ["a1_$x"]

    def test_eof_token_always_present(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is TokenKind.EOF

    def test_escaped_identifier(self):
        toks = tokenize(r"\bus+index other")
        assert toks[0].kind is TokenKind.ID
        assert toks[0].value == "bus+index"
        assert toks[1].value == "other"

    def test_system_identifier(self):
        toks = tokenize("$display $finish")
        assert all(t.kind is TokenKind.SYSTEM_ID for t in toks[:-1])
        assert values("$display $finish") == ["$display", "$finish"]


class TestNumbers:
    @pytest.mark.parametrize("text", [
        "42", "8'hFF", "4'b10x1", "'b1010", "12'o777", "16'd255",
        "8'sb1010_1010", "3 'd7",
    ])
    def test_number_forms_single_token(self, text):
        toks = tokenize(text)
        assert toks[0].kind is TokenKind.NUMBER
        assert len(toks) == 2  # number + EOF

    def test_underscores_allowed(self):
        assert values("32'h dead_beef")[0] == "32'h dead_beef"

    def test_real_literal(self):
        toks = tokenize("3.14")
        assert toks[0].kind is TokenKind.NUMBER
        assert toks[0].value == "3.14"

    def test_number_then_colon_not_base(self):
        # "2:0" in a range must not eat ':' as part of the number.
        assert values("[2:0]") == ["[", "2", ":", "0", "]"]

    def test_based_no_digits_raises(self):
        with pytest.raises(VerilogLexError):
            tokenize("8'h ;")


class TestOperators:
    def test_multichar_operators_greedy(self):
        assert values("<= === <<< ~^ +: ->") == \
            ["<=", "===", "<<<", "~^", "+:", "->"]

    def test_shift_vs_relational(self):
        assert values("a<<2") == ["a", "<<", "2"]
        assert values("a<2") == ["a", "<", "2"]

    def test_unknown_character_raises(self):
        with pytest.raises(VerilogLexError):
            tokenize("reg \x01 x;")


class TestTrivia:
    def test_line_comment_skipped(self):
        assert values("a // comment\n b") == ["a", "b"]

    def test_block_comment_skipped(self):
        assert values("a /* x\ny */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(VerilogLexError):
            tokenize("/* never ends")

    def test_unterminated_block_comment_reports_its_start(self):
        # The column is where the comment opens, not the end of text.
        with pytest.raises(VerilogLexError) as info:
            tokenize("module m;\n  wire x; /* never\nends")
        assert (info.value.line, info.value.col) == (2, 11)

    def test_directive_skipped(self):
        assert values("`timescale 1ns/1ps\nmodule") == ["module"]

    def test_string_literal(self):
        toks = tokenize('"hello %d"')
        assert toks[0].kind is TokenKind.STRING
        assert toks[0].value == "hello %d"

    def test_unterminated_string_raises(self):
        with pytest.raises(VerilogLexError):
            tokenize('"abc')


class TestPositions:
    def test_line_and_column_tracking(self):
        toks = tokenize("module m;\n  wire x;")
        wire = [t for t in toks if t.value == "wire"][0]
        assert wire.line == 2
        assert wire.col == 3

    def test_position_after_block_comment(self):
        toks = tokenize("/* a\nb */ module")
        assert toks[0].line == 2
