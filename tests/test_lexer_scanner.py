"""The master-regex scanner against the reference lexer, and its memo.

``reference_lexer`` (next to this file) is the character-at-a-time loop
the scanner replaced.  For every input both must yield the same token
stream, or the same ``VerilogLexError`` with the same message, line and
column.
"""

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_lexer import reference_tokenize
from repro.bench import rtllm_suite, thakur_suite
from repro.core import Mutator
from repro.verilog import Lexer, VerilogLexError, tokenize
from repro.verilog.lexer import MEMO_SIZE, _memo_scan

#: Characters that steer the lexer into every branch: quotes, based
#: literals, escapes, system names, comments, directives and whitespace,
#: plus two characters no token may start with.
VERILOGISH = ("abehsxzBDHOSXZ_0189$\\'\"`/*\n\t \r"
              ".;:<>=!~^&|+-?#@()[]{},%\x01é")

#: Multi-character pieces random characters rarely assemble.
FRAGMENTS = ("/*", "*/", "//", "`define W 8", "8'h", "4'b10x1", "'sd",
             "'b", "3 'd7", "3.14", "1_000", "module", "endmodule",
             "$display", "\\bus+i", '"a\\"b"', "<<<", "===", "+:", "\n")

verilogish_text = st.one_of(
    st.text(alphabet=st.sampled_from(VERILOGISH), max_size=80),
    st.lists(st.sampled_from(FRAGMENTS + tuple(VERILOGISH)),
             max_size=30).map("".join))

REFERENCES = [problem.reference
              for problem in thakur_suite() + rtllm_suite()]


def _outcome(lex, text):
    """The token list, or the error's observable fields."""
    try:
        return lex(text, "f.v")
    except VerilogLexError as err:
        return (type(err), err.message, err.line, err.col, err.filename)


def _scan(text, filename):
    return Lexer(text, filename).tokenize()


def assert_same_as_reference(text):
    expected = _outcome(reference_tokenize, text)
    assert _outcome(_scan, text) == expected, repr(text)
    assert _outcome(tokenize, text) == expected, repr(text)


class TestDifferential:
    @given(verilogish_text)
    @settings(max_examples=400, deadline=None)
    def test_random_text(self, text):
        assert_same_as_reference(text)

    def test_every_suite_reference(self):
        assert len(REFERENCES) == 46
        for text in REFERENCES:
            assert_same_as_reference(text)

    @given(st.integers(0, len(REFERENCES) - 1), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_mutator_outputs(self, index, seed):
        mutated = Mutator(seed=seed).mutate(REFERENCES[index]).mutated
        assert_same_as_reference(mutated)

    def test_every_error_kind(self):
        for text in ("/* open", 'x = "open', "8'h ;", "'q1", "a \x01",
                     "x\n  /* a\nb", "4'sd\t\n", "'", "8 's"):
            outcome = _outcome(reference_tokenize, text)
            assert isinstance(outcome, tuple), text
            assert_same_as_reference(text)


class TestMemo:
    def test_size_is_a_small_constant(self):
        assert 8 <= MEMO_SIZE <= 32
        assert _memo_scan.cache_info().maxsize == MEMO_SIZE

    def test_hit_returns_a_fresh_list(self):
        text = "module memo_fresh(input a); wire b; endmodule"
        expected = Lexer(text).tokenize()
        first = tokenize(text)
        hits = _memo_scan.cache_info().hits
        first.clear()
        second = tokenize(text)
        assert _memo_scan.cache_info().hits > hits
        assert second == expected
        second.pop()
        second.append(second[0])
        third = tokenize(text)
        assert third == expected
        assert third is not second

    def test_never_grows_past_its_size(self):
        for index in range(3 * MEMO_SIZE):
            tokenize(f"wire bounded_{index};")
            assert _memo_scan.cache_info().currsize <= MEMO_SIZE

    def test_failing_text_raises_every_time_with_callers_filename(self):
        text = 'module m;\n  initial $display("open'
        for filename in ("a.v", "b.v", "a.v"):
            try:
                tokenize(text, filename)
            except VerilogLexError as err:
                assert (err.message, err.line, err.col) == \
                    ("unterminated string", 2, 20)
                assert err.filename == filename
                assert str(err).startswith(f"{filename}:2: ERROR:")
            else:
                raise AssertionError("unterminated string was accepted")

    def test_concurrent_tokenize(self):
        # Twice as many texts as memo entries: threads keep hitting,
        # missing and evicting entries under each other.
        texts = [f"module t{i}; wire [{i}:0] w{i}; assign w{i} = {i}; "
                 f"endmodule" for i in range(2 * MEMO_SIZE)]
        expected = {text: Lexer(text).tokenize() for text in texts}
        failures = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(300):
                text = rng.choice(texts)
                tokens = tokenize(text)
                if tokens != expected[text]:
                    failures.append(text)
                tokens.clear()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
