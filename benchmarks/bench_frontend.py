"""Benchmark: the master-regex Verilog scanner vs the reference lexer.

Lexes every Thakur/RTLLM reference design plus a seeded
``generate_corpus`` set with both lexers in one process and reports
tokens/sec.  The scanner is driven through ``Lexer(...).tokenize()``,
which bypasses the token memo of ``repro.verilog.tokenize``, so every
pass really scans.  The reference is the character-at-a-time loop kept
in ``tests/reference_lexer.py``.  Writes ``BENCH_frontend.json`` at the
repo root.

``BENCH_frontend.json`` fields:

- ``texts`` / ``tokens_per_pass`` / ``corpus_seed`` — workload size: the
  46 suite references plus ``CORPUS_FILES`` generated designs, and the
  tokens one pass over them produces (EOF tokens included).
- ``reference_s`` / ``scanner_s`` — CPU seconds (``time.process_time``)
  for one pass, min over ``REPS`` rounds.  Each round times both lexers
  back to back, alternating which goes first.
- ``tokens_per_s_reference`` / ``tokens_per_s_scanner`` — the above as
  throughput.
- ``speedup_scanner`` — median over the rounds of the round's
  reference/scanner time ratio: machine-speed drift between rounds
  cancels inside each ratio.  CI gates it at 2x.
"""

import importlib.util
import json
import os
import statistics
import time

from repro.bench import rtllm_suite, thakur_suite
from repro.corpus import generate_corpus
from repro.verilog import Lexer

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
RESULT_PATH = os.path.join(ROOT, "BENCH_frontend.json")
CORPUS_FILES = 400
CORPUS_SEED = 3
REPS = 7


def _reference_tokenize():
    path = os.path.join(ROOT, "tests", "reference_lexer.py")
    spec = importlib.util.spec_from_file_location("reference_lexer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.reference_tokenize


def _scan(text: str):
    return Lexer(text).tokenize()


def _texts() -> list[str]:
    references = [problem.reference
                  for problem in thakur_suite() + rtllm_suite()]
    return references + list(generate_corpus(CORPUS_FILES,
                                             seed=CORPUS_SEED))


def _pass_s(lex, texts: list[str]) -> float:
    start = time.process_time()
    for text in texts:
        lex(text)
    return time.process_time() - start


def run_frontend_bench() -> dict:
    reference = _reference_tokenize()
    texts = _texts()
    tokens = 0
    for text in texts:
        expected = reference(text)
        assert _scan(text) == expected, "scanner diverged from reference"
        tokens += len(expected)

    reference_samples, scanner_samples = [], []
    for round_index in range(REPS):
        if round_index % 2:
            scanner_samples.append(_pass_s(_scan, texts))
            reference_samples.append(_pass_s(reference, texts))
        else:
            reference_samples.append(_pass_s(reference, texts))
            scanner_samples.append(_pass_s(_scan, texts))
    reference_s = min(reference_samples)
    scanner_s = min(scanner_samples)
    speedup = statistics.median(
        ref / scan for ref, scan in zip(reference_samples, scanner_samples))
    return {
        "texts": len(texts),
        "tokens_per_pass": tokens,
        "corpus_seed": CORPUS_SEED,
        "reference_s": round(reference_s, 4),
        "scanner_s": round(scanner_s, 4),
        "tokens_per_s_reference": round(tokens / reference_s),
        "tokens_per_s_scanner": round(tokens / scanner_s),
        "speedup_scanner": round(speedup, 2),
    }


def test_scanner_throughput(once, benchmark):
    result = once(run_frontend_bench)
    benchmark.extra_info.update(result)
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + json.dumps(result, indent=2, sort_keys=True))
    assert result["speedup_scanner"] >= 2.0, result
