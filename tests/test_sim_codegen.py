"""Codegen-backend integration: generated-source caching, warm pools.

The equivalence of the generated modules themselves is gated by the
differential fuzzer and the golden-trace suite (both grew a codegen
arm); this file covers the cache plumbing the tentpole is really
about — the persistent generated-source layer, zero re-lowering in
warm pools (same process, worker threads, and across real process
boundaries), the Python-version guard, the atomic cache swap, and the
vectorized multi-candidate batch API.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.sim import (BACKENDS, backend_stats, codegen_key,
                       configure_design_cache, reset_backend_stats,
                       run_simulation, run_testbench,
                       run_testbench_batch, source_digest)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

SIMPLE = """
module tb;
  reg clk; reg [3:0] n;
  always @(posedge clk) n <= n + 4'd1;
  initial begin
    clk = 0; n = 0;
    repeat (8) #5 clk = ~clk;
    $display("n=%d", n);
    $finish;
  end
endmodule
"""

# Non-identifier sensitivity: lowering refuses; interpreter handles it.
NEEDS_FALLBACK = """
module tb;
  reg a; reg y;
  always @(a[0]) y = ~a;
  initial begin a = 0; #1 a = 1; #1 $display("y=%b", y); $finish; end
endmodule
"""

DESIGN = """
module inc(input [3:0] a, output [3:0] y);
  assign y = a + 4'd1;
endmodule
"""

BENCH = """
module tb;
  reg [3:0] a; wire [3:0] y;
  inc dut(.a(a), .y(y));
  initial begin
    a = 4'd3; #1;
    if (y == 4'd4) $display("PASS"); else $display("FAIL");
    $finish;
  end
endmodule
"""


@pytest.fixture(autouse=True)
def fresh_backend_state():
    configure_design_cache()
    reset_backend_stats()
    yield
    configure_design_cache()
    reset_backend_stats()


class TestCodegenBackend:
    def test_matches_interp(self):
        gen = run_simulation(SIMPLE, backend="codegen")
        ref = run_simulation(SIMPLE, backend="interp")
        assert gen.ok and ref.ok
        assert gen.display == ref.display
        assert gen.time == ref.time and gen.finished == ref.finished

    def test_counters(self):
        run_simulation(SIMPLE, backend="codegen")
        run_simulation(SIMPLE, backend="codegen")
        stats = backend_stats()
        assert stats.compiled_runs == 2
        assert stats.compiles == 1          # lowered exactly once
        assert stats.cache_hits == 1        # second run: in-memory hit
        assert stats.codegen_misses == 1    # no disk layer configured
        assert stats.fallbacks == 0

    def test_fallback_is_counted_and_equivalent(self):
        gen = run_simulation(NEEDS_FALLBACK, backend="codegen")
        ref = run_simulation(NEEDS_FALLBACK, backend="interp")
        stats = backend_stats()
        assert stats.fallbacks == 1
        assert stats.fallback_reasons
        assert gen.display == ref.display and gen.time == ref.time


class TestGenSourceCache:
    def test_disk_roundtrip_skips_relowering(self, tmp_path):
        configure_design_cache(root=str(tmp_path))
        reset_backend_stats()
        first = run_simulation(SIMPLE, backend="codegen")
        assert backend_stats().codegen_misses == 1
        assert backend_stats().compiles == 1
        # A fresh cache over the same root models a new warm worker:
        # the in-memory LRU is empty, the disk layer is hot.
        configure_design_cache(root=str(tmp_path))
        reset_backend_stats()
        second = run_simulation(SIMPLE, backend="codegen")
        stats = backend_stats()
        assert stats.codegen_hits == 1
        assert stats.compiles == 0          # exec'd, never re-lowered
        assert second.display == first.display
        assert second.time == first.time

    def test_codegen_key_folds_python_version(self, tmp_path):
        digest = source_digest(SIMPLE, None)
        key = codegen_key(digest)
        assert f"py{sys.version_info[0]}.{sys.version_info[1]}" in key
        # A key minted by a different interpreter version must miss.
        cache = configure_design_cache(root=str(tmp_path))
        cache.put_gen_source(digest, key, "def build():\n    pass\n")
        assert cache.gen_source(digest, key) is not None
        stale = key.replace(
            f"py{sys.version_info[0]}.{sys.version_info[1]}", "py0.0")
        assert cache.gen_source(digest, stale) is None

    def test_verdict_layer_python_version_guard(self, tmp_path,
                                                monkeypatch):
        digest = source_digest(NEEDS_FALLBACK, None)
        cache = configure_design_cache(root=str(tmp_path))
        cache.record_unsupported(digest, "refused")
        assert cache.verdict(digest)["reason"] == "refused"

        class _FakeSys:
            version_info = (0, 0, 0)

        # An interpreter upgrade re-fingerprints the manifest: stale
        # verdicts (and gen sources) degrade to misses.
        monkeypatch.setattr("repro.sim.compile.sys", _FakeSys)
        upgraded = configure_design_cache(root=str(tmp_path))
        assert upgraded.verdict(digest) is None

    def test_size_capped_design_persists_verdict(self, tmp_path,
                                                 monkeypatch):
        # An emitter size cap is a verdict on the source alone, so it
        # is persisted like any other unsupported verdict, and the
        # interpreter's output stands in for the design.
        monkeypatch.setattr("repro.sim.codegen._MAX_MODULE_CHARS", 100)
        cache = configure_design_cache(root=str(tmp_path))
        gen = run_simulation(SIMPLE, backend="codegen")
        ref = run_simulation(SIMPLE, backend="interp")
        assert gen.display == ref.display and gen.time == ref.time
        stats = backend_stats()
        assert stats.fallbacks == 1 and stats.compiled_runs == 0
        digest = source_digest(SIMPLE, None)
        assert cache.verdict(digest)["reason"] == \
            "generated module too large"
        # A fresh worker over the same root reads the verdict and
        # never re-emits the module.
        configure_design_cache(root=str(tmp_path))
        reset_backend_stats()
        again = run_simulation(SIMPLE, backend="codegen")
        assert again.display == ref.display
        assert backend_stats().compiles == 0
        assert backend_stats().fallbacks == 1

    def test_corrupt_gen_source_regenerates(self, tmp_path):
        # A damaged entry that still passes the cache's "def build"
        # check must read as a miss — never escape run_simulation.
        configure_design_cache(root=str(tmp_path))
        run_simulation(SIMPLE, backend="codegen")
        entry_dir = tmp_path / "gen" / "entries"
        (entry,) = entry_dir.iterdir()
        entry.write_text(entry.read_text() + "(\n")
        configure_design_cache(root=str(tmp_path))
        reset_backend_stats()
        result = run_simulation(SIMPLE, backend="codegen")
        ref = run_simulation(SIMPLE, backend="interp")
        assert result.display == ref.display and result.time == ref.time
        stats = backend_stats()
        assert stats.codegen_misses == 1 and stats.codegen_hits == 0
        assert stats.compiles == 1 and stats.fallbacks == 0
        # The regenerated source overwrote the damaged entry.
        configure_design_cache(root=str(tmp_path))
        reset_backend_stats()
        run_simulation(SIMPLE, backend="codegen")
        assert backend_stats().codegen_hits == 1
        assert backend_stats().compiles == 0


_CHILD = """
import json, sys
from repro.sim import (backend_stats, configure_design_cache,
                       reset_backend_stats, run_simulation)
root, source = sys.argv[1], sys.stdin.read()
configure_design_cache(root=root)
reset_backend_stats()
result = run_simulation(source, backend="codegen")
stats = backend_stats()
print(json.dumps({
    "ok": result.ok, "finished": result.finished, "time": result.time,
    "display": result.display, "compiles": stats.compiles,
    "codegen_hits": stats.codegen_hits,
    "codegen_misses": stats.codegen_misses,
    "fallbacks": stats.fallbacks,
}))
"""


class TestWarmPoolCrossProcess:
    def test_second_process_never_relowers(self, tmp_path):
        with open(os.path.join(GOLDEN_DIR, "counter.v"),
                  encoding="utf-8") as fh:
            source = fh.read()
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = src_dir + os.pathsep + \
            env.get("PYTHONPATH", "")
        blobs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", _CHILD, str(tmp_path)],
                input=source, capture_output=True, text=True, env=env,
                timeout=120)
            assert proc.returncode == 0, proc.stderr
            blobs.append(json.loads(proc.stdout))
        cold, warm = blobs
        assert cold["ok"] and cold["compiles"] == 1
        assert cold["codegen_misses"] == 1 and cold["fallbacks"] == 0
        # The warm worker execs the cached module source: zero parses,
        # zero elaborations, zero lowering passes.
        assert warm["compiles"] == 0
        assert warm["codegen_hits"] == 1 and warm["fallbacks"] == 0
        ref = run_simulation(source, backend="interp")
        for blob in blobs:
            assert blob["display"] == ref.display
            assert blob["time"] == ref.time
            assert blob["finished"] == ref.finished

    def test_warm_worker_threads_record_zero_compiles(self, tmp_path):
        configure_design_cache(root=str(tmp_path))
        run_simulation(SIMPLE, backend="codegen")   # warm the disk
        configure_design_cache(root=str(tmp_path))  # fresh LRU
        ref = run_simulation(SIMPLE, backend="interp")
        failures = []

        def worker():
            # BackendStats is thread-local: each worker's counters
            # start at zero, like a daemon pool thread.
            result = run_simulation(SIMPLE, backend="codegen")
            stats = backend_stats()
            if stats.compiles != 0:
                failures.append(f"compiles={stats.compiles}")
            if result.display != ref.display or result.time != ref.time:
                failures.append("diverged from interp")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures


class TestAtomicCacheSwap:
    def test_reconfigure_races_with_running_simulations(self):
        errors = []
        stop = threading.Event()

        def runner():
            while not stop.is_set():
                result = run_simulation(SIMPLE, backend="codegen")
                if not (result.ok and result.finished):
                    errors.append(result.error)
                    return

        threads = [threading.Thread(target=runner) for _ in range(3)]
        for thread in threads:
            thread.start()
        # Each in-flight run bound its cache at entry; the swap is
        # atomic under the module lock, so nothing can observe a
        # half-replaced cache.
        for _ in range(25):
            configure_design_cache()
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors, errors


class TestBatchStimulus:
    def test_batch_matches_serial_on_every_backend(self):
        wrong = DESIGN.replace("a + 4'd1", "a + 4'd2")
        candidates = [DESIGN, wrong, DESIGN]
        for backend in BACKENDS:
            serial = [run_testbench(text, BENCH, backend=backend)
                      for text in candidates]
            batch = run_testbench_batch(candidates, BENCH,
                                        backend=backend)
            assert [(v.ok, v.passed, v.failed, v.error)
                    for v in batch] == \
                   [(v.ok, v.passed, v.failed, v.error)
                    for v in serial], backend

    def test_batch_shares_one_compile_per_candidate(self):
        reset_backend_stats()
        run_testbench_batch([DESIGN, DESIGN, DESIGN], BENCH,
                            backend="codegen")
        stats = backend_stats()
        assert stats.compiles == 1          # identical candidates
        assert stats.compiled_runs == 3

    def test_batch_surfaces_candidate_parse_errors(self):
        verdicts = run_testbench_batch([DESIGN, "module broken"],
                                       BENCH, backend="codegen")
        assert verdicts[0].all_passed
        assert not verdicts[1].ok and verdicts[1].error

    def test_batch_surfaces_bench_parse_errors(self):
        verdicts = run_testbench_batch([DESIGN, DESIGN], "endmodule !",
                                       backend="codegen")
        assert len(verdicts) == 2
        assert all(not v.ok and v.error for v in verdicts)
