"""Benchmark: the codegen simulation backend vs the interpreter.

Runs every golden design (``tests/golden/*.v``) through both backends
and reports simulation cycles/sec (one cycle = 10 time units — all
golden clocks use a #5 half period), plus cold- vs warm-cache wall
time.  Writes ``BENCH_sim.json`` at the repo root so the perf
trajectory is tracked from PR to PR (the simulator twin of
``bench_scale.py`` / ``bench_eval.py``).

``BENCH_sim.json`` fields:

- ``designs`` / ``cycles_per_pass`` — workload size: golden design
  count and simulated cycles per full sweep.
- All ``*_s`` fields are single-threaded CPU seconds
  (``time.process_time``; warm fields are min over WARM_REPS rounds
  interleaved across backends) — immune to the wall-clock jitter and
  the slow machine-speed drift of shared CI runners.
- ``interp_s`` — sweep seconds for the tree-walking interpreter:
  ``Simulator(design).run`` only.  Each pass parses and elaborates
  fresh designs outside the clock (a run mutates its design), so the
  ratio compares simulation with simulation — warm codegen does no
  front-end work either.
- ``codegen_cold_s`` / ``codegen_warm_s`` — codegen backend, first
  pass (emits + persists the generated module source) vs warm
  in-memory cache.
- ``codegen_worker_warm_s`` — a *fresh* cache over the hot disk root,
  modelling a new pool worker: the generated source is exec'd, never
  re-lowered (``worker_compiles`` must be 0).
- ``cycles_per_sec_*`` / ``speedup_*`` — the above as throughput and
  as ratios over ``interp_s``.
- ``compiles`` / ``compile_cache_hits`` / ``fallbacks`` — codegen
  backend counters for the cold+warm passes.
- ``gen_source_misses`` — disk-layer misses during the codegen cold
  pass (one per design); ``gen_source_hits`` — disk-layer hits in the
  fresh-worker pass (one per design).  Mirrors the
  ``codegen_hits``/``codegen_misses`` counters in ``/api/health``.
- ``worker_compiles`` — lowering passes in the fresh-worker pass
  (the warm-pool contract: always 0).

The codegen floor asserted here (``SPEEDUP_FLOOR``) is the compiled
backend's acceptance bar; CI's simulator gate checks
``BENCH_sim.json`` against the same value.
"""

import gc
import glob
import json
import os
import tempfile
import time

from repro.sim import (Simulator, backend_stats, configure_design_cache,
                       elaborate, find_top, reset_backend_stats,
                       run_simulation)
from repro.verilog import parse

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          "tests", "golden")
RESULT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "BENCH_sim.json")
# Warm passes are ~10ms each: min over several samples irons out the
# occasional scheduler or allocator hiccup a single pass would let gate.
WARM_REPS = 7
# Warm codegen over interp, simulation only.  22 runs on a 2-CPU host
# (Python 3.11) read 5.36x-7.56x; the floor sits below the lowest.
SPEEDUP_FLOOR = 5.0


def _designs() -> dict[str, str]:
    out = {}
    for path in sorted(glob.glob(os.path.join(GOLDEN_DIR, "*.v"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path, encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def _sweep(designs: dict[str, str], backend: str) -> tuple[float, int]:
    """Total CPU seconds and simulated cycles for one pass.

    CPU time (``time.process_time``), not wall time: the sweeps are
    single-threaded pure Python, and on shared CI runners wall-clock
    jitter of ±25% would swamp the speedup gates below.
    """
    start = time.process_time()
    cycles = 0
    for text in designs.values():
        result = run_simulation(text, backend=backend)
        assert result.ok and result.finished, result.error
        cycles += result.time // 10
    return time.process_time() - start, cycles


def _interp_sweep(designs: dict[str, str]) -> tuple[float, int]:
    """CPU seconds and cycles of ``Simulator(design).run`` alone.

    Parse and elaborate happen before the clock starts, once per pass:
    a simulation mutates its design's signal values, so each pass needs
    freshly elaborated ones.
    """
    elaborated = []
    for text in designs.values():
        tree = parse(text, "<sim>")
        elaborated.append(elaborate(tree, find_top(tree)))
    start = time.process_time()
    cycles = 0
    for design in elaborated:
        simulator = Simulator(design)
        simulator.run(max_time=2_000_000)
        assert simulator.finished
        cycles += simulator.time // 10
    return time.process_time() - start, cycles


def run_sim_bench() -> dict:
    designs = _designs()
    assert len(designs) >= 10, "golden suite shrank below contract"

    # A GC pause inside a ~10ms warm pass skews the ratio by 2x; the
    # sweeps allocate only short-lived Values, so collection can wait.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_sim_bench(designs)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_sim_bench(designs: dict[str, str]) -> dict:
    _, cycles = _interp_sweep(designs)

    with tempfile.TemporaryDirectory(prefix="bench-sim-gen-") as root:
        # Cold pass: fresh cache, the first sweep pays parse+elaborate+
        # lower and emits + persists module source under the disk root
        # so the fresh-worker pass below can skip lowering entirely.
        configure_design_cache(root=root)
        reset_backend_stats()
        codegen_cold_s, _ = _sweep(designs, "codegen")
        cold_gen = backend_stats().copy()
        assert cold_gen.fallbacks == 0, cold_gen.fallback_reasons
        assert cold_gen.codegen_misses == len(designs)

        # Warm passes, interleaved round-robin: the speedup gate is a
        # ratio, and machine speed drifts over a multi-second bench
        # run — sampling both backends within each round keeps
        # numerator and denominator in the same drift regime.
        interp_samples, cg_samples = [], []
        for _ in range(WARM_REPS):
            interp_samples.append(_interp_sweep(designs)[0])
            cg_samples.append(_sweep(designs, "codegen")[0])
        interp_s = min(interp_samples)
        codegen_warm_s = min(cg_samples)
        stats = backend_stats().copy()
        assert stats.fallbacks == 0, stats.fallback_reasons
        assert stats.cache_hits >= len(designs) * WARM_REPS

        # Fresh worker over the hot disk cache: exec only, zero
        # re-lowers — the warm-pool contract.
        configure_design_cache(root=root)
        reset_backend_stats()
        worker_s, _ = _sweep(designs, "codegen")
        worker = backend_stats().copy()
        assert worker.compiles == 0, worker.summary()
        assert worker.codegen_hits == len(designs), worker.summary()
    configure_design_cache()

    result = {
        "designs": len(designs),
        "cycles_per_pass": cycles,
        "interp_s": round(interp_s, 4),
        "codegen_cold_s": round(codegen_cold_s, 4),
        "codegen_warm_s": round(codegen_warm_s, 4),
        "codegen_worker_warm_s": round(worker_s, 4),
        "cycles_per_sec_interp": round(cycles / interp_s, 1),
        "cycles_per_sec_codegen_warm": round(cycles / codegen_warm_s, 1),
        "speedup_codegen_warm": round(interp_s / codegen_warm_s, 2),
        "compiles": stats.compiles,
        "compile_cache_hits": stats.cache_hits,
        "fallbacks": stats.fallbacks,
        "gen_source_hits": worker.codegen_hits,
        "gen_source_misses": cold_gen.codegen_misses,
        "worker_compiles": worker.compiles,
    }
    return result


def test_sim_backend_throughput(once, benchmark):
    result = once(run_sim_bench)
    benchmark.extra_info.update(result)
    with open(RESULT_PATH, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\n" + json.dumps(result, indent=2, sort_keys=True))
    assert result["fallbacks"] == 0
    assert result["worker_compiles"] == 0
    # Acceptance bar: warm codegen cycles/sec over the interpreter on
    # the golden designs, simulation only on both sides.
    assert result["speedup_codegen_warm"] >= SPEEDUP_FLOOR, result
