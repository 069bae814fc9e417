"""Golden-trace regression suite: both backends vs checked-in traces.

Every design under ``tests/golden/`` has an expected ``$display``
transcript (``.out``) and — for the smaller designs — an expected VCD
dump (``.vcd``).  Both the interpreter and the codegen backend must
reproduce them byte-for-byte, so a scheduler change that silently
reorders events (or a lowering bug that shifts a delta cycle) fails
here even if the two backends still agree with each other.

The golden designs double as the workload for
``benchmarks/bench_sim.py`` (cycles/sec interp vs codegen).
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.sim import (Simulator, backend_stats, configure_design_cache,
                       elaborate, find_top, generate_module,
                       load_generated, reset_backend_stats,
                       run_simulation, source_digest)
from repro.verilog import parse

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

DESIGNS = sorted(
    os.path.splitext(os.path.basename(p))[0]
    for p in glob.glob(os.path.join(GOLDEN_DIR, "*.v")))


def golden_path(name: str, suffix: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}{suffix}")


def golden_source(name: str) -> str:
    with open(golden_path(name, ".v"), encoding="utf-8") as fh:
        return fh.read()


def expected_out(name: str) -> str:
    with open(golden_path(name, ".out"), encoding="utf-8") as fh:
        return fh.read()


def render_out(result) -> str:
    return "\n".join(result.display) + \
        f"\n-- finished={result.finished} time={result.time}\n"


def test_golden_inventory():
    """The suite stays at the contracted size with full .out coverage."""
    assert len(DESIGNS) >= 10
    for name in DESIGNS:
        assert os.path.exists(golden_path(name, ".out")), name


@pytest.mark.parametrize("name", DESIGNS)
def test_golden_interp(name):
    result = run_simulation(golden_source(name), backend="interp",
                            trace=True)
    assert result.ok, result.error
    assert render_out(result) == expected_out(name)
    vcd_file = golden_path(name, ".vcd")
    if os.path.exists(vcd_file):
        with open(vcd_file, encoding="utf-8") as fh:
            assert result.vcd == fh.read()


@pytest.mark.parametrize("name", DESIGNS)
def test_golden_compiled(name):
    # The default, compiled path end to end: run_simulation with
    # tracing over a fresh cache.  The counters prove the design ran
    # compiled, so a silent fallback to the interpreter cannot
    # masquerade as compiled-backend coverage.
    configure_design_cache()
    reset_backend_stats()
    try:
        result = run_simulation(golden_source(name), trace=True)
        stats = backend_stats().copy()
    finally:
        configure_design_cache()
        reset_backend_stats()
    assert stats.compiled_runs == 1 and stats.fallbacks == 0, \
        stats.summary()
    assert result.ok, result.error
    assert render_out(result) == expected_out(name)
    vcd_file = golden_path(name, ".vcd")
    if os.path.exists(vcd_file):
        with open(vcd_file, encoding="utf-8") as fh:
            assert result.vcd == fh.read()


@pytest.mark.parametrize("name", DESIGNS)
def test_golden_codegen(name):
    # Drive the codegen pipeline directly: emit the module source,
    # exec-load it (as a warm pool worker would) and compare transcript
    # and VCD byte-for-byte against the checked-in traces.
    text = golden_source(name)
    source = parse(text)
    design = elaborate(source, find_top(source))
    module_source, _code = generate_module(design,
                                           source_digest(text, None))
    simulator = load_generated(module_source).simulator()
    simulator.enable_tracing()
    simulator.run(max_time=2_000_000)
    out = "\n".join(simulator.display_lines) + \
        f"\n-- finished={simulator.finished} time={simulator.time}\n"
    assert out == expected_out(name)
    vcd_file = golden_path(name, ".vcd")
    if os.path.exists(vcd_file):
        with open(vcd_file, encoding="utf-8") as fh:
            assert simulator.tracer.to_vcd() == fh.read()


@pytest.mark.parametrize("name", DESIGNS)
def test_golden_backends_agree_on_final_state(name):
    """Beyond the transcript: every signal's final value matches."""
    text = golden_source(name)
    source = parse(text)
    top = find_top(source)
    interp = Simulator(elaborate(parse(text), top))
    interp.run(max_time=2_000_000)
    _source, code = generate_module(elaborate(parse(text), top),
                                    source_digest(text, None))
    compiled = load_generated(code).simulator()
    compiled.run(max_time=2_000_000)
    for signal_name, signal in interp.design.signals.items():
        if signal.is_array:
            continue
        assert signal.value == compiled.value_of(signal_name), \
            signal_name
