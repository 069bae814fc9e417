"""The benchmark's own checks.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/check_perfbench.py

The name keeps the file out of the program's test collection: the
traced end-to-end checks start the workloads for real and take about
a minute.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402


class _Work:
    def outer(self, value):
        return self.inner(value) + 1

    def inner(self, value):
        return 1

    def broken(self):
        raise ValueError("boom")


def test_self_time_excludes_direct_children():
    tracer = spans.Tracer()
    tracer.wrap(_Work, "outer", "layer.outer")
    tracer.wrap(_Work, "inner", "layer.inner")
    try:
        assert _Work().outer(0) == 2
    finally:
        tracer.unpatch()
    (outer, o_start, o_end, o_parent), (inner, i_start, i_end, i_parent) \
        = tracer.spans
    assert (outer, o_parent, inner, i_parent) == \
        ("layer.outer", None, "layer.inner", 0)
    layers = tracer.summary()["layers"]
    assert layers["layer.outer"]["self_s"] == pytest.approx(
        (o_end - o_start) - (i_end - i_start))
    assert layers["layer.inner"]["self_s"] == pytest.approx(i_end - i_start)


def test_failed_calls_count_as_errors():
    tracer = spans.Tracer()
    tracer.wrap(_Work, "broken", "layer.broken")
    try:
        with pytest.raises(ValueError):
            _Work().broken()
    finally:
        tracer.unpatch()
    assert tracer.counts["layer.broken.errors"] == 1
    assert tracer.summary()["layers"]["layer.broken"]["calls"] == 1


def test_install_patches_every_binding_and_unpatch_restores():
    import importlib
    owners = []
    for _, module, cls, attr, _ in spans.BINDINGS:
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        owners.append((owner, attr, getattr(owner, attr)))
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        for owner, attr, original in owners:
            assert getattr(owner, attr) is not original, (owner, attr)
    finally:
        tracer.unpatch()
    for owner, attr, original in owners:
        assert getattr(owner, attr) is original


def test_a_missing_binding_site_fails_loudly(monkeypatch):
    monkeypatch.setattr(spans, "BINDINGS", spans.BINDINGS + (
        ("verilog.gone", "repro.verilog.lexer", None, "no_such_name",
         None),))
    tracer = spans.Tracer()
    try:
        with pytest.raises(AttributeError, match="no_such_name"):
            spans.install(tracer)
    finally:
        tracer.unpatch()


def test_matrix_rejects_silent_and_unexpected_layers():
    metrics = spans.layer_metrics({"layers": {}, "counts": {}}, {})
    problems = spans.check_matrix("eval-sweep", metrics)
    assert "verilog.lex_calls == 0 but eval-sweep exercises it" in problems
    metrics = dict(metrics, **{name: 1 for name in
                               spans.MATRIX["eval-sweep"]["exercised"]})
    assert spans.check_matrix("eval-sweep", metrics) == []
    metrics["infer.decode_calls"] = 3
    assert spans.check_matrix("eval-sweep", metrics) == [
        "infer.decode_calls == 3 but eval-sweep bypasses it"]


def test_reference_time_follows_the_sampled_host_speed():
    import speed
    sampler = speed.Sampler()
    ref = speed.REFERENCE_S
    # Reference speed, then half speed, then reference speed again.
    sampler.times = [0.0, 1.0, 2.0, 3.0, 4.0]
    sampler.values = [ref, ref, 2 * ref, 2 * ref, ref]
    assert sampler.normalize(0.1, 0.0, 0.1) == pytest.approx(0.1)
    assert sampler.normalize(0.5, 2.2, 2.7) == pytest.approx(0.25)
    # Half the samples slow, half at reference speed.
    assert sampler.normalize(2.0, 1.0, 3.0 - 2 * speed.MARGIN_S) \
        == pytest.approx(2.0 * (1 + 0.5) / 2)
    # No sample in the window: the nearest one counts.
    assert sampler.normalize(1.0, 10.0, 11.0) == pytest.approx(1.0)


def test_impossible_cells_count_as_failed():
    import child
    from repro.eval.verilog_eval import CellResult, GenerationReport
    report = GenerationReport()
    report.cells["m"] = {"p": {
        "low": CellResult(syntax_errors=1, function_rate=0.5, passes=2),
        "middle": CellResult(syntax_errors=6, function_rate=0.0),
        "high": CellResult(syntax_errors=0, function_rate=1.5)}}
    assert child.invalid_cells(report) == 2


def _traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["eval-sweep", "pipeline"])
def test_traced_counts_repeat_and_meet_the_matrix(workload):
    first, second = _traced_run(workload), _traced_run(workload)
    assert first["correct"] and second["correct"]
    counts = [name for name in first["metrics"]
              if name.endswith(spans.COUNT_SUFFIXES)]
    assert counts
    assert {name: first["metrics"][name]["value"] for name in counts} == \
        {name: second["metrics"][name]["value"] for name in counts}
