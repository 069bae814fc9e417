"""In-memory span recorder and the layer bindings of the traced run.

The traced run wraps the public entry point of each layer from here,
outside the program: one patch on a class method covers every caller,
and a function imported by name is patched in each module that binds
it.  A span is ``[name, start, end, parent]`` where ``parent`` is the
index of the span that was open in the same context when it began;
spans opened on other threads (the checkpoint writer, gateway
workers) start a fresh context and have no parent.

A layer's *self* time is the sum of its spans' durations minus the
time covered by their direct children.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import threading
import time
import weakref
from collections import Counter

class Tracer:
    """Records spans and per-layer counters; patches and unpatches."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.parsed: set[int] = set()
        #: engine -> simulator counters already counted (an engine's
        #: ``sim_stats`` accumulate over its runs).
        self.engines: weakref.WeakKeyDictionary = \
            weakref.WeakKeyDictionary()
        self._lock = threading.Lock()
        #: Index of the span open in the current context, if any.
        self._current: contextvars.ContextVar[int | None] = \
            contextvars.ContextVar(f"perfbench_span_{id(self)}",
                                   default=None)
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, name: str,
             observe=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``observe(tracer, args, result)`` runs after a successful call
        to add counters (tokens lexed, candidates simulated, ...) and
        holds the tracer's lock while it does; a call that raises counts
        under ``<name>.errors``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, tracer._current.get()])
            token = tracer._current.set(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                with tracer._lock:
                    tracer.counts[f"{name}.errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._current.reset(token)
                tracer.spans[index][1:3] = (start, end)
            if observe is not None:
                with tracer._lock:
                    observe(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """``{layer: {"calls", "total_s", "self_s"}}`` plus counters."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        layers: dict[str, dict] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            layer = layers.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += end - start - covered[index]
        return {"layers": layers, "counts": dict(self.counts)}


# -- observers: counters measured where the work happens ------------------

def _lexed(tracer: Tracer, args, tokens) -> None:
    tracer.counts["verilog.tokens"] += len(tokens)


def _parser_init(original):
    @functools.wraps(original)
    def init(self, text, *args, **kwargs):
        self._perfbench_text = hash(text)
        return original(self, text, *args, **kwargs)
    return init


def _parsed(tracer: Tracer, args, tree) -> None:
    key = getattr(args[0], "_perfbench_text", None)
    if key in tracer.parsed:
        tracer.counts["verilog.parse_reused"] += 1
    tracer.parsed.add(key)


def _linted(tracer: Tracer, args, result) -> None:
    tracer.counts["checker.lint_ok"] += bool(result.ok)


def _simulated(tracer: Tracer, args, verdicts) -> None:
    tracer.counts["sim.candidates"] += len(args[0])


def _engine_ran(tracer: Tracer, args, blobs) -> None:
    engine = args[0]
    tracer.counts["eval.cells_computed"] += engine.stats.computed
    tracer.counts["eval.cache_hits"] += engine.stats.cache_hits
    tracer.counts["eval.cache_misses"] += engine.stats.cache_misses
    compiles, hits = tracer.engines.get(engine, (0, 0))
    tracer.counts["sim.compiles"] += engine.sim_stats.compiles - compiles
    tracer.counts["sim.cache_hits"] += engine.sim_stats.cache_hits - hits
    tracer.engines[engine] = (engine.sim_stats.compiles,
                              engine.sim_stats.cache_hits)


def _augmented(tracer: Tracer, args, report) -> None:
    tracer.counts["scale.shards_computed"] += report.shards_computed
    tracer.counts["scale.shard_cache_hits"] += report.cache_hits


def _trained(tracer: Tracer, args, report) -> None:
    tracer.counts["train.steps"] += report.steps


def _decoded(tracer: Tracer, args, outs) -> None:
    prompts = args[1]
    tracer.counts["infer.tokens"] += sum(
        len(out) - len(prompt) for out, prompt in zip(outs, prompts))


def _journaled(tracer: Tracer, args, result) -> None:
    tracer.counts["serve.journal_events"] += len(args[1])


#: (span name, module, class or None, attribute, observer).  Functions
#: imported by name are listed once per module that binds them.
BINDINGS = (
    ("verilog.lex", "repro.verilog.lexer", "Lexer", "tokenize", _lexed),
    ("verilog.parse", "repro.verilog.parser", "Parser", "parse", _parsed),
    ("checker.lint", "repro.eval.verilog_eval", None, "check_source",
     _linted),
    ("core.mutate", "repro.core.mutation", "Mutator", "mutate", None),
    ("core.token_spans", "repro.core.textspan", None, "token_spans",
     None),
    ("core.token_spans", "repro.core.mutation", None, "token_spans",
     None),
    ("core.augment", "repro.scale.runner", None, "augment_file", None),
    ("llm.sample", "repro.llm.behavioral", "BehavioralModel",
     "generate_verilog", None),
    ("sim.batch", "repro.eval.verilog_eval", None, "run_testbench_batch",
     _simulated),
    ("eval.engine", "repro.eval.engine", "EvalEngine", "run",
     _engine_ran),
    ("scale.augment", "repro.scale.service", "AugmentationService",
     "run", _augmented),
    ("train.run", "repro.train", None, "train_run", _trained),
    ("train.run", "repro.train.service", None, "train_run", _trained),
    ("train.checkpoint", "repro.train.checkpoint", "CheckpointStore",
     "save", None),
    ("infer.decode", "repro.infer", None, "sample_tokens", _decoded),
    ("infer.decode", "repro.infer.sampled", None, "sample_tokens",
     _decoded),
    ("serve.execute", "repro.serve.daemon", None, "execute_batch", None),
    ("serve.journal", "repro.serve.store", "JobStore", "_append_group",
     _journaled),
    ("serve.snapshot", "repro.serve.store", "JobStore", "write_snapshot",
     None),
)


def import_layers() -> None:
    """Import every layer module, so a timed run never pays for it."""
    for _, module_name, _, _, _ in BINDINGS:
        importlib.import_module(module_name)


def install(tracer: Tracer) -> None:
    """Patch every binding site; a site that no longer exists fails."""
    from repro.verilog.parser import Parser
    original_init = Parser.__init__
    Parser.__init__ = _parser_init(original_init)
    tracer._patches.append((Parser, "__init__", original_init))
    for name, module_name, class_name, attr, observe in BINDINGS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        if not hasattr(owner, attr):
            raise AttributeError(
                f"binding site {module_name}.{class_name or ''}"
                f"{'.' if class_name else ''}{attr} is gone")
        tracer.wrap(owner, attr, name, observe)


#: Per-layer metrics that count work done by the program; for a fixed
#: seed they must repeat exactly from run to run.
COUNT_SUFFIXES = ("_calls", "_files", ".steps", "_writes", ".tokens",
                  ".candidates", ".compiles", "cells_computed",
                  "cache_hits", "cache_misses", "shards_computed",
                  "parse_errors", "execute_batches", "journal_groups",
                  "journal_events")

#: Per-layer serve metrics the pipeline's client measures around its
#: flow submit (zero where no flow is submitted).
SERVE_METRICS = ("serve.submit_rtt_ms", "serve.ack_to_done_ms",
                 "serve.journal_bytes")


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def layer_metrics(summary: dict, serve: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json.

    ``serve`` holds the client-side :data:`SERVE_METRICS` of the run.

    Every ratio's base is itself one of the metrics (``lex_tokens_per_s``
    is tokens over ``lex_self_s``, ``parse_reuse_frac`` reused parses
    over ``parse_calls``, ...).
    """
    layers, counts = summary["layers"], summary["counts"]

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def count(name: str) -> int:
        return counts.get(name, 0)

    return {
        "verilog.lex_calls": calls("verilog.lex"),
        "verilog.lex_self_s": self_s("verilog.lex"),
        "verilog.lex_tokens_per_s": _ratio(count("verilog.tokens"),
                                           self_s("verilog.lex")),
        "verilog.parse_calls": calls("verilog.parse"),
        "verilog.parse_self_s": self_s("verilog.parse"),
        "verilog.parse_reuse_frac": _ratio(count("verilog.parse_reused"),
                                           calls("verilog.parse")),
        "verilog.parse_errors": count("verilog.parse.errors"),
        "checker.lint_calls": calls("checker.lint"),
        "checker.lint_self_s": self_s("checker.lint"),
        "checker.lint_ok_frac": _ratio(count("checker.lint_ok"),
                                       calls("checker.lint")),
        "core.mutate_calls": calls("core.mutate"),
        "core.mutate_self_s": self_s("core.mutate"),
        "core.token_spans_calls": calls("core.token_spans"),
        "core.token_spans_self_s": self_s("core.token_spans"),
        "core.augment_files": calls("core.augment"),
        "core.augment_self_s": self_s("core.augment"),
        "llm.sample_calls": calls("llm.sample"),
        "llm.sample_self_s": self_s("llm.sample"),
        "sim.batch_calls": calls("sim.batch"),
        "sim.candidates": count("sim.candidates"),
        "sim.self_s": self_s("sim.batch"),
        "sim.compiles": count("sim.compiles"),
        "sim.cache_hit_frac": _ratio(
            count("sim.cache_hits"),
            count("sim.cache_hits") + count("sim.compiles")),
        "eval.cells_computed": count("eval.cells_computed"),
        "eval.cache_hits": count("eval.cache_hits"),
        "eval.cache_misses": count("eval.cache_misses"),
        "scale.shards_computed": count("scale.shards_computed"),
        "scale.shard_cache_hits": count("scale.shard_cache_hits"),
        "train.steps": count("train.steps"),
        "train.run_self_s": self_s("train.run"),
        "train.step_ms": 1000.0 * _ratio(self_s("train.run"),
                                         count("train.steps")),
        "train.checkpoint_writes": calls("train.checkpoint"),
        "train.checkpoint_s": layers.get("train.checkpoint", {})
        .get("total_s", 0.0),
        "infer.decode_calls": calls("infer.decode"),
        "infer.tokens": count("infer.tokens"),
        "infer.decode_self_s": self_s("infer.decode"),
        "infer.tokens_per_s": _ratio(count("infer.tokens"),
                                     self_s("infer.decode")),
        "serve.execute_batches": calls("serve.execute"),
        "serve.execute_self_s": self_s("serve.execute"),
        "serve.journal_groups": calls("serve.journal"),
        "serve.journal_events": count("serve.journal_events"),
        "serve.journal_self_s": self_s("serve.journal"),
        "serve.snapshot_writes": calls("serve.snapshot"),
        "serve.snapshot_s": layers.get("serve.snapshot", {})
        .get("total_s", 0.0),
        **{name: serve.get(name, 0.0) for name in SERVE_METRICS},
    }


#: Which layers each workload is predicted to exercise (count > 0) and
#: to bypass (count == 0).  A binding site the program stopped calling
#: shows up here as a zero on an exercised layer and fails the run.
MATRIX = {
    "eval-sweep": {
        "exercised": ("verilog.lex_calls", "verilog.parse_calls",
                      "checker.lint_calls", "core.mutate_calls",
                      "core.token_spans_calls", "llm.sample_calls",
                      "sim.batch_calls", "sim.compiles",
                      "eval.cells_computed", "eval.cache_hits"),
        "bypassed": ("infer.decode_calls", "train.steps",
                     "train.checkpoint_writes", "core.augment_files",
                     "scale.shards_computed", "serve.execute_batches",
                     "serve.journal_groups", "serve.snapshot_writes",
                     "serve.submit_rtt_ms"),
    },
    "pipeline": {
        "exercised": ("verilog.lex_calls", "verilog.parse_calls",
                      "checker.lint_calls", "core.mutate_calls",
                      "core.token_spans_calls", "core.augment_files",
                      "scale.shards_computed", "scale.shard_cache_hits",
                      "train.steps", "train.checkpoint_writes",
                      "infer.decode_calls", "infer.tokens",
                      "eval.cells_computed", "serve.execute_batches",
                      "serve.journal_groups", "serve.journal_events",
                      "serve.snapshot_writes", "serve.submit_rtt_ms",
                      "serve.ack_to_done_ms", "serve.journal_bytes"),
        "bypassed": ("sim.batch_calls", "llm.sample_calls"),
    },
}


def check_matrix(workload: str, metrics: dict[str, float]) -> list[str]:
    """Violations of :data:`MATRIX` for one traced run (empty = ok)."""
    expected = MATRIX[workload]
    problems = [f"{name} == 0 but {workload} exercises it"
                for name in expected["exercised"] if not metrics[name]]
    problems += [f"{name} == {metrics[name]} but {workload} bypasses it"
                 for name in expected["bypassed"] if metrics[name]]
    return problems
