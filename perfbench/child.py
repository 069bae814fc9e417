"""One timed repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that no
in-process memo (the candidate LRU, the compiled-design cache, the
model host, the ``lru_cache``'d suites) carries from one repetition
into the next.  Each repetition works in a freshly emptied directory
and prints one JSON record as its last line of output::

    python3 perfbench/child.py --workload eval-sweep --seed 3 \\
        --trace 0 --workdir .perfbench/work --spawned 0

``--spawned`` is the parent's ``time.monotonic()`` just before it
started this interpreter; the set-up time runs from there to the start
of the first timed operation.  Every time in the record's ``named``
and ``e2e`` figures is in reference seconds (``perfbench/speed.py``):
a :class:`speed.Sampler` runs for the whole repetition, and each
operation's measured time is converted at the host speed sampled
while it ran.  The measured times are kept beside them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import spans  # noqa: E402  (found through the path set just above)
import speed  # noqa: E402

#: eval-sweep shape: the paper's Table-3/5 generation sweep.
EVAL_MODELS = ("ours-13b", "gpt-3.5", "llama2-13b")
EVAL_LEVELS = ("low", "middle", "high")
EVAL_SAMPLES = 5
#: Warm reruns per repetition; their median is reported.
WARM_PASSES = 30

#: pipeline shape: corpus size, tiny-transformer knobs, evaluate scope.
PIPELINE_FILES = 40
PIPELINE_TRAIN = {"epochs": 1, "batch_size": 4, "micro_batch": 2,
                  "seq_len": 32, "vocab_size": 160, "d_model": 16,
                  "n_heads": 2, "n_layers": 1, "d_ff": 32,
                  "max_records": 128, "checkpoint_every": 4}
PIPELINE_EVAL = {"suite": "thakur", "samples": 2,
                 "levels": ["middle", "high"], "k": 2}
PIPELINE_MODEL = "bench-tiny"
#: Decoded after the timed run to pin the decode path's tokens.
DECODE_CHECK = {"prompts": ["### instruct: Implement a 4-bit counter.\n"
                            "### input: \n### output:",
                            "### instruct: Implement a 2-to-1 mux.\n"
                            "### input: \n### output:"],
                "max_tokens": 24, "temperature": 0.8}
#: Result poll interval and deadline of the pipeline's flow.
POLL_S = 0.01
REP_DEADLINE_S = 90.0


def canonical_sha256(blob) -> str:
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report_digest(report) -> str:
    return canonical_sha256({
        model: {problem: {level: cell.to_dict()
                          for level, cell in levels.items()}
                for problem, levels in problems.items()}
        for model, problems in report.cells.items()})


def invalid_cells(report) -> int:
    """Cells whose result cannot be right: counts outside the sample
    budget or a rate outside [0, 1]."""
    return sum(
        not (cell.samples == EVAL_SAMPLES
             and 0 <= cell.syntax_errors <= cell.samples
             and 0 <= cell.passes <= cell.samples
             and 0.0 <= cell.function_rate <= 1.0)
        for problems in report.cells.values()
        for levels in problems.values()
        for cell in levels.values())


def timed(call) -> tuple:
    """``(result, (seconds, start, end))`` of one call; ``start`` and
    ``end`` on the monotonic clock the sampler uses."""
    start = time.monotonic()
    result = call()
    end = time.monotonic()
    return result, (end - start, start, end)


def run_eval_sweep(seed: int, workdir: str, tracer,
                   sampler: speed.Sampler) -> dict:
    from repro.bench import rtllm_suite, thakur_suite
    from repro.eval import EvalEngine, evaluate_generation
    from repro.llm.behavioral import PROFILES, BehavioralModel

    models = [BehavioralModel(PROFILES[name], seed=seed)
              for name in EVAL_MODELS]
    problems = list(thakur_suite()) + list(rtllm_suite())
    cells = len(models) * len(problems) * len(EVAL_LEVELS)
    cache_dir = os.path.join(workdir, "eval-cache")
    problems_found: list[str] = []

    failed = 0

    def sweep() -> tuple[tuple, str, object]:
        nonlocal failed
        engine = EvalEngine(jobs=1, cache_dir=cache_dir)
        report, span = timed(lambda: evaluate_generation(
            models, problems, levels=EVAL_LEVELS, n_samples=EVAL_SAMPLES,
            engine=engine))
        failed += invalid_cells(report)
        return span, _report_digest(report), engine.stats

    if tracer is not None:
        spans.install(tracer)
    t_first_op = time.monotonic()
    cold, digest, stats = sweep()
    if stats.computed != cells:
        problems_found.append(f"cold pass computed {stats.computed} of "
                              f"{cells} cells")
    warm = []
    for _ in range(WARM_PASSES):
        span, warm_digest, stats = sweep()
        warm.append(span)
        if stats.cache_misses != 0:
            problems_found.append(f"warm pass missed {stats.cache_misses}"
                                  " cells")
        if warm_digest != digest:
            problems_found.append("warm report digest differs from cold")
    sampler.stop()
    cold_s = cold[0]
    cold_ref_s = sampler.normalize(*cold)
    warm_s = statistics.median(span[0] for span in warm)
    warm_ref_s = statistics.median(sampler.normalize(*span)
                                   for span in warm)
    if failed:
        problems_found.append(f"{failed} cells hold impossible results")
    return {
        "t_first_op": t_first_op,
        "wall_s": cold_s + sum(span[0] for span in warm),
        "wall_ref_s": cold_ref_s + sum(sampler.normalize(*span)
                                       for span in warm),
        "attempted": cells * (1 + WARM_PASSES),
        "failed": failed,
        "digests": {"report_sha256": digest},
        "problems": problems_found,
        "named": {
            "eval_cells_per_s": {
                "value": cells / cold_ref_s, "unit": "cells/s",
                "base": {"cells": cells, "cold_ref_s": cold_ref_s,
                         "cold_s": cold_s}},
            "eval_warm_cells_per_s": {
                "value": cells / warm_ref_s, "unit": "cells/s",
                "base": {"cells": cells, "warm_ref_s_median": warm_ref_s,
                         "warm_s_median": warm_s,
                         "warm_passes": WARM_PASSES}},
        },
        "e2e": {"throughput_per_s": cells / cold_ref_s,
                "latency_ms": warm_ref_s * 1000.0},
    }


def write_corpus(seed: int, root: str) -> str:
    from repro.corpus.generator import generate_corpus
    corpus = os.path.join(root, "corpus")
    os.makedirs(corpus)
    for index, text in enumerate(generate_corpus(PIPELINE_FILES,
                                                 seed=seed)):
        with open(os.path.join(corpus, f"design{index:03d}.v"), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
    return corpus


def store_bytes(store_dir: str) -> int:
    """Bytes of journal and snapshot in a store, job work excluded."""
    return sum(os.path.getsize(os.path.join(store_dir, name))
               for name in os.listdir(store_dir)
               if os.path.isfile(os.path.join(store_dir, name)))


def run_pipeline(seed: int, workdir: str, tracer,
                 sampler: speed.Sampler) -> dict:
    import repro.serve.daemon as daemon_module
    import repro.serve.executor as executor
    from repro.flow import pipeline_flow, submit_flow
    from repro.serve import Daemon, ServeClient
    from repro.serve.gateway import GatewayServer

    corpus = write_corpus(seed, workdir)
    flow = pipeline_flow(paths=[corpus], seed=seed,
                         train_knobs=PIPELINE_TRAIN,
                         register_as=PIPELINE_MODEL, **PIPELINE_EVAL)
    store_dir = os.path.join(workdir, "store")
    daemon = Daemon(store_dir, workers=1, engine_jobs=1,
                    configure_sim_cache=False)
    daemon.start()
    gateway = GatewayServer(daemon).start()
    client = ServeClient(gateway.url)
    #: Node kind -> (seconds, start, end) of its one batch.
    node_s: dict[str, tuple] = {}
    execute_batch = daemon_module.execute_batch

    def timed_execute_batch(kind, *args, **kwargs):
        start = time.monotonic()
        try:
            return execute_batch(kind, *args, **kwargs)
        finally:
            end = time.monotonic()
            node_s[kind] = (end - start, start, end)

    # The daemon looks execute_batch up at call time, so the node timer
    # sees every node (one batch each) without touching the program.
    daemon_module.execute_batch = timed_execute_batch
    try:
        if tracer is not None:
            spans.install(tracer)
        t_first_op = start = time.monotonic()
        run = submit_flow(client, flow)
        acked = time.monotonic()
        final = client.wait(run.ids, timeout=REP_DEADLINE_S, poll=POLL_S)
        done = time.monotonic()
        failed_nodes = sorted(name for name, job in run.jobs.items()
                              if final[job["id"]]["state"] != "done")
        results = {name: client.result(job["id"])
                   for name, job in run.jobs.items()
                   if name not in failed_nodes}
        end = time.monotonic()
        pipeline_s = end - start
        journal_bytes = store_bytes(store_dir)
    finally:
        gateway.stop()
        # Stopping compacts the store: the final snapshot is serve work.
        daemon.stop()
        daemon_module.execute_batch = execute_batch
        if tracer is not None:
            tracer.unpatch()
        sampler.stop()
    pipeline_ref_s = sampler.normalize(pipeline_s, start, end)
    serve = {"serve.submit_rtt_ms": 1000.0 * (acked - start),
             "serve.ack_to_done_ms": 1000.0 * (done - acked),
             "serve.journal_bytes": journal_bytes}
    if failed_nodes:
        return {"t_first_op": t_first_op, "wall_s": pipeline_s,
                "wall_ref_s": pipeline_ref_s,
                "attempted": len(run.jobs), "failed": len(failed_nodes),
                "problems": [f"pipeline node {name} ended "
                             f"{final[run.jobs[name]['id']]['state']}: "
                             f"{final[run.jobs[name]['id']]['error']}"
                             for name in failed_nodes]}
    # The evaluate blob of a model this small reads the same for every
    # seed (every sample is a syntax error), so decoded completions pin
    # the decode path itself.
    decoded = executor.execute_job(
        "infer", dict(DECODE_CHECK, seed=seed,
                      trained={"name": PIPELINE_MODEL, "job": "train"}),
        os.path.join(workdir, "work"),
        resolve={"train": results["train"]}.get)
    augment = results["augment"]
    problems_found = []
    text_sha = hashlib.sha256(
        augment["dataset_jsonl"].encode("utf-8")).hexdigest()
    if text_sha != augment["sha256"]:
        problems_found.append("augment sha256 does not match its dataset")
    if PIPELINE_MODEL not in results["evaluate"]["scores"]:
        problems_found.append("evaluate scores lack the trained model")
    records = augment["records"]
    augment_ref_s = sampler.normalize(*node_s["augment"])
    return {
        "t_first_op": t_first_op,
        "wall_s": pipeline_s,
        "wall_ref_s": pipeline_ref_s,
        "attempted": len(run.jobs),
        "failed": 0,
        "digests": {"augment_sha256": augment["sha256"],
                    "weights_sha256": results["train"]["weights_sha256"],
                    "scores": results["evaluate"]["scores"],
                    "evaluate_sha256": canonical_sha256(
                        results["evaluate"]),
                    "decode_sha256": canonical_sha256(decoded)},
        "problems": problems_found,
        "serve": serve,
        "named": {
            "augment_records_per_s": {
                "value": records / augment_ref_s, "unit": "records/s",
                "base": {"records": records,
                         "augment_ref_s": augment_ref_s,
                         "augment_s": node_s["augment"][0]}},
            "pipeline_s": {"value": pipeline_ref_s, "unit": "s",
                           "base": {"measured_s": pipeline_s,
                                    "node_s": {kind: span[0] for kind, span
                                               in node_s.items()},
                                    "train_steps":
                                        results["train"]["steps"]}},
        },
        "e2e": {"throughput_per_s": records / augment_ref_s,
                "latency_ms": pipeline_ref_s * 1000.0},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("eval-sweep", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)
    sampler = speed.Sampler().start()
    os.makedirs(args.workdir, exist_ok=True)

    # Lazily imported layers would otherwise be timed in the first
    # operation of an untraced run but not of a traced one.
    spans.import_layers()
    tracer = spans.Tracer() if args.trace else None
    run = run_eval_sweep if args.workload == "eval-sweep" \
        else run_pipeline
    try:
        record = run(args.seed, args.workdir, tracer, sampler)
    finally:
        sampler.stop()
    setup_s = record["t_first_op"] - args.spawned
    record["setup_s"] = setup_s
    record["setup_ref_s"] = sampler.normalize(setup_s, args.spawned,
                                              record["t_first_op"])
    record["speed_samples"] = len(sampler.values)
    if tracer is not None:
        tracer.unpatch()
        summary = tracer.summary()
        record["layers"] = spans.layer_metrics(summary,
                                               record.get("serve", {}))
        record["spans"] = summary["layers"]
    record["peak_rss_mb"] = peak_rss_mb()
    import numpy
    record["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__}
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
