"""The repository benchmark: end-to-end and layer-attributed runs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload eval-sweep --seed 1 \\
        --seconds 30 --trace 0

Each repetition of a workload runs in a fresh interpreter
(``perfbench/child.py``) with fresh work and store directories, so no
in-process memo makes a later repetition warmer than the first.
Repetitions repeat until ``--seconds`` have passed; every metric is
the median over them.  Times are reference times: each is converted at
the host speed sampled while it was measured (``perfbench/speed.py``),
because the shared hosts this runs on change speed by up to 1.8 times
for seconds at a time; the run record keeps the measured times too.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones, the tracing overhead
(traced minus untraced wall time) and a table of each layer's share
of self time; it fails if a layer predicted to be exercised recorded
no call, if a layer predicted to be bypassed recorded one, or if a
call count differs between two traced repetitions.

Every repetition checks its outputs (report digests, augment, weights
and evaluate digests, decoded tokens); digests must agree between
repetitions and, for the seeds listed in ``perfbench/pinned.json``,
with the pinned values.  The last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402  (found through the path set just above)

WORKLOADS = ("eval-sweep", "pipeline")
#: One repetition must finish within this many seconds.
REP_TIMEOUT_S = 100


def source_identity(root: str) -> dict:
    """The commit when the checkout is a git tree, and a digest of the
    program source either way."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for path, dirs, names in os.walk(src):
        dirs[:] = sorted(name for name in dirs if name != "__pycache__")
        for name in sorted(names):
            if name.endswith(".py"):
                full = os.path.join(path, name)
                digest.update(os.path.relpath(full, src).encode())
                with open(full, "rb") as handle:
                    digest.update(handle.read())
    commit = None
    try:
        with open(os.path.join(root, ".git", "HEAD"),
                  encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]),
                      encoding="utf-8") as handle:
                head = handle.read().strip()
        commit = head
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_rep(workload: str, seed: int, traced: bool, workdir: str,
            index: int) -> dict:
    """One repetition in a fresh interpreter; returns its record.

    Every repetition uses the same, emptied ``workdir``: augmentation
    shards are keyed by absolute path, so a path that changed between
    repetitions would change the shard counts.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    env["TMPDIR"] = workdir
    spawned = time.monotonic()
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(traced)), "--workdir", workdir,
               "--spawned", repr(spawned)]
    # Its own session, so a hung repetition is stopped together with
    # any process it started.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} repetition {index} exited "
                           f"{proc.returncode}:\n{stderr[-4000:]}")
    record = json.loads(stdout.splitlines()[-1])
    record["traced"] = traced
    return record


def median_of(records: list[dict], get) -> float:
    return statistics.median(get(record) for record in records)


def check_digests(workload: str, seed: int, records: list[dict]) -> list:
    problems = []
    first = records[0]["digests"]
    for record in records[1:]:
        if record["digests"] != first:
            problems.append("digests differ between repetitions")
            break
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh).get(workload, {}).get(str(seed))
    if pinned is not None and pinned != first:
        problems.append(f"digests differ from the pinned ones for seed "
                        f"{seed}: {first} != {pinned}")
    return problems


def layer_report(workload: str, untraced: list[dict],
                 traced: list[dict], per_layer: list[dict]) -> tuple:
    """Per-layer metrics, overhead and the share table of a traced run."""
    problems = []
    first = traced[0]["layers"]
    counts = [name for name in first if name.endswith(spans.COUNT_SUFFIXES)]
    for record in traced[1:]:
        moved = [name for name in counts
                 if record["layers"][name] != first[name]]
        if moved:
            problems.append(f"call counts differ between traced "
                            f"repetitions: {moved}")
    metrics = {name: median_of(traced, lambda r, n=name: r["layers"][n])
               for name in first}
    problems += spans.check_matrix(workload, metrics)
    untraced_wall = median_of(untraced, lambda r: r["wall_ref_s"])
    traced_wall = median_of(traced, lambda r: r["wall_ref_s"])
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) \
        / untraced_wall
    missing = [entry["name"] for entry in per_layer
               if entry["name"] not in metrics]
    if missing:
        problems.append(f"per-layer metrics not measured: {missing}")
    # Shares are ratios of sums over the traced repetitions, so the
    # layers and the remainder add up to the whole.
    base = sum(r["wall_s"] for r in traced)
    shares: dict[str, float] = {}
    for record in traced:
        for name, layer in record["spans"].items():
            shares[name] = shares.get(name, 0.0) + layer["self_s"] / base
    return metrics, (base, shares), problems


def print_shares(workload: str, shares: tuple, metrics: dict) -> None:
    base, shares = shares
    print(f"-- {workload}: layer self time as a share of the traced "
          f"repetitions' {base:.3f} s (spans on background threads can "
          "overlap the rest)")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"   {name:<20} {100 * share:6.1f} %")
    print(f"   {'(not in a span)':<20} "
          f"{100 * (1 - sum(shares.values())):6.1f} %")
    print(f"   tracing overhead: {metrics['trace.overhead_s']:+.3f} s "
          f"({100 * metrics['trace.overhead_frac']:+.1f} % of the "
          f"untraced {metrics['trace.untraced_wall_s']:.3f} s)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print("perfbench: no program under src/repro; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        benchmark = json.load(handle)
    why = {entry["name"]: entry["why"] for entry in benchmark["workloads"]}
    workdir = os.path.join(root, ".perfbench", "work")

    records: list[dict] = []
    problems: list[str] = []
    deadline = time.monotonic() + args.seconds
    try:
        while True:
            traced = bool(args.trace) and len(records) % 2 == 1
            records.append(run_rep(args.workload, args.seed, traced,
                                   workdir, len(records)))
            if records[-1]["failed"] or records[-1]["problems"]:
                break
            # A traced run needs two traced repetitions to compare
            # their call counts.
            enough = len(records) >= (4 if args.trace else 1)
            if enough and time.monotonic() >= deadline:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.dirname(workdir), ignore_errors=True)

    untraced = [record for record in records if not record["traced"]]
    traced = [record for record in records if record["traced"]]
    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    for record in records:
        problems += record["problems"]
    if problems:
        # A failed repetition stops the run and nothing of it is timed.
        for problem in problems:
            print(f"!! {problem}")
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    problems += check_digests(args.workload, args.seed, records)

    named = {}
    for name, first in untraced[0]["named"].items():
        named[name] = {key: value for key, value in first.items()
                       if key not in ("value", "base")}
        named[name]["value"] = median_of(
            untraced, lambda r, n=name: r["named"][n]["value"])
        named[name]["repetitions"] = len(untraced)
        named[name]["per_repetition"] = [r["named"][name].get("base")
                                         for r in untraced]
    named["setup_s"] = {"value": median_of(untraced,
                                           lambda r: r["setup_ref_s"]),
                        "unit": "s", "repetitions": len(untraced),
                        "measured_s": median_of(untraced,
                                                lambda r: r["setup_s"])}
    named["peak_rss_mb"] = {"value": median_of(untraced,
                                               lambda r: r["peak_rss_mb"]),
                            "unit": "MB", "repetitions": len(untraced)}

    if args.trace:
        metrics, shares, layer_problems = layer_report(
            args.workload, untraced, traced, benchmark["per_layer"])
        problems += layer_problems
        entries = benchmark["per_layer"]
    else:
        metrics = {
            "throughput_per_s": median_of(
                untraced, lambda r: r["e2e"]["throughput_per_s"]),
            "latency_ms": median_of(untraced,
                                    lambda r: r["e2e"]["latency_ms"]),
            "setup_s": named["setup_s"]["value"],
            "peak_rss_mb": named["peak_rss_mb"]["value"],
        }
        entries = benchmark["end_to_end"]

    record = {
        "workload": args.workload, "gated": args.workload in why,
        "why": why.get(args.workload),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "nproc": os.cpu_count(), "versions": records[0]["versions"],
        "source": source_identity(root),
        "digests": records[0]["digests"], "named": named,
        "problems": problems,
    }
    print("-- run record " + json.dumps(record, sort_keys=True))
    for name, entry in sorted(named.items()):
        print(f"   {name:<24} {entry['value']:>14.4f} {entry['unit']}")
    if args.trace:
        print_shares(args.workload, shares, metrics)
    for problem in problems:
        print(f"!! {problem}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in entries if entry["name"] in metrics},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
