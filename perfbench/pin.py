"""Pin the output digests of the gated workloads for a range of seeds.

Run from the root of a checkout::

    python3 perfbench/pin.py 0 10

runs one untraced repetition of every workload in ``BENCHMARK.json``
for seeds 0 to 10 and rewrites ``perfbench/pinned.json``.  Every later
run on a pinned seed must reproduce these digests; re-pin only for a
change that is meant to alter the program's outputs.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (found through the path set just above)


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        workloads = [entry["name"]
                     for entry in json.load(handle)["workloads"]]
    workdir = os.path.join(".perfbench", "work")
    pinned: dict[str, dict] = {}
    for workload in workloads:
        for seed in range(first, last + 1):
            record = run.run_rep(workload, seed, False, workdir, 0)
            if record["problems"]:
                raise SystemExit(f"{workload} seed {seed}: "
                                 f"{record['problems']}")
            pinned.setdefault(workload, {})[str(seed)] = record["digests"]
            print(workload, seed, record["digests"], flush=True)
    with open(os.path.join(HERE, "pinned.json"), "w",
              encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
