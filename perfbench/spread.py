#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
computes it: for each metric, the distance between the first and third
quartile of its values over several seeds, as a share of their median.

    python3 perfbench/spread.py --workloads paper-cold service-local \\
        --seeds 1 2 3 4 5 --seconds 12

Each run's result line is appended to ``perfbench/_out/spread.jsonl`` so a
later comparison can reuse them.  A spread above a third of the metric's
bound in ``BENCHMARK.json`` is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf"), q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = BENCH / "_out" / "spread.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "exit": proc.returncode,
                                     "elapsed_s": round(
                                         time.perf_counter() - start, 2),
                                     **result}) + "\n")
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"{result['failed']} failed\n{proc.stderr[-600:]}")
                status = 1
            runs.append(result["metrics"])
        print(f"== {workload} ({len(runs)} runs)")
        for name, bound in bounds.items():
            values = [run[name]["value"] for run in runs]
            share, mid = spread(values) if len(values) > 1 else (0.0, 0.0)
            flag = "  <-- above bound/3" if share > bound / 3 else ""
            print(f"  {name:32s} median {mid:14.6g}  spread {share:7.4f}  "
                  f"bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
