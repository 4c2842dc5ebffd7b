#!/usr/bin/env python3
"""Gate-power self-check: does the benchmark catch a ~10% slower simulator?

    python3 perfbench/gatecheck.py [--workloads paper-cold ...] [--block N]

Side B is the program with every ``SnitchCluster.run`` call stretched by
:data:`SLOWDOWN` (10%) of its own duration, by a wrapper that lives only in
``perfbench/tracer.py`` and reaches the program's processes through the
start-up hook.  Sides A and A2 run with the same hook and a slowdown of 0,
which imports the wrapper module but installs nothing, so B - A is the
injected delay alone.

Each side is compared on the metric the simulator's time reaches most
directly: for the CLI workloads the sweep wall the CLI reports (the
``sweep_p50_s`` samples, which leave out interpreter start and native
compile), for the service workloads the wall of one 4-job sweep.

Sides are interleaved finely, because this shared host drifts by 10-20%
within a minute.  A group runs ``--block`` operations on each of three
sides in rotation: A, B and A2, a second sample of the unchanged program
(CLI calls for the CLI workloads; sweeps for the service workloads, where
each side has a live session of its own).  Each comparison uses medians
within one group, so drift between groups cancels.  A2 against A is the
parent's own run-to-run spread under the same pairing: the noise floor is
the quartile distance, over groups, of A2 / A - 1.

B is flagged slower when it is worse in at least nine tenths of the groups
(ties count for neither side) and its median slowdown over the groups
exceeds that noise floor.  The check passes when each workload gets the
verdict :data:`EXPECTED` gives it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import Procs, Workspace, median  # noqa: E402

SIDES = ("A", "B", "A2")
#: Side orders, cycled so that each side takes every position equally.
ROTATIONS = (SIDES, SIDES[1:] + SIDES[:1], SIDES[2:] + SIDES[:2])

#: Injected share of every SnitchCluster.run call's own duration.
SLOWDOWN = 0.10
#: Groups per workload; the verdict needs B worse in nine tenths of them.
GROUPS = 10
#: Workload seed of the service traffic.
SEED = 0

#: workload -> whether the slowdown must be flagged there.  paper-warm
#: simulates nothing, so it must not be.
EXPECTED = {"paper-cold": True, "paper-warm": False, "snitch16-table1": True,
            "service-local": True, "service-fabric": True}


def verdict(groups: List[tuple]) -> Dict[str, object]:
    """``groups``: (A, B, A2) samples per group; lower is better."""
    ratios = [median(b) / median(a) for a, b, _ in groups]
    control = [median(a2) / median(a) for a, _, a2 in groups]
    q1, _, q3 = statistics.quantiles(control, n=4)
    slowdown = median(ratios) - 1.0
    b_worse = sum(1 for r in ratios if r > 1.0)
    return {"median_a": median([median(a) for a, _, _ in groups]),
            "median_b": median([median(b) for _, b, _ in groups]),
            "delta": slowdown, "b_worse": b_worse,
            "b_better": sum(1 for r in ratios if r < 1.0),
            "floor": q3 - q1,
            "slower": b_worse >= 0.9 * len(groups) and slowdown > q3 - q1}


def cli_sampler(ctx, workload: str, envs: Dict[str, Dict[str, str]]
                ) -> Callable[[str], float]:
    from workloads import (PAPER_ARGS, PAPER_CORES, SNITCH16_ARGS,
                           check_report, probe, reproduce)

    args, machine, cores = PAPER_ARGS, "snitch-8", PAPER_CORES
    caches: Dict[str, Path] = {}
    if workload == "paper-warm":
        caches = {side: ctx.ws.fresh("warm") for side in SIDES}
        for side, cache in caches.items():
            reproduce(ctx, cache, args, envs[side])
    elif workload == "snitch16-table1":
        args, machine, cores = SNITCH16_ARGS + ["--no-cache"], "snitch-16", 16
        built = ctx.ws.fresh("probe")
        probe(ctx, built)
        caches = {side: built for side in SIDES}

    def sample(side: str) -> float:
        cache = caches.get(side) or ctx.ws.fresh("cold")
        _, report = reproduce(ctx, cache, args, envs[side])
        check_report(ctx, report, machine, cores)
        return report["sweep"]["wall_seconds"] if report else float("inf")
    return sample


def service_sampler(ctx, fabric: bool, envs: Dict[str, Dict[str, str]]
                    ) -> Callable[[str], float]:
    """One live session per side, so that A2 against A also measures how
    much two sessions of the same program differ."""
    from workloads import _boot, _check_sweep, _Seeds, _think

    seeds = _Seeds(ctx.seed)
    sessions = {side: _boot(ctx, seeds, fabric, envs[side])[0]
                for side in SIDES}

    def sample(side: str) -> float:
        _think(sessions[side])
        wall, final = sessions[side].sweep(
            harness.service_jobs(seeds.take()))
        _check_sweep(ctx, final)
        return wall
    return sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(EXPECTED),
                        choices=list(EXPECTED))
    parser.add_argument("--block", type=int, default=None,
                        help="operations per side and group (default: 10 "
                             "CLI calls, 120 sweeps)")
    args = parser.parse_args(argv)
    if not harness.program_present():
        print("gatecheck: the program's sources are missing",
              file=sys.stderr)
        return 2
    harness.handle_signals()
    ws = Workspace("gatecheck")
    procs = Procs(ws.root / "logs")
    os.environ["REPRO_CACHE_DIR"] = str(ws.fresh("bench-cache"))
    sys.path.insert(0, str(harness.SRC))
    from workloads import Context, Tally

    envs = {side: {"PERFBENCH_SLOWDOWN": str(SLOWDOWN if side == "B" else 0)}
            for side in SIDES}
    tally = Tally()
    ok = True
    try:
        for workload in args.workloads:
            ctx = Context(workload, SEED, 0.0, False, ws, procs, tally)
            service = workload.startswith("service")
            if service:
                sample = service_sampler(ctx, workload == "service-fabric",
                                         envs)
            else:
                sample = cli_sampler(ctx, workload, envs)
            block = args.block or (120 if service else 10)
            groups = []
            start = time.perf_counter()
            for _ in range(GROUPS):
                samples: Dict[str, List[float]] = {side: [] for side in SIDES}
                for i in range(block):
                    for side in ROTATIONS[i % len(ROTATIONS)]:
                        samples[side].append(sample(side))
                groups.append(tuple(samples[side] for side in SIDES))
            procs.stop_all()
            result = verdict(groups)
            expected = EXPECTED[workload]
            good = result["slower"] == expected
            ok &= good
            print(f"{workload:15s} A {result['median_a']:.4f}s "
                  f"B {result['median_b']:.4f}s "
                  f"delta {result['delta']:+.2%} "
                  f"B worse in {result['b_worse']}/{GROUPS} groups "
                  f"(better in {result['b_better']}) "
                  f"A2/A floor {result['floor']:.2%} -> "
                  f"{'SLOWER' if result['slower'] else 'no change'}"
                  f" (expected {'SLOWER' if expected else 'no change'}: "
                  f"{'ok' if good else 'WRONG'}) "
                  f"[{time.perf_counter() - start:.0f}s]", flush=True)
    except KeyboardInterrupt:
        return 130
    finally:
        procs.stop_all()
        ws.remove()
    if tally.failed:
        print(f"gatecheck: {tally.failed} checks failed: {tally.problems}",
              file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
