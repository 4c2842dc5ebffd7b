#!/usr/bin/env python3
"""The repository's benchmark: one command, five workloads, checked outputs.

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: the program's processes get the
wrappers of ``perfbench/tracer.py`` through a start-up hook, and the run
reports the per-layer metrics, writes a Chrome trace to ``perfbench/_out``
and reports the tracing overhead.  The program is driven from outside
only; ``src/`` is never modified.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every check passed and the run is valid (the
native engine carried the simulations).  See ``perfbench/README.md`` for
the workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path
from typing import Dict

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import BenchError, Procs, Workspace, median, percentile  # noqa: E402

#: (name, unit) of the end-to-end metrics, as declared in BENCHMARK.json.
END_TO_END = (
    ("wall_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("sweep_p50_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("fidelity.speedup_err", "ratio"),
    ("fidelity.energy_gain_err", "ratio"),
    ("fidelity.scaleout_speedup_err", "ratio"),
)


def end_to_end(m, tally) -> "tuple[Dict[str, float], Dict[str, int]]":
    values = {
        "wall_s": median(m.cli_walls),
        "jobs_per_s": m.jobs / m.busy_s if m.busy_s else 0.0,
        "sweep_p50_s": median(m.sweep_walls),
        "sim_cycles_per_s": m.core_cycles / m.busy_s if m.busy_s else 0.0,
        "setup_s": median(m.setup),
        "peak_rss_mb": m.peak_rss_mb,
        **m.fidelity,
    }
    counts = {"wall_s": len(m.cli_walls), "jobs_per_s": m.jobs,
              "sweep_p50_s": len(m.sweep_walls),
              "sim_cycles_per_s": m.jobs, "setup_s": len(m.setup),
              "peak_rss_mb": 1}
    return values, counts


def report_only(m, tally) -> Dict[str, str]:
    """Metrics printed but not declared in BENCHMARK.json: the p90 exists
    only with at least ten samples beyond it; failed_frac is 0 on a healthy
    run (the result line carries attempted and failed instead); and
    fpu_util_err sits near 0.004, where any relative bound would refuse
    every model change."""
    lines = {}
    if "fidelity.fpu_util_err" in m.fidelity:
        lines["fidelity.fpu_util_err"] = (
            f"{m.fidelity['fidelity.fpu_util_err']:.6f} ratio (n=1)")
    beyond = [v for v in m.sweep_walls if v > percentile(m.sweep_walls, 90)]
    if len(beyond) >= 10:
        lines["sweep_p90_s"] = (f"{percentile(m.sweep_walls, 90):.6f} s "
                                f"(n={len(m.sweep_walls)})")
    else:
        lines["sweep_p90_s"] = (f"n/a: {len(beyond)} of "
                                f"{len(m.sweep_walls)} samples beyond p90")
    lines["failed_frac"] = (f"{tally.failed / max(1, tally.attempted):.6f} "
                            f"ratio (n={tally.attempted})")
    return lines


def per_layer(ctx, m) -> Dict[str, float]:
    import layers
    from workloads import MODEL_MACHINE

    values = layers.span_metrics(m.span_groups, len(m.traced_walls))
    values["cli.import_s"] = median([
        harness.python_snippet(harness.IMPORT_PROBE,
                               ctx.ws.env(ctx.ws.fresh("import")))["import_s"]
        for _ in range(3)])
    values["native.compile_s"] = (
        m.compile_s if m.compile_s is not None else harness.python_snippet(
            harness.PROBE, ctx.ws.env(ctx.ws.fresh("probe")))["available_s"])
    values["queue.wait_s"] = median(m.queue_wait)
    values["queue.exec_s"] = median(m.queue_exec)
    stats = m.fabric_stats
    values["fabric.leases_per_job"] = (stats.get("granted", 0)
                                       / max(1, stats.get("completed", 0)))
    values["fabric.requeued"] = float(stats.get("requeues", 0))
    untraced = median(m.sweep_walls if ctx.workload.startswith("service")
                      else m.cli_walls)
    values["obs.trace_overhead"] = (median(m.traced_walls) / untraced - 1.0
                                    if untraced else 0.0)
    values.update(layers.model_metrics(MODEL_MACHINE[ctx.workload]))
    return {name: values[name] for name, *_ in layers.LAYER_MAP}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not harness.program_present():
        print(f"perfbench: the program's sources ({harness.SRC}/repro) are "
              f"missing; run from a full checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(harness.SRC))
    import tracer
    from repro.service.client import ServiceError
    from workloads import (SERVICE_LANES, WORKLOADS, Context, Measured,
                           Tally, planned_operations)

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    harness.handle_signals()
    ws = Workspace(args.workload)
    procs = Procs(ws.root / "logs")
    tally = Tally()
    ctx = Context(args.workload, args.seed, args.seconds, bool(args.trace),
                  ws, procs, tally)
    env_record: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": harness.nproc(), "python": platform.python_version(),
        "lanes": SERVICE_LANES}
    start = time.perf_counter()
    try:
        # The benchmark's own in-process checks use the run's private caches.
        os.environ["REPRO_CACHE_DIR"] = str(ws.fresh("bench-cache"))
        os.environ["TMPDIR"] = str(ws.tmp)
        if args.trace:
            recorder = tracer.install(str(ws.fresh("client-trace")),
                                      args.workload,
                                      modules=("repro.service.client",))
            recorder.enabled = False
        try:
            m = WORKLOADS[args.workload](ctx)
        except (BenchError, ServiceError) as exc:
            # No daemon or no engine: count every planned operation as
            # failed and still print a result line.
            tally.fail(planned_operations(ctx), str(exc))
            m = Measured()
        except Exception as exc:  # noqa: BLE001 - a result line all the same
            traceback.print_exc()
            tally.fail(planned_operations(ctx),
                       f"benchmark error: {type(exc).__name__}: {exc}")
            m = Measured()
        env_record["native"] = m.native
        if m.native and not m.native.get("available"):
            tally.invalid = (f"native engine unavailable: "
                             f"{m.native.get('disabled_reason')}")
        metrics: Dict[str, Dict[str, object]] = {}
        if not args.trace:
            values, counts = end_to_end(m, tally)
            for name, unit in END_TO_END:
                metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
                print(f"{name:32s} {values.get(name, 0.0):>16.6f} {unit:9s}"
                      f" n={counts.get(name, 1)}")
            for name, line in report_only(m, tally).items():
                print(f"{name:32s} {line}")
        elif not tally.failed:
            import layers

            values = per_layer(ctx, m)
            for name, unit, *_ in layers.LAYER_MAP:
                metrics[name] = {"value": values[name], "unit": unit}
                print(f"{name:32s} {values[name]:>16.6f} {unit}")
            spans = [span for group in m.span_groups for span in group]
            trace_path = (harness.OUT_DIR /
                          f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write_chrome_trace(spans, trace_path)
            print(f"chrome trace: {trace_path} ({len(spans)} spans)")
    except KeyboardInterrupt:
        print("perfbench: interrupted", file=sys.stderr)
        return 130
    finally:
        procs.stop_all()
        ws.remove()
    env_record["elapsed_s"] = round(time.perf_counter() - start, 3)
    env_record["samples"] = {
        "setup_s": [round(v, 4) for v in m.setup],
        "wall_s": [round(v, 4) for v in m.cli_walls],
        "sweep_s": [round(v, 4) for v in m.sweep_walls],
        "traced_wall_s": [round(v, 4) for v in m.traced_walls]}
    env_record["invalid"] = tally.invalid
    env_record["problems"] = tally.problems
    print("env " + json.dumps(env_record, sort_keys=True))
    correct = tally.failed == 0 and tally.invalid is None
    if tally.invalid:
        print(f"perfbench: run INVALID: {tally.invalid}", file=sys.stderr)
    for problem in tally.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
