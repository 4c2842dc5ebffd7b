"""Per-layer metrics of the traced run, and what each one should move.

Layers carry the program's module names.  Span sums are divided by the
number of traced operations (CLI calls or sweeps), so runs of different
length compare; metrics marked "per call" are medians over calls.  A layer
a workload never enters reads 0 there.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from harness import median

#: (metric, unit, better, e2e metric it should move, on which workload,
#:  bypass workload where the prediction is no change)
LAYER_MAP: List[Tuple[str, str, str, str, str, str]] = [
    ("cli.import_s", "s", "lower", "wall_s; setup_s", "paper-warm; service-*",
     "jobs_per_s on service-*"),
    ("native.compile_s", "s", "lower", "wall_s", "paper-cold",
     "paper-warm, service-* (paid in setup)"),
    ("native.fallback_jobs", "count", "lower", "wall_s", "snitch16-table1",
     "every other workload (0 there)"),
    ("core.codegen_s", "s", "lower", "wall_s", "paper-cold",
     "service-* (all progcache hits)"),
    ("core.progcache_hit_ratio", "ratio", "higher", "wall_s", "paper-cold",
     "service-*"),
    ("snitch.simulate_s", "s", "lower", "sim_cycles_per_s; jobs_per_s",
     "paper-cold; service-*", "paper-warm"),
    ("snitch.python_simulate_s", "s", "lower", "wall_s", "snitch16-table1",
     "every other workload (0 there)"),
    ("snitch.sim_cycles", "count", "lower", "fidelity.*", "paper-cold",
     "must not move under a simulator-speed change"),
    ("runner.glue_s", "s", "lower", "jobs_per_s; wall_s",
     "service-*; paper-cold", "paper-warm"),
    ("sweep.dispatch_s", "s", "lower", "wall_s", "paper-cold", "service-*"),
    ("store.load_s", "s", "lower", "wall_s", "paper-warm", "service-*"),
    ("store.save_s", "s", "lower", "jobs_per_s", "service-*", "paper-warm"),
    ("store.hit_ratio", "ratio", "higher", "wall_s", "paper-warm",
     "service-* (every job is new)"),
    ("artifacts.build_s", "s", "lower", "wall_s", "paper-warm", "service-*"),
    ("scaleout.direct_s", "s", "lower", "wall_s", "paper-cold", "service-*"),
    ("scaleout.timeline_s", "s", "lower", "wall_s", "paper-cold",
     "service-*"),
    ("service.submit_s", "s", "lower", "sweep_p50_s", "service-*",
     "paper-*"),
    ("queue.wait_s", "s", "lower", "sweep_p50_s (and p90)", "service-fabric",
     "paper-*"),
    ("queue.exec_s", "s", "lower", "sweep_p50_s (and p90)", "service-*",
     "paper-*"),
    ("fabric.lease_rtt_s", "s", "lower", "jobs_per_s", "service-fabric",
     "paper-*; service-local"),
    ("fabric.complete_rtt_s", "s", "lower", "jobs_per_s", "service-fabric",
     "paper-*; service-local"),
    ("fabric.leases_per_job", "ratio", "lower", "jobs_per_s; failed_frac",
     "service-fabric", "paper-*; service-local"),
    ("fabric.requeued", "count", "lower", "failed_frac; jobs_per_s",
     "service-fabric", "paper-*; service-local"),
    ("obs.trace_overhead", "ratio", "lower", "(tracing cost, per workload)",
     "all", "-"),
] + [
    (f"model.speedup.{kernel}", "ratio", "higher", "fidelity.speedup_err",
     "paper-cold", "must not move under a simulator-speed change")
    for kernel in ("jacobi_2d", "j2d5pt", "box2d1r", "j2d9pt", "j2d9pt_gol",
                   "star2d3r", "star3d2r", "ac_iso_cd", "box3d1r", "j3d27pt")
] + [
    ("model.base_ipc", "ratio", "lower", "fidelity.speedup_err",
     "paper-cold", "must not move under a simulator-speed change"),
    ("model.saris_ipc", "ratio", "higher", "fidelity.speedup_err",
     "paper-cold", "must not move under a simulator-speed change"),
    ("model.tcdm_conflict_rate", "ratio", "lower", "fidelity.fpu_util_err",
     "paper-cold", "must not move under a simulator-speed change"),
    ("model.fpu_raw_stall_frac", "ratio", "lower", "fidelity.fpu_util_err",
     "paper-cold", "must not move under a simulator-speed change"),
    ("model.ssr_stall_frac", "ratio", "lower", "fidelity.fpu_util_err",
     "paper-cold", "must not move under a simulator-speed change"),
    ("model.icache_miss_rate", "ratio", "lower", "wall_s; fidelity.*",
     "snitch16-table1", "must not move under a simulator-speed change"),
]

_CODEGEN_CHILDREN = ("core.codegen", "progcache.load")


def _sum_s(spans: Sequence[dict]) -> float:
    return sum(span["dur"] for span in spans) / 1e6


def _median_s(spans: Sequence[dict]) -> float:
    return median([span["dur"] / 1e6 for span in spans])


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(groups: Sequence[List[dict]], ops: int) -> Dict[str, float]:
    """Layer metrics from the spans of ``ops`` traced operations, grouped by
    process tree: one list per traced CLI call, or one for the traced
    service session."""
    ops = max(1, ops)
    spans = [span for group in groups for span in group]
    named: Dict[str, List[dict]] = {}
    for span in spans:
        named.setdefault(span["name"], []).append(span)
    children: Dict[str, List[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)

    native_runs = {span["parent"] for span in named.get("native.execute", ())
                   if span.get("native")}
    runs = named.get("snitch.run", [])
    native = [span for span in runs if span["id"] in native_runs]
    python = [span for span in runs if span["id"] not in native_runs]

    glue = 0.0
    for span in named.get("runner.run_kernel", ()):
        inner = [child for child in children.get(span["id"], ())
                 if child["name"] in _CODEGEN_CHILDREN
                 or child["name"] == "snitch.run"]
        glue += (span["dur"] - sum(child["dur"] for child in inner)) / 1e6

    dispatch = 0.0
    for group in groups:
        jobs = [span for span in group if span["name"] == "sweep.execute_job"]
        for sweep in (s for s in group if s["name"] == "sweep.run_sweep"):
            end = sweep["ts"] + sweep["dur"]
            busy = sum(job["dur"] for job in jobs
                       if sweep["ts"] <= job["ts"] <= end) / 1e6
            dispatch += sweep["dur"] / 1e6 - busy / max(1, sweep["workers"])

    artifacts = [span for name, group in named.items()
                 if name.startswith("artifacts.") for span in group]
    artifact_ids = {span["id"] for span in artifacts}
    top_artifacts = [span for span in artifacts
                     if span["parent"] not in artifact_ids]

    loads = named.get("progcache.load", [])
    store_loads = named.get("store.load", [])
    return {
        "native.fallback_jobs": sum(
            1 for span in named.get("runner.run_kernel", ())
            if span.get("engine") == "python") / ops,
        "core.codegen_s": _sum_s(named.get("core.codegen", ())) / ops,
        "core.progcache_hit_ratio": _ratio(
            sum(1 for span in loads if span.get("hit")), len(loads)),
        "snitch.simulate_s": _sum_s(native) / ops,
        "snitch.python_simulate_s": _sum_s(python) / ops,
        "snitch.sim_cycles": sum(span.get("core_cycles", 0)
                                 for span in runs) / ops,
        "runner.glue_s": glue / ops,
        "sweep.dispatch_s": dispatch / ops,
        "store.load_s": _median_s(store_loads),
        "store.save_s": _median_s(named.get("store.save", ())),
        "store.hit_ratio": _ratio(
            sum(1 for span in store_loads if span.get("hit")),
            len(store_loads)),
        "artifacts.build_s": _sum_s(top_artifacts) / ops,
        "scaleout.direct_s": _sum_s(named.get("scaleout.direct", ())) / ops,
        "scaleout.timeline_s": _sum_s(named.get("scaleout.timeline", ()))
        / ops,
        "service.submit_s": _median_s(named.get("service.submit", ())),
        "fabric.lease_rtt_s": _median_s(named.get("fabric.lease", ())),
        "fabric.complete_rtt_s": _median_s(named.get("fabric.complete", ())),
    }


def _geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def model_metrics(machine: str) -> Dict[str, float]:
    """Simulated (exact) model statistics of the Table-1 jobs on
    ``machine``, read from ``run_kernel(...).cluster``."""
    from repro import run_kernel
    from repro.core.kernels import TABLE1_KERNELS

    out: Dict[str, float] = {}
    base_ipc, saris_ipc = [], []
    conflicts = requests = core_cycles = raw = ssr = 0
    icache_hits = icache_misses = 0
    for kernel in TABLE1_KERNELS:
        base = run_kernel(kernel, variant="base", machine=machine)
        saris = run_kernel(kernel, variant="saris", machine=machine)
        out[f"model.speedup.{kernel}"] = base.cycles / saris.cycles
        base_ipc.append(base.ipc)
        saris_ipc.append(saris.ipc)
        cluster = saris.cluster
        conflicts += cluster.tcdm_conflicts
        requests += cluster.tcdm_requests
        for core in cluster.cores:
            core_cycles += core.cycles
            raw += core.fpu_stalls.get("raw", 0)
            ssr += (core.fpu_stalls.get("ssr_read", 0)
                    + core.fpu_stalls.get("ssr_write", 0))
        for result in (base, saris):
            icache_hits += result.cluster.icache_hits
            icache_misses += result.cluster.icache_misses
    out["model.base_ipc"] = _geomean(base_ipc)
    out["model.saris_ipc"] = _geomean(saris_ipc)
    out["model.tcdm_conflict_rate"] = _ratio(conflicts, requests)
    out["model.fpu_raw_stall_frac"] = _ratio(raw, core_cycles)
    out["model.ssr_stall_frac"] = _ratio(ssr, core_cycles)
    out["model.icache_miss_rate"] = _ratio(icache_misses,
                                           icache_hits + icache_misses)
    return out
