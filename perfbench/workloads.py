"""The five workloads: set-up, measured phase and output checks.

CLI workloads time one ``repro reproduce`` call per operation, from before
interpreter start.  Service workloads are a closed loop with one client:
it submits a 4-job sweep through ``ServiceClient``, waits for it, and only
then submits the next (on the fabric after a think time, see
:data:`FABRIC_THINK_S`); a few ``repro submit --watch`` CLI calls are
spread over the phase.  Local and fabric dispatch both run
:data:`SERVICE_LANES` simulation lanes, so they compare at equal
parallelism.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import harness
import tracer
from harness import Procs, ServiceSession, Workspace, cli, median, service_jobs
from tracer import load_spans

GOLDEN = harness.ROOT / "tests" / "golden_cycles.json"

#: Setup repetitions per run; setup_s is their median.
SETUP_REPS = 3
#: Fewest measured CLI calls of a CLI workload (per side in a traced run).
MIN_CALLS = 3
#: `repro submit --watch` calls per service run; wall_s is their median.
SERVICE_CLI_CALLS = 6
#: Service jobs whose metrics_hash is re-derived in-process.
HASH_SAMPLES = 8
#: Cores of the paper machine (snitch-8), which the service jobs also use.
PAPER_CORES = 8
#: Simulation lanes of both service workloads: ``repro serve --workers``,
#: or the number of ``repro worker`` processes.  One, because with two
#: fabric workers at the shipped 0.5 s idle poll the worker that wakes first
#: is a matter of their relative phase, which is set by chance at boot and
#: drifts: sweep p50 came out near 0.43 s in some runs and near 0.21 s in
#: others at one think time.  One worker makes the wait a function of the
#: think time alone.
SERVICE_LANES = 1
#: Idle poll of `repro worker` at its shipped default (``--poll``).
WORKER_POLL_S = 0.5
#: Pause of the fabric client between a sweep's end and its next submit.
#: When a sweep ends the worker finds the queue empty and sleeps one idle
#: poll, so a submit after this pause waits out the rest of that poll: half
#: of it, the mean wait of a submit that arrives at a random moment.
FABRIC_THINK_S = WORKER_POLL_S / 2


class Tally:
    """Operations attempted and failed: CLI calls, jobs and checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.invalid: Optional[str] = None

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def fail(self, count: int, what: str) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(what)


@dataclass
class Measured:
    setup: List[float] = field(default_factory=list)
    cli_walls: List[float] = field(default_factory=list)
    sweep_walls: List[float] = field(default_factory=list)
    jobs: int = 0
    core_cycles: int = 0
    busy_s: float = 0.0
    fidelity: Dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    #: native.build_info() as a fresh interpreter reports it
    native: Dict[str, object] = field(default_factory=dict)
    #: first native.available() into an empty cache (set-up probes only)
    compile_s: Optional[float] = None
    # traced run only
    traced_walls: List[float] = field(default_factory=list)
    span_groups: List[List[dict]] = field(default_factory=list)
    queue_wait: List[float] = field(default_factory=list)
    queue_exec: List[float] = field(default_factory=list)
    fabric_stats: Dict[str, object] = field(default_factory=dict)


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    trace: bool
    ws: Workspace
    procs: Procs
    tally: Tally


def peak_rss_mb() -> float:
    """Largest resident set of any program process reaped so far.  Read
    before the benchmark forks in-process work of its own."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- checks shared by the CLI workloads ---------------------------------------

def _golden() -> Dict[str, dict]:
    return json.loads(GOLDEN.read_text())


def _table(report: dict, prefix: str) -> dict:
    for art in report.get("artifacts", ()):
        if art["title"].startswith(prefix):
            return art
    raise KeyError(prefix)


def check_report(ctx: Context, report: Optional[dict], machine: str,
                 cores: int) -> int:
    """Checks one reproduce report; returns its Table-1 core-cycles."""
    if not ctx.tally.check(report is not None, "no report written"):
        return 0
    ctx.tally.check(not report.get("failures"),
                    f"failed jobs: {report.get('failures')}")
    try:
        table1 = _table(report, "Table 1")
    except KeyError:
        ctx.tally.check(False, "report has no Table 1")
        return 0
    golden = _golden()
    key_prefix = "" if machine == "snitch-8" else f"{machine}:"
    columns = table1["columns"]
    base_col, saris_col = columns.index("base cyc"), columns.index("saris cyc")
    cycles = 0
    for row in table1["rows"]:
        for variant, col in (("base", base_col), ("saris", saris_col)):
            cycles += int(row[col]) * cores
            expected = golden.get(f"{key_prefix}{row[0]}/{variant}")
            if expected is not None:
                ctx.tally.check(int(row[col]) == expected["cycles"],
                                f"{key_prefix}{row[0]}/{variant}: cycles "
                                f"{row[col]} != golden {expected['cycles']}")
    return cycles


def reproduce(ctx: Context, cache: Path, args: List[str],
              extra_env: Optional[Dict[str, str]] = None
              ) -> "tuple[float, Optional[dict]]":
    out = cache / "report.json"
    env = ctx.ws.env(cache, extra_env)
    wall, proc = cli(["reproduce", *args, "--cache-dir", str(cache), "-q",
                      "-o", str(out)], env)
    ok = ctx.tally.check(proc.returncode == 0,
                         f"reproduce exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-300:]}")
    report = json.loads(out.read_text()) if ok and out.is_file() else None
    return wall, report


# -- fidelity against the paper ------------------------------------------------

def fidelity(ctx: Context, store_dir: Path, report: Optional[dict] = None,
             filled: bool = True) -> Dict[str, float]:
    """|measured / paper - 1| for the headline figures.

    Computed through the program's own artifact builders from the paper
    sweep's results in the result store at ``store_dir``: one the program
    ``filled`` (a CLI call or the daemon), or else an empty one that an
    in-process sweep fills.  With the CLI's ``report``, the figures it
    printed must match.
    """
    from repro.sweep.artifacts import (PAPER_REFERENCE, build_fig3a,
                                       build_fig3b, build_fig4, build_fig5,
                                       pair_up, paper_jobs)
    from repro.sweep.engine import run_sweep
    from repro.sweep.store import ResultStore

    sweep = run_sweep(paper_jobs(), workers=None if not filled else 1,
                      store=ResultStore(store_dir))
    if filled:
        ctx.tally.check(sweep.executed == 0,
                        f"{sweep.executed} paper results missing from the "
                        f"program's result store")
    engines = {result.engine for result in sweep.results}
    if engines != {"native"}:
        ctx.tally.invalid = f"paper jobs ran on engines {sorted(engines)}"
    runs = pair_up(sweep.results)
    measured = {
        "speedup": (build_fig3a(runs)["data"]["geomean"], "speedup_geomean",
                    ("Figure 3a", "geomean", 1)),
        "fpu_util": (build_fig3b(runs)["data"]["geomean"]["saris_util"],
                     "saris_fpu_util_geomean",
                     ("Figure 3b", "geomean (measured)", 2)),
        "energy_gain": (build_fig4(runs)["data"]["geomean"]["gain"],
                        "energy_gain_geomean",
                        ("Figure 4", "geomean (measured)", 3)),
        "scaleout_speedup": (build_fig5(runs)["data"]["aggregates"]["speedup"],
                             "scaleout_speedup_geomean",
                             ("Figure 5", "geomean/max (measured)", 3)),
    }
    out = {}
    for name, (value, ref, (title, label, col)) in measured.items():
        out[f"fidelity.{name}_err"] = abs(value / PAPER_REFERENCE[ref] - 1.0)
        if report is not None:
            printed = [row[col] for row in _table(report, title)["rows"]
                       if row[0] == label]
            ctx.tally.check(printed == [f"{value:.2f}"],
                            f"{title} {label}: CLI printed {printed}, "
                            f"results give {value:.4f}")
    return out


# -- CLI workloads --------------------------------------------------------------

def _cli_loop(ctx: Context, m: Measured,
              call: Callable[[bool], float]) -> None:
    """Calls ``call(traced)`` until the phase ends; a traced run alternates
    untraced and traced calls so both see the same conditions."""
    start = time.perf_counter()
    walls: List[float] = []
    while True:
        enough = (len(m.cli_walls) >= MIN_CALLS
                  and (not ctx.trace or len(m.traced_walls) >= MIN_CALLS))
        # Start a call only when a typical one still ends inside the phase.
        if enough and (time.perf_counter() - start + median(walls)
                       > ctx.seconds):
            break
        traced = ctx.trace and len(walls) % 2 == 1
        walls.append(call(traced))
        (m.traced_walls if traced else m.cli_walls).append(walls[-1])


def probe(ctx: Context, cache: Path) -> Dict[str, object]:
    return harness.python_snippet(harness.PROBE, ctx.ws.env(cache))


def _probe_setup(ctx: Context, m: Measured) -> Path:
    """Set-up of paper-cold and snitch16-table1: a fresh interpreter that
    builds the native engine into an empty cache and reports build_info;
    returns the last cache."""
    compiles = []
    for _ in range(SETUP_REPS if not ctx.trace else 1):
        cache = ctx.ws.fresh("probe")
        start = time.perf_counter()
        m.native = probe(ctx, cache)
        m.setup.append(time.perf_counter() - start)
        compiles.append(m.native["available_s"])
    m.compile_s = median(compiles)
    return cache


PAPER_ARGS = ["--subset", "all"]
SNITCH16_ARGS = ["--subset", "table1", "--machine", "snitch-16"]


def _reproduce_loop(ctx: Context, m: Measured, args: List[str],
                    machine: str, cores: int, cache_for_call: Callable[[], Path],
                    warm: bool = False) -> Dict[str, object]:
    """The measured phase of a CLI workload; returns the last untraced
    call's cache and report."""
    last: Dict[str, object] = {}

    def call(traced: bool) -> float:
        cache = cache_for_call()
        trace_dir = ctx.ws.fresh("trace") if traced else None
        wall, report = reproduce(ctx, cache, args,
                                 _trace_env(ctx, trace_dir) if traced else None)
        cycles = check_report(ctx, report, machine, cores)
        if warm and report is not None:
            ctx.tally.check(report["sweep"]["executed"] == 0,
                            f"warm call executed "
                            f"{report['sweep']['executed']} jobs")
        if traced:
            m.span_groups.append(load_spans(trace_dir))
        else:
            _count_call(m, wall, report, cycles)
            last.update(cache=cache, report=report)
        return wall

    _cli_loop(ctx, m, call)
    return last


def paper_cold(ctx: Context) -> Measured:
    m = Measured()
    _probe_setup(ctx, m)
    last = _reproduce_loop(ctx, m, PAPER_ARGS, "snitch-8", PAPER_CORES,
                           lambda: ctx.ws.fresh("cold"))
    m.peak_rss_mb = peak_rss_mb()
    if last.get("report") is not None:
        m.fidelity = fidelity(ctx, last["cache"], last["report"])
    return m


def paper_warm(ctx: Context) -> Measured:
    m = Measured()
    for _ in range(SETUP_REPS if not ctx.trace else 1):
        cache = ctx.ws.fresh("warm")
        wall, report = reproduce(ctx, cache, PAPER_ARGS)
        check_report(ctx, report, "snitch-8", PAPER_CORES)
        m.setup.append(wall)
    last = _reproduce_loop(ctx, m, PAPER_ARGS, "snitch-8", PAPER_CORES,
                           lambda: cache, warm=True)
    m.native = probe(ctx, cache)
    m.peak_rss_mb = peak_rss_mb()
    if last.get("report") is not None:
        m.fidelity = fidelity(ctx, cache, last["report"])
    return m


def snitch16_table1(ctx: Context) -> Measured:
    # ``--no-cache`` also turns the codegen cache off, so the native engine
    # build is the only cache the measured calls can reuse.
    m = Measured()
    cache = _probe_setup(ctx, m)
    _reproduce_loop(ctx, m, SNITCH16_ARGS + ["--no-cache"], "snitch-16", 16,
                    lambda: cache)
    m.peak_rss_mb = peak_rss_mb()
    m.fidelity = fidelity(ctx, ctx.ws.fresh("fidelity"), filled=False)
    return m


def _count_call(m: Measured, wall: float, report: Optional[dict],
                cycles: int) -> None:
    m.busy_s += wall
    if report is not None and report.get("sweep"):
        m.jobs += report["sweep"]["jobs"]
        m.sweep_walls.append(report["sweep"]["wall_seconds"])
    m.core_cycles += cycles


def _trace_env(ctx: Context, trace_dir: Path) -> Dict[str, str]:
    return {"PERFBENCH_TRACE_DIR": str(trace_dir),
            "PERFBENCH_WORKLOAD": ctx.workload}


# -- service workloads -----------------------------------------------------------

class _Seeds:
    """Job seeds derived from the workload seed, unique within a run."""

    def __init__(self, seed: int) -> None:
        # Input seeds must be non-negative; any workload seed maps to one.
        self.next = (seed % 2**32) * 1_000_000

    def take(self) -> int:
        self.next += 1
        return self.next


def _check_sweep(ctx: Context, final: dict) -> int:
    """Checks every job of a finished sweep; returns its core-cycles."""
    cycles = 0
    for job in final.get("jobs", ()):
        metrics = job.get("metrics") or {}
        ok = ctx.tally.check(job.get("state") == "done"
                             and metrics.get("correct") is True,
                             f"job {job.get('label')}: {job.get('state')} "
                             f"{job.get('error')}")
        if ok:
            if metrics.get("engine") != "native":
                ctx.tally.invalid = (f"service job ran on the "
                                     f"{metrics.get('engine')} engine")
            cycles += metrics["cycles"] * PAPER_CORES
    return cycles


def _boot(ctx: Context, seeds: _Seeds, fabric: bool,
          extra_env: Optional[Dict[str, str]] = None
          ) -> "tuple[ServiceSession, float]":
    session = ServiceSession(ctx.procs, ctx.ws, fabric, SERVICE_LANES,
                             extra_env)
    try:
        return session, session.boot(service_jobs(seeds.take()))
    except BaseException:
        session.stop()
        raise


def _submit_cli(ctx: Context, session: ServiceSession, seed: int) -> float:
    wall, proc = cli(["submit", *harness.SERVICE_KERNELS, "--variants",
                      *harness.VARIANTS, "--seeds", str(seed), "--url",
                      session.url, "--watch", "--json"],
                     ctx.ws.env(session.cache))
    if ctx.tally.check(proc.returncode == 0,
                       f"repro submit exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-300:]}"):
        _check_sweep(ctx, json.loads(proc.stdout))
    return wall


def _think(session: ServiceSession) -> None:
    """Local dispatch has no idle poll, so its client submits at once."""
    if session.fabric:
        time.sleep(FABRIC_THINK_S)


def _service_phase(ctx: Context, m: Measured, session: ServiceSession,
                   seeds: _Seeds, seconds: float, cli_calls: int,
                   samples: List[tuple], traced: bool = False) -> None:
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done_cli = len(m.cli_walls)
        if done_cli < cli_calls and elapsed >= (done_cli + 1) * seconds / (
                cli_calls + 1):
            _think(session)
            m.cli_walls.append(_submit_cli(ctx, session, seeds.take()))
            continue
        if elapsed >= seconds:
            break
        _think(session)
        jobs = service_jobs(seeds.take())
        wall, final = session.sweep(jobs)
        cycles = _check_sweep(ctx, final)
        if traced:
            m.traced_walls.append(wall)
        else:
            m.sweep_walls.append(wall)
            m.busy_s += wall
            m.jobs += len(jobs)
            m.core_cycles += cycles
        for job in final["jobs"]:
            if job.get("started_at") and job.get("finished_at"):
                m.queue_wait.append(job["started_at"] - job["submitted_at"])
                m.queue_exec.append(job["finished_at"] - job["started_at"])
        if len(samples) < HASH_SAMPLES and len(m.sweep_walls) % 7 == 1:
            for spec, job in zip(jobs, final["jobs"]):
                samples.append((spec, session.client.job(job["hash"])))


def _check_hashes(ctx: Context, samples: List[tuple]) -> None:
    """The daemon's results must hash like an in-process execute_job."""
    from repro.runner import KernelRunResult
    from repro.sweep.engine import execute_job
    from repro.sweep.job import SweepJob

    for spec, status in samples:
        local = execute_job(SweepJob.make(spec["kernel"], spec["variant"],
                                          seed=spec["seed"]))
        remote = KernelRunResult.from_json_dict(status["result"])
        ctx.tally.check(remote.metrics_hash() == local.metrics_hash(),
                        f"{status.get('label')}: metrics_hash differs from "
                        f"an in-process execute_job")


def _paper_sweep(ctx: Context, session: ServiceSession) -> None:
    """Has the daemon run the paper jobs, so its result store holds what
    the fidelity metrics are computed from."""
    from repro.service.spec import job_to_wire
    from repro.sweep.artifacts import paper_jobs

    _check_sweep(ctx, session.sweep([job_to_wire(job)
                                     for job in paper_jobs()])[1])


def _service(ctx: Context, fabric: bool) -> Measured:
    m = Measured()
    seeds = _Seeds(ctx.seed)
    samples: List[tuple] = []
    session = None
    try:
        for _ in range(SETUP_REPS if not ctx.trace else 1):
            if session is not None:
                session.stop()
            session, seconds = _boot(ctx, seeds, fabric)
            m.setup.append(seconds)
        phase = ctx.seconds / 2 if ctx.trace else ctx.seconds
        _service_phase(ctx, m, session, seeds, phase, SERVICE_CLI_CALLS,
                       samples)
        if ctx.trace:
            session.stop()
            trace_dir = ctx.ws.fresh("trace")
            session, _ = _boot(ctx, seeds, fabric, _trace_env(ctx, trace_dir))
            recorder = tracer.active_recorder()
            window = (tracer.now_us(), None)
            recorder.enabled = True
            _service_phase(ctx, m, session, seeds, phase, 0, samples,
                           traced=True)
            recorder.enabled = False
            window = (window[0], tracer.now_us())
            if fabric:
                m.fabric_stats = session.client.stats().get("fabric", {})
        _paper_sweep(ctx, session)
        session.stop()
    finally:
        if session is not None:
            session.stop()
    m.native = probe(ctx, session.cache)
    m.peak_rss_mb = peak_rss_mb()
    if ctx.trace:
        spans = load_spans(trace_dir) + recorder.take()
        m.span_groups = [[span for span in spans
                          if window[0] <= span["ts"] < window[1]]]
    _check_hashes(ctx, samples)
    m.fidelity = fidelity(ctx, session.cache)
    return m


def planned_operations(ctx: Context) -> int:
    """Operations a run plans regardless of its length: the set-up's, the
    minimum of measured CLI calls and the service checks."""
    if ctx.workload.startswith("service"):
        return SETUP_REPS * len(service_jobs(0)) + SERVICE_CLI_CALLS \
            + HASH_SAMPLES
    return SETUP_REPS + MIN_CALLS


def service_local(ctx: Context) -> Measured:
    return _service(ctx, fabric=False)


def service_fabric(ctx: Context) -> Measured:
    return _service(ctx, fabric=True)


WORKLOADS: Dict[str, Callable[[Context], Measured]] = {
    "paper-cold": paper_cold,
    "paper-warm": paper_warm,
    "service-local": service_local,
    "service-fabric": service_fabric,
    "snitch16-table1": snitch16_table1,
}

#: Machine whose Table-1 jobs feed the model.* metrics of each workload.
MODEL_MACHINE = {name: "snitch-8" for name in WORKLOADS}
MODEL_MACHINE["snitch16-table1"] = "snitch-16"
