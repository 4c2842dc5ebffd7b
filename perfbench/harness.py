"""Process plumbing shared by the benchmark and its gate self-check.

The program is driven from outside only: ``repro`` CLI subprocesses, the
HTTP daemon and ``repro worker`` processes.  Every process gets its own
cache directory and temporary directory under the run's work directory,
which lives inside the checkout, and every process started here is reaped
on every exit path (:class:`Procs`).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
HOOK_DIR = BENCH_DIR / "hook"
WORK_ROOT = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "_out"

#: Kernels of the service traffic: one 2D and one 3D kernel, both variants.
SERVICE_KERNELS = ("jacobi_2d", "star3d2r")
VARIANTS = ("base", "saris")

CALL_TIMEOUT_S = 120.0
BOOT_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark cannot produce valid numbers."""


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def handle_signals() -> None:
    """SIGTERM and SIGINT raise KeyboardInterrupt, so every exit path runs
    the cleanup.  Installing a handler also means the program's processes
    start with SIGINT at its default even when this process was started
    with it ignored, so they can shut down cleanly when asked."""
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGINT, signal.default_int_handler)


def program_present() -> bool:
    return (SRC / "repro" / "cli.py").is_file()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * q // 100)))
    return float(ordered[int(rank) - 1])


def program_env(cache_dir: Path, tmp_dir: Path,
                extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for one program process: its own caches and temp dir,
    no inherited ``REPRO_*`` / ``PERFBENCH_*`` settings, and the start-up
    hook on the path only when ``extra`` asks for tracing or slowdown."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("REPRO_", "PERFBENCH_"))}
    path = [str(SRC)]
    if extra:
        path.insert(0, str(HOOK_DIR))
    env["PYTHONPATH"] = os.pathsep.join(path)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(tmp_dir)
    env.update(extra or {})
    return env


class Procs:
    """Owns every long-lived process of a run and reaps them all.

    Each process leads its own session, so it and anything it forks can be
    signalled as a group: SIGINT first (the daemon and workers shut down
    cleanly and flush their spans), SIGKILL if that does not end them.
    """

    def __init__(self, log_dir: Path) -> None:
        self.log_dir = log_dir
        self.live: List[subprocess.Popen] = []

    def start(self, name: str, argv: List[str], env: Dict[str, str]
              ) -> "subprocess.Popen":
        self.log_dir.mkdir(parents=True, exist_ok=True)
        with open(self.log_dir / f"{name}.out", "wb") as out, \
                open(self.log_dir / f"{name}.err", "wb") as err:
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL,
                                    start_new_session=True)
        proc.name = name
        self.live.append(proc)
        return proc

    def output(self, proc: "subprocess.Popen") -> str:
        return (self.log_dir / f"{proc.name}.out").read_text(errors="replace")

    def stop(self, proc: "subprocess.Popen", grace: float = 10.0) -> None:
        if proc.poll() is None:
            for sig, wait in ((signal.SIGINT, grace), (signal.SIGKILL, 30.0)):
                try:
                    os.killpg(proc.pid, sig)
                except ProcessLookupError:
                    break
                try:
                    proc.wait(timeout=wait)
                    break
                except subprocess.TimeoutExpired:
                    continue
        proc.wait()
        # Pool children the process forked may outlive their leader.
        _killpg(proc.pid)
        if proc in self.live:
            self.live.remove(proc)

    def stop_all(self) -> None:
        for proc in reversed(list(self.live)):
            self.stop(proc)


def cli(args: List[str], env: Dict[str, str], timeout: float = CALL_TIMEOUT_S
        ) -> "tuple[float, subprocess.CompletedProcess]":
    """One ``repro`` CLI call, timed from before interpreter start.  A call
    that outlives ``timeout`` is killed and returns code -9 with a note on
    stderr, so the caller counts it as a failed operation."""
    argv = [sys.executable, "-m", "repro.cli", *args]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, stdin=subprocess.DEVNULL,
                            start_new_session=True)
    note = b""
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _killpg(proc.pid)
        out, err = proc.communicate()
        note = f"\nperfbench: killed after {timeout:.0f} s".encode()
    except BaseException:
        _killpg(proc.pid)
        proc.communicate()
        raise
    wall = time.perf_counter() - start
    _killpg(proc.pid)  # reap anything the call forked and left behind
    return wall, subprocess.CompletedProcess(
        argv, proc.returncode, out.decode(errors="replace"),
        (err + note).decode(errors="replace"))


def _killpg(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def python_snippet(code: str, env: Dict[str, str],
                   timeout: float = CALL_TIMEOUT_S) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              stdin=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"probe killed after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


PROBE = """
import json, time
start = time.perf_counter()
from repro.snitch import native
ok = native.available()
elapsed = time.perf_counter() - start
info = native.build_info()
print(json.dumps({"available_s": elapsed, "available": ok,
                  "compiler": info.get("compiler"),
                  "compiler_version": info.get("compiler_version"),
                  "cflags": info.get("cflags"),
                  "abi_version": info.get("abi_version"),
                  "source_digest": info.get("source_digest"),
                  "disabled_reason": info.get("disabled_reason")}))
"""

IMPORT_PROBE = """
import json, time
start = time.perf_counter()
import repro.cli
print(json.dumps({"import_s": time.perf_counter() - start}))
"""


class Workspace:
    """The run's private directory tree inside the checkout."""

    def __init__(self, tag: str) -> None:
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        self.root = WORK_ROOT / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
        self.root.mkdir()
        self.tmp = self.root / "tmp"
        self.tmp.mkdir()
        self._count = 0

    def fresh(self, name: str) -> Path:
        self._count += 1
        path = self.root / f"{name}-{self._count}"
        path.mkdir()
        return path

    def env(self, cache_dir: Path, extra: Optional[Dict[str, str]] = None
            ) -> Dict[str, str]:
        return program_env(cache_dir, self.tmp, extra)

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class ServiceSession:
    """``repro serve`` (thread lanes or ``--fabric`` coordinator) plus, for
    the fabric, ``lanes`` ``repro worker`` processes.

    ``boot()`` returns the seconds from process start to the first served
    job: a warm-up sweep of the service traffic, which also builds the
    native engine and the codegen cache of the session.
    """

    def __init__(self, procs: Procs, ws: Workspace, fabric: bool, lanes: int,
                 extra_env: Optional[Dict[str, str]] = None) -> None:
        self.procs = procs
        self.fabric = fabric
        self.lanes = lanes
        self.cache = ws.fresh("service")
        self.env = ws.env(self.cache, extra_env)
        self.members: List[subprocess.Popen] = []
        self.url: Optional[str] = None
        self.client = None

    def boot(self, warmup_jobs: List[dict]) -> float:
        from repro.service.client import ServiceClient

        start = time.perf_counter()
        argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--cache-dir", str(self.cache)]
        argv += ["--fabric"] if self.fabric else ["--workers", str(self.lanes)]
        daemon = self.procs.start(f"serve-{self.cache.name}", argv, self.env)
        self.members.append(daemon)
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while self.url is None:
            match = re.search(r"listening on (http://\S+)",
                              self.procs.output(daemon))
            if match:
                self.url = match.group(1)
            elif daemon.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"daemon did not boot (exit "
                                 f"{daemon.poll()})")
            else:
                time.sleep(0.01)
        if self.fabric:
            for lane in range(self.lanes):
                self.members.append(self.procs.start(
                    f"worker{lane}-{self.cache.name}",
                    [sys.executable, "-m", "repro.cli", "worker", "--url",
                     self.url, "--id", f"w{lane}", "--cache-dir",
                     str(self.cache)], self.env))
        self.client = ServiceClient(self.url, timeout=CALL_TIMEOUT_S)
        final = self.sweep(warmup_jobs)[1]
        if any(job["state"] != "done" for job in final["jobs"]):
            raise BenchError("warm-up sweep did not finish")
        return time.perf_counter() - start

    def sweep(self, jobs: List[dict]) -> "tuple[float, dict]":
        """Submit one sweep and wait for it: (seconds, final status)."""
        start = time.perf_counter()
        receipt = self.client.submit({"jobs": jobs})
        final = self.client.wait(receipt["sweep"], timeout=CALL_TIMEOUT_S)
        return time.perf_counter() - start, final

    def stop(self) -> None:
        for proc in reversed(self.members):
            self.procs.stop(proc)
        self.members = []


def service_jobs(seed: int) -> List[dict]:
    """The 4 jobs of one service sweep; ``seed`` makes their inputs unique."""
    return [{"kernel": kernel, "variant": variant, "seed": seed}
            for kernel in SERVICE_KERNELS for variant in VARIANTS]
