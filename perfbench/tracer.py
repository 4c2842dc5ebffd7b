"""Span recorder and the wrappers the traced run installs around the program.

Nothing here changes the program's sources.  :func:`install` puts an import
hook on ``sys.meta_path`` that patches each target module right after it
has executed, so every later ``from module import name`` already binds the
wrapper.  Subprocesses of the program get the same hook through
``perfbench/hook/sitecustomize.py``, which Python imports at start-up when
that directory is on ``PYTHONPATH``.

Each wrapper records one span: name, start, end, parent span, process,
thread and workload id.  Spans are kept in memory and each process writes
its own file into the trace directory when it exits; :func:`load_spans`
merges them and :func:`write_chrome_trace` exports Chrome trace-event JSON
that opens in Perfetto.

A second, independent wrapper (:data:`SLOWDOWN_ENV`) stretches every
``SnitchCluster.run`` call by a fixed fraction of its own duration.  The
gate-power self-check uses it to prove the benchmark catches a deliberate
slowdown of the simulator.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
WORKLOAD_ENV = "PERFBENCH_WORKLOAD"
SLOWDOWN_ENV = "PERFBENCH_SLOWDOWN"


def now_us() -> float:
    """Microseconds on CLOCK_MONOTONIC, which every process shares."""
    return time.monotonic_ns() / 1000.0


class Recorder:
    """In-memory spans of one process, written out once at exit."""

    def __init__(self, out_dir: Path, workload: str) -> None:
        self.out_dir = Path(out_dir)
        self.workload = workload
        #: Off: wrappers call straight through and record nothing.
        self.enabled = True
        self._reset()

    def _reset(self) -> None:
        """Fresh state; also runs in a forked child, where another thread
        of the parent may have held the lock."""
        self.pid = os.getpid()
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             describe: Optional[Callable] = None):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = f"{self.pid}.{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        extra: Dict[str, object] = {}
        start = now_us()
        try:
            result = fn(*args, **kwargs)
            if describe is not None:
                extra = describe(args, result)
            return result
        except BaseException as exc:
            extra = {"error": type(exc).__name__}
            raise
        finally:
            end = now_us()
            stack.pop()
            record = {"name": name, "ts": start, "dur": end - start,
                      "pid": self.pid, "tid": threading.get_ident(),
                      "id": span_id, "parent": parent,
                      "workload": self.workload}
            record.update(extra)
            with self._lock:
                self.spans.append(record)

    def take(self) -> List[dict]:
        """Remove and return the spans recorded so far."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    def flush(self) -> None:
        """Write this process's spans (idempotent; safe in forked children)."""
        spans = self.take()
        if not spans or os.getpid() != self.pid:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}-{time.monotonic_ns()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(spans))
        tmp.replace(path)


# -- what each wrapper adds to its span ---------------------------------------

def _cluster_run(args, result) -> dict:
    return {"core_cycles": result.cycles * len(result.cores)}


def _native_execute(args, result) -> dict:
    # ``execute`` returns None when it hands the run to the Python engine.
    return {"native": result is not None}


def _run_kernel(args, result) -> dict:
    return {"engine": result.engine, "kernel": result.kernel,
            "variant": result.variant}


def _hit(args, result) -> dict:
    return {"hit": result is not None}


def _sweep(args, result) -> dict:
    return {"workers": result.workers, "jobs": len(result.results)}


_ARTIFACT_BUILDERS = ("build_table1", "build_fig3a", "build_fig3b",
                      "build_fig4", "build_fig5", "build_scaleout_direct",
                      "build_table2", "build_listing1", "build_ablations")

#: module -> [(attribute path, span name, describe)]
TARGETS: Dict[str, List[Tuple[str, str, Optional[Callable]]]] = {
    "repro.snitch.cluster": [("SnitchCluster.run", "snitch.run",
                              _cluster_run)],
    "repro.snitch.native": [("available", "native.available", None),
                            ("execute", "native.execute", _native_execute)],
    "repro.runner": [("generate_programs", "core.codegen", None),
                     ("run_kernel", "runner.run_kernel", _run_kernel)],
    "repro.core.progcache": [("load", "progcache.load", _hit)],
    "repro.sweep.engine": [("run_sweep", "sweep.run_sweep", _sweep),
                           ("execute_job", "sweep.execute_job", None)],
    "repro.sweep.store": [("ResultStore.load", "store.load", _hit),
                          ("ResultStore.save", "store.save", None)],
    "repro.sweep.artifacts": [(name, f"artifacts.{name[len('build_'):]}",
                               None) for name in _ARTIFACT_BUILDERS],
    "repro.scaleout.sim": [("direct_scaleout_table", "scaleout.direct", None),
                           ("run_timeline", "scaleout.timeline", None)],
    "repro.service.client": [("ServiceClient.submit", "service.submit", None),
                             ("ServiceClient.lease", "fabric.lease", None),
                             ("ServiceClient.complete", "fabric.complete",
                              None)],
}


def _spin(seconds: float) -> None:
    """Burn CPU (not sleep) so the delay costs what a slower simulator would."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def _traced(recorder: Recorder, name: str, fn: Callable,
            describe: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, describe)
    return wrapper


def _slowed(fraction: float, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        _spin((time.perf_counter() - start) * fraction)
        return result
    return wrapper


class _PatchFinder(importlib.abc.MetaPathFinder):
    """Runs ``patch(module)`` right after each target module executes."""

    def __init__(self, patches: Dict[str, Callable]) -> None:
        self.patches = patches

    def find_spec(self, name, path, target=None):
        patch = self.patches.get(name)
        if patch is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        original = loader.exec_module

        def exec_module(module):
            original(module)
            patch(module)

        loader.exec_module = exec_module
        return spec


def _set(module, attr_path: str, make: Callable[[Callable], Callable]) -> None:
    owner_name, _, attr = attr_path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    setattr(owner, attr, make(getattr(owner, attr)))


def _flush_in_pool_workers(recorder: Recorder) -> None:
    """Forked multiprocessing workers leave through ``os._exit`` and skip
    atexit; their exit path runs multiprocessing finalizers instead, but
    only ones registered after the fork."""
    from multiprocessing import util

    def after_fork(rec: Recorder) -> None:
        util.Finalize(None, rec.flush, exitpriority=10)
        util.register_after_fork(rec, after_fork)

    after_fork(recorder)


_INSTALLED: Dict[str, object] = {}


def install(trace_dir: Optional[str] = None, workload: str = "",
            slowdown: float = 0.0,
            modules: Optional[Tuple[str, ...]] = None) -> Optional[Recorder]:
    """Install tracing wrappers, the slowdown wrapper, or both.

    ``modules`` limits tracing to some of :data:`TARGETS` (the benchmark's
    own process traces only the client).  Returns the recorder, if any.
    """
    if _INSTALLED:
        raise RuntimeError("perfbench wrappers are already installed")
    patches: Dict[str, List[Callable]] = {}
    recorder = None
    if trace_dir:
        recorder = Recorder(Path(trace_dir), workload)
        for module_name, entries in TARGETS.items():
            if modules is not None and module_name not in modules:
                continue
            for attr_path, span_name, describe in entries:
                patches.setdefault(module_name, []).append(
                    functools.partial(
                        _set, attr_path=attr_path,
                        make=functools.partial(_traced, recorder, span_name,
                                               describe=describe)))
        atexit.register(recorder.flush)
        os.register_at_fork(after_in_child=recorder._reset)
        _flush_in_pool_workers(recorder)
    if slowdown > 0:
        patches.setdefault("repro.snitch.cluster", []).append(
            functools.partial(_set, attr_path="SnitchCluster.run",
                              make=functools.partial(_slowed, slowdown)))

    def apply(module) -> None:
        for patch in patches.get(module.__name__, ()):
            patch(module)

    for name in patches:
        if name in sys.modules:
            apply(sys.modules[name])
    finder = _PatchFinder({name: apply for name in patches})
    sys.meta_path.insert(0, finder)
    _INSTALLED.update(recorder=recorder, finder=finder)
    return recorder


def active_recorder() -> Optional[Recorder]:
    return _INSTALLED.get("recorder")


def install_from_env() -> None:
    """Start-up hook entry: install whatever the environment asks for."""
    trace_dir = os.environ.get(TRACE_DIR_ENV, "").strip()
    slowdown = float(os.environ.get(SLOWDOWN_ENV, "0") or 0)
    if trace_dir or slowdown > 0:
        install(trace_dir or None, os.environ.get(WORKLOAD_ENV, ""),
                slowdown)


def load_spans(trace_dir: Path) -> List[dict]:
    """Every span written under ``trace_dir`` (recursively), by start time."""
    spans: List[dict] = []
    for path in sorted(Path(trace_dir).rglob("spans-*.json")):
        spans.extend(json.loads(path.read_text()))
    spans.sort(key=lambda span: span["ts"])
    return spans


def write_chrome_trace(spans: List[dict], path: Path) -> None:
    """Chrome trace-event JSON (``ph: X`` complete events, microseconds)."""
    events = []
    for span in spans:
        args = {key: value for key, value in span.items()
                if key not in ("name", "ts", "dur", "pid", "tid")}
        events.append({"name": span["name"], "cat": span["name"].split(".")[0],
                       "ph": "X", "ts": span["ts"], "dur": span["dur"],
                       "pid": span["pid"], "tid": span["tid"], "args": args})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
