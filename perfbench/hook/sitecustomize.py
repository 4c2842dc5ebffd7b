"""Start-up hook: Python imports this module at interpreter start when
``perfbench/hook`` is on ``PYTHONPATH``.  It installs the benchmark's
wrappers in the program's processes (see ``perfbench/tracer.py``) when the
environment asks for tracing or for the injected slowdown, and does nothing
otherwise."""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR") or os.environ.get("PERFBENCH_SLOWDOWN"):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import tracer

    tracer.install_from_env()
