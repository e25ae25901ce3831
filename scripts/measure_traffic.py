#!/usr/bin/env python
"""List the functions of src/repro that no real caller reaches.

A member that only tests read is a candidate for deletion: nothing the
project reports depends on it.  This script drives what the project
reports, with the stdlib ``sys.setprofile`` hook recording every Python
function entered, and prints each function under ``src/repro`` that was
never called:

* every registered experiment at ``tests/golden/gen_experiment_rows``'s
  ``MICRO`` scale with its ``NARROW`` sweep kwargs (what the experiment
  golden replays);
* every ``examples/*.py``, as ``__main__`` with no arguments;
* every ``benchmarks/layers`` workload in this process at ``--scale
  0.05 --seconds 0.2``, untraced and with ``--trace 1``, its results
  written to a temporary directory.

Code objects are matched by resolved path, first line and qualified
name, so a module reached through ``benchmarks/layers/../../src`` (the
path ``run.py`` puts on ``sys.path``) counts as the same file.  Only
named functions are listed: module and class bodies run at import, and
a comprehension or lambda is reached only through its enclosing
function.  A listed function is a lead, not a verdict: check its
readers (``git grep``) before deleting it.  It takes a few minutes and
is not run in CI.

Usage::

    python scripts/measure_traffic.py
"""

import contextlib
import glob
import io
import os
import runpy
import sys
import tempfile
import threading

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro")
LAYERS = os.path.join(REPO, "benchmarks", "layers")


def _site(code):
    """``(resolved path, first line, qualified name)`` of a code object."""
    return (os.path.realpath(code.co_filename), code.co_firstlineno,
            code.co_qualname)


def defined_functions():
    """Every named function compiled from a file under src/repro."""
    sites = set()
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path) as handle:
            stack = [compile(handle.read(), os.path.realpath(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if not code.co_name.startswith("<") and code.co_flags & 0x2:
                sites.add(_site(code))   # 0x2: CO_NEWLOCALS, not a class body
    return sites


def run_experiments():
    from repro.bench import experiment_ids, run_experiment
    from tests.golden.gen_experiment_rows import MICRO, NARROW

    os.environ.pop("REPRO_DATASETS", None)
    for experiment_id in experiment_ids():
        run_experiment(experiment_id, MICRO, **NARROW.get(experiment_id, {}))


def run_examples():
    argv = sys.argv
    for path in sorted(glob.glob(os.path.join(REPO, "examples", "*.py"))):
        sys.argv = [path]
        try:
            runpy.run_path(path, run_name="__main__")
        except SystemExit as stop:
            if stop.code not in (None, 0):
                raise
        finally:
            sys.argv = argv


def run_layers():
    sys.path.insert(0, LAYERS)
    run = runpy.run_path(os.path.join(LAYERS, "run.py"))
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as results:
        for name in WORKLOADS:
            for trace in ("0", "1"):
                run["main"](["--workload", name, "--scale", "0.05",
                             "--seconds", "0.2", "--trace", trace,
                             "--results", results])


def main():
    sys.path[:0] = [os.path.join(REPO, "src"), REPO]
    called = set()

    def profiler(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    threading.setprofile(profiler)
    sys.setprofile(profiler)
    try:
        for part in (run_experiments, run_examples, run_layers):
            with contextlib.redirect_stdout(io.StringIO()):
                part()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    reached = {_site(code) for code in called}
    unreached = sorted(defined_functions() - reached)
    for path, line, name in unreached:
        print(f"{os.path.relpath(path, REPO)}:{line} {name}")
    print(f"{len(unreached)} functions under src/repro never called")


if __name__ == "__main__":
    main()
