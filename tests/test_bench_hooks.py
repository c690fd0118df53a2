"""The names the benchmark in perfbench/ wraps or calls are still there.

perfbench's tracer wraps names at their module paths, and its runner and
reference check call `cli._workers` and `MobilityTrace.positions_at`. A
name moved or deleted here would make every traced benchmark run exit
without a result, so the hooks are tried in the test suite.
"""

import importlib
import os
import pathlib

from volfied import cli
from volfied.sim import MobilityTrace

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()
        assert cli._workers(1) >= 1
        trace = MobilityTrace.from_records([(0, 7, 1.0, 2.0)])
        assert trace.positions_at(0) == {7: (1.0, 2.0)}
    finally:
        assert tracer.uninstall() == []
    assert [span[2] for span in tracer.spans] == ["cli.workers"]
    cpus = len(os.sched_getaffinity(0))
    assert cli._workers(1) == 1
    assert [cli._workers(n) for n in range(1, 6)] == [min(n, cpus) for n in range(1, 6)]
