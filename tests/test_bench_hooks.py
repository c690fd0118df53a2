"""The names the benchmark in perfbench/ wraps or calls are still there.

perfbench's tracer wraps names at their module paths, and its runner and
reference check call `cli._workers` and `MobilityTrace.positions_at`. A
name moved or deleted here would make every traced benchmark run exit
without a result, so the hooks are tried in the test suite.
"""

import importlib
import json
import math
import os
import pathlib

from volfied import cli, scenario, sim
from volfied.oracle import OracleInstance, instance_to_json
from volfied.scenario import build_scenario
from volfied.sim import MobilityTrace, SimConfig

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


def test_select_spans_count_the_run_evals(monkeypatch):
    """perfbench's `broker.select_distance_evals` sums the `evals` of the
    select spans, read from the `SelectionStats` the run passes."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    cfg = SimConfig(
        k=3, d_max=0.3, n_ads=200, n_dims=2, n_poas=3, n_vehicles=30, steps=20,
        area_w_m=600.0, area_h_m=600.0, poa_range_m=250.0, seed=1,
    )
    ads, profiles, poas, trace = build_scenario(cfg, cfg.seed)
    try:
        tracer.install()
        _, summary = sim.run(cfg, trace, ads, profiles, poas)
    finally:
        assert tracer.uninstall() == []
    evals = [span[5]["evals"] for span in tracer.spans if span[2] == "broker.select"]
    assert len(evals) == cfg.steps * cfg.n_poas
    assert summary["distance_evals"] > 0
    assert sum(evals) == summary["distance_evals"]


def test_traced_oracle_command_counts_every_subset(monkeypatch, tmp_path, capsys):
    """The catalog workload's `volfied oracle` call, traced: one
    `oracle.solve` span whose `subsets` count is every subset of up to k of
    the instance's ads (all Global), and the bytes of an untraced call."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    config = importlib.import_module("workloads").ORACLE_CONFIG
    profiles = scenario.gen_profiles(config, 1)
    instance = OracleInstance(
        ads=scenario.gen_ads(config, 1),
        vehicles=profiles,
        coverage={p.vehicle_id: 0 for p in profiles},
        params=config.selection_params,
    )
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(instance)) + "\n")
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    assert cli.main(["oracle", str(path), "--out", str(plain)]) == 0
    printed = capsys.readouterr().out
    try:
        tracer.install()
        assert cli.main(["oracle", str(path), "--out", str(traced)]) == 0
    finally:
        assert tracer.uninstall() == []
    assert capsys.readouterr().out == printed
    result = "oracle_result.json"
    assert (traced / result).read_bytes() == (plain / result).read_bytes()
    n, k = len(instance.ads), config.k
    solves = [span[5] for span in tracer.spans if span[2] == "oracle.solve"]
    assert solves == [{"subsets": sum(math.comb(n, r) for r in range(1, k + 1))}]
