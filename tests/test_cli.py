"""Command-line front end: generation, runs, sweeps, sparsify, oracle."""

import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import signal
import time

import pytest

import volfied.cli
from volfied.cli import main
from volfied.files import (
    SUMMARY_HEADER,
    load_ads_csv,
    render_metrics_csv,
    render_summary_row,
    write_ads_csv,
    write_mapping_csv,
)
from volfied.model import DistanceMetric, distance
from volfied.scenario import build_scenario
from volfied.sim import SimConfig, run
from volfied.sparse import m_sparse_set


def write_config(tmp_path, **overrides):
    fields = dict(
        n_ads=40,
        n_vehicles=12,
        n_poas=4,
        steps=5,
        n_dims=2,
        area_w_m=800.0,
        area_h_m=800.0,
    )
    fields.update(overrides)
    cfg = dataclasses.replace(SimConfig(), **fields)
    doc = dataclasses.asdict(cfg)
    doc["metric"] = cfg.metric.value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def example1_instance(tmp_path, n_ads=2, k=2):
    ads = [
        {"ad_id": 1, "features": [0.1], "base_value": 10.0, "target_poa": None},
        {"ad_id": 2, "features": [0.05], "base_value": 1.0, "target_poa": None},
    ][:n_ads]
    ads += [
        {"ad_id": i, "features": [0.5], "base_value": 1.0, "target_poa": None}
        for i in range(len(ads) + 1, n_ads + 1)
    ]
    doc = {
        "params": {"k": k, "m": 1, "d_max": 0.15, "metric": "euclidean"},
        "ads": ads,
        "vehicles": [{"vehicle_id": 0, "interests": [0.0]}],
        "coverage": {"0": 0},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return path


class TestGen:
    def test_gen_ads_row_count(self, tmp_path):
        cfg = write_config(tmp_path, n_ads=120)
        out = tmp_path / "out"
        assert main(["gen-ads", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
        lines = (out / "ads.csv").read_text().splitlines()
        assert len(lines) == 121

    def test_gen_ads_default_config_is_10000(self, tmp_path):
        out = tmp_path / "out"
        assert main(["gen-ads", "--out", str(out), "--seed", "0"]) == 0
        assert len((out / "ads.csv").read_text().splitlines()) == 10001

    def test_seed_repeat_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            for cmd in ("gen-ads", "gen-poas", "gen-trace", "gen-profiles"):
                assert main([cmd, "--config", str(cfg), "--out", str(out), "--seed", "9"]) == 0
        for name in ("ads.csv", "poas.csv", "trace.csv", "profiles.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("cmd", ["gen-ads", "gen-poas", "gen-trace", "gen-profiles"])
    def test_negative_seed_makes_no_directory(self, tmp_path, capsys, cmd):
        out = tmp_path / "out"
        assert main([cmd, "--config", str(write_config(tmp_path)), "--out", str(out), "--seed=-1"]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_invalid_dimension_writes_nothing(self, tmp_path, capsys):
        doc = json.loads(write_config(tmp_path).read_text())
        doc["n_dims"] = 0
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["gen-ads", "--config", str(cfg), "--out", str(out), "--seed", "1"]) != 0
        assert not out.exists() or not list(out.iterdir())
        assert "n_dims" in capsys.readouterr().err


class TestRun:
    def test_three_strategies_one_seed(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main([
            "run", "--config", str(cfg), "--out", str(out),
            "--seed", "2", "--strategy", "volfied,topk,random",
        ])
        assert rc == 0
        metrics = sorted(p.name for p in out.glob("metrics_*.csv"))
        assert metrics == [
            "metrics_random_seed2.csv",
            "metrics_topk_seed2.csv",
            "metrics_volfied_seed2.csv",
        ]
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == (
            "strategy,seed,param_value,final_revenue,final_impressions,final_avg_distance"
        )
        assert len(summary) == 4

    def test_summary_equals_last_metrics_row(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out), "--seed", "2",
              "--strategy", "volfied"])
        last = (out / "metrics_volfied_seed2.csv").read_text().splitlines()[-1]
        summary_row = (out / "summary.csv").read_text().splitlines()[1]
        assert summary_row.split(",")[3:] == last.split(",")[2:5]

    def test_missing_config_field_named(self, tmp_path, capsys):
        doc = json.loads(write_config(tmp_path).read_text())
        del doc["d_max"]
        cfg = tmp_path / "partial.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seed", "1", "--strategy", "volfied"]) != 0
        assert "d_max" in capsys.readouterr().err

    def test_unknown_strategy_named_before_any_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out),
                     "--seed", "1", "--strategy", "volfied,bogus"]) == 1
        assert "'bogus'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("use_sparse", "no", "a boolean"),
            ("use_sparse", 0, "a boolean"),
            ("k", 5.0, "an integer"),
            ("k", "5", "an integer"),
            ("k", True, "an integer"),
            ("steps", 5.5, "an integer"),
            ("n_dims", 2.0, "an integer"),
            ("d_max", True, "a number"),
            ("d_max", "0.15", "a number"),
            ("strategy", None, "a string"),
            ("metric", 0, "a string"),
        ],
    )
    def test_json_type_checked_before_output(self, tmp_path, capsys, field, value, expected):
        cfg = write_config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), field: value}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        message = f"config field {field} must be {expected}, got {value!r}"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_float_field_takes_an_integer(self, tmp_path):
        cfg = write_config(tmp_path, area_w_m=800)
        assert volfied.cli.load_config(str(cfg)).area_w_m == 800

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("speed_mps", -14.0, "speed_mps must be finite and >= 0, got -14.0"),
            ("speed_mps", math.nan, "speed_mps must be finite and >= 0, got nan"),
            ("area_w_m", -5000.0, "area_w_m must be finite and > 0, got -5000.0"),
            ("area_h_m", math.inf, "area_h_m must be finite and > 0, got inf"),
            ("poa_range_m", 0.0, "poa_range_m must be finite and > 0, got 0.0"),
            ("step_duration_s", -60.0, "step_duration_s must be finite and > 0, got -60.0"),
        ],
    )
    def test_geometry_checked_before_output(self, tmp_path, capsys, field, value, message):
        # JSON configs may spell NaN and Infinity
        cfg = write_config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), field: value}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_multiple_seeds(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out),
                   "--seed", "1,2", "--strategy", "volfied"])
        assert rc == 0
        assert (out / "metrics_volfied_seed1.csv").exists()
        assert (out / "metrics_volfied_seed2.csv").exists()


class TestSweep:
    def test_sweep_k(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--seed", "1", "--strategy", "volfied,topk", "--sweep", "k=1,2"])
        assert rc == 0
        names = sorted(p.name for p in out.glob("metrics_*.csv"))
        assert names == [
            "metrics_topk_seed1_k_1.csv",
            "metrics_topk_seed1_k_2.csv",
            "metrics_volfied_seed1_k_1.csv",
            "metrics_volfied_seed1_k_2.csv",
        ]
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(r.split(",")[2] in {"1", "2"} for r in rows)

    def test_failed_jobs_named_in_order_and_others_written(self, tmp_path, capsys, monkeypatch):
        # every epsilon = 0.02 job fails in its simulation pass, after the
        # output directory exists
        def run_cache_sizes(config, *inputs):
            if config.epsilon == 0.02:
                raise ValueError("injected failure")
            return real_run(config, *inputs)

        real_run = volfied.cli.run_cache_sizes
        monkeypatch.setattr(volfied.cli, "run_cache_sizes", run_cache_sizes)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "1",
                   "--strategy", "volfied,topk", "--sweep", "epsilon=0.02,0.05"])
        assert rc == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2
        assert errors[0].startswith("error: run failed: strategy=volfied seed=1 epsilon=0.02: ")
        assert errors[1].startswith("error: run failed: strategy=topk seed=1 epsilon=0.02: ")
        names = sorted(p.name for p in out.glob("metrics_*.csv"))
        assert names == [
            "metrics_topk_seed1_epsilon_0.05.csv", "metrics_volfied_seed1_epsilon_0.05.csv"
        ]
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:3] for r in rows] == [
            ["volfied", "1", "0.05"], ["topk", "1", "0.05"]
        ]

    def test_failed_jobs_named_in_order_in_a_pool(self, tmp_path, capsys, monkeypatch):
        # the workers are forked, so they run the patched pass too
        monkeypatch.setattr(volfied.cli, "_workers", lambda n_jobs: 2)
        self.test_failed_jobs_named_in_order_and_others_written(tmp_path, capsys, monkeypatch)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "config, sweep, message",
        [
            ({"k": 0}, [], "k and m must be >= 1, got k=0 m=1"),
            ({"m": 0}, [], "k and m must be >= 1, got k=5 m=0"),
            ({"d_max": 0.0}, [], "d_max must be > 0, got 0.0"),
            ({}, ["--sweep", "k=0,5"], "k and m must be >= 1, got k=0 m=1"),
            ({"epsilon": 0.0}, [], "epsilon must be > 0, got 0.0"),
            ({"epsilon": math.nan}, [], "epsilon must be > 0, got nan"),
            ({"epsilon": math.inf}, [], "epsilon must be finite, got inf"),
            ({}, ["--sweep", "epsilon=0.05,0"], "epsilon must be > 0, got 0.0"),
            ({}, ["--sweep", "epsilon=inf"], "epsilon must be finite, got inf"),
        ],
    )
    def test_bad_selection_params_rejected_before_output(
        self, tmp_path, capsys, config, sweep, message
    ):
        cfg = write_config(tmp_path)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), **config}))
        out = tmp_path / "out"
        command = "sweep" if sweep else "run"
        assert main([command, "--config", str(cfg), "--out", str(out),
                     "--seed", "0,1", *sweep]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_sweep_requires_param(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seed", "1", "--strategy", "volfied"]) != 0

    def test_unknown_sweep_param(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--seed", "1", "--strategy", "volfied",
                     "--sweep", "speed=1,2"]) != 0
        assert "speed" in capsys.readouterr().err

    def test_negative_cache_size_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--seed", "1", "--strategy", "volfied", "--sweep", "C=-1"]) == 1
        assert "cache_size" in capsys.readouterr().err
        assert not out.exists()


class TestPool:
    """`run` and `sweep` jobs in forked worker processes."""

    JOBS = [("volfied", "0"), ("volfied", "4"), ("topk", "0"), ("topk", "4")]

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail, not hang, when a sweep in a pool does not finish: the
        workers are killed, so the pool can shut down."""
        def expire(signum, frame):
            for child in multiprocessing.active_children():
                child.kill()
            raise TimeoutError("sweep still running after 120 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def sweep(self, tmp_path, out):
        return main(["sweep", "--config", str(write_config(tmp_path)), "--out", str(out),
                     "--seed", "1", "--strategy", "volfied,topk", "--sweep", "C=0,4"])

    def outcome(self, out, err):
        """(jobs named on stderr, jobs in summary.csv), each in job order;
        every job in the summary has its metrics CSV."""
        prefix = "error: run failed: "
        assert all(line.startswith(prefix) for line in err.splitlines())
        named = []
        for line in err.splitlines():
            strategy, _, value = line[len(prefix):].split(":")[0].split(" ")
            named.append((strategy.removeprefix("strategy="), value.removeprefix("C=")))
        rows = [tuple(r.split(",")[0:3:2]) for r in
                (out / "summary.csv").read_text().splitlines()[1:]]
        for strategy, value in rows:
            assert (out / f"metrics_{strategy}_seed1_C_{value}.csv").exists()
        assert named == sorted(named, key=self.JOBS.index)
        assert rows == sorted(rows, key=self.JOBS.index)
        return named, rows

    def test_same_bytes_as_in_process(self, tmp_path, monkeypatch):
        outputs = {}
        for workers in (1, 2):
            monkeypatch.setattr(volfied.cli, "_workers", lambda n_jobs: workers)
            out = tmp_path / f"out{workers}"
            assert self.sweep(tmp_path, out) == 0
            outputs[workers] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert len(outputs[1]) == 5
        assert outputs[2] == outputs[1]
        assert multiprocessing.active_children() == []

    def test_unpicklable_failure(self, tmp_path, capsys, monkeypatch):
        class Unpicklable(Exception):
            pass  # defined in a function, so pickle cannot find it by name

        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(Unpicklable("x"))

        # the C = 4 jobs fail writing their CSVs, after their group's pass
        def write_metrics_csv(path, *rest):
            if path.endswith("_C_4.csv"):
                raise Unpicklable("cannot be sent back")
            return real_write(path, *rest)

        real_write = volfied.cli.write_metrics_csv
        monkeypatch.setattr(volfied.cli, "write_metrics_csv", write_metrics_csv)
        monkeypatch.setattr(volfied.cli, "_workers", lambda n_groups: 2)
        out = tmp_path / "out"
        assert self.sweep(tmp_path, out) == 1
        err = capsys.readouterr().err
        assert err.count(": cannot be sent back\n") == 2
        assert self.outcome(out, err) == (
            [("volfied", "4"), ("topk", "4")], [("volfied", "0"), ("topk", "0")]
        )
        assert multiprocessing.active_children() == []

    def test_failed_pass_names_its_group(self, tmp_path, capsys, monkeypatch):
        def run_cache_sizes(config, cache_sizes, *inputs):
            if config.strategy == "volfied":
                assert cache_sizes == [0, 4]
                raise ValueError("injected failure")
            return real_run(config, cache_sizes, *inputs)

        real_run = volfied.cli.run_cache_sizes
        monkeypatch.setattr(volfied.cli, "run_cache_sizes", run_cache_sizes)
        monkeypatch.setattr(volfied.cli, "_workers", lambda n_groups: 2)
        out = tmp_path / "out"
        assert self.sweep(tmp_path, out) == 1
        err = capsys.readouterr().err
        assert err.count(": injected failure\n") == 2
        assert self.outcome(out, err) == (
            [("volfied", "0"), ("volfied", "4")], [("topk", "0"), ("topk", "4")]
        )
        assert not list(out.glob("metrics_volfied_*"))
        assert multiprocessing.active_children() == []

    def test_worker_death(self, tmp_path, capsys, monkeypatch):
        # The topk group's worker dies in its pass once the volfied group
        # has written its CSVs and had time to send its rows back; both
        # topk jobs are lost with it.
        out = tmp_path / "out"
        done = [out / f"metrics_volfied_seed1_C_{value}.csv" for value in ("0", "4")]

        def run_cache_sizes(config, *inputs):
            if config.strategy == "topk":
                deadline = time.monotonic() + 60.0
                while not all(p.exists() for p in done) and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.3)
                os._exit(3)
            return real_run(config, *inputs)

        real_run = volfied.cli.run_cache_sizes
        monkeypatch.setattr(volfied.cli, "run_cache_sizes", run_cache_sizes)
        monkeypatch.setattr(volfied.cli, "_workers", lambda n_groups: 2)
        assert self.sweep(tmp_path, out) == 1
        err = capsys.readouterr().err
        assert "terminated abruptly" in err
        named, rows = self.outcome(out, err)
        assert named[0] == ("topk", "0") and set(named) <= {("topk", "0"), ("topk", "4")}
        assert rows == [job for job in self.JOBS if job not in named]
        assert multiprocessing.active_children() == []


class TestGroups:
    """Jobs that differ only in the cache size share one world and one pass."""

    def sweep(self, tmp_path, out, sweep):
        return main(["sweep", "--config", str(write_config(tmp_path)), "--out", str(out),
                     "--seed", "1", "--strategy", "volfied,topk", "--sweep", sweep])

    def test_pool_gets_groups(self, tmp_path, monkeypatch):
        asked = []

        def workers(n_groups):
            asked.append(n_groups)
            return 1

        monkeypatch.setattr(volfied.cli, "_workers", workers)
        assert self.sweep(tmp_path, tmp_path / "C", "C=0,1,4") == 0
        assert self.sweep(tmp_path, tmp_path / "k", "k=1,2,3") == 0
        assert asked == [2, 6]

    def test_cache_sweep_same_bytes_as_one_run_per_job(self, tmp_path):
        out = tmp_path / "out"
        assert self.sweep(tmp_path, out, "C=0,1,4") == 0
        config = volfied.cli.load_config(str(write_config(tmp_path)))
        expected = {}
        rows = [SUMMARY_HEADER]
        for strategy in ("volfied", "topk"):
            for value in ("0", "1", "4"):
                job = dataclasses.replace(
                    config, strategy=strategy, seed=1, cache_size=int(value)
                )
                ads, profiles, poas, trace = build_scenario(job, job.seed)
                metrics, _ = run(job, trace, ads, profiles, poas)
                name = f"metrics_{strategy}_seed1_C_{value}.csv"
                expected[name] = render_metrics_csv(strategy, metrics).encode()
                rows.append(render_summary_row(strategy, 1, value, metrics[-1]))
        expected["summary.csv"] = ("\n".join(rows) + "\n").encode()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == expected
        # the cache changes what topk shows here, so the sizes are told apart
        assert expected["metrics_topk_seed1_C_0.csv"] != expected["metrics_topk_seed1_C_4.csv"]


class TestJobLists:
    """Empty or repeated seeds, strategies and sweep values are named
    before any output is written."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (["run", "--seed", ""], "--seed has no values"),
            (["run", "--seed", ",", "--strategy", "volfied"], "--seed has no values"),
            (["run", "--strategy", ","], "--strategy has no values"),
            (["run", "--seed", "1,2,1"], "--seed repeats '1'"),
            (["run", "--seed", "3,03"], "--seed repeats '3' as '03'"),
            (["run", "--strategy", "topk,volfied,topk"], "--strategy repeats 'topk'"),
            (["sweep", "--sweep", "C=0,0"], "sweep C repeats '0'"),
            (["sweep", "--sweep", "d_max=0.1,0.10"], "sweep d_max repeats '0.1' as '0.10'"),
            (["sweep", "--sweep", "k="], "sweep k has no values"),
            (["run", "--seed=-1"], "seed must be >= 0, got -1"),
            (["sweep", "--seed", "2,-3", "--sweep", "C=0"], "seed must be >= 0, got -3"),
        ],
    )
    def test_rejected_before_output(self, tmp_path, capsys, args, message):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main([*args, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_empty_tokens_between_values_skipped(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "1,,2,"]) == 0
        assert len((out / "summary.csv").read_text().splitlines()) == 3


class TestSparsify:
    def test_line_catalog(self, tmp_path):
        ads_csv = tmp_path / "ads.csv"
        ads_csv.write_text(
            "ad_id,f1,base_value,scope,target_poa\n"
            "1,0.5,0.9,G,\n2,0.52,0.8,G,\n3,0.49,0.7,G,\n4,0.6,0.6,G,\n5,0.7,0.5,G,\n"
        )
        doc = json.loads(write_config(tmp_path).read_text())
        doc.update(epsilon=0.02, m=1, n_dims=1)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = main(["sparsify", str(ads_csv), "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        kept = load_ads_csv(out / "ads_sparse.csv")
        assert [a.ad_id for a in kept] == [1, 4, 5]
        mapping = (out / "mapping.csv").read_text().splitlines()
        assert mapping[0] == "removed_ad_id,representative_ad_id,distance"
        assert mapping[1] == "2,1,0.020000"
        assert mapping[2] == "3,1,0.010000"

    def test_header_only_catalog_keeps_its_features(self, tmp_path):
        ads_csv = tmp_path / "ads.csv"
        ads_csv.write_text("ad_id,f1,f2,base_value,scope,target_poa\n")
        out = tmp_path / "out"
        assert main(["sparsify", str(ads_csv), "--out", str(out)]) == 0
        assert (out / "ads_sparse.csv").read_text() == ads_csv.read_text()

    def test_repeated_ad_id_rejected(self, tmp_path, capsys):
        ads_csv = tmp_path / "ads.csv"
        ads_csv.write_text(
            "ad_id,f1,base_value,scope,target_poa\n1,0.5,0.9,G,\n1,0.9,0.8,G,\n"
        )
        out = tmp_path / "out"
        assert main(["sparsify", str(ads_csv), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {ads_csv}: line 3: ad_id 1 repeats line 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("metric", ["euclidean", "angular"])
    def test_mapping_distances_are_per_pair(self, tmp_path, monkeypatch, metric):
        rows = []

        def recording(path, mapping_rows):
            rows.extend(mapping_rows)
            return write_mapping_csv(path, mapping_rows)

        monkeypatch.setattr(volfied.cli, "write_mapping_csv", recording)
        kind = DistanceMetric(metric)
        cfg = write_config(tmp_path, n_ads=300, n_dims=3, epsilon=0.05, m=2, metric=kind)
        assert main(["gen-ads", "--config", str(cfg), "--out", str(tmp_path), "--seed", "4"]) == 0
        ads_csv = tmp_path / "ads.csv"
        out = tmp_path / "out"
        assert main(["sparsify", str(ads_csv), "--config", str(cfg), "--out", str(out)]) == 0
        assert len(rows) > 20
        by_id = {a.ad_id: a for a in load_ads_csv(ads_csv)}
        want = [
            (removed, rep, distance(kind, by_id[removed].features, by_id[rep].features))
            for removed, rep, _ in rows
        ]
        assert [(r, k, d.hex()) for r, k, d in rows] == [(r, k, d.hex()) for r, k, d in want]

    # ad 2 lies on ad 1 and is removed; blank line, no trailing newline
    SPELT = (
        "ad_id,f1,base_value,scope,target_poa\n"
        "1,0.50,0.9,G,\n2,5e-1,0.8,G,\n\n1_0,+0.25,1_0,L,0\n4,0.9,0.60,G,"
    )

    def sparsify_spelt(self, tmp_path):
        ads_csv = tmp_path / "ads.csv"
        ads_csv.write_text(self.SPELT)
        cfg = write_config(tmp_path, epsilon=0.02, m=1, n_dims=1)
        out = tmp_path / "out"
        rc = main(["sparsify", str(ads_csv), "--config", str(cfg), "--out", str(out)])
        return ads_csv, out, rc

    def test_kept_rows_are_input_lines_verbatim(self, tmp_path):
        ads_csv, out, rc = self.sparsify_spelt(tmp_path)
        assert rc == 0
        header, *lines = self.SPELT.split("\n")
        by_id = {int(line.split(",")[0]): line for line in filter(None, lines)}
        sparse = m_sparse_set(load_ads_csv(ads_csv), 0.02, 1, DistanceMetric.EUCLIDEAN)
        assert [a.ad_id for a in sparse.ads] == [10, 1, 4]
        want = [header, *(by_id[i] for i in sparse.ads.ids.tolist())]
        assert (out / "ads_sparse.csv").read_text() == "".join(f"{line}\n" for line in want)
        kept = load_ads_csv(out / "ads_sparse.csv")
        assert kept.ids.tolist() == sparse.ads.ids.tolist()
        assert kept.features.tobytes() == sparse.ads.features.tobytes()
        assert (out / "mapping.csv").read_text().splitlines()[1:] == ["2,1,0.000000"]

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("metric", ["euclidean", "angular"])
    def test_canonical_input_gives_the_rendered_bytes(self, tmp_path, metric, m):
        kind = DistanceMetric(metric)
        cfg = write_config(tmp_path, n_ads=300, n_dims=3, epsilon=0.05, m=m, metric=kind)
        assert main(["gen-ads", "--config", str(cfg), "--out", str(tmp_path), "--seed", "4"]) == 0
        ads_csv = tmp_path / "ads.csv"
        out = tmp_path / "out"
        assert main(["sparsify", str(ads_csv), "--config", str(cfg), "--out", str(out)]) == 0
        sparse = m_sparse_set(load_ads_csv(ads_csv), 0.05, m, kind)
        assert 20 < len(sparse.mapping) and len(set(sparse.layers.values())) == m
        write_ads_csv(tmp_path / "rendered.csv", sparse.ads)
        assert (out / "ads_sparse.csv").read_bytes() == (tmp_path / "rendered.csv").read_bytes()

    @pytest.mark.parametrize("same_stat", [False, True], ids=["grown", "rows-swapped"])
    def test_input_changed_after_loading_fails(self, tmp_path, monkeypatch, capsys, same_stat):
        def rewriting(ads, *args):
            sparse = m_sparse_set(ads, *args)
            path = tmp_path / "ads.csv"
            st = path.stat()
            header, first, second, *rest = self.SPELT.split("\n")
            if same_stat:  # the same bytes in another order, the same mtime
                path.write_text("\n".join([header, second, first, *rest]))
                os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
            else:
                path.write_text(self.SPELT + "\n5,0.1,0.5,G,\n")
            return sparse

        monkeypatch.setattr(volfied.cli, "m_sparse_set", rewriting)
        ads_csv, out, rc = self.sparsify_spelt(tmp_path)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {ads_csv} changed while sparsify read it\n"
        assert list(out.iterdir()) == []


class TestOracleCmd:
    def test_example1_revenue_10(self, tmp_path, capsys):
        inst = example1_instance(tmp_path)
        assert main(["oracle", str(inst)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["revenue"] == 10.0
        assert doc["broadcasts"] == {"0": [1]}

    def test_empty_ads_zero(self, tmp_path, capsys):
        inst = example1_instance(tmp_path, n_ads=0)
        assert main(["oracle", str(inst)]) == 0
        assert json.loads(capsys.readouterr().out)["revenue"] == 0.0

    def test_budget_error(self, tmp_path, capsys):
        inst = example1_instance(tmp_path, n_ads=30)
        assert main(["oracle", str(inst)]) != 0
        assert "budget" in capsys.readouterr().err

    def test_result_file_written(self, tmp_path, capsys):
        inst = example1_instance(tmp_path)
        out = tmp_path / "out"
        assert main(["oracle", str(inst), "--out", str(out)]) == 0
        doc = json.loads((out / "oracle_result.json").read_text())
        assert doc["revenue"] == 10.0
