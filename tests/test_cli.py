"""Command-line front end: generation, runs, sweeps, sparsify, oracle."""

import dataclasses
import json

import pytest

from volfied.cli import main
from volfied.files import load_ads_csv
from volfied.sim import SimConfig


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

    def test_failed_jobs_named_in_order_and_others_written(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--seed", "1", "--strategy", "volfied,topk", "--sweep", "k=0,1"])
        assert rc == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 2
        assert errors[0].startswith("error: run failed: strategy=volfied seed=1 k=0: ")
        assert errors[1].startswith("error: run failed: strategy=topk seed=1 k=0: ")
        names = sorted(p.name for p in out.glob("metrics_*.csv"))
        assert names == ["metrics_topk_seed1_k_1.csv", "metrics_volfied_seed1_k_1.csv"]
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[:3] for r in rows] == [["volfied", "1", "1"], ["topk", "1", "1"]]

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
