"""Trace ingestion, scenario generators, coverage, and the step pipeline."""

import dataclasses
import re

import numpy as np
import pytest

import volfied.sim
from conftest import estimator_for, random_instance, realized_revenue
from volfied.broker import RevenueEstimator, SelectionParams, select_volfied
from volfied.model import Ad, DistanceMetric, PoA, VehicleProfile
from volfied.oracle import OracleInstance
from volfied.scenario import gen_poas, gen_population, gen_synthetic
from volfied.sim import MobilityTrace, SimConfig, _CoverageIndex, load_trace, run, write_trace_csv
from volfied.vehicle import VehicleState, step_display

EUCL = DistanceMetric.EUCLIDEAN


class TestLoadTrace:
    def test_single_row(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("step,vehicle_id,x_m,y_m\n0,7,100.0,200.0\n")
        trace = load_trace(path)
        assert trace.n_steps == 1
        assert trace.positions_at(0) == {7: (100.0, 200.0)}

    def test_header_only(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("step,vehicle_id,x_m,y_m\n")
        trace = load_trace(path)
        assert trace.n_steps == 0

    def test_missing_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0,7,100.0,200.0\n")
        with pytest.raises(ValueError, match="header"):
            load_trace(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("step,vehicle_id,x_m,y_m\n0,1,0.0,0.0\n0,2,oops,0.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_trace(path)

    def test_out_of_order_steps_bucketed(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "step,vehicle_id,x_m,y_m\n2,1,30.0,0.0\n0,1,10.0,0.0\n1,1,20.0,0.0\n"
        )
        trace = load_trace(path)
        assert trace.n_steps == 3
        assert [trace.positions_at(s)[1][0] for s in range(3)] == [10.0, 20.0, 30.0]

    def test_duplicate_vehicle_in_step_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("step,vehicle_id,x_m,y_m\n0,1,0.0,0.0\n0,1,5.0,0.0\n")
        with pytest.raises(ValueError, match="line 3"):
            load_trace(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("step,vehicle_id,x_m,y_m\n0,1,nan,0.0\n")
        with pytest.raises(ValueError, match="line 2"):
            load_trace(path)

    def test_write_round_trip(self, tmp_path):
        trace = gen_synthetic((500.0, 500.0), 3, 4, 14.0, seed=5)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        back = load_trace(path, step_duration_s=trace.step_duration_s)
        assert back == trace


class TestGenSynthetic:
    def test_deterministic(self):
        t1 = gen_synthetic((1000.0, 800.0), 5, 10, 14.0, seed=3)
        t2 = gen_synthetic((1000.0, 800.0), 5, 10, 14.0, seed=3)
        assert t1 == t2

    def test_zero_vehicles(self):
        trace = gen_synthetic((1000.0, 800.0), 0, 10, 14.0, seed=3)
        assert sum(len(trace.positions_at(s)) for s in range(trace.n_steps)) == 0

    def test_displacement_bound(self):
        trace = gen_synthetic((5000.0, 5000.0), 20, 30, 14.0, seed=9, step_duration_s=60.0)
        limit = 14.0 * 60.0 + 1e-6
        for s in range(1, trace.n_steps):
            prev, cur = trace.positions_at(s - 1), trace.positions_at(s)
            for vid in cur:
                dx = cur[vid][0] - prev[vid][0]
                dy = cur[vid][1] - prev[vid][1]
                assert (dx * dx + dy * dy) ** 0.5 <= limit

    def test_within_area(self):
        trace = gen_synthetic((1000.0, 800.0), 10, 20, 14.0, seed=4)
        for s in range(trace.n_steps):
            for x, y in trace.positions_at(s).values():
                assert 0.0 <= x <= 1000.0 and 0.0 <= y <= 800.0


class TestGenPopulation:
    def test_no_locals_at_fraction_one(self):
        cfg = dataclasses.replace(SimConfig(), n_ads=100, global_fraction=1.0, n_vehicles=5)
        ads, _ = gen_population(cfg, seed=1)
        assert all(a.is_global for a in ads)

    def test_exact_local_count(self):
        cfg = dataclasses.replace(
            SimConfig(), n_ads=10000, global_fraction=0.9, n_vehicles=1, n_poas=10
        )
        ads, _ = gen_population(cfg, seed=1)
        locals_ = [a for a in ads if not a.is_global]
        assert len(locals_) == 1000
        assert all(0 <= a.target_poa < 10 for a in locals_)

    def test_values_positive(self):
        cfg = dataclasses.replace(SimConfig(), n_ads=5000, n_vehicles=1)
        ads, _ = gen_population(cfg, seed=2)
        assert all(0.0 < a.base_value <= 1.0 for a in ads)

    def test_profile_distribution(self):
        cfg = dataclasses.replace(SimConfig(), n_ads=10, n_vehicles=20000, n_dims=5)
        _, profiles = gen_population(cfg, seed=3)
        coords = np.concatenate([p.interests for p in profiles])
        assert coords.size >= 100_000
        assert abs(coords.mean() - 0.5) < 0.01
        assert coords.min() >= 0.0 and coords.max() <= 1.0

    def test_deterministic(self):
        cfg = dataclasses.replace(SimConfig(), n_ads=50, n_vehicles=10)
        a1, p1 = gen_population(cfg, seed=7)
        a2, p2 = gen_population(cfg, seed=7)
        assert [a.base_value for a in a1] == [a.base_value for a in a2]
        assert all(np.array_equal(x.interests, y.interests) for x, y in zip(p1, p2))


class TestGenPoas:
    def test_layout(self):
        cfg = dataclasses.replace(
            SimConfig(), n_poas=20, area_w_m=5000.0, area_h_m=5000.0
        )
        poas = gen_poas(cfg)
        assert [p.poa_id for p in poas] == list(range(20))
        assert all(0 <= p.x_m <= 5000 and 0 <= p.y_m <= 5000 for p in poas)
        assert gen_poas(cfg) == poas


def lookup_one(poas, x_m, y_m):
    """The PoA one position associates with, by the simulator's lookup."""
    return _CoverageIndex(poas).lookup(np.array([[x_m, y_m]]))[0]


class TestCoverage:
    POAS = [
        PoA(poa_id=0, x_m=0.0, y_m=0.0, range_m=150.0),
        PoA(poa_id=1, x_m=400.0, y_m=0.0, range_m=150.0),
    ]

    def test_inside_range(self):
        assert lookup_one(self.POAS, 149.9, 0.0) == 0

    def test_boundary_inclusive(self):
        assert lookup_one(self.POAS, 150.0, 0.0) == 0

    def test_out_of_range(self):
        assert lookup_one(self.POAS, 200.0, 100.0) is None

    def test_tie_lowest_poa_id(self):
        poas = [
            PoA(poa_id=0, x_m=0.0, y_m=0.0, range_m=300.0),
            PoA(poa_id=1, x_m=400.0, y_m=0.0, range_m=300.0),
        ]
        assert lookup_one(poas, 200.0, 0.0) == 0

    def test_nearest_wins(self):
        poas = [
            PoA(poa_id=0, x_m=0.0, y_m=0.0, range_m=300.0),
            PoA(poa_id=1, x_m=400.0, y_m=0.0, range_m=300.0),
        ]
        assert lookup_one(poas, 250.0, 0.0) == 1

    def test_batch_lookup_matches_single(self):
        points = [(149.9, 0.0), (150.0, 0.0), (200.0, 100.0), (400.0, 10.0)]
        batch = _CoverageIndex(self.POAS).lookup(np.array(points))
        assert batch == [lookup_one(self.POAS, x, y) for x, y in points] == [0, 0, None, 1]

    def test_no_positions(self):
        assert _CoverageIndex(self.POAS).lookup(np.zeros((0, 2))) == []


def tiny_scenario(strategy="volfied", steps=3, **cfg_over):
    """One stationary vehicle under one PoA with one relevant ad."""
    cfg = dataclasses.replace(
        SimConfig(),
        k=5,
        m=1,
        n_dims=1,
        steps=steps,
        strategy=strategy,
        n_ads=1,
        n_vehicles=1,
        n_poas=1,
        **cfg_over,
    )
    poas = [PoA(poa_id=0, x_m=0.0, y_m=0.0, range_m=150.0)]
    ads = [Ad(ad_id=1, features=np.array([0.05]), base_value=0.8)]
    profiles = [VehicleProfile(vehicle_id=0, interests=np.array([0.0]))]
    trace = MobilityTrace.from_records(
        [(s, 0, 10.0, 0.0) for s in range(steps)], step_duration_s=60.0
    )
    return cfg, trace, ads, profiles, poas


class TestRun:
    def test_zero_vehicles(self):
        cfg, _, ads, _, poas = tiny_scenario(steps=3)
        trace = MobilityTrace.from_records([], step_duration_s=60.0)
        metrics, summary = run(cfg, trace, ads, [], poas)
        assert len(metrics) == 3
        assert all(
            (m.revenue_cum, m.impressions_cum, m.avg_distance_cum, m.broadcasts_cum)
            == (0.0, 0, 0.0, 0)
            for m in metrics
        )
        assert summary["revenue"] == 0.0

    @pytest.mark.parametrize("strategy", ["volfied", "topk", "random"])
    def test_single_relevant_ad_any_strategy(self, strategy):
        cfg, trace, ads, profiles, poas = tiny_scenario(strategy=strategy)
        metrics, summary = run(cfg, trace, ads, profiles, poas)
        assert summary["revenue"] == pytest.approx(0.8)
        assert summary["impressions"] == 1
        assert metrics[0].revenue_cum == pytest.approx(0.8)
        assert metrics[0].avg_distance_cum == pytest.approx(0.05)
        # registry stops re-crediting, so no further broadcasts happen
        assert summary["broadcasts"] == 1

    def test_deterministic(self):
        cfg, trace, ads, profiles, poas = tiny_scenario(strategy="random")
        out1 = run(cfg, trace, ads, profiles, poas)
        out2 = run(cfg, trace, ads, profiles, poas)
        assert out1 == out2

    def test_missing_profile_named(self):
        cfg, trace, ads, _, poas = tiny_scenario()
        with pytest.raises(ValueError, match="0"):
            run(cfg, trace, ads, [], poas)

    def test_unknown_strategy(self):
        cfg, trace, ads, profiles, poas = tiny_scenario()
        message = "unknown strategy 'greedy'; pick from ('volfied', 'topk', 'random')"
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(cfg, strategy="greedy")
        # the strategy table rejects the name instead of running another strategy
        with pytest.raises(KeyError, match="greedy"):
            realized_revenue(random_instance(0), "greedy")

    def test_volfied_cache_size_invariant(self):
        cfg, trace, ads, profiles, poas = random_run_scenario(seed=11)
        base = run(cfg, trace, ads, profiles, poas)
        cached = run(
            dataclasses.replace(cfg, cache_size=5), trace, ads, profiles, poas
        )
        assert base == cached

    def test_avg_distance_bounded_and_cumulative_monotone(self):
        for strategy in ("volfied", "topk"):
            cfg, trace, ads, profiles, poas = random_run_scenario(seed=5, strategy=strategy)
            metrics, _ = run(cfg, trace, ads, profiles, poas)
            prev_rev, prev_imp = 0.0, 0
            for row in metrics:
                assert row.avg_distance_cum <= cfg.d_max + 1e-12
                assert row.revenue_cum >= prev_rev and row.impressions_cum >= prev_imp
                prev_rev, prev_imp = row.revenue_cum, row.impressions_cum

    def test_single_step_revenue_matches_estimates(self):
        # with perfect detection, one step realizes exactly the estimates
        cfg, trace, ads, profiles, poas = random_run_scenario(seed=8, steps=1)
        metrics, _ = run(cfg, trace, ads, profiles, poas)

        params = cfg.selection_params
        trace0 = trace.positions_at(0)
        expected = 0.0
        est = RevenueEstimator(params, {p.poa_id: list(ads) for p in poas})
        entered = {}
        for prof in sorted(profiles, key=lambda p: p.vehicle_id):
            pos = trace0.get(prof.vehicle_id)
            if pos is None:
                continue
            pid = lookup_one(poas, pos[0], pos[1])
            if pid is not None:
                est.on_vehicle_enter(pid, prof, detected=True)
                entered[prof.vehicle_id] = pid
        for p in poas:
            chosen = select_volfied(est, p.poa_id, params)
            expected += sum(est.revenue(p.poa_id, ad_id) for ad_id in chosen)
        assert metrics[0].revenue_cum == pytest.approx(expected, abs=1e-9)


class _NonEmpty(list):
    def __bool__(self):
        return True


class _AlwaysPooling(VehicleState):
    """A vehicle state whose cache never tests empty, so run() advances its
    display on every step, idle or not."""

    @property
    def cache(self):
        return _NonEmpty(self._cache)

    @cache.setter
    def cache(self, value):
        self._cache = list(value)


class TestIdleSkip:
    @pytest.mark.parametrize("strategy", ["volfied", "topk"])
    @pytest.mark.parametrize("cache_size", [0, 3])
    def test_display_runs_only_for_busy_vehicles(self, monkeypatch, strategy, cache_size):
        cfg, trace, ads, profiles, poas = random_run_scenario(seed=11, strategy=strategy)
        cfg = dataclasses.replace(cfg, cache_size=cache_size)
        calls = []

        def counting(state, received, *args):
            cached = [ad.ad_id for ad, _ in state.cache]
            calls.append((state.profile.vehicle_id, [ad.ad_id for ad in received], cached))
            return step_display(state, received, *args)

        monkeypatch.setattr(volfied.sim, "step_display", counting)
        skipping = run(cfg, trace, ads, profiles, poas)
        made = list(calls)
        calls.clear()
        monkeypatch.setattr(volfied.sim, "VehicleState", _AlwaysPooling)
        every_step = run(cfg, trace, ads, profiles, poas)

        assert skipping == every_step
        assert len(calls) == cfg.steps * len(profiles)
        busy = [call for call in calls if call[1] or call[2]]
        assert made == busy
        assert 0 < len(busy) < len(calls)
        if strategy == "topk" and cache_size:
            # topk sends conflicting ads, so some steps display from the cache alone
            assert any(not received and cached for _, received, cached in made)

    def test_negative_cache_size_rejected(self):
        with pytest.raises(ValueError, match="cache_size"):
            SimConfig(cache_size=-1)


def random_run_scenario(seed, strategy="volfied", steps=8):
    rng = np.random.default_rng(seed)
    cfg = dataclasses.replace(
        SimConfig(),
        n_dims=2,
        n_ads=60,
        n_vehicles=25,
        n_poas=4,
        steps=steps,
        strategy=strategy,
        area_w_m=1200.0,
        area_h_m=1200.0,
        seed=seed,
    )
    poas = gen_poas(cfg)
    ads, profiles = gen_population(cfg, seed=seed)
    trace = gen_synthetic((cfg.area_w_m, cfg.area_h_m), cfg.n_vehicles, steps, 14.0, seed)
    return cfg, trace, ads, profiles, poas
