"""Trace ingestion, scenario generators, coverage, and the step pipeline."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import volfied.sim
from conftest import estimator, estimator_for, random_instance, realized_revenue, reference_run
from volfied.broker import RevenueEstimator, SelectionParams, select_volfied
from volfied.files import load_trace, render_metrics_csv, write_trace_csv
from volfied.model import Ad, AdTable, DistanceMetric, PoA, VehicleProfile
from volfied.oracle import OracleInstance
from volfied.scenario import gen_ads, gen_poas, gen_profiles, gen_synthetic
from volfied.sim import (
    MobilityTrace,
    SimConfig,
    _candidates_by_poa,
    _CoverageIndex,
    run,
    run_cache_sizes,
)
from volfied.sparse import m_sparse_set
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

    def test_vehicle_id_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(f"step,vehicle_id,x_m,y_m\n0,{2**63 - 1},0.0,0.0\n1,{2**63},0.0,0.0\n")
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
        back = load_trace(path)
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
        ads = gen_ads(cfg, seed=1)
        assert all(a.is_global for a in ads)

    def test_exact_local_count(self):
        cfg = dataclasses.replace(
            SimConfig(), n_ads=10000, global_fraction=0.9, n_vehicles=1, n_poas=10
        )
        ads = gen_ads(cfg, seed=1)
        locals_ = [a for a in ads if not a.is_global]
        assert len(locals_) == 1000
        assert all(0 <= a.target_poa < 10 for a in locals_)

    def test_values_positive(self):
        cfg = dataclasses.replace(SimConfig(), n_ads=5000, n_vehicles=1)
        ads = gen_ads(cfg, seed=2)
        assert all(0.0 < a.base_value <= 1.0 for a in ads)

    def test_profile_distribution(self):
        cfg = dataclasses.replace(SimConfig(), n_ads=10, n_vehicles=20000, n_dims=5)
        profiles = gen_profiles(cfg, seed=3)
        coords = np.concatenate([p.interests for p in profiles])
        assert coords.size >= 100_000
        assert abs(coords.mean() - 0.5) < 0.01
        assert coords.min() >= 0.0 and coords.max() <= 1.0

    def test_deterministic(self):
        cfg = dataclasses.replace(SimConfig(), n_ads=50, n_vehicles=10)
        a1, p1 = gen_ads(cfg, seed=7), gen_profiles(cfg, seed=7)
        a2, p2 = gen_ads(cfg, seed=7), gen_profiles(cfg, seed=7)
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


def lookup_ids(poas, points):
    """The PoA id each position associates with (None: uncovered), by the
    simulator's lookup."""
    index = _CoverageIndex(poas)
    return [int(index.ids[i]) if i >= 0 else None for i in index.lookup(np.array(points))]


def lookup_one(poas, x_m, y_m):
    return lookup_ids(poas, [[x_m, y_m]])[0]


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
        batch = lookup_ids(self.POAS, points)
        assert batch == [lookup_one(self.POAS, x, y) for x, y in points] == [0, 0, None, 1]

    def test_no_positions(self):
        assert lookup_ids(self.POAS, np.zeros((0, 2))) == []

    def test_no_poas(self):
        assert lookup_ids([], [(0.0, 0.0), (150.0, 0.0)]) == [None, None]


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
    trace = MobilityTrace.from_records([(s, 0, 10.0, 0.0) for s in range(steps)])
    return cfg, trace, ads, profiles, poas


class TestRun:
    def test_zero_vehicles(self):
        cfg, _, ads, _, poas = tiny_scenario(steps=3)
        trace = MobilityTrace.from_records([])
        metrics, summary = run(cfg, trace, ads, [], poas)
        assert len(metrics) == 3
        assert all(
            (m.revenue_cum, m.impressions_cum, m.avg_distance_cum, m.broadcasts_cum)
            == (0.0, 0, 0.0, 0)
            for m in metrics
        )
        assert summary["revenue"] == 0.0

    def test_no_poas(self):
        # a header-only poas.csv: no vehicle is ever covered
        cfg, trace, ads, profiles, _ = tiny_scenario(steps=3, cache_size=2)
        metrics, summary = run(cfg, trace, ads, profiles, [])
        assert [(m.revenue_cum, m.impressions_cum, m.broadcasts_cum) for m in metrics] == [
            (0.0, 0, 0)
        ] * 3
        assert summary["revenue"] == 0.0 and summary["avg_distance"] == 0.0

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
        est = estimator(params, {p.poa_id: list(ads) for p in poas})
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
    """A vehicle state whose cache never tests empty, so the reference loop
    advances its display on every step, idle or not."""

    @property
    def cache(self):
        return _NonEmpty(self._cache)

    @cache.setter
    def cache(self, value):
        self._cache = list(value)


class TestIdleSkip:
    @pytest.mark.parametrize("strategy", ["volfied", "topk"])
    @pytest.mark.parametrize("cache_size", [0, 3])
    def test_display_runs_only_for_busy_vehicles(self, strategy, cache_size):
        cfg, trace, ads, profiles, poas = random_run_scenario(seed=11, strategy=strategy)
        cfg = dataclasses.replace(cfg, cache_size=cache_size)
        calls = []

        def counting(state, received, *args):
            cached = [ad.ad_id for ad, _ in state.cache]
            calls.append((state.profile.vehicle_id, [ad.ad_id for ad in received], cached))
            return step_display(state, received, *args)

        skipping = reference_run(cfg, trace, ads, profiles, poas, display=counting)
        made = list(calls)
        calls.clear()
        every_step = reference_run(
            cfg, trace, ads, profiles, poas, display=counting, new_state=_AlwaysPooling
        )

        # skipping the idle vehicles changes nothing, and run()'s array pass agrees
        assert skipping == every_step == run(cfg, trace, ads, profiles, poas)
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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            SimConfig(seed=-1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("speed_mps", -14.0, "speed_mps must be finite and >= 0, got -14.0"),
            ("speed_mps", math.nan, "speed_mps must be finite and >= 0, got nan"),
            ("speed_mps", math.inf, "speed_mps must be finite and >= 0, got inf"),
            ("area_w_m", -5000.0, "area_w_m must be finite and > 0, got -5000.0"),
            ("area_h_m", 0.0, "area_h_m must be finite and > 0, got 0.0"),
            ("poa_range_m", 0.0, "poa_range_m must be finite and > 0, got 0.0"),
            ("poa_range_m", math.nan, "poa_range_m must be finite and > 0, got nan"),
            ("step_duration_s", math.inf, "step_duration_s must be finite and > 0, got inf"),
        ],
    )
    def test_geometry_it_cannot_run_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimConfig(**{field: value})

    def test_standing_vehicles_accepted(self):
        cfg = SimConfig(speed_mps=0.0, n_ads=20, n_vehicles=5, steps=2)
        trace = gen_synthetic((cfg.area_w_m, cfg.area_h_m), 5, 2, cfg.speed_mps, 0)
        assert np.array_equal(trace.positions[0], trace.positions[1])


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
    ads, profiles = gen_ads(cfg, seed=seed), gen_profiles(cfg, seed=seed)
    trace = gen_synthetic((cfg.area_w_m, cfg.area_h_m), cfg.n_vehicles, steps, 14.0, seed)
    return cfg, trace, ads, profiles, poas


class TestAbsentVehicles:
    def test_absent_vehicle_keeps_its_cache(self):
        # Two relevant Global ads reach the vehicle at step 0 (topk sends
        # both): it shows the closer one and caches the other. Absent at
        # step 1, it shows nothing; back at step 2, out of coverage, it
        # shows the cached ad.
        cfg, _, _, profiles, poas = tiny_scenario("topk", steps=3, cache_size=1)
        ads = [
            Ad(ad_id=1, features=np.array([0.05]), base_value=0.8),
            Ad(ad_id=2, features=np.array([0.1]), base_value=0.5),
        ]
        trace = MobilityTrace.from_records([(0, 0, 10.0, 0.0), (2, 0, 900.0, 0.0)])
        metrics, summary = run(cfg, trace, ads, profiles, poas)
        assert [m.impressions_cum for m in metrics] == [1, 1, 2]
        assert summary["revenue"] == 0.8 + 0.5

    def test_steps_past_the_trace_are_empty(self):
        cfg, trace, ads, profiles, poas = tiny_scenario(steps=2)
        assert trace.positions_at(2) == {} and trace.positions_at(-1) == {}
        metrics, _ = run(dataclasses.replace(cfg, steps=5), trace, ads, profiles, poas)
        assert [m.impressions_cum for m in metrics] == [1, 1, 1, 1, 1]


# Where a vehicle can be: under PoA 0, under PoA 1, or out of coverage.
_SPOTS = [(0.0, 0.0), (10.0, 5.0), (400.0, 0.0), (390.0, -5.0), (200.0, 200.0)]


@st.composite
def real_traces(draw):
    """Traces shaped like real ones: sparse vehicle ids up to 10^12,
    vehicles that appear late, leave, come back, or never appear (they
    have a profile but no row), rows in any order, and a run longer than
    the trace."""
    ids = draw(st.lists(st.integers(0, 10**12), min_size=1, max_size=6, unique=True))
    n_steps = draw(st.integers(1, 8))
    records = []
    for vid in ids:
        for step in range(n_steps):
            if draw(st.booleans()):
                x, y = draw(st.sampled_from(_SPOTS))
                records.append((step, vid, x, y))
    records = draw(st.permutations(records))
    extra = draw(st.integers(1, 3))
    cache_size = draw(st.integers(0, 2))
    detection = draw(st.sampled_from([1.0, 0.5]))
    strategy = draw(st.sampled_from(["volfied", "topk"]))
    return ids, records, n_steps + extra, cache_size, detection, strategy


class TestRealTraceShapes:
    POAS = [
        PoA(poa_id=0, x_m=0.0, y_m=0.0, range_m=150.0),
        PoA(poa_id=1, x_m=400.0, y_m=0.0, range_m=150.0),
    ]

    @given(real_traces(), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_property(self, tmp_path_factory, drawn, seed):
        ids, records, steps, cache_size, detection, strategy = drawn
        trace = MobilityTrace.from_records(records)
        assert trace.n_steps == max(r[0] for r in records) + 1 if records else trace.n_steps == 0
        for step in range(steps):
            want = {vid: (x, y) for s, vid, x, y in records if s == step}
            assert trace.positions_at(step) == want

        # the CSV form gives back the same array, and the same bytes again
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        write_trace_csv(path, trace)
        back = load_trace(path)
        assert back == trace
        write_trace_csv(path.with_name("again.csv"), back)
        assert path.with_name("again.csv").read_bytes() == path.read_bytes()

        rng = np.random.default_rng(seed)
        cfg = dataclasses.replace(
            SimConfig(), k=3, m=1, n_dims=2, d_max=0.4, steps=steps, n_poas=2,
            cache_size=cache_size, detection_accuracy=detection, strategy=strategy, seed=seed,
        )
        ads = [
            Ad(
                ad_id=i + 1,
                features=rng.uniform(0.0, 1.0, 2),
                base_value=float(rng.uniform(0.1, 1.0)),
                target_poa=[None, None, 0, 1][i % 4],
            )
            for i in range(12)
        ]
        profiles = [VehicleProfile(vid, rng.uniform(0.0, 1.0, 2)) for vid in ids]

        estimators, displays, clock = [], [], [0]

        class Recording(RevenueEstimator):
            def __init__(self, *args):
                super().__init__(*args)
                estimators.append(self)

        def display(state, received, *args):
            shown = step_display(state, received, *args)
            displays.append((clock[0], state.profile.vehicle_id, len(shown)))
            return shown

        def select(est, poa, *args):
            if poa == 0:
                clock[0] += 1  # PoA 0 selects first in every step
            return chosen_strategy(est, poa, *args)

        chosen_strategy = volfied.sim.STRATEGIES[strategy]
        patched = [
            (volfied.sim, "RevenueEstimator", Recording),
            (volfied.sim.STRATEGIES, strategy, select),
        ]
        saved = []
        try:
            for owner, name, value in patched:
                if isinstance(owner, dict):
                    saved.append((owner, name, owner[name]))
                    owner[name] = value
                else:
                    saved.append((owner, name, getattr(owner, name)))
                    setattr(owner, name, value)
            out = run(cfg, trace, ads, profiles, self.POAS)
            clock[0] = 0
            assert reference_run(cfg, trace, ads, profiles, self.POAS, display=display) == out
        finally:
            for owner, name, value in reversed(saved):
                if isinstance(owner, dict):
                    owner[name] = value
                else:
                    setattr(owner, name, value)

        # absent vehicles make no display step, so no impressions
        for step, vid, _ in displays:
            assert vid in trace.positions_at(step - 1)
        assert out[0][-1].impressions_cum == sum(n for *_, n in displays)
        # every vehicle has left by the last step: nothing is credited
        est = estimators[0]
        for pid in (0, 1):
            assert not est._counts[est.poa_rows([pid])[0]].any()
            assert est.present(pid) == {}


# Three PoAs in a row, 400 m apart, and the spots under them or between.
_ROW_POAS = [PoA(poa_id=p, x_m=400.0 * p, y_m=0.0, range_m=150.0) for p in range(3)]
_ROW_SPOTS = [(0.0, 0.0), (10.0, 5.0), (400.0, 0.0), (390.0, -5.0), (800.0, 20.0), (200.0, 200.0)]


@st.composite
def small_worlds(draw):
    """A few vehicles moving between three PoAs and out of coverage, and
    leaving and coming back to the trace; Global and Local ads, close
    enough that vehicles pool and cache several, some at equal distances;
    every display knob."""
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6, unique=True))
    n_steps = draw(st.integers(1, 10))
    records = [
        (step, vid, *draw(st.sampled_from(_ROW_SPOTS)))
        for vid in ids
        for step in range(n_steps)
        if draw(st.integers(0, 3))
    ]
    cfg = dataclasses.replace(
        SimConfig(),
        k=draw(st.integers(2, 4)),
        m=draw(st.sampled_from([1, 2])),
        cache_size=draw(st.sampled_from([0, 3])),
        detection_accuracy=draw(st.sampled_from([1.0, 0.5])),
        strategy=draw(st.sampled_from(["volfied", "topk", "random"])),
        metric=draw(st.sampled_from([EUCL, DistanceMetric.ANGULAR])),
        n_dims=2,
        d_max=0.5,
        steps=n_steps + draw(st.integers(0, 2)),
        n_poas=3,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    rng = np.random.default_rng(cfg.seed)
    # ads on a coarse grid share features, so their distances tie
    grid = draw(st.booleans())
    ads = [
        Ad(
            ad_id=3 * i + 1,
            features=rng.integers(1, 5, 2) / 4.0 if grid else rng.uniform(0.05, 1.0, 2),
            base_value=float(rng.uniform(0.1, 1.0)),
            target_poa=[None, 0, 1, 2, None][i % 5],
        )
        for i in range(draw(st.integers(1, 16)))
    ]
    profiles = [VehicleProfile(vid, rng.uniform(0.05, 1.0, 2)) for vid in ids]
    return cfg, MobilityTrace.from_records(records), ads, profiles


class TestReferenceLoop:
    @given(small_worlds())
    @settings(max_examples=300, deadline=None)
    def test_run_equals_reference_loop(self, world):
        cfg, trace, ads, profiles = world
        assert run(cfg, trace, ads, profiles, _ROW_POAS) == reference_run(
            cfg, trace, ads, profiles, _ROW_POAS
        )

    def test_run_uses_only_the_batch_path(self, monkeypatch):
        cfg, trace, ads, profiles, poas = random_run_scenario(seed=11)
        cfg = dataclasses.replace(cfg, cache_size=3, detection_accuracy=0.7)
        expected = reference_run(cfg, trace, ads, profiles, poas)
        assert expected[1]["impressions"] > 0

        def refuse(*args, **kwargs):
            raise AssertionError("run() took a one-event path")

        for name in ("on_vehicle_enter", "on_vehicle_exit", "on_broadcast", "relevance"):
            monkeypatch.setattr(RevenueEstimator, name, refuse)
        monkeypatch.setattr(volfied.sim, "step_display", refuse)
        assert run(cfg, trace, ads, profiles, poas) == expected

    def test_every_memo_scanned_before_the_first_step(self, monkeypatch):
        # making the slots scans one memo per profile, vehicles never in
        # coverage too, so no step scans or adds memo entries
        cfg, trace, ads, profiles, poas = random_run_scenario(seed=11)
        cfg = dataclasses.replace(cfg, cache_size=3, detection_accuracy=0.7)
        expected = reference_run(cfg, trace, ads, profiles, poas)
        calls = []
        scan, events = RevenueEstimator._scan, RevenueEstimator.on_slot_events

        def scanning(est, v):
            calls.append(("scan", v.vehicle_id))
            return scan(est, v)

        def stepping(est, *args):
            calls.append(("events", est._used))
            return events(est, *args)

        monkeypatch.setattr(RevenueEstimator, "_scan", scanning)
        monkeypatch.setattr(RevenueEstimator, "on_slot_events", stepping)
        assert run(cfg, trace, ads, profiles, poas) == expected
        n = len(profiles)
        assert sorted(calls[:n]) == sorted(("scan", p.vehicle_id) for p in profiles)
        assert [kind for kind, _ in calls[n:]] == ["events"] * cfg.steps
        assert len({used for _, used in calls[n:]}) == 1

    def test_malformed_profile_out_of_coverage_fails_before_step_0(self, monkeypatch):
        # vehicle 1 stays 1 km from the only PoA, with a 2-D profile
        cfg, _, ads, profiles, poas = tiny_scenario(steps=3)
        trace = MobilityTrace.from_records(
            [(s, vid, x, 0.0) for s in range(3) for vid, x in ((0, 10.0), (1, 1000.0))]
        )
        odd = VehicleProfile(vehicle_id=1, interests=np.array([0.0, 0.0]))

        def refuse(*args, **kwargs):
            raise AssertionError("a step ran")

        monkeypatch.setattr(RevenueEstimator, "on_slot_events", refuse)
        with pytest.raises(ValueError, match="^vehicle 1 has 2 features, ads have 1$"):
            run(cfg, trace, ads, [*profiles, odd], poas)

    def test_local_ad_evicted_from_cache(self):
        # Under PoA 0 the vehicle gets a Global ad, two Locals of PoA 0 and
        # a Local of PoA 1 that it never receives there. It shows the
        # closest (Local 0) and caches the other two. Under PoA 1 the
        # cached Local of PoA 0 is evicted: it shows the cached Global,
        # then the Local of PoA 1 it receives there.
        cfg, _, _, profiles, _ = tiny_scenario("topk", steps=3, cache_size=3)
        cfg = dataclasses.replace(cfg, n_poas=2)
        ads = [
            Ad(ad_id=1, features=np.array([0.01]), base_value=0.9, target_poa=0),
            Ad(ad_id=2, features=np.array([0.02]), base_value=0.5),
            Ad(ad_id=3, features=np.array([0.03]), base_value=0.4, target_poa=0),
            Ad(ad_id=4, features=np.array([0.04]), base_value=0.3, target_poa=1),
        ]
        poas = [PoA(0, 0.0, 0.0, 150.0), PoA(1, 400.0, 0.0, 150.0)]
        trace = MobilityTrace.from_records(
            [(0, 0, 0.0, 0.0), (1, 0, 400.0, 0.0), (2, 0, 400.0, 0.0)]
        )
        metrics, summary = run(cfg, trace, ads, profiles, poas)
        assert (metrics, summary) == reference_run(cfg, trace, ads, profiles, poas)
        assert [m.impressions_cum for m in metrics] == [1, 2, 3]
        assert summary["revenue"] == 0.9 + 0.5 + 0.3


class TestCandidateMasks:
    @given(small_worlds(), st.integers(1, 3), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_masks_hold_the_eligible_rows(self, world, m, use_sparse):
        # each mask holds the rows in scope at its PoA, or under use_sparse
        # the ads that m_sparse_set keeps of them
        cfg, _, ads, _ = world
        cfg = dataclasses.replace(cfg, m=m, k=max(cfg.k, m), use_sparse=use_sparse)
        catalog = AdTable.from_ads(ads)
        masks = _candidates_by_poa(cfg, catalog, _ROW_POAS)
        assert list(masks) == [p.poa_id for p in _ROW_POAS]
        for pid, mask in masks.items():
            in_scope = [a for a in ads if a.target_poa in (None, pid)]
            if use_sparse:
                kept = m_sparse_set(in_scope, cfg.epsilon, cfg.m, cfg.metric).member_ids()
                assert sorted(catalog.ids[mask].tolist()) == sorted(kept)
            else:
                assert [a for a, held in zip(ads, mask.tolist()) if held] == in_scope


class TestCacheSizePass:
    """`run_cache_sizes`: one broker pass, one display state per cache size."""

    @given(small_worlds(), st.integers(1, 3), st.booleans(),
           st.lists(st.sampled_from([0, 1, 3, 5]), min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_one_pass_equals_one_run_per_cache_size(self, world, m, use_sparse, sizes):
        cfg, trace, ads, profiles = world
        cfg = dataclasses.replace(cfg, m=m, k=max(cfg.k, m), use_sparse=use_sparse)
        grouped = run_cache_sizes(cfg, sizes, trace, ads, profiles, _ROW_POAS)
        assert len(grouped) == len(sizes)
        for size, (metrics, summary) in zip(sizes, grouped):
            alone = run(dataclasses.replace(cfg, cache_size=size), trace, ads, profiles, _ROW_POAS)
            assert render_metrics_csv(cfg.strategy, metrics) == render_metrics_csv(
                cfg.strategy, alone[0]
            )
            assert summary == alone[1]

    def test_negative_cache_size_in_a_pass_rejected(self):
        cfg, trace, ads, profiles, poas = tiny_scenario()
        with pytest.raises(ValueError, match="^cache_size must be >= 0, got -1$"):
            run_cache_sizes(cfg, [0, -1], trace, ads, profiles, poas)
