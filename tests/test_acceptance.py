"""Acceptance suite: every release criterion, one verdict line each.

Each test runs one criterion end to end at its stated tolerance and hands a
single PASS/FAIL line to the criterion_report fixture; the lines are echoed
together in the terminal summary. Criteria 1-8 are exact or property-based,
9-11 are statistical comparisons on a fixed synthetic scenario, 12 is a
work-count bound.
"""

import contextlib
import dataclasses
import itertools
import time

import numpy as np
import pytest

from conftest import clustered_instance, estimator_for, random_instance, realized_revenue
from volfied.broker import (
    RevenueEstimator,
    SelectionParams,
    SelectionStats,
    is_conflict_free,
    select_volfied,
)
from volfied.files import render_metrics_csv
from volfied.model import Ad, DistanceMetric, VehicleProfile, distance
from volfied.oracle import OracleInstance, simulate_display, solve_exact
from volfied.scenario import build_scenario
from volfied.sim import SimConfig, run
from volfied.sparse import (
    SparseApproxParams,
    check_ball_bound,
    m_sparse_set,
    update_cost_bound,
    verify_analogue_bound,
)

EUCL = DistanceMetric.EUCLIDEAN
ANG = DistanceMetric.ANGULAR


# ---------------------------------------------------------------------------
# shared instance families


def k_below_m(k, m):
    """Expects the k < m warning of params made inside it when k < m."""
    if k < m:
        return pytest.warns(UserWarning, match="below display budget")
    return contextlib.nullcontext()


def single_step_instances():
    """200 varied single-PoA instances: |A| <= 200, n in {2,5}, both metrics."""
    for i in range(200):
        n_dims = (2, 5)[i % 2]
        metric = (EUCL, ANG)[(i // 2) % 2]
        k, m = 1 + (i % 8), 1 + (i % 3)
        with k_below_m(k, m):
            inst = random_instance(
                seed=1000 + i,
                n_ads=(5, 20, 60, 120, 200)[i % 5],
                n_vehicles=15,
                k=k,
                m=m,
                n_dims=n_dims,
                d_max=0.3 if metric is EUCL else 0.35,
                metric=metric,
            )
        yield i, inst


# Fixed synthetic scenario for the statistical criteria: 20 PoAs on a
# 5x5 km area, 500 vehicles, 1000 ads, 120 steps, k=5, m=1, 10 seeds.
_SCENARIO = dict(
    k=5,
    m=1,
    n_ads=1000,
    n_poas=20,
    n_vehicles=500,
    steps=120,
    area_w_m=5000.0,
    area_h_m=5000.0,
    n_dims=3,
    poa_range_m=400.0,
)
_SEEDS = tuple(range(10))


@pytest.fixture(scope="module")
def big_scenarios():
    """Ads/profiles/PoAs/trace per seed, shared by the scenario criteria."""
    t0 = time.perf_counter()
    pool = {}
    for seed in _SEEDS:
        cfg = SimConfig(seed=seed, **_SCENARIO)
        pool[seed] = build_scenario(cfg, seed)
    return pool, time.perf_counter() - t0


def scenario_run(pool, seed, **overrides):
    cfg = SimConfig(seed=seed, **{**_SCENARIO, **overrides})
    ads, profiles, poas, trace = pool[seed]
    _, summary = run(cfg, trace, ads, profiles, poas)
    return summary


@pytest.fixture(scope="module")
def headline_runs(big_scenarios):
    """volfied and topk at default knobs, 10 seeds; elapsed includes builds."""
    pool, build_s = big_scenarios
    t0 = time.perf_counter()
    out = {}
    for strat in ("volfied", "topk"):
        for seed in _SEEDS:
            out[strat, seed] = scenario_run(pool, seed, strategy=strat)
    return out, build_s + (time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# criteria


def test_01_conflicting_pair_example(criterion_report):
    """Two near-identical ads, one vehicle: greedy k best ads earn 1,
    conflict-free selection earns 10, and at k=1 the gap disappears."""
    t0 = time.perf_counter()
    ads = (
        Ad(ad_id=1, features=np.array([0.1]), base_value=10.0),
        Ad(ad_id=2, features=np.array([0.05]), base_value=1.0),
    )
    vehicles = (VehicleProfile(vehicle_id=0, interests=np.array([0.0])),)

    def build(k):
        return OracleInstance(
            ads=ads,
            vehicles=vehicles,
            coverage={0: 0},
            params=SelectionParams(k=k, m=1, d_max=0.15, metric=EUCL),
        )

    _, topk_k2 = realized_revenue(build(2), "topk")
    _, volf_k2 = realized_revenue(build(2), "volfied")
    _, topk_k1 = realized_revenue(build(1), "topk")
    _, volf_k1 = realized_revenue(build(1), "volfied")
    elapsed = time.perf_counter() - t0

    ok = (
        topk_k2 == 1.0
        and volf_k2 == 10.0
        and topk_k1 == 10.0
        and volf_k1 == 10.0
        and elapsed < 1.0
    )
    criterion_report(
        f"criterion 01 {'PASS' if ok else 'FAIL'} conflicting-pair example: "
        f"topk(k=2)={topk_k2:g} volfied(k=2)={volf_k2:g} "
        f"k=1 both={topk_k1:g}/{volf_k1:g} ({elapsed:.3f}s)"
    )
    assert topk_k2 == 1.0
    assert volf_k2 == 10.0
    assert topk_k1 == 10.0 and volf_k1 == 10.0
    assert elapsed < 1.0


def test_02_selection_always_conflict_free(criterion_report):
    """No vehicle nor any of 10^4 random probe profiles ever has more than
    m relevant ads among a volfied selection."""
    failures = 0
    for i, inst in single_step_instances():
        est = estimator_for(inst)
        chosen = select_volfied(est, 0, inst.params)
        by_id = {a.ad_id: a for a in inst.ads}
        selected = [by_id[c] for c in chosen]
        rng = np.random.default_rng(9000 + i)
        n_dims = inst.ads[0].features.shape[0]
        probes = rng.uniform(0.0, 1.0, (10_000, n_dims))
        vehicles = np.stack([v.interests for v in inst.vehicles])
        if not is_conflict_free(selected, vehicles, inst.params):
            failures += 1
        elif not is_conflict_free(selected, probes, inst.params):
            failures += 1
    ok = failures == 0
    criterion_report(
        f"criterion 02 {'PASS' if ok else 'FAIL'} conflict-free selection: "
        f"{200 - failures}/200 instances clean (10^4 probes each)"
    )
    assert failures == 0


def test_03_revenue_identity_and_k_monotonicity(criterion_report):
    """Realized volfied revenue equals the sum of its estimates (1e-9) and
    never decreases as the broadcast budget k grows 1..10 (exact)."""
    worst_gap = 0.0
    monotone_breaks = 0
    for _, inst in single_step_instances():
        est = estimator_for(inst)
        chosen = select_volfied(est, 0, inst.params)
        estimated = sum(est.revenue(0, c) for c in chosen)
        _, realized = simulate_display({0: chosen}, inst)
        worst_gap = max(worst_gap, abs(realized - estimated))

        revs = []
        for k in range(1, 11):
            with k_below_m(k, inst.params.m):
                params_k = dataclasses.replace(inst.params, k=k)
            inst_k = dataclasses.replace(inst, params=params_k)
            chosen_k = select_volfied(est, 0, params_k)
            _, rev_k = simulate_display({0: chosen_k}, inst_k)
            revs.append(rev_k)
        if any(b < a for a, b in itertools.pairwise(revs)):
            monotone_breaks += 1
    ok = worst_gap <= 1e-9 and monotone_breaks == 0
    criterion_report(
        f"criterion 03 {'PASS' if ok else 'FAIL'} revenue identity + k-monotonicity: "
        f"max |realized-estimated| = {worst_gap:.2e}; "
        f"{200 - monotone_breaks}/200 monotone k-curves"
    )
    assert worst_gap <= 1e-9
    assert monotone_breaks == 0


def test_04_matches_small_instance_optimum(criterion_report):
    """At k=m the selection equals topk and the enumerated optimum exactly;
    at k=3>m=1 its mean optimality ratio beats topk's and random's."""
    mismatches = 0
    for i in range(50):
        km = (1, 2, 3)[i % 3]
        inst = clustered_instance(seed=2000 + i, k=km, m=km)
        b_v, rev_v = realized_revenue(inst, "volfied")
        b_t, rev_t = realized_revenue(inst, "topk")
        opt = solve_exact(inst)
        if set(b_v[0]) != set(b_t[0]) or rev_v != opt.revenue:
            mismatches += 1

    ratios = {"volfied": [], "topk": [], "random": []}
    for i in range(50):
        inst = clustered_instance(seed=2000 + i, k=3, m=1)
        opt = solve_exact(inst)
        if opt.revenue == 0.0:
            continue
        for strat in ratios:
            rng = np.random.default_rng(4000 + i) if strat == "random" else None
            _, rev = realized_revenue(inst, strat, rng=rng)
            ratios[strat].append(rev / opt.revenue)
    means = {s: float(np.mean(v)) for s, v in ratios.items()}
    ok = (
        mismatches == 0
        and means["volfied"] >= means["random"]
        and means["volfied"] >= means["topk"]
    )
    criterion_report(
        f"criterion 04 {'PASS' if ok else 'FAIL'} small-instance optimality: "
        f"{50 - mismatches}/50 exact at k=m; mean opt-ratios "
        f"volfied={means['volfied']:.3f} topk={means['topk']:.3f} "
        f"random={means['random']:.3f}"
    )
    assert mismatches == 0
    assert means["volfied"] >= means["random"]
    assert means["volfied"] >= means["topk"]


def test_05_sparse_ball_bound(criterion_report):
    """Any epsilon-ball around 10^4 probes (plus every member itself)
    contains at most m members of the m-sparse set, for m in {1,2,3}."""
    failures = 0
    worst = 0
    for i in range(100):
        rng = np.random.default_rng(3000 + i)
        n_dims = (2, 3, 5)[i % 3]
        metric = (EUCL, ANG)[i % 2]
        eps = float(rng.uniform(0.03, 0.12) if metric is EUCL else rng.uniform(0.05, 0.2))
        n_ads = int(rng.integers(30, 151))
        ads = [
            Ad(
                ad_id=j + 1,
                features=rng.uniform(0.0, 1.0, n_dims),
                base_value=float(rng.uniform(0.05, 1.0)),
            )
            for j in range(n_ads)
        ]
        probes = rng.uniform(0.0, 1.0, (10_000, n_dims))
        for m in (1, 2, 3):
            sp = m_sparse_set(ads, eps, m, metric)
            pts = np.vstack([probes, np.stack([a.features for a in sp.ads])])
            count = check_ball_bound(sp, pts, eps)
            worst = max(worst, count - m)
            if count > m:
                failures += 1
    ok = failures == 0
    criterion_report(
        f"criterion 05 {'PASS' if ok else 'FAIL'} sparse ball bound: "
        f"100 catalogs x m in {{1,2,3}}, {failures} violations "
        f"(worst overshoot {max(worst, 0)})"
    )
    assert failures == 0


def test_06_sparse_event_cost_bound(criterion_report):
    """With epsilon = d_max/4 in 5 dimensions at m=1, no vehicle enter or
    exit on the sparse set ever touches more than 1024 ads, up to |A|=1e5."""
    d_max, n_dims, m = 0.15, 5, 1
    eps = d_max / 4
    params = SelectionParams(k=5, m=m, d_max=d_max, metric=EUCL)
    rng = np.random.default_rng(42)
    results = []
    for size in (1_000, 10_000, 100_000):
        feats = rng.uniform(0.0, 1.0, (size, n_dims))
        vals = rng.uniform(0.05, 1.0, size)
        ads = [
            Ad(ad_id=j + 1, features=feats[j], base_value=float(vals[j]))
            for j in range(size)
        ]
        sp = m_sparse_set(ads, eps, m, EUCL)
        bound = update_cost_bound(
            SparseApproxParams(epsilon=eps, m=m, metric=EUCL), d_max, n_dims, len(sp.ads)
        )
        est = RevenueEstimator(params, {0: sp.ads})
        for v in range(200):
            est.on_vehicle_enter(
                0, VehicleProfile(vehicle_id=v, interests=rng.uniform(0.0, 1.0, n_dims)),
                detected=True,
            )
        for v in range(200):
            est.on_vehicle_exit(0, v)
        results.append((size, est.max_event_examined, bound))
    ok = all(seen <= bound <= 1024 for _, seen, bound in results)
    criterion_report(
        f"criterion 06 {'PASS' if ok else 'FAIL'} sparse event cost: "
        + "; ".join(f"|A|={s}: max {e} <= bound {b}" for s, e, b in results)
    )
    for size, seen, bound in results:
        assert seen <= bound <= 1024, f"|A|={size}: {seen} examined, bound {bound}"


def test_07_sparse_analogue_revenue_bound(criterion_report):
    """For a spread-out selection from the full catalog, the sparse set is
    searched for a same-size value-dominating stand-in (members within
    2*epsilon, the sparsifier's covering radius, pairwise conflict-free)
    earning at least the conservative revenue (relevance within
    d_max - 2*epsilon). 100 random instances, zero failures demanded."""

    def gen_instance(seed):
        rng = np.random.default_rng(seed)
        n_dims = int(rng.integers(2, 4))
        n_ads = int(rng.integers(4, 13))
        eps = float(rng.uniform(0.02, 0.12))
        d_max = eps * float(rng.uniform(2.05, 4.0))
        m = int(rng.integers(1, 3))
        ads = [
            Ad(
                ad_id=j + 1,
                features=rng.uniform(0.0, 1.0, n_dims),
                base_value=float(rng.uniform(0.05, 1.0)),
            )
            for j in range(n_ads)
        ]
        vehicles = [rng.uniform(0.0, 1.0, n_dims) for _ in range(int(rng.integers(3, 15)))]
        # a selection that stays conflict-free even at the enlarged
        # threshold d_max + 2*eps, as the guarantee requires
        delta = d_max + 2.0 * eps
        target = int(rng.integers(1, 4))
        s = []
        for idx in rng.permutation(n_ads):
            a = ads[idx]
            close = sum(
                1 for j in s if distance(EUCL, ads[j].features, a.features) <= 2.0 * delta
            )
            if close < m:
                s.append(int(idx))
            if len(s) >= target:
                break
        return ads, eps, m, d_max, [ads[j].ad_id for j in s], vehicles

    failing_seeds = []
    with_revenue = 0
    for seed in range(100):
        ads, eps, m, d_max, s_ids, vehicles = gen_instance(seed)
        sp = m_sparse_set(ads, eps, m, EUCL)
        if not verify_analogue_bound(ads, sp, s_ids, d_max, vehicles):
            failing_seeds.append(seed)
        # instances where the revenue clause asks for more than nothing
        if any(
            distance(EUCL, a.features, v) <= d_max - 2.0 * eps
            for a in ads
            if a.ad_id in s_ids
            for v in vehicles
        ):
            with_revenue += 1
    ok = not failing_seeds
    criterion_report(
        f"criterion 07 {'PASS' if ok else 'FAIL'} sparse analogue revenue bound: "
        f"{100 - len(failing_seeds)}/100 verified at radius 2*epsilon, "
        f"{with_revenue}/100 with nonzero conservative revenue"
        + ("" if ok else f"; counterexample seeds {failing_seeds}")
    )
    assert not failing_seeds, (
        f"no conflict-free value-dominating stand-in within 2*epsilon earning "
        f"the conservative revenue exists for seeds {failing_seeds}"
    )


def test_08_cache_independence(criterion_report):
    """Same seed, default config, cache sizes 0 and 5: the conflict-free
    strategy never spills into the cache, so metrics are byte-identical."""
    cfg0 = SimConfig(seed=11)
    cfg5 = dataclasses.replace(cfg0, cache_size=5)
    ads, profiles, poas, trace = build_scenario(cfg0, cfg0.seed)
    metrics0, _ = run(cfg0, trace, ads, profiles, poas)
    metrics5, _ = run(cfg5, trace, ads, profiles, poas)
    csv0 = render_metrics_csv("volfied", metrics0)
    csv5 = render_metrics_csv("volfied", metrics5)
    ok = csv0.encode() == csv5.encode()
    criterion_report(
        f"criterion 08 {'PASS' if ok else 'FAIL'} cache independence: "
        f"C=0 vs C=5 metrics CSV {'byte-identical' if ok else 'differ'} "
        f"({len(csv0.splitlines()) - 1} rows)"
    )
    assert ok


def test_09_beats_topk_at_scale(criterion_report, headline_runs):
    """On the fixed 20-PoA scenario, volfied's 10-seed mean cumulative
    revenue and impressions both meet or beat topk's, in under 2 minutes."""
    out, elapsed = headline_runs
    rev = {s: float(np.mean([out[s, seed]["revenue"] for seed in _SEEDS])) for s in ("volfied", "topk")}
    imp = {s: float(np.mean([out[s, seed]["impressions"] for seed in _SEEDS])) for s in ("volfied", "topk")}
    rev_ratio = rev["volfied"] / rev["topk"]
    imp_ratio = imp["volfied"] / imp["topk"]
    ok = rev["volfied"] >= rev["topk"] and imp["volfied"] >= imp["topk"] and elapsed < 120.0
    criterion_report(
        f"criterion 09 {'PASS' if ok else 'FAIL'} scenario comparison: "
        f"revenue {rev['volfied']:.1f} vs {rev['topk']:.1f} (x{rev_ratio:.2f}), "
        f"impressions {imp['volfied']:.0f} vs {imp['topk']:.0f} (x{imp_ratio:.2f}), "
        f"{elapsed:.0f}s"
    )
    assert rev["volfied"] >= rev["topk"]
    assert imp["volfied"] >= imp["topk"]
    assert elapsed < 120.0


def test_10_revenue_monotone_in_k(criterion_report, big_scenarios):
    """Mean cumulative volfied revenue never drops as k sweeps 1..10;
    topk's curve is reported alongside without a monotonicity claim."""
    pool, _ = big_scenarios
    ks = (1, 2, 4, 6, 8, 10)
    curves = {}
    for strat in ("volfied", "topk"):
        curves[strat] = [
            float(np.mean([
                scenario_run(pool, seed, strategy=strat, k=k)["revenue"] for seed in _SEEDS
            ]))
            for k in ks
        ]
    breaks = [
        (ks[j], ks[j + 1])
        for j in range(len(ks) - 1)
        if curves["volfied"][j + 1] < curves["volfied"][j]
    ]
    ok = not breaks
    fmt = lambda c: "[" + ", ".join(f"{x:.1f}" for x in c) + "]"
    criterion_report(
        f"criterion 10 {'PASS' if ok else 'FAIL'} revenue monotone in k: "
        f"k={list(ks)} volfied={fmt(curves['volfied'])} topk={fmt(curves['topk'])}"
    )
    assert not breaks, f"mean revenue dropped across k steps {breaks}"


def test_11_robust_to_low_detection(criterion_report, big_scenarios, headline_runs):
    """volfied detecting only 30% of vehicles still out-earns topk with
    perfect detection on the same scenario."""
    pool, _ = big_scenarios
    out, _ = headline_runs
    v03 = float(np.mean([
        scenario_run(pool, seed, strategy="volfied", detection_accuracy=0.3)["revenue"]
        for seed in _SEEDS
    ]))
    t10 = float(np.mean([out["topk", seed]["revenue"] for seed in _SEEDS]))
    ok = v03 >= t10
    criterion_report(
        f"criterion 11 {'PASS' if ok else 'FAIL'} detection robustness: "
        f"volfied@p=0.3 {v03:.1f} >= topk@p=1.0 {t10:.1f}"
    )
    assert v03 >= t10


def test_12_selection_distance_eval_budget(criterion_report):
    """One volfied selection never evaluates more than |candidates| * k
    pairwise distances; checked over 1000 varied invocations."""
    violations = 0
    for i in range(1000):
        n_dims = (2, 5)[i % 2]
        metric = (EUCL, ANG)[(i // 2) % 2]
        k, m = 1 + (i % 10), 1 + (i % 3)
        with k_below_m(k, m):
            inst = random_instance(
                seed=5000 + i,
                n_ads=5 + (i % 50),
                n_vehicles=8,
                k=k,
                m=m,
                n_dims=n_dims,
                d_max=0.3 if metric is EUCL else 0.35,
                metric=metric,
            )
        est = estimator_for(inst)
        stats = SelectionStats()
        select_volfied(est, 0, inst.params, stats)
        budget = len(inst.ads) * inst.params.k
        if stats.distance_evals > budget:
            violations += 1
    ok = violations == 0
    criterion_report(
        f"criterion 12 {'PASS' if ok else 'FAIL'} selection work bound: "
        f"distance evals <= |candidates|*k in {1000 - violations}/1000 invocations"
    )
    assert violations == 0
