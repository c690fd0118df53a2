"""Exact enumeration solver: hand-checked optima, bounds, budget guards."""

import dataclasses
import functools
import itertools
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    clustered_instance,
    credited_ids,
    estimator_for,
    random_instance,
    realized_revenue,
)
from volfied.broker import SelectionParams, select_volfied
from volfied.model import (
    Ad,
    DistanceMetric,
    VehicleProfile,
    ad_value,
    distance,
    distances_to,
    rank_for_profile,
)
from volfied.oracle import (
    MAX_CANDIDATES,
    OracleInstance,
    instance_from_json,
    instance_to_json,
    simulate_display,
    solve_exact,
)
from volfied.vehicle import VehicleState, step_display

EUCL = DistanceMetric.EUCLIDEAN
ANG = DistanceMetric.ANGULAR


def example1(k=2, m=1):
    """One vehicle at 0.0; a1 (d 0.1, value 10), a2 (d 0.05, value 1)."""
    ads = (
        Ad(ad_id=1, features=np.array([0.1]), base_value=10.0),
        Ad(ad_id=2, features=np.array([0.05]), base_value=1.0),
    )
    vehicles = (VehicleProfile(vehicle_id=0, interests=np.array([0.0])),)
    params = SelectionParams(k=k, m=m, d_max=0.15, metric=EUCL)
    return OracleInstance(ads=ads, vehicles=vehicles, coverage={0: 0}, params=params)


class TestSimulateDisplay:
    def test_vehicle_displays_closest(self):
        inst = example1()
        displays, revenue = simulate_display({0: [1, 2]}, inst)
        assert displays == {0: [2]}
        assert revenue == 1.0

    def test_single_ad_broadcast(self):
        inst = example1()
        displays, revenue = simulate_display({0: [1]}, inst)
        assert displays == {0: [1]}
        assert revenue == 10.0

    def test_already_displayed_not_repeated(self):
        inst = example1()
        inst = OracleInstance(
            ads=inst.ads,
            vehicles=inst.vehicles,
            coverage=inst.coverage,
            params=inst.params,
            displayed={0: frozenset({1})},
        )
        displays, revenue = simulate_display({0: [1]}, inst)
        assert displays == {0: []}
        assert revenue == 0.0

    def test_no_relevant_no_display(self):
        ads = (Ad(ad_id=1, features=np.array([0.9]), base_value=5.0),)
        inst = OracleInstance(
            ads=ads,
            vehicles=(VehicleProfile(vehicle_id=0, interests=np.array([0.0])),),
            coverage={0: 0},
            params=SelectionParams(k=1, m=1, d_max=0.15, metric=EUCL),
        )
        displays, revenue = simulate_display({0: [1]}, inst)
        assert displays == {0: []} and revenue == 0.0

    def test_uncovered_vehicle_receives_nothing(self):
        inst = example1()
        inst = OracleInstance(
            ads=inst.ads,
            vehicles=inst.vehicles,
            coverage={0: None},
            params=inst.params,
        )
        displays, revenue = simulate_display({0: [1, 2]}, inst)
        assert displays == {0: []} and revenue == 0.0

    def test_broadcast_larger_than_k_rejected(self):
        inst = example1(k=1)
        with pytest.raises(ValueError):
            simulate_display({0: [1, 2]}, inst)

    def test_m2_displays_both(self):
        inst = example1(k=2, m=2)
        displays, revenue = simulate_display({0: [1, 2]}, inst)
        assert displays == {0: [2, 1]}  # closest first
        assert revenue == 11.0


class TestSolveExact:
    def test_example1_k2(self):
        result = solve_exact(example1(k=2, m=1))
        assert result.broadcasts == {0: (1,)}
        assert result.revenue == 10.0

    def test_example1_k1(self):
        result = solve_exact(example1(k=1, m=1))
        assert result.broadcasts == {0: (1,)}
        assert result.revenue == 10.0

    def test_k_equals_m_one_vehicle(self):
        ads = (
            Ad(ad_id=1, features=np.array([0.05]), base_value=0.9),
            Ad(ad_id=2, features=np.array([0.1]), base_value=0.4),
        )
        inst = OracleInstance(
            ads=ads,
            vehicles=(VehicleProfile(vehicle_id=0, interests=np.array([0.0])),),
            coverage={0: 0},
            params=SelectionParams(k=1, m=1, d_max=0.15, metric=EUCL),
        )
        result = solve_exact(inst)
        assert result.broadcasts == {0: (1,)}
        assert result.revenue == 0.9

    def test_tie_lexicographically_smallest_set(self):
        # both ads equally valuable; any singleton earns 0.7, the pair earns 0.7
        ads = (
            Ad(ad_id=1, features=np.array([0.1]), base_value=0.7),
            Ad(ad_id=2, features=np.array([0.05]), base_value=0.7),
        )
        inst = OracleInstance(
            ads=ads,
            vehicles=(VehicleProfile(vehicle_id=0, interests=np.array([0.0])),),
            coverage={0: 0},
            params=SelectionParams(k=2, m=1, d_max=0.15, metric=EUCL),
        )
        result = solve_exact(inst)
        assert result.broadcasts == {0: (1,)}

    def test_tie_singleton_beats_its_superset(self):
        # ad 2 is relevant to nobody, so (1,) and (1, 2) both earn 0.7
        ads = (
            Ad(ad_id=1, features=np.array([0.1]), base_value=0.7),
            Ad(ad_id=2, features=np.array([0.9]), base_value=0.7),
        )
        inst = OracleInstance(
            ads=ads,
            vehicles=(VehicleProfile(vehicle_id=0, interests=np.array([0.0])),),
            coverage={0: 0},
            params=SelectionParams(k=2, m=1, d_max=0.15, metric=EUCL),
        )
        result = solve_exact(inst)
        assert result.broadcasts == {0: (1,)}
        assert result.revenue == 0.7

    def test_tie_pair_beats_later_singleton(self):
        # m=1. Vehicle 0 at 0.0 sees ad 1 (d 0.05) before ad 2 (d 0.1);
        # vehicle 1 at 0.2 sees ad 2 (d 0.1) before ad 3 (d 0.12).
        # (2,) earns 2+2, (1, 3) earns 1+3 and (2, 3) earns 2+2, all 4.0;
        # (1, 2) earns 1+2 because ad 1 displaces ad 2 at vehicle 0.
        ads = (
            Ad(ad_id=1, features=np.array([-0.05]), base_value=1.0),
            Ad(ad_id=2, features=np.array([0.1]), base_value=2.0),
            Ad(ad_id=3, features=np.array([0.32]), base_value=3.0),
        )
        vehicles = (
            VehicleProfile(vehicle_id=0, interests=np.array([0.0])),
            VehicleProfile(vehicle_id=1, interests=np.array([0.2])),
        )
        inst = OracleInstance(
            ads=ads,
            vehicles=vehicles,
            coverage={0: 0, 1: 0},
            params=SelectionParams(k=2, m=1, d_max=0.15, metric=EUCL),
        )
        for broadcast, revenue in (((2,), 4.0), ((1, 3), 4.0), ((2, 3), 4.0), ((1, 2), 3.0)):
            assert simulate_display({0: broadcast}, inst)[1] == revenue
        result = solve_exact(inst)
        assert result.broadcasts == {0: (1, 3)}
        assert result.revenue == 4.0

    def test_zero_best_revenue_broadcasts_nothing(self):
        # ad 1 is too far and ad 2 was already displayed: every subset earns 0
        ads = (
            Ad(ad_id=1, features=np.array([0.9]), base_value=5.0),
            Ad(ad_id=2, features=np.array([0.05]), base_value=1.0),
        )
        inst = OracleInstance(
            ads=ads,
            vehicles=(VehicleProfile(vehicle_id=0, interests=np.array([0.0])),),
            coverage={0: 0},
            params=SelectionParams(k=2, m=1, d_max=0.15, metric=EUCL),
            displayed={0: frozenset({2})},
        )
        result = solve_exact(inst)
        assert result.broadcasts == {0: ()}
        assert result.revenue == 0.0

    def test_empty_ads_zero_revenue(self):
        inst = OracleInstance(
            ads=(),
            vehicles=(VehicleProfile(vehicle_id=0, interests=np.array([0.0])),),
            coverage={0: 0},
            params=SelectionParams(k=2, m=1, d_max=0.15, metric=EUCL),
        )
        result = solve_exact(inst)
        assert result.broadcasts == {0: ()}
        assert result.revenue == 0.0

    def test_two_poas_decompose(self):
        # one Local ad per PoA plus a Global worth less than either
        ads = (
            Ad(ad_id=1, features=np.array([0.0]), base_value=5.0, target_poa=0),
            Ad(ad_id=2, features=np.array([1.0]), base_value=4.0, target_poa=1),
            Ad(ad_id=3, features=np.array([0.05]), base_value=1.0),
        )
        vehicles = (
            VehicleProfile(vehicle_id=0, interests=np.array([0.0])),
            VehicleProfile(vehicle_id=1, interests=np.array([1.0])),
        )
        inst = OracleInstance(
            ads=ads,
            vehicles=vehicles,
            coverage={0: 0, 1: 1},
            params=SelectionParams(k=1, m=1, d_max=0.15, metric=EUCL),
        )
        result = solve_exact(inst)
        assert result.broadcasts == {0: (1,), 1: (2,)}
        assert result.revenue == 9.0

    def test_candidate_budget_enforced(self):
        ads = tuple(
            Ad(ad_id=i, features=np.array([0.0]), base_value=1.0) for i in range(1, 17)
        )
        inst = OracleInstance(
            ads=ads,
            vehicles=(VehicleProfile(vehicle_id=0, interests=np.array([0.0])),),
            coverage={0: 0},
            params=SelectionParams(k=2, m=1, d_max=0.15, metric=EUCL),
        )
        with pytest.raises(ValueError, match="budget"):
            solve_exact(inst)

    def test_k_budget_enforced(self):
        inst = example1(k=6, m=1)
        with pytest.raises(ValueError, match="budget"):
            solve_exact(inst)

    def test_feature_dimension_mismatch_rejected(self):
        # a 1-D profile would broadcast against 2-D ads without the check
        inst = OracleInstance(
            ads=(Ad(ad_id=1, features=np.array([0.1, 0.2]), base_value=1.0),),
            vehicles=(VehicleProfile(vehicle_id=0, interests=np.array([0.1])),),
            coverage={0: 0},
            params=SelectionParams(k=1, m=1, d_max=0.15, metric=EUCL),
        )
        with pytest.raises(ValueError, match="features"):
            solve_exact(inst)

    def test_angular_zero_vector_rejected_even_when_seen(self):
        ads = (
            Ad(ad_id=1, features=np.array([0.0, 0.0]), base_value=1.0),
            Ad(ad_id=2, features=np.array([1.0, 0.0]), base_value=1.0),
        )
        inst = OracleInstance(
            ads=ads,
            vehicles=(VehicleProfile(vehicle_id=0, interests=np.array([1.0, 0.1])),),
            coverage={0: 0},
            params=SelectionParams(k=1, m=1, d_max=0.5, metric=ANG),
            displayed={0: frozenset({1})},
        )
        with pytest.raises(ValueError, match="zero vectors"):
            solve_exact(inst)


    @pytest.mark.parametrize(
        "metric, interests, message",
        [
            # an angular zero vector among the ads the vehicle has shown
            (ANG, [1.0, 0.1], "angular distance undefined for zero vectors"),
            # a 1-D profile with 2-D ads
            (EUCL, [0.1], "PoA 0: vehicles have 1 features, ads have 2"),
        ],
    )
    def test_simulate_display_raises_as_solve_exact(self, metric, interests, message):
        inst = OracleInstance(
            ads=(
                Ad(ad_id=1, features=np.array([0.0, 0.0]), base_value=1.0),
                Ad(ad_id=2, features=np.array([1.0, 0.0]), base_value=1.0),
            ),
            vehicles=(VehicleProfile(vehicle_id=0, interests=np.array(interests)),),
            coverage={0: 0},
            params=SelectionParams(k=2, m=1, d_max=0.5, metric=metric),
            displayed={0: frozenset({1})},
        )
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_exact(inst)
        with pytest.raises(ValueError, match=f"^{message}$"):
            simulate_display({0: [1, 2]}, inst)


def reference_solve(instance):
    """solve_exact priced one subset at a time: per PoA, each vehicle's
    menu from `rank_for_profile`, then every subset in combinations order
    summed over the menus, kept if it earns more than the best so far or
    as much with a smaller id tuple."""
    params = instance.params
    by_vid = {v.vehicle_id: v for v in instance.vehicles}
    broadcasts = {}
    for poa in sorted({p for p in instance.coverage.values() if p is not None}):
        candidates = sorted(
            (a for a in instance.ads if ad_value(a, poa) > 0.0), key=lambda a: a.ad_id
        )
        menus = []
        for vid in sorted(vid for vid, p in instance.coverage.items() if p == poa):
            seen = instance.displayed.get(vid, frozenset())
            ranked = rank_for_profile(
                candidates, by_vid[vid], poa, params.d_max, params.metric, seen
            )
            if ranked:
                menus.append([(ad.ad_id, ad_value(ad, poa)) for ad, _ in ranked])
        cand_ids = [a.ad_id for a in candidates]
        best_rev = 0.0
        best_ids = ()
        for r in range(1, min(params.k, len(cand_ids)) + 1):
            for combo in itertools.combinations(cand_ids, r):
                chosen = frozenset(combo)
                rev = 0.0
                for menu in menus:
                    shown = 0
                    for ad_id, value in menu:
                        if ad_id in chosen:
                            rev += value
                            shown += 1
                            if shown == params.m:
                                break
                if rev > best_rev or (rev == best_rev and combo < best_ids):
                    best_rev = rev
                    best_ids = combo
        broadcasts[poa] = best_ids
    _, revenue = simulate_display(broadcasts, instance)
    return broadcasts, revenue


@st.composite
def multi_poa_instances(draw):
    """Up to 3 covered PoAs, up to 15 Global and Local ads (some Local ones
    aimed at a PoA nobody is under), vehicles uncovered or under any PoA,
    display histories and both metrics. Coordinates sit on a coarse grid
    and base values come from three numbers, so equal distances and equal
    revenues are common; d_max is one vehicle-ad distance, so that pair
    sits on the threshold."""
    metric = draw(st.sampled_from([EUCL, ANG]))
    n_dims = draw(st.integers(1, 3))
    n_poas = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_ads = draw(st.integers(0, MAX_CANDIDATES))
    ads = tuple(
        Ad(
            ad_id=int(ad_id),
            features=rng.integers(1, 5, n_dims) / 4.0,
            base_value=draw(st.sampled_from([0.5, 1.0, 1.5])),
            target_poa=draw(st.sampled_from([None, *range(n_poas + 1)])),
        )
        for ad_id in rng.choice(100, size=n_ads, replace=False)
    )
    vehicles = tuple(
        VehicleProfile(vehicle_id=v, interests=rng.integers(1, 5, n_dims) / 4.0)
        for v in range(draw(st.integers(1, 8)))
    )
    d_max = 0.5
    if ads:
        on = distance(
            metric,
            ads[draw(st.integers(0, n_ads - 1))].features,
            vehicles[draw(st.integers(0, len(vehicles) - 1))].interests,
        )
        d_max = on if on > 0 else d_max
    k, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # k < m is allowed, with a warning
        params = SelectionParams(k=k, m=m, d_max=d_max, metric=metric)
    coverage = {
        v.vehicle_id: draw(st.sampled_from([None, *range(n_poas)])) for v in vehicles
    }
    ad_ids = [a.ad_id for a in ads]
    displayed = {
        v.vehicle_id: frozenset(draw(st.lists(st.sampled_from(ad_ids), max_size=3)))
        for v in vehicles
        if ad_ids and draw(st.booleans())
    }
    return OracleInstance(
        ads=ads, vehicles=vehicles, coverage=coverage, params=params, displayed=displayed
    )


class TestReferenceEquality:
    @given(multi_poa_instances())
    @settings(max_examples=200, deadline=None)
    def test_solve_exact_is_reference(self, inst):
        result = solve_exact(inst)
        broadcasts, revenue = reference_solve(inst)
        assert result.broadcasts == broadcasts
        assert np.float64(result.revenue).tobytes() == np.float64(revenue).tobytes()

    @given(multi_poa_instances())
    @settings(max_examples=200, deadline=None)
    def test_revenue_is_simulated_display(self, inst):
        result = solve_exact(inst)
        _, revenue = simulate_display(result.broadcasts, inst)
        assert np.float64(result.revenue).tobytes() == np.float64(revenue).tobytes()


class TestOracleBounds:
    def test_upper_bounds_all_strategies(self):
        rng = np.random.default_rng(2024)
        ratio_v, ratio_r = [], []
        for seed in range(50):
            inst = clustered_instance(seed, n_ads=10, n_vehicles=20, k=3, m=1)
            opt = solve_exact(inst).revenue
            _, rev_v = realized_revenue(inst, "volfied")
            _, rev_t = realized_revenue(inst, "topk")
            _, rev_r = realized_revenue(inst, "random", rng)
            assert opt >= rev_v - 1e-12
            assert opt >= rev_t - 1e-12
            assert opt >= rev_r - 1e-12
            if opt > 0:
                ratio_v.append(rev_v / opt)
                ratio_r.append(rev_r / opt)
        assert np.mean(ratio_v) >= np.mean(ratio_r)

    def test_uniform_instances_bounded_too(self):
        for seed in range(20):
            inst = random_instance(seed, n_ads=10, n_vehicles=20, k=3, m=1)
            opt = solve_exact(inst).revenue
            for strategy in ("volfied", "topk"):
                _, rev = realized_revenue(inst, strategy)
                assert opt >= rev - 1e-12

    def test_k_equals_m_matches_volfied_exactly(self):
        for km in (1, 2, 3):
            for seed in range(10):
                inst = random_instance(100 + seed, n_ads=8, n_vehicles=12, k=km, m=km)
                opt = solve_exact(inst).revenue
                _, rev_v = realized_revenue(inst, "volfied")
                assert rev_v == opt


@st.composite
def single_poa_instances(draw):
    """Vehicles under PoA 0 or uncovered, Global and Local ads, display
    histories, and d_max copied from one vehicle-ad distance so that pair
    sits exactly on the threshold; a vehicle may sit on an ad."""
    metric = draw(st.sampled_from([EUCL, ANG]))
    n_dims = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_ads = draw(st.integers(1, 8))
    ads = tuple(
        Ad(
            ad_id=i + 1,
            features=rng.uniform(0.01, 1.0, n_dims),
            base_value=float(rng.uniform(0.1, 1.0)),
            target_poa=draw(st.sampled_from([None, None, 0, 1])),
        )
        for i in range(n_ads)
    )
    interests = [rng.uniform(0.01, 1.0, n_dims) for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):
        interests[0] = ads[draw(st.integers(0, n_ads - 1))].features.copy()
    vehicles = tuple(VehicleProfile(vehicle_id=v, interests=f) for v, f in enumerate(interests))
    on = draw(st.integers(0, n_ads - 1))
    d_max = distance(metric, ads[on].features, interests[draw(st.integers(0, len(interests) - 1))])
    assume(d_max > 0)
    m = draw(st.integers(1, 3))
    params = SelectionParams(k=draw(st.integers(m, 5)), m=m, d_max=d_max, metric=metric)
    ad_ids = [a.ad_id for a in ads]
    coverage = {v.vehicle_id: draw(st.sampled_from([0, 0, None])) for v in vehicles}
    displayed = {
        v.vehicle_id: frozenset(draw(st.lists(st.sampled_from(ad_ids), max_size=2)))
        for v in vehicles
    }
    inst = OracleInstance(
        ads=ads, vehicles=vehicles, coverage=coverage, params=params, displayed=displayed
    )
    broadcast = draw(st.lists(st.sampled_from(ad_ids), unique=True, max_size=params.k))
    return inst, broadcast


class TestOneDisplayRule:
    """Broker, vehicle and oracle answer "is this ad relevant to this
    vehicle?" with the same bits, so the estimate is what gets displayed."""

    # A 5-D pair whose distance through the row-wise kernel is one ulp
    # above the 1-D norm of its difference (0.9115371632577578 against
    # 0.9115371632577577): with d_max at the smaller value, a kernel that
    # differs between the broker and the display side splits on the pair.
    WITNESS_AD = [0.8, 0.32, 0.8, 0.23, 0.36]
    WITNESS_VEHICLE = [0.42, 0.54, 0.11, 0.41, 0.0]

    def test_boundary_witness_estimate_is_displayed(self):
        ad_f = np.array(self.WITNESS_AD)
        far = np.array(self.WITNESS_VEHICLE)
        d_max = float(np.linalg.norm(ad_f - far))
        assert distances_to(EUCL, far, ad_f[None, :])[0] > d_max
        ad = Ad(ad_id=1, features=ad_f, base_value=1.0)
        vehicles = (
            VehicleProfile(vehicle_id=0, interests=ad_f.copy()),
            VehicleProfile(vehicle_id=1, interests=far),
        )
        params = SelectionParams(k=1, m=1, d_max=d_max, metric=EUCL)
        inst = OracleInstance(ads=(ad,), vehicles=vehicles, coverage={0: 0, 1: 0}, params=params)

        est = estimator_for(inst)
        credited = {vid for vid, ids in credited_ids(est, 0).items() if ids}
        displays, revenue = simulate_display({0: [1]}, inst)
        assert credited == {vid for vid, shown in displays.items() if shown}
        assert revenue == est.revenue(0, 1)
        for prof in vehicles:
            shown = step_display(VehicleState(profile=prof), [ad], 0, params)
            assert bool(shown) == (prof.vehicle_id in credited)

    @given(single_poa_instances())
    @settings(max_examples=300, deadline=None)
    def test_simulate_display_is_step_display(self, drawn):
        inst, broadcast = drawn
        displays, _ = simulate_display({0: broadcast}, inst)
        by_id = {a.ad_id: a for a in inst.ads}
        for prof in inst.vehicles:
            vid = prof.vehicle_id
            poa = inst.coverage[vid]
            received = [by_id[i] for i in broadcast] if poa is not None else []
            state = VehicleState(profile=prof, displayed=set(inst.displayed[vid]))
            shown = step_display(state, received, poa, inst.params, cache_capacity=0)
            assert [ad_id for ad_id, _ in shown] == displays[vid]

    @given(single_poa_instances())
    @settings(max_examples=300, deadline=None)
    def test_estimator_credits_what_is_displayed(self, drawn):
        inst, _ = drawn
        everything = [a.ad_id for a in inst.ads]
        n = len(everything)
        inst = OracleInstance(
            ads=inst.ads,
            vehicles=inst.vehicles,
            coverage={v.vehicle_id: 0 for v in inst.vehicles},
            params=dataclasses.replace(inst.params, k=n, m=n),
        )
        credited = credited_ids(estimator_for(inst), 0)
        displays, _ = simulate_display({0: everything}, inst)
        assert credited == {vid: set(shown) for vid, shown in displays.items()}


class TestInstanceValidation:
    def test_duplicate_ad_ids_rejected(self):
        ads = (
            Ad(ad_id=1, features=np.array([0.1]), base_value=1.0),
            Ad(ad_id=1, features=np.array([0.2]), base_value=2.0),
        )
        with pytest.raises(ValueError):
            OracleInstance(
                ads=ads,
                vehicles=(VehicleProfile(vehicle_id=0, interests=np.array([0.0])),),
                coverage={0: 0},
                params=SelectionParams(k=1, m=1, d_max=0.15, metric=EUCL),
            )

    def test_coverage_of_unknown_vehicle_rejected(self):
        with pytest.raises(ValueError):
            OracleInstance(
                ads=(),
                vehicles=(VehicleProfile(vehicle_id=0, interests=np.array([0.0])),),
                coverage={7: 0},
                params=SelectionParams(k=1, m=1, d_max=0.15, metric=EUCL),
            )


    def test_negative_coverage_rejected(self):
        with pytest.raises(ValueError, match="^coverage maps vehicle 0 to poa -3; PoA ids must be >= 0$"):
            OracleInstance(
                ads=(),
                vehicles=(VehicleProfile(vehicle_id=0, interests=np.array([0.0])),),
                coverage={0: -3},
                params=SelectionParams(k=1, m=1, d_max=0.15, metric=EUCL),
            )


class TestInstanceJson:
    def test_round_trip(self):
        inst = example1()
        blob = json.dumps(instance_to_json(inst))
        back = instance_from_json(json.loads(blob))
        assert back.params == inst.params
        assert back.coverage == inst.coverage
        assert [a.ad_id for a in back.ads] == [1, 2]
        assert back.ads[0].base_value == 10.0
        assert solve_exact(back).revenue == 10.0

    def test_displayed_survives_round_trip(self):
        inst = example1()
        inst = OracleInstance(
            ads=inst.ads,
            vehicles=inst.vehicles,
            coverage=inst.coverage,
            params=inst.params,
            displayed={0: frozenset({2})},
        )
        back = instance_from_json(instance_to_json(inst))
        assert back.displayed == {0: frozenset({2})}

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("params", "k"), 2.7, "k"),
            (("params", "m"), True, "m"),
            (("ads", 0, "ad_id"), 1.9, "ad_id"),
            (("ads", 1, "target_poa"), False, "target_poa"),
            (("vehicles", 0, "vehicle_id"), "0", "vehicle_id"),
            (("coverage", "0"), 0.6, "coverage"),
            (("displayed", "0", 0), 2.0, "displayed"),
        ],
    )
    def test_non_integer_rejected(self, path, value, field):
        doc = instance_to_json(example1())
        doc["displayed"] = {"0": [2]}
        *parents, key = path
        functools.reduce(lambda node, step: node[step], parents, doc)[key] = value
        message = f"instance field {field} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            instance_from_json(doc)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("params", "d_max"), True, "instance field d_max must be a number, got True"),
            (("ads", 0, "base_value"), "2", "instance field base_value must be a number, got '2'"),
            (
                ("ads", 0, "features"),
                ["0.5", True],
                "instance field features must be a number, got '0.5'",
            ),
            (("ads", 1, "features"), [True], "instance field features must be a number, got True"),
            (
                ("vehicles", 0, "interests"),
                0.0,
                "instance field interests must be a list of numbers, got 0.0",
            ),
            (("params",), [], "instance params must be a JSON object, got list"),
        ],
    )
    def test_value_not_spelt_out_rejected(self, path, value, message):
        doc = instance_to_json(example1())
        *parents, key = path
        functools.reduce(lambda node, step: node[step], parents, doc)[key] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            instance_from_json(doc)

    def test_top_level_array_rejected(self):
        with pytest.raises(ValueError, match="^instance document must be a JSON object, got list$"):
            instance_from_json([instance_to_json(example1())])

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("ads", [1], "instance field ads entry 0 must be a JSON object, got int"),
            ("ads", {"a": 1}, "instance field ads must be a JSON array, got dict"),
            ("ads", 3, "instance field ads must be a JSON array, got int"),
            ("vehicles", [None], "instance field vehicles entry 0 must be a JSON object, got NoneType"),
            ("vehicles", "xy", "instance field vehicles must be a JSON array, got str"),
            ("displayed", {"0": 5}, "instance field displayed must be a list of integers, got 5"),
        ],
    )
    def test_malformed_shape_names_its_field(self, field, value, message):
        doc = instance_to_json(example1())
        doc[field] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            instance_from_json(doc)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("ads", 1, "target_poa"), -3, "ad 2: target_poa must be >= 0, got -3"),
            (("ads", 1, "target_poa"), -1, "ad 2: target_poa must be >= 0, got -1"),
            (("coverage", "0"), -3, "coverage maps vehicle 0 to poa -3; PoA ids must be >= 0"),
        ],
    )
    def test_negative_poa_id_rejected(self, path, value, message):
        doc = instance_to_json(example1())
        *parents, key = path
        functools.reduce(lambda node, step: node[step], parents, doc)[key] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            instance_from_json(doc)

    @pytest.mark.parametrize(
        "field, key", [("coverage", " 0"), ("coverage", "1.0"), ("displayed", "00")]
    )
    def test_vehicle_key_not_an_integer_rejected(self, field, key):
        doc = instance_to_json(example1())
        doc["displayed"] = {"0": [2]}
        doc[field] = {key: doc[field]["0"]}
        message = f"instance field {field} has a key that is not an integer: {key!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            instance_from_json(doc)
