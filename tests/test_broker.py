"""Revenue estimator bookkeeping and the three selection strategies.

Estimator expectations are frozen from the additive definition (value times
number of contributing vehicles) and cross-checked by full recomputation;
selection expectations are hand-traces of the greedy scan.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import block_greedy, credited_ids
import volfied.broker
from volfied.broker import (
    RevenueEstimator,
    SelectionParams,
    SelectionStats,
    is_conflict_free,
    select_random,
    select_topk,
    select_volfied,
    structurally_conflict_free,
)
from volfied.model import (
    Ad,
    DistanceMetric,
    VehicleProfile,
    ad_value,
    distance,
    distances_to,
    rank_for_profile,
)
from volfied.scenario import build_scenario
from volfied.sim import SimConfig, run

EUCL = DistanceMetric.EUCLIDEAN
ANG = DistanceMetric.ANGULAR


def params(k=2, m=1, d_max=0.15):
    return SelectionParams(k=k, m=m, d_max=d_max, metric=EUCL)


def example1():
    """Single vehicle at 0, two ads at 0.1 (value 10) and 0.05 (value 1)."""
    a1 = Ad(ad_id=1, features=np.array([0.1]), base_value=10.0)
    a2 = Ad(ad_id=2, features=np.array([0.05]), base_value=1.0)
    v = VehicleProfile(vehicle_id=0, interests=np.array([0.0]))
    est = RevenueEstimator(params(k=2, m=1), {0: [a1, a2]})
    est.on_vehicle_enter(0, v, detected=True)
    return est, (a1, a2), v


def recompute_revenue(candidates, present_profiles, registry, poa_id, d_max, metric):
    """Reference: R(a) from scratch per the additive definition."""
    out = {}
    for a in candidates:
        total = 0.0
        for v in present_profiles:
            if (
                rank_for_profile([a], v, poa_id, d_max, metric)
                and a.ad_id not in registry.get(v.vehicle_id, set())
            ):
                total += ad_value(a, poa_id)
        out[a.ad_id] = total
    return out


class TestEstimatorEvents:
    def test_three_contributors_sum(self):
        ad = Ad(ad_id=1, features=np.array([0.5, 0.5]), base_value=0.4)
        est = RevenueEstimator(params(), {0: [ad]})
        for vid in range(3):
            v = VehicleProfile(vehicle_id=vid, interests=np.array([0.5, 0.5]))
            est.on_vehicle_enter(0, v, detected=True)
        assert est.revenue(0, 1) == pytest.approx(1.2, abs=1e-9)

    def test_undetected_enter_no_change(self):
        ad = Ad(ad_id=1, features=np.array([0.5]), base_value=0.4)
        est = RevenueEstimator(params(), {0: [ad]})
        est.on_vehicle_enter(0, VehicleProfile(0, np.array([0.5])), detected=False)
        assert est.revenue(0, 1) == 0.0

    def test_registry_blocks_credit(self):
        ad = Ad(ad_id=1, features=np.array([0.5]), base_value=0.4)
        est = RevenueEstimator(params(), {0: [ad]})
        est.on_vehicle_enter(0, VehicleProfile(7, np.array([0.5])), detected=True)
        est.on_broadcast(0, [1])
        est.on_vehicle_exit(0, 7)
        # v7 was served; re-entering credits nothing
        est.on_vehicle_enter(0, VehicleProfile(7, np.array([0.5])), detected=True)
        assert est.revenue(0, 1) == 0.0

    def test_registry_blocks_credit_on_return(self):
        # the same profile object comes back: its remembered relevant ads
        # must know what it was served meanwhile
        ad = Ad(ad_id=1, features=np.array([0.5]), base_value=0.4)
        v = VehicleProfile(7, np.array([0.5]))
        est = RevenueEstimator(params(), {0: [ad], 1: [ad]})
        est.on_vehicle_enter(0, v, detected=True)
        est.on_broadcast(0, [1])
        est.on_vehicle_exit(0, 7)
        est.on_vehicle_enter(1, v, detected=True)
        assert (est.revenue(1, 1), est.last_event_examined) == (0.0, 1)

    def test_enter_exit_round_trip(self):
        rng = np.random.default_rng(5)
        ads = [Ad(ad_id=i, features=rng.uniform(0, 1, 2), base_value=0.5) for i in range(10)]
        est = RevenueEstimator(params(d_max=0.4), {0: ads})
        est.on_vehicle_enter(0, VehicleProfile(1, np.array([0.4, 0.4])), detected=True)
        before = {i: est.revenue(0, i) for i in range(10)}
        v2 = VehicleProfile(2, rng.uniform(0, 1, 2))
        est.on_vehicle_enter(0, v2, detected=True)
        est.on_vehicle_exit(0, 2)
        after = {i: est.revenue(0, i) for i in range(10)}
        assert before == after

    def test_exit_of_undetected_is_noop(self):
        ad = Ad(ad_id=1, features=np.array([0.5]), base_value=0.4)
        est = RevenueEstimator(params(), {0: [ad]})
        est.on_vehicle_enter(0, VehicleProfile(0, np.array([0.5])), detected=True)
        est.on_vehicle_exit(0, 99)
        assert est.revenue(0, 1) == pytest.approx(0.4)

    def test_one_of_two_exits_halves(self):
        ad = Ad(ad_id=1, features=np.array([0.5]), base_value=0.6)
        est = RevenueEstimator(params(), {0: [ad]})
        est.on_vehicle_enter(0, VehicleProfile(0, np.array([0.5])), detected=True)
        est.on_vehicle_enter(0, VehicleProfile(1, np.array([0.5])), detected=True)
        est.on_vehicle_exit(0, 0)
        assert est.revenue(0, 1) == pytest.approx(0.6)

    def test_duplicate_enter_rejected(self):
        ad = Ad(ad_id=1, features=np.array([0.5]), base_value=0.6)
        est = RevenueEstimator(params(), {0: [ad]})
        est.on_vehicle_enter(0, VehicleProfile(0, np.array([0.5])), detected=True)
        with pytest.raises(ValueError, match="^vehicle 0 already present under poa 0$"):
            est.on_vehicle_enter(0, VehicleProfile(0, np.array([0.5])), detected=True)
        assert est.revenue(0, 1) == 0.6

    def test_unknown_poa_is_a_key_error(self):
        ad = Ad(ad_id=1, features=np.array([0.5]), base_value=0.6)
        est = RevenueEstimator(params(), {0: [ad]})
        v = VehicleProfile(5, np.array([0.5]))
        # the PoA is looked up first, even for a vehicle never seen
        with pytest.raises(KeyError):
            est.on_vehicle_exit(99, 5)
        with pytest.raises(KeyError):
            est.on_vehicle_enter(99, v, detected=True)
        # an undetected enter leaves no trace, wherever it is
        est.on_vehicle_enter(99, v, detected=False)
        est.on_vehicle_enter(0, v, detected=True)
        # and before the vehicle's presence is checked
        with pytest.raises(KeyError):
            est.on_vehicle_exit(99, 5)
        with pytest.raises(KeyError):
            est.on_vehicle_enter(99, v, detected=True)
        assert (est.revenue(0, 1), list(est.present(0))) == (0.6, [5])

    def test_enter_at_second_poa_rejected(self):
        ad = Ad(ad_id=1, features=np.array([0.5]), base_value=0.6)
        est = RevenueEstimator(params(), {3: [ad], 4: [ad]})
        v = VehicleProfile(0, np.array([0.5]))
        est.on_vehicle_enter(3, v, detected=True)
        with pytest.raises(ValueError, match="vehicle 0 entered poa 4 while present under poa 3"):
            est.on_vehicle_enter(4, v, detected=True)
        assert (est.revenue(3, 1), est.revenue(4, 1)) == (0.6, 0.0)
        est.on_vehicle_exit(3, 0)
        est.on_vehicle_enter(4, v, detected=True)
        assert (est.revenue(3, 1), est.revenue(4, 1)) == (0.0, 0.6)


class TestBroadcast:
    def test_broadcast_clears_contributors(self):
        ad = Ad(ad_id=1, features=np.array([0.5]), base_value=0.4)
        est = RevenueEstimator(params(), {0: [ad]})
        for vid in range(3):
            est.on_vehicle_enter(0, VehicleProfile(vid, np.array([0.5])), detected=True)
        est.on_broadcast(0, [1])
        assert est.revenue(0, 1) == 0.0

    def test_broadcast_with_undetected_vehicle(self):
        ad = Ad(ad_id=1, features=np.array([0.5]), base_value=0.4)
        est = RevenueEstimator(params(), {0: [ad]})
        est.on_vehicle_enter(0, VehicleProfile(0, np.array([0.5])), detected=True)
        est.on_vehicle_enter(0, VehicleProfile(1, np.array([0.5])), detected=True)
        est.on_vehicle_enter(0, VehicleProfile(2, np.array([0.5])), detected=False)
        est.on_broadcast(0, [1])
        assert est.revenue(0, 1) == 0.0
        assert est.registry == {0: {1}, 1: {1}}
        # the unseen vehicle can still credit the ad on a later detected visit
        for vid in range(3):
            est.on_vehicle_exit(0, vid)
        est.on_vehicle_enter(0, VehicleProfile(2, np.array([0.5])), detected=True)
        assert est.revenue(0, 1) == pytest.approx(0.4)

    def test_empty_broadcast_noop(self):
        ad = Ad(ad_id=1, features=np.array([0.5]), base_value=0.4)
        est = RevenueEstimator(params(), {0: [ad]})
        est.on_vehicle_enter(0, VehicleProfile(0, np.array([0.5])), detected=True)
        est.on_broadcast(0, [])
        assert est.revenue(0, 1) == pytest.approx(0.4)


class TestSelectVolfied:
    def test_example1_selects_only_a1(self):
        est, (a1, a2), _ = example1()
        assert select_volfied(est, 0, params(k=2, m=1)) == [1]

    def test_three_ads_hand_trace(self):
        ads = [
            Ad(ad_id=1, features=np.array([0.0]), base_value=5.0),
            Ad(ad_id=2, features=np.array([0.2]), base_value=4.0),
            Ad(ad_id=3, features=np.array([0.6]), base_value=3.0),
        ]
        est = RevenueEstimator(params(k=3, m=1), {0: ads})
        # one contributor per ad so that R equals the base values
        est.on_vehicle_enter(0, VehicleProfile(0, np.array([0.0])), detected=True)
        est.on_vehicle_enter(0, VehicleProfile(1, np.array([0.2])), detected=True)
        est.on_vehicle_enter(0, VehicleProfile(2, np.array([0.6])), detected=True)
        assert [est.revenue(0, i) for i in (1, 2, 3)] == [5.0, 4.0, 3.0]
        assert select_volfied(est, 0, params(k=3, m=1)) == [1, 3]

    def test_zero_estimate_ads_skipped(self):
        est, _, _ = example1()
        far = Ad(ad_id=9, features=np.array([0.9]), base_value=50.0)
        est2 = RevenueEstimator(params(), {0: [far]})
        assert select_volfied(est2, 0, params()) == []

    def test_k_equals_m_matches_topk(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            ads = [
                Ad(ad_id=i, features=rng.uniform(0, 1, 2), base_value=float(rng.uniform(0.1, 1)))
                for i in range(12)
            ]
            est = RevenueEstimator(params(d_max=0.35), {0: ads})
            for vid in range(15):
                prof = VehicleProfile(vid, np.clip(rng.normal(0.5, 0.2, 2), 0, 1))
                est.on_vehicle_enter(0, prof, detected=True)
            for km in (1, 2, 3):
                p = SelectionParams(k=km, m=km, d_max=0.35, metric=EUCL)
                assert select_volfied(est, 0, p) == select_topk(est, 0, p)

    def test_distance_eval_budget(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            count = int(rng.integers(2, 60))
            ads = [
                Ad(ad_id=i, features=rng.uniform(0, 1, 2), base_value=float(rng.uniform(0.1, 1)))
                for i in range(count)
            ]
            k = int(rng.integers(1, 8))
            p = SelectionParams(k=k, m=int(rng.integers(1, 3)), d_max=0.3, metric=EUCL)
            est = RevenueEstimator(p, {0: ads})
            for vid in range(10):
                prof = VehicleProfile(vid, rng.uniform(0, 1, 2))
                est.on_vehicle_enter(0, prof, detected=True)
            stats = SelectionStats()
            select_volfied(est, 0, p, stats=stats)
            assert stats.distance_evals <= count * k


# Integer coordinates put Euclidean pairs at exactly 2*d_max = 1, 2 or 3
# and orthogonal pairs at exactly 2*d_max = pi/2 apart; none is the zero
# vector, so either metric applies to every world.
GRID_D_MAX = {EUCL: (0.5, 1.0, 1.5), ANG: (np.pi / 8, np.pi / 4, np.pi / 3)}


@st.composite
def grid_points(draw, n_dims):
    point = draw(st.lists(st.integers(0, 3), min_size=n_dims, max_size=n_dims))
    return np.array(point if any(point) else [1] * n_dims, dtype=float)


@st.composite
def call_params(draw, est_params):
    """The estimator's params, or one whose d_max or metric differs."""
    metric, d_max = est_params.metric, est_params.d_max
    change = draw(st.sampled_from(["none", "d_max", "metric"]))
    if change == "d_max":
        d_max = draw(st.sampled_from([d for d in GRID_D_MAX[metric] if d != d_max]))
    elif change == "metric":
        metric = ANG if metric is EUCL else EUCL
    return SelectionParams(k=est_params.k, m=est_params.m, d_max=d_max, metric=metric)


class TestConflictMemo:
    """`select_volfied` reads conflicts from the estimator's memo; the block
    greedy (conftest) computes them afresh on every call."""

    @pytest.mark.filterwarnings("ignore:k=.*broadcast budget below display budget")
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_block_greedy(self, data):
        draw = data.draw
        n_dims = draw(st.integers(1, 3), label="n_dims")
        metric = draw(st.sampled_from([EUCL, ANG]), label="metric")
        p = SelectionParams(
            k=draw(st.integers(1, 8), label="k"),
            m=draw(st.integers(1, 3), label="m"),
            d_max=draw(st.sampled_from(GRID_D_MAX[metric]), label="d_max"),
            metric=metric,
        )
        ads = [
            Ad(i, draw(grid_points(n_dims)), draw(st.sampled_from([1.0, 2.0])))
            for i in range(draw(st.integers(1, 30), label="n_ads"))
        ]
        est = RevenueEstimator(p, {0: ads, 1: ads[: len(ads) // 2]})
        vehicles = [VehicleProfile(v, draw(grid_points(n_dims))) for v in range(8)]
        under = {}  # vehicle id -> PoA
        for _ in range(draw(st.integers(1, 6), label="steps")):
            for v in draw(st.lists(st.sampled_from(vehicles), max_size=4, unique=True)):
                poa = under.pop(v.vehicle_id, None)
                if poa is None:
                    under[v.vehicle_id] = draw(st.sampled_from([0, 1]))
                    est.on_vehicle_enter(under[v.vehicle_id], v, detected=True)
                else:
                    est.on_vehicle_exit(poa, v.vehicle_id)
            for poa in (0, 1):
                q = draw(call_params(p))
                got, want = SelectionStats(), SelectionStats()
                chosen = select_volfied(est, poa, q, got)
                assert chosen == block_greedy(est, poa, q, want)
                assert got.distance_evals == want.distance_evals
                if draw(st.booleans()):
                    est.on_broadcast(poa, chosen)

    def test_learned_pairs_at_most_l_squared(self, monkeypatch):
        """The angular d_max = 0.3 case whose whole blocks cost close to
        quadratic work: the memo computes each pair of learned rows once."""
        cfg = SimConfig(
            k=4, m=1, d_max=0.3, metric=ANG, n_ads=2000, n_poas=12, n_vehicles=120, steps=8,
            area_w_m=2000.0, area_h_m=2000.0, n_dims=3, poa_range_m=400.0, seed=0,
        )
        world = build_scenario(cfg, cfg.seed)
        pairs, memos = [], []
        kernel, memo_of = volfied.broker.paired_distances, RevenueEstimator.conflict_memo

        def counted(*args):
            out = kernel(*args)
            pairs.append(out.size)
            return out

        def kept(*args):
            memos.append(memo_of(*args))
            return memos[-1]

        monkeypatch.setattr(volfied.broker, "paired_distances", counted)
        monkeypatch.setattr(RevenueEstimator, "conflict_memo", kept)
        _, summary = run(cfg, world[3], *world[:3])
        learned = len(memos[-1].masks)
        assert all(m is memos[0] for m in memos)
        assert summary["distance_evals"] > 0 and learned > 0
        assert sum(pairs) <= learned**2


class TestTopkRandom:
    def test_example1_topk_sends_both(self):
        est, _, _ = example1()
        assert select_topk(est, 0, params(k=2, m=1)) == [1, 2]

    def test_fewer_positive_than_k(self):
        est, _, _ = example1()
        assert select_topk(est, 0, params(k=5, m=1)) == [1, 2]

    def test_no_positive_revenue(self):
        ad = Ad(ad_id=1, features=np.array([0.5]), base_value=0.4)
        est = RevenueEstimator(params(), {0: [ad]})
        assert select_topk(est, 0, params()) == []
        assert select_random(est, 0, params(), np.random.default_rng(0)) == []

    def test_random_single_candidate(self):
        est, _, _ = example1()
        picked = select_random(est, 0, params(k=5, m=1), np.random.default_rng(1))
        assert sorted(picked) == [1, 2]

    def test_random_reproducible(self):
        rng = np.random.default_rng(79)
        ads = [
            Ad(ad_id=i, features=rng.uniform(0, 1, 2), base_value=0.5) for i in range(30)
        ]
        p = SelectionParams(k=4, m=1, d_max=0.9, metric=EUCL)
        est = RevenueEstimator(p, {0: ads})
        for vid in range(5):
            est.on_vehicle_enter(0, VehicleProfile(vid, rng.uniform(0, 1, 2)), detected=True)
        a = select_random(est, 0, p, np.random.default_rng(42))
        b = select_random(est, 0, p, np.random.default_rng(42))
        assert a == b and len(a) == 4

    def test_order_is_revenue_desc_then_id_asc(self):
        rng = np.random.default_rng(3)
        ads = [
            Ad(
                ad_id=int(i),
                features=rng.uniform(0, 1, 2),
                base_value=float(rng.choice([0.5, 1.0])),
            )
            for i in rng.permutation(40) + 1  # positions do not follow ids
        ]
        p = SelectionParams(k=len(ads), m=1, d_max=0.6, metric=EUCL)
        est = RevenueEstimator(p, {0: ads})
        for vid in range(6):
            est.on_vehicle_enter(0, VehicleProfile(vid, rng.uniform(0, 1, 2)), detected=True)
        positive = [a.ad_id for a in ads if est.revenue(0, a.ad_id) > 0]
        revenues = [est.revenue(0, i) for i in positive]
        assert len(set(revenues)) < len(positive)  # ties for the id order to break
        assert select_topk(est, 0, p) == sorted(positive, key=lambda i: (-est.revenue(0, i), i))
        # random draws come from the positive ids in ascending order
        want = np.random.default_rng(5).choice(
            np.array(sorted(positive), dtype=np.int64), size=len(positive), replace=False
        )
        assert select_random(est, 0, p, np.random.default_rng(5)) == want.tolist()


class TestConflictFree:
    def test_example1_pair_conflicts(self):
        _, (a1, a2), v = example1()
        rows = v.interests[None, :]
        assert not is_conflict_free([a1, a2], rows, params(m=1))
        assert is_conflict_free([a1], rows, params(m=1))
        assert is_conflict_free([], rows, params(m=1))

    def test_structural_check(self):
        a1 = Ad(ad_id=1, features=np.array([0.0]), base_value=1.0)
        a2 = Ad(ad_id=2, features=np.array([0.2]), base_value=0.9)
        a3 = Ad(ad_id=3, features=np.array([0.6]), base_value=0.8)
        p = params(m=1, d_max=0.15)
        assert structurally_conflict_free([a1, a3], p)
        assert not structurally_conflict_free([a1, a2], p)

    def test_volfied_output_conflict_free(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            ads = [
                Ad(ad_id=i, features=rng.uniform(0, 1, 2), base_value=float(rng.uniform(0.1, 1)))
                for i in range(40)
            ]
            p = SelectionParams(k=5, m=int(rng.integers(1, 3)), d_max=0.25, metric=EUCL)
            est = RevenueEstimator(p, {0: ads})
            profiles = [VehicleProfile(vid, rng.uniform(0, 1, 2)) for vid in range(20)]
            for v in profiles:
                est.on_vehicle_enter(0, v, detected=True)
            chosen_ids = select_volfied(est, 0, p)
            by_id = {a.ad_id: a for a in ads}
            # keep admission order: the structural certificate depends on it
            chosen = [by_id[i] for i in chosen_ids]
            assert is_conflict_free(chosen, np.stack([v.interests for v in profiles]), p)
            assert structurally_conflict_free(chosen, p)

    @pytest.mark.parametrize("metric", [EUCL, ANG])
    def test_batched_matches_one_vehicle_at_a_time(self, metric):
        # d_max copied from a vehicle-ad distance puts that ad exactly on
        # the threshold, where a last-bit difference flips the answer.
        rng = np.random.default_rng(89)
        for trial in range(60):
            n = (2, 3, 5, 9)[trial % 4]
            ads = [
                Ad(ad_id=i, features=rng.uniform(-1, 1, n), base_value=0.5)
                for i in range(int(rng.integers(1, 8)))
            ]
            rows = rng.uniform(-1, 1, (int(rng.integers(1, 30)), n))
            feats = np.stack([a.features for a in ads])
            d_max = float(rng.choice(distances_to(metric, rows[0], feats)))
            want_worst = max(
                sum(distances_to(metric, r, f[None])[0] <= d_max for f in feats) for r in rows
            )
            for m in (1, 2, 3):
                p = SelectionParams(k=8, m=m, d_max=d_max, metric=metric)
                assert is_conflict_free(ads, rows, p) == (want_worst <= m)


class TestEstimatorConsistency:
    def test_random_event_sequences_match_recompute(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            ads = [
                Ad(ad_id=i, features=rng.uniform(0, 1, 2), base_value=float(rng.uniform(0.1, 1)))
                for i in range(25)
            ]
            p = SelectionParams(k=3, m=1, d_max=0.3, metric=EUCL)
            est = RevenueEstimator(p, {0: ads})
            present = {}
            for _ in range(60):
                action = rng.integers(0, 3)
                if action == 0:
                    vid = int(rng.integers(0, 40))
                    if vid in present:
                        continue
                    prof = VehicleProfile(vid, rng.uniform(0, 1, 2))
                    detected = bool(rng.uniform() < 0.8)
                    est.on_vehicle_enter(0, prof, detected=detected)
                    if detected:
                        present[vid] = prof
                elif action == 1 and present:
                    vid = list(present)[int(rng.integers(0, len(present)))]
                    est.on_vehicle_exit(0, vid)
                    del present[vid]
                else:
                    est.on_broadcast(0, select_topk(est, 0, p))
            want = recompute_revenue(ads, list(present.values()), est.registry, 0, p.d_max, EUCL)
            for ad_id, r in want.items():
                assert est.revenue(0, ad_id) == pytest.approx(r, abs=1e-9)


class TestParamsValidation:
    def test_k_less_than_m_warns(self):
        with pytest.warns(UserWarning) as caught:
            params = SelectionParams(k=2, m=2, d_max=0.15, metric=EUCL)
            SelectionParams(k=1, m=2, d_max=0.15, metric=EUCL)
            dataclasses.replace(params, k=1)
        # the warning names the line that made the params, also through
        # `dataclasses.replace`
        assert [w.filename for w in caught] == [__file__, __file__]

    def test_positive_required(self):
        with pytest.raises(ValueError):
            SelectionParams(k=0, m=1, d_max=0.15, metric=EUCL)
        with pytest.raises(ValueError):
            SelectionParams(k=1, m=1, d_max=0.0, metric=EUCL)


def counts_by_id(est, poa):
    """Contributor count of each candidate ad id at `poa`."""
    row = est.poa_rows([poa])[0]
    rows = np.flatnonzero(est._candidate[row])
    return dict(zip(est._union_ids[rows].tolist(), est._counts[row, rows].tolist()))


class ScanningEstimator:
    """Reference bookkeeping that scans the PoA's own candidate rows with
    distances_to on every detected enter, as the estimator did before it
    remembered each vehicle's relevant ads."""

    def __init__(self, p, candidates_by_poa):
        self.p = p
        self.registry = {}
        self.ids = {pid: [a.ad_id for a in ads] for pid, ads in candidates_by_poa.items()}
        self.feats = {pid: np.stack([a.features for a in ads]) for pid, ads in candidates_by_poa.items()}
        self.values = {
            pid: np.array([ad_value(a, pid) for a in ads]) for pid, ads in candidates_by_poa.items()
        }
        self.counts = {pid: np.zeros(len(ads), dtype=np.int64) for pid, ads in candidates_by_poa.items()}
        self.contrib = {pid: {} for pid in candidates_by_poa}
        self.last_event_examined = 0

    def enter(self, poa, v, detected):
        self.last_event_examined = 0
        if not detected:
            return
        dists = distances_to(self.p.metric, v.interests, self.feats[poa])
        relevant = np.flatnonzero((dists <= self.p.d_max) & (self.values[poa] > 0)).tolist()
        self.last_event_examined = len(relevant)
        served = self.registry.get(v.vehicle_id, set())
        credited = {i for i in relevant if self.ids[poa][i] not in served}
        for i in credited:
            self.counts[poa][i] += 1
        self.contrib[poa][v.vehicle_id] = credited

    def exit(self, poa, vid):
        credited = self.contrib[poa].pop(vid, set())
        self.last_event_examined = len(credited)
        for i in credited:
            self.counts[poa][i] -= 1

    def broadcast(self, poa, selected):
        for ad_id in selected:
            i = self.ids[poa].index(ad_id)
            for vid, credited in self.contrib[poa].items():
                self.registry.setdefault(vid, set()).add(ad_id)
                if i in credited:
                    credited.discard(i)
                    self.counts[poa][i] -= 1


# Quarter-step coordinates make many distances exact, so d_max drawn from
# them (or copied from a vehicle-ad distance) puts ads on the threshold.
_COORD = st.sampled_from([0.25, 0.5, 0.75, 1.0])


@st.composite
def estimator_world(draw):
    metric = draw(st.sampled_from([EUCL, ANG]))
    n_dims = draw(st.integers(1, 3))
    n_poas = draw(st.integers(1, 3))
    vec = st.lists(_COORD, min_size=n_dims, max_size=n_dims).map(np.array)
    ads = [
        Ad(
            ad_id=i,
            features=draw(vec),
            base_value=draw(st.sampled_from([0.5, 1.0, 2.0])),
            target_poa=draw(st.one_of(st.none(), st.integers(0, n_poas))),
        )
        for i in range(draw(st.integers(1, 10)))
    ]
    # each PoA gets its own subset; Locals of other PoAs are worth 0 there
    candidates = {
        pid: [a for a in ads if draw(st.booleans())] or [ads[0]] for pid in range(n_poas)
    }
    # two profile objects per vehicle id; a re-entry may bring either
    profiles = {
        vid: [VehicleProfile(vid, draw(vec)), VehicleProfile(vid, draw(vec))]
        for vid in range(draw(st.integers(1, 4)))
    }
    d_max = draw(st.sampled_from([0.25, 0.5, 0.6, 1.0]))
    if draw(st.booleans()):
        ad = draw(st.sampled_from(ads))
        prof = profiles[draw(st.sampled_from(sorted(profiles)))][0]
        on_edge = float(distances_to(metric, prof.interests, ad.features[None, :])[0])
        if on_edge > 0:
            d_max = on_edge
    return SelectionParams(k=3, m=1, d_max=d_max, metric=metric), candidates, profiles


class TestRelevanceMemo:
    @given(world=estimator_world(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_poa_scan(self, world, data):
        p, candidates, profiles = world
        est = RevenueEstimator(p, candidates)
        ref = ScanningEstimator(p, candidates)
        at = {}  # vehicle id -> PoA it is under
        for _ in range(data.draw(st.integers(1, 25))):
            kind = data.draw(st.sampled_from(["enter", "exit", "broadcast"]))
            if kind == "enter":
                vid = data.draw(st.sampled_from(sorted(profiles)))
                if vid in at:
                    continue
                poa = data.draw(st.sampled_from(sorted(candidates)))
                v = profiles[vid][data.draw(st.integers(0, 1))]
                detected = data.draw(st.booleans())
                est.on_vehicle_enter(poa, v, detected=detected)
                ref.enter(poa, v, detected)
                at[vid] = poa
            elif kind == "exit":
                if not at:
                    continue
                vid = data.draw(st.sampled_from(sorted(at)))
                poa = at.pop(vid)
                est.on_vehicle_exit(poa, vid)
                ref.exit(poa, vid)
            else:
                poa = data.draw(st.sampled_from(sorted(candidates)))
                ids = ref.ids[poa]
                selected = data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=3))
                est.on_broadcast(poa, selected)
                ref.broadcast(poa, selected)
                continue
            assert est.last_event_examined == ref.last_event_examined
            for pid in candidates:
                ids = ref.ids[pid]
                assert counts_by_id(est, pid) == dict(zip(ids, ref.counts[pid].tolist()))
                assert credited_ids(est, pid) == {
                    vid: {ids[i] for i in c} for vid, c in ref.contrib[pid].items()
                }
        assert est.registry == ref.registry

    @given(world=estimator_world(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_batches_match_per_event_scan(self, world, data):
        # Each step moves some vehicles (exit, enter, or both: a switch) and
        # hands them to on_slot_events by slot, as sim.run does: every exit,
        # of a detected vehicle or not, and the detected enters. The
        # reference takes the events that apply one by one, exits first.
        # Then some PoAs broadcast, by one on_broadcasts call and one
        # reference call each.
        p, candidates, profiles = world
        est = RevenueEstimator(p, candidates)
        ref = ScanningEstimator(p, candidates)
        pids = sorted(candidates)
        at = {}  # vehicle id -> (PoA it is under, detected, profile)
        last = peak = 0  # examined by the last event applied, and by any

        def assert_same():
            assert (est.last_event_examined, est.max_event_examined) == (last, peak)
            for pid in pids:
                ids = ref.ids[pid]
                assert counts_by_id(est, pid) == dict(zip(ids, ref.counts[pid].tolist()))
                assert credited_ids(est, pid) == {
                    vid: {ids[i] for i in c} for vid, c in ref.contrib[pid].items()
                }
            assert est.registry == ref.registry

        for _ in range(data.draw(st.integers(1, 8))):
            # an enter of a vehicle present and detected raises and leaves
            # the estimator as it was
            present = sorted(vid for vid, (_, detected, _) in at.items() if detected)
            if present and data.draw(st.booleans()):
                vid = data.draw(st.sampled_from(present))
                poa = data.draw(st.sampled_from(pids))
                was, _, v = at[vid]
                message = (
                    f"vehicle {vid} already present under poa {poa}"
                    if poa == was
                    else f"vehicle {vid} entered poa {poa} while present under poa {was}"
                )
                with pytest.raises(ValueError, match=f"^{message}$"):
                    est.on_vehicle_enter(poa, profiles[vid][data.draw(st.integers(0, 1))], True)
                assert_same()
                # the profile it is present with stays: another one raises
                (other,) = [u for u in profiles[vid] if u is not v]
                with pytest.raises(ValueError, match=f"under poa {was} with another profile"):
                    est.relevance(other)

            exits, enters = [], []
            for vid in sorted(profiles):
                move = data.draw(st.sampled_from(["stay", "exit", "enter", "switch"]))
                if vid in at and move in ("exit", "switch"):
                    exits.append((vid, *at.pop(vid)))
                if vid not in at and move in ("enter", "switch"):
                    v = profiles[vid][data.draw(st.integers(0, 1))]
                    poa, detected = data.draw(st.sampled_from(pids)), data.draw(st.booleans())
                    if detected:
                        enters.append((poa, v))
                    at[vid] = (poa, detected, v)
            exit_slots = est.vehicle_slots([v for *_, v in exits])
            # a vehicle that comes back with another profile object leaves
            # before its slot takes that profile
            leaving = {vid: v for vid, _, detected, v in exits if detected}
            if any(leaving.get(v.vehicle_id, v) is not v for _, v in enters):
                est.on_slot_events(exit_slots, exit_slots[:0], exit_slots[:0])
                exit_slots = exit_slots[:0]
            est.on_slot_events(
                exit_slots,
                est.vehicle_slots([v for _, v in enters]),
                est.poa_rows([poa for poa, _ in enters]),
            )
            last = 0
            for vid, poa, detected, _ in exits:
                if detected:
                    ref.exit(poa, vid)
                    last = ref.last_event_examined
                    peak = max(peak, last)
            for poa, v in enters:
                ref.enter(poa, v, True)
                last = ref.last_event_examined
                peak = max(peak, last)
            assert_same()

            selected = {
                pid: data.draw(st.lists(st.sampled_from(ref.ids[pid]), unique=True, max_size=3))
                for pid in pids
                if data.draw(st.booleans())
            }
            est.on_broadcasts(selected)
            for pid, ids in selected.items():
                ref.broadcast(pid, ids)
            assert_same()

    def test_boundary_ad_is_credited(self):
        on_edge = Ad(ad_id=1, features=np.array([0.25]), base_value=1.0)
        beyond = Ad(ad_id=2, features=np.array([np.nextafter(0.25, 1.0)]), base_value=1.0)
        est = RevenueEstimator(params(d_max=0.25), {0: [on_edge, beyond]})
        est.on_vehicle_enter(0, VehicleProfile(0, np.array([0.0])), detected=True)
        assert (est.revenue(0, 1), est.revenue(0, 2)) == (1.0, 0.0)

    def test_one_scan_per_vehicle(self, monkeypatch):
        scans = []

        def counting(metric, f, others):
            scans.append(len(others))
            return distances_to(metric, f, others)

        monkeypatch.setattr(volfied.broker, "distances_to", counting)
        shared = Ad(ad_id=1, features=np.array([0.1]), base_value=1.0)
        local = Ad(ad_id=2, features=np.array([0.05]), base_value=1.0, target_poa=1)
        est = RevenueEstimator(params(), {0: [shared], 1: [shared, local]})
        v = VehicleProfile(0, np.array([0.0]))
        est.on_vehicle_enter(0, v, detected=False)
        assert scans == []
        for poa in (0, 1, 0):
            est.on_vehicle_enter(poa, v, detected=True)
            est.on_vehicle_exit(poa, 0)
        # one scan over both ads, the union of the two candidate sets
        assert scans == [2]
        est.on_vehicle_enter(1, v, detected=True)
        assert (est.revenue(1, 1), est.revenue(1, 2), est.last_event_examined) == (1.0, 1.0, 2)

    def test_new_profile_under_seen_id_is_rescanned(self):
        near = Ad(ad_id=1, features=np.array([0.0]), base_value=1.0)
        far = Ad(ad_id=2, features=np.array([1.0]), base_value=1.0)
        est = RevenueEstimator(params(), {0: [near, far]})
        est.on_vehicle_enter(0, VehicleProfile(5, np.array([0.0])), detected=True)
        assert (est.revenue(0, 1), est.revenue(0, 2)) == (1.0, 0.0)
        est.on_vehicle_exit(0, 5)
        est.on_vehicle_enter(0, VehicleProfile(5, np.array([1.0])), detected=True)
        assert (est.revenue(0, 1), est.revenue(0, 2)) == (0.0, 1.0)

    def test_new_profile_while_present_rejected(self):
        ad = Ad(ad_id=1, features=np.array([0.0]), base_value=1.0)
        est = RevenueEstimator(params(), {0: [ad]})
        v = VehicleProfile(5, np.array([0.0]))
        est.on_vehicle_enter(0, v, detected=True)
        memo, used = est.relevance(v), est._used
        with pytest.raises(ValueError, match="vehicle 5 is present under poa 0 with another profile"):
            est.relevance(VehicleProfile(5, np.array([1.0])))
        again = est.relevance(v)
        assert [a.tobytes() for a in again] == [a.tobytes() for a in memo]
        assert est._used == used
        est.on_vehicle_exit(0, 5)
        assert est.revenue(0, 1) == 0.0

    def test_one_id_two_ads_rejected(self):
        a = Ad(ad_id=3, features=np.array([0.1]), base_value=1.0)
        b = Ad(ad_id=3, features=np.array([0.2]), base_value=1.0)
        with pytest.raises(ValueError, match="ad id 3"):
            RevenueEstimator(params(), {0: [a], 1: [b]})

    def test_equal_ads_under_one_id_accepted(self):
        a = Ad(ad_id=3, features=np.array([0.1]), base_value=1.0)
        b = Ad(ad_id=3, features=np.array([0.1]), base_value=1.0)
        est = RevenueEstimator(params(), {0: [a], 1: [b]})
        est.on_vehicle_enter(1, VehicleProfile(0, np.array([0.0])), detected=True)
        assert est.revenue(1, 3) == 1.0

    def test_duplicate_ids_at_one_poa_rejected(self):
        a = Ad(ad_id=3, features=np.array([0.1]), base_value=1.0)
        with pytest.raises(ValueError, match="duplicate ad ids in candidates for poa 1"):
            RevenueEstimator(params(), {0: [a], 1: [a, a]})

    def test_first_different_ad_is_named(self):
        ads = [Ad(ad_id=i, features=np.array([0.1 * i]), base_value=1.0) for i in range(3)]
        clash = [Ad(ad_id=i, features=np.array([0.5]), base_value=1.0) for i in (2, 1)]
        with pytest.raises(ValueError, match="ad id 2 names different ads at poa 7"):
            RevenueEstimator(params(), {4: ads, 7: [ads[0], clash[0]], 5: [clash[1]]})

    def test_unknown_ad_id_is_a_key_error(self):
        a = Ad(ad_id=3, features=np.array([0.1]), base_value=1.0)
        est = RevenueEstimator(params(), {0: [a], 1: []})
        with pytest.raises(KeyError):
            est.revenue(0, 4)
        with pytest.raises(KeyError):
            est.on_broadcast(0, [3, 2])
        with pytest.raises(KeyError):
            est.on_broadcast(1, [3])
        # a batch raises the first PoA's error and broadcasts nothing
        est.on_vehicle_enter(0, VehicleProfile(0, np.array([0.1])), detected=True)
        with pytest.raises(KeyError, match=r"not all of \[4\]"):
            est.on_broadcasts({0: [4], 9: [3]})
        with pytest.raises(KeyError, match="9"):
            est.on_broadcasts({0: [3], 9: [3]})
        assert (est.revenue(0, 3), est.registry) == (1.0, {})


def full_scan(p, ads, v):
    """Rows, ids and distances of the union rows within d_max of v, from
    one `distances_to` call over every row, as the estimator once did."""
    union = sorted({a.ad_id: a for a in ads}.values(), key=lambda a: a.ad_id)
    if not union:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    dists = distances_to(p.metric, v.interests, np.stack([a.features for a in union]))
    rows = np.flatnonzero(dists <= p.d_max)
    return rows, np.array([a.ad_id for a in union], dtype=np.int64)[rows], dists[rows]


# Coordinates with ties, differences that round, a far outlier and values
# near +-1e15, where one unit of rounding is 0.125.
_WIDE = st.sampled_from(
    [0.0, 0.1, 0.25, 1 / 3, 0.35, 1.0, -0.75, 3e6, 1e15, 1e15 + 0.125, -1e15, -1e15 - 0.25]
)
# Scales for angular vectors, with norms below 2^-450 and past overflow.
_SCALE = st.sampled_from([1e-150, 1e-3, 1.0, 7.0, 1e3, 1e154])


@st.composite
def window_worlds(draw):
    metric = draw(st.sampled_from([EUCL, ANG]))
    n_dims = draw(st.sampled_from([1, 2, 5]))

    def vector():
        f = np.array(draw(st.lists(_WIDE, min_size=n_dims, max_size=n_dims)))
        if metric is ANG:
            f = (f if f.any() else np.ones(n_dims)) * draw(_SCALE)
        return f

    n_ads = draw(st.integers(0, 12))
    ids = draw(st.permutations(range(n_ads)))
    ads = [Ad(ad_id=7 * i + 3, features=vector(), base_value=1.0) for i in ids]
    if ads and draw(st.booleans()):  # one ad far from the rest
        ads.append(Ad(ad_id=1000, features=np.full(n_dims, 1e12), base_value=1.0))
    profiles = [VehicleProfile(vid, vector()) for vid in range(draw(st.integers(1, 3)))]
    choices = [0.125, 0.25, 1.0, 2.0] + ([np.pi, 4.0] if metric is ANG else [])
    d_max = draw(st.sampled_from(choices))
    if ads and draw(st.booleans()):
        # an ad exactly at d_max, or at the float just past it
        ad = draw(st.sampled_from(ads))
        prof = draw(st.sampled_from(profiles))
        with np.errstate(over="ignore", invalid="ignore"):
            on = float(distances_to(metric, prof.interests, ad.features[None, :])[0])
        edge = draw(st.sampled_from([on, float(np.nextafter(on, 0.0))]))
        if 0.0 < edge < np.inf:
            d_max = edge
    return SelectionParams(k=3, m=1, d_max=d_max, metric=metric), ads, profiles


class TestRelevanceWindow:
    """The windowed scan finds the rows a full `distances_to` scan of the
    union finds, with the same ids and distance bits."""

    @given(world=window_worlds())
    @settings(max_examples=400, deadline=None)
    def test_matches_full_scan(self, world):
        p, ads, profiles = world
        with np.errstate(over="ignore", invalid="ignore"):
            est = RevenueEstimator(p, {0: ads, 1: ads[::2]})
            for v in profiles:
                memo_rows, memo_ids, memo_dists = est.relevance(v)
                rows, ids, dists = full_scan(p, ads, v)
                assert memo_rows.tolist() == rows.tolist()
                assert memo_ids.tolist() == ids.tolist()
                assert memo_dists.tobytes() == dists.tobytes()

    @pytest.mark.parametrize("n_dims", [1, 5])
    def test_boundary_ads_on_every_axis(self, n_dims):
        # 0.25 and the float past it, either way along each axis
        edge, past = 0.25, float(np.nextafter(0.25, 1.0))
        ads = [
            Ad(ad_id=i, features=np.eye(n_dims)[i // 4] * offset, base_value=1.0)
            for i, offset in enumerate([edge, -edge, past, -past] * n_dims)
        ]
        est = RevenueEstimator(params(d_max=edge), {0: ads})
        _, ids, dists = est.relevance(VehicleProfile(0, np.zeros(n_dims)))
        assert ids.tolist() == [i for i in range(4 * n_dims) if i % 4 < 2]
        assert dists.tolist() == [edge] * (2 * n_dims)

    def test_scans_only_the_window(self, monkeypatch):
        scans = []

        def counting(metric, f, others):
            scans.append(len(others))
            return distances_to(metric, f, others)

        monkeypatch.setattr(volfied.broker, "distances_to", counting)
        ads = [Ad(ad_id=i, features=np.array([i / 64, 0.0]), base_value=1.0) for i in range(100)]
        est = RevenueEstimator(params(d_max=5 / 64), {0: ads})
        _, ids, _ = est.relevance(VehicleProfile(0, np.array([50 / 64, 0.0])))
        assert ids.tolist() == list(range(45, 56))
        # only the eleven rows within reach on the first coordinate
        assert scans == [11]

    def test_offsets_whose_squares_underflow(self):
        # 1e-170 squared underflows to 0, so the kernel puts the ad at 0
        ad = Ad(ad_id=1, features=np.array([1e-170, 0.0]), base_value=1.0)
        est = RevenueEstimator(params(d_max=1e-200), {0: [ad]})
        _, ids, dists = est.relevance(VehicleProfile(0, np.zeros(2)))
        assert (ids.tolist(), dists.tolist()) == ([1], [0.0])

    def test_angular_rounded_to_parallel(self):
        # 1e-8 rad apart, ten chords of d_max, but the cosine rounds to 1
        ad = Ad(ad_id=1, features=np.array([1.0, 1e-8]), base_value=1.0)
        p = SelectionParams(k=1, m=1, d_max=1e-9, metric=ANG)
        est = RevenueEstimator(p, {0: [ad]})
        _, ids, dists = est.relevance(VehicleProfile(0, np.array([1.0, 0.0])))
        assert (ids.tolist(), dists.tolist()) == ([1], [0.0])

    def test_angular_subnormal_products(self):
        # The vectors are 0.1005 rad apart, but the kernel's products are
        # subnormal and it puts them 0.0873 apart, a chord 0.013 shorter:
        # norms this small make the window take every row.
        v = VehicleProfile(0, np.array([1e-160, 0.0]))
        feats = np.array([5.171073378946558e-161, 5.211967270584057e-162])
        ad = Ad(ad_id=1, features=feats, base_value=1.0)
        on = float(distances_to(ANG, v.interests, ad.features[None, :])[0])
        p = SelectionParams(k=1, m=1, d_max=on, metric=ANG)
        _, ids, dists = RevenueEstimator(p, {0: [ad]}).relevance(v)
        assert (ids.tolist(), dists.tolist()) == ([1], [on])

    def test_empty_union(self):
        est = RevenueEstimator(params(), {0: []})
        rows, ids, dists = est.relevance(VehicleProfile(0, np.array([0.5])))
        assert (rows.size, ids.size, dists.size) == (0, 0, 0)

    def test_angular_zero_profile_raises(self):
        a = Ad(ad_id=1, features=np.array([1.0, 0.0]), base_value=1.0)
        est = RevenueEstimator(SelectionParams(k=1, m=1, d_max=0.5, metric=ANG), {0: [a]})
        with pytest.raises(ValueError, match="zero vectors"):
            est.relevance(VehicleProfile(0, np.zeros(2)))

    def test_profile_of_other_dimension_raises(self):
        a = Ad(ad_id=1, features=np.array([1.0, 0.0]), base_value=1.0)
        est = RevenueEstimator(params(), {0: [a]})
        with pytest.raises(ValueError, match="3 features"):
            est.relevance(VehicleProfile(0, np.zeros(3)))
