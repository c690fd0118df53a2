"""Revenue estimator bookkeeping and the three selection strategies.

Estimator expectations are frozen from the additive definition (value times
number of contributing vehicles) and cross-checked by full recomputation;
selection expectations are hand-traces of the greedy scan.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    is_relevant,
)

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
                is_relevant(a, v, poa_id, d_max, metric)
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
        with pytest.raises(ValueError):
            est.on_vehicle_enter(0, VehicleProfile(0, np.array([0.5])), detected=True)


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
        assert not is_conflict_free([a1, a2], [v], params(m=1))
        assert is_conflict_free([a1], [v], params(m=1))
        assert is_conflict_free([], [v], params(m=1))

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
            assert is_conflict_free(chosen, profiles, p)
            assert structurally_conflict_free(chosen, p)


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
        with pytest.warns(UserWarning):
            SelectionParams(k=1, m=2, d_max=0.15, metric=EUCL)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            SelectionParams(k=0, m=1, d_max=0.15, metric=EUCL)
        with pytest.raises(ValueError):
            SelectionParams(k=1, m=1, d_max=0.0, metric=EUCL)


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
                assert est._poas[pid].counts.tolist() == ref.counts[pid].tolist()
                assert est._poas[pid].contrib == ref.contrib[pid]
        assert est.registry == ref.registry

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
