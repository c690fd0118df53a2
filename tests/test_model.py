"""Distance metrics, relevance, and value rules.

Expected values are frozen from hand computation (special angles, known
norms) and cross-checked against a naive normalize-then-acos reference
implemented independently here.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import estimator
from volfied.broker import SelectionParams
import volfied.model
from volfied.model import (
    Ad,
    AdTable,
    DistanceMetric,
    PoA,
    VehicleProfile,
    ad_value,
    as_features,
    count_within,
    distance,
    distances_to,
    paired_distances,
    rank_for_profile,
)

EUCL = DistanceMetric.EUCLIDEAN
ANG = DistanceMetric.ANGULAR


def naive_angular(f1, f2):
    """Reference: normalize first, then acos of the clamped dot product."""
    u1 = np.asarray(f1, float) / np.linalg.norm(f1)
    u2 = np.asarray(f2, float) / np.linalg.norm(f2)
    return math.acos(max(-1.0, min(1.0, float(np.dot(u1, u2)))))


class TestDistance:
    def test_euclidean_known_values(self):
        assert distance(EUCL, np.array([0.3, 0.4]), np.array([0.0, 0.0])) == 0.5
        assert distance(EUCL, np.array([1.0, 1.0]), np.array([0.0, 0.0])) == pytest.approx(
            1.4142135623730951, abs=0
        )

    def test_angular_right_angle(self):
        # arccos(0) = pi/2
        d = distance(ANG, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert d == pytest.approx(1.5707963267948966, abs=1e-15)

    def test_angular_45_degrees(self):
        d = distance(ANG, np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert d == pytest.approx(0.7853981633974483, abs=1e-12)

    def test_angular_identical_vectors_is_zero(self):
        # The uncorrected 1 - cos_sim form would give pi/2 here.
        f = np.array([0.5, 0.5])
        assert distance(ANG, f, f.copy()) == 0.0
        rows = np.array([[0.1, 0.9], [0.5, 0.5]])
        assert distances_to(ANG, f, rows)[1] == 0.0

    def test_angular_scale_invariant(self):
        f1 = np.array([0.2, 0.7, 0.1])
        f2 = np.array([0.5, 0.1, 0.9])
        assert distance(ANG, f1, f2) == pytest.approx(distance(ANG, 3.0 * f1, f2), abs=1e-12)

    def test_angular_matches_naive_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            f1 = rng.uniform(0.01, 1.0, size=5)
            f2 = rng.uniform(0.01, 1.0, size=5)
            assert distance(ANG, f1, f2) == pytest.approx(naive_angular(f1, f2), abs=1e-12)

    def test_zero_vector_raises_angular(self):
        with pytest.raises(ValueError):
            distance(ANG, np.zeros(3), np.ones(3))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            distance(EUCL, np.ones(2), np.ones(3))


class TestMetricAxioms:
    """Symmetry exact, self-distance ~0, triangle inequality at 1e-9."""

    @pytest.mark.parametrize("metric", [EUCL, ANG])
    def test_symmetry_exact(self, metric):
        rng = np.random.default_rng(11)
        for _ in range(500):
            f1 = rng.uniform(0.01, 1.0, size=5)
            f2 = rng.uniform(0.01, 1.0, size=5)
            assert distance(metric, f1, f2) == distance(metric, f2, f1)

    @pytest.mark.parametrize("metric", [EUCL, ANG])
    def test_self_distance(self, metric):
        rng = np.random.default_rng(13)
        for _ in range(500):
            f = rng.uniform(0.01, 1.0, size=5)
            assert distance(metric, f, f) <= 1e-12

    @pytest.mark.parametrize("metric", [EUCL, ANG])
    def test_triangle_inequality_10k_triples(self, metric):
        rng = np.random.default_rng(17)
        a = rng.uniform(0.0, 1.0, size=(10_000, 5)) + 1e-9
        b = rng.uniform(0.0, 1.0, size=(10_000, 5)) + 1e-9
        c = rng.uniform(0.0, 1.0, size=(10_000, 5)) + 1e-9
        violations = 0
        for i in range(10_000):
            dac = distance(metric, a[i], c[i])
            dab = distance(metric, a[i], b[i])
            dbc = distance(metric, b[i], c[i])
            if dac > dab + dbc + 1e-9:
                violations += 1
        assert violations == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        pts = rng.uniform(0.01, 1.0, size=(3, n))
        for metric in (EUCL, ANG):
            dac = distance(metric, pts[0], pts[2])
            dab = distance(metric, pts[0], pts[1])
            dbc = distance(metric, pts[1], pts[2])
            assert dac <= dab + dbc + 1e-9


class TestBatchConsistency:
    @pytest.mark.parametrize("metric", [EUCL, ANG])
    def test_distances_to_matches_scalar(self, metric):
        rng = np.random.default_rng(19)
        f = rng.uniform(0.01, 1.0, size=5)
        others = rng.uniform(0.01, 1.0, size=(64, 5))
        batch = distances_to(metric, f, others)
        for i in range(64):
            assert batch[i] == distance(metric, f, others[i])

    @pytest.mark.parametrize("metric", [EUCL, ANG])
    def test_scalar_is_batch_with_roles_swapped(self, metric):
        # The vehicle side asks distance(ad, profile) and the broker asks
        # distances_to(profile, ads): both must give the same bits, or an ad
        # on the d_max sphere is relevant to one side and not the other.
        rng = np.random.default_rng(31)
        for n in (2, 3, 5, 9):
            for _ in range(300):
                a = rng.uniform(0.01, 1.0, size=n)
                b = rng.uniform(0.01, 1.0, size=n)
                assert distance(metric, a, b) == distances_to(metric, b, a[None])[0]

    @pytest.mark.parametrize("metric", [EUCL, ANG])
    def test_row_depends_on_that_row_alone(self, metric):
        # The estimator scans the union of all PoAs' candidates once per
        # vehicle, so a row's distance must be the same bits whatever its
        # position and whichever rows come with it.
        rng = np.random.default_rng(29)
        for n in (2, 3, 5, 9):
            f = rng.uniform(0.01, 1.0, size=n)
            others = rng.uniform(0.01, 1.0, size=(200, n))
            full = distances_to(metric, f, others)
            subset = rng.permutation(200)[:57]
            assert np.array_equal(distances_to(metric, f, others[subset]), full[subset])
            for i in range(200):
                assert distances_to(metric, f, others[i : i + 1])[0] == full[i]

    @pytest.mark.parametrize("metric", [EUCL, ANG])
    def test_paired_matches_scalar(self, metric):
        # The sparsifier decides index pairs and the conflict and ball
        # checks decide broadcast blocks with paired_distances; each entry
        # must be the one-row distances_to bits, or a pair on the threshold
        # is decided one way there and the other way everywhere else.
        rng = np.random.default_rng(23)
        for n in (2, 3, 5, 9):
            a = rng.uniform(-1.0, 1.0, size=(12, n))
            b = rng.uniform(-1.0, 1.0, size=(9, n))
            block = paired_distances(metric, a[:, None, :], b[None, :, :])
            assert block.shape == (12, 9)
            first = rng.integers(0, 12, size=40)
            second = rng.integers(0, 9, size=40)
            rows = paired_distances(metric, a[first], b[second])
            for i in range(12):
                for j in range(9):
                    assert block[i, j] == distances_to(metric, a[i], b[j][None])[0]
            for k in range(40):
                assert rows[k] == distances_to(metric, a[first[k]], b[second[k]][None])[0]

    @pytest.mark.parametrize("metric", [EUCL, ANG])
    def test_count_within_matches_scalar(self, metric, monkeypatch):
        # A block of 3 points at a time exercises the chunking, and radii
        # copied from the kernel put targets exactly on the boundary.
        import volfied.model as model

        rng = np.random.default_rng(37)
        for n in (2, 3, 5, 9):
            points = rng.uniform(-1.0, 1.0, size=(20, n))
            targets = rng.uniform(-1.0, 1.0, size=(7, n))
            monkeypatch.setattr(model, "_BLOCK_BYTES", 3 * targets.nbytes)
            for radius in distances_to(metric, points[0], targets)[:4]:
                want = [
                    sum(distances_to(metric, p, t[None])[0] <= radius for t in targets)
                    for p in points
                ]
                assert count_within(metric, points, targets, radius).tolist() == want


@st.composite
def feature_blocks(draw):
    """1-16 features per row, entries of either sign from 1e-200, whose
    squares are subnormal or 0, to 1e160, whose squares overflow; rows of
    one magnitude or of many, and exact zeros."""
    n = draw(st.integers(1, 16))
    rows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low, high = sorted(draw(st.integers(-200, 159)) for _ in range(2))
    exponents = rng.integers(low, high + 1, size=(rows, n))
    block = rng.uniform(-9.99, 9.99, size=(rows, n)) * 10.0 ** exponents
    block[rng.random((rows, n)) < 0.1] = 0.0
    return block


class TestNormKernel:
    """The kernel's 2-norm is `np.linalg.norm(x, axis=-1)` without the
    wrapper: the same bits, also where squares underflow or overflow."""

    @given(x=feature_blocks(), y=feature_blocks())
    @settings(max_examples=400, deadline=None)
    def test_same_bits_as_linalg_norm(self, x, y):
        import volfied.model as model

        with np.errstate(over="ignore", invalid="ignore"):
            assert model._norms(x).tobytes() == np.linalg.norm(x, axis=-1).tobytes()
            if x.shape[1] == y.shape[1]:
                a, b = x[:1], y
                want = np.linalg.norm(b - a, axis=-1)
                assert paired_distances(EUCL, a, b).tobytes() == want.tobytes()


class TestAdValueAndRelevance:
    def test_global_ad_value_everywhere(self):
        ad = Ad(ad_id=1, features=np.array([0.5, 0.5]), base_value=0.8)
        assert ad_value(ad, 0) == 0.8
        assert ad_value(ad, 7) == 0.8
        assert ad_value(ad, None) == 0.8

    def test_local_ad_value_only_at_target(self):
        ad = Ad(ad_id=2, features=np.array([0.5, 0.5]), base_value=0.6, target_poa=3)
        assert ad_value(ad, 3) == 0.6
        assert ad_value(ad, 4) == 0.0
        assert ad_value(ad, None) == 0.0

    def test_relevance_boundary_ties_relevant(self):
        v = VehicleProfile(vehicle_id=0, interests=np.array([0.0, 0.0]))
        at_threshold = Ad(ad_id=1, features=np.array([0.15, 0.0]), base_value=0.5)
        just_outside = Ad(ad_id=2, features=np.array([0.150001, 0.0]), base_value=0.5)
        assert rank_for_profile([at_threshold], v, 0, 0.15, EUCL)
        assert not rank_for_profile([just_outside], v, 0, 0.15, EUCL)

    def test_local_ad_irrelevant_off_target(self):
        v = VehicleProfile(vehicle_id=0, interests=np.array([0.5, 0.5]))
        ad = Ad(ad_id=1, features=np.array([0.5, 0.5]), base_value=0.5, target_poa=2)
        assert rank_for_profile([ad], v, 2, 0.1, EUCL)
        assert not rank_for_profile([ad], v, 1, 0.1, EUCL)
        assert not rank_for_profile([ad], v, None, 0.1, EUCL)


class TestValidation:
    def test_nonpositive_base_value_rejected(self):
        with pytest.raises(ValueError):
            Ad(ad_id=1, features=np.array([0.5]), base_value=0.0)

    def test_nonfinite_features_rejected(self):
        with pytest.raises(ValueError):
            Ad(ad_id=1, features=np.array([np.nan, 0.5]), base_value=0.5)
        with pytest.raises(ValueError):
            VehicleProfile(vehicle_id=0, interests=np.array([np.inf]))

    def test_feature_shape_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            Ad(ad_id=1, features=np.zeros((2, 2)), base_value=0.5)
        with pytest.raises(ValueError, match="1-D"):
            VehicleProfile(vehicle_id=0, interests=np.float64(0.5))
        with pytest.raises(ValueError, match="expected 3 features"):
            as_features([0.1, 0.2], n=3)

    def test_validated_float_array_is_kept(self):
        ad = Ad(ad_id=1, features=np.array([1, 2]), base_value=0.5)
        profile = VehicleProfile(vehicle_id=0, interests=[1, 2])
        for f in (ad.features, profile.interests):
            assert isinstance(f, np.ndarray) and f.dtype == np.float64
            assert f.tolist() == [1.0, 2.0]
        # a list of interests goes through the estimator's enter and revenue
        est = estimator(SelectionParams(k=1, m=1, d_max=0.5, metric=EUCL), {0: [ad]})
        est.on_vehicle_enter(0, VehicleProfile(vehicle_id=1, interests=[1.0, 2.25]), True)
        assert est.revenue(0, 1) == 0.5

    @pytest.mark.parametrize("target", [-1, -3])
    def test_negative_target_poa_rejected(self, target):
        # -1 would read as Global in an AdTable
        with pytest.raises(ValueError, match=f"^ad 1: target_poa must be >= 0, got {target}$"):
            Ad(ad_id=1, features=np.array([0.5]), base_value=1.0, target_poa=target)

    def test_negative_poa_id_rejected(self):
        with pytest.raises(ValueError, match="^poa -3: poa_id must be >= 0$"):
            PoA(poa_id=-3, x_m=0.0, y_m=0.0, range_m=150.0)

    def test_poa_range_positive(self):
        with pytest.raises(ValueError):
            PoA(poa_id=0, x_m=0.0, y_m=0.0, range_m=0.0)

    @pytest.mark.parametrize(
        "x, y, r", [(np.nan, 0.0, 100.0), (0.0, -np.inf, 100.0), (0.0, 0.0, np.inf)]
    )
    def test_nonfinite_poa_rejected(self, x, y, r):
        # a NaN PoA would win every coverage argmin and uncover all vehicles
        with pytest.raises(ValueError, match="poa 3: x_m, y_m and range_m must be finite"):
            PoA(poa_id=3, x_m=x, y_m=y, range_m=r)

    def test_infinite_base_value_rejected(self):
        with pytest.raises(ValueError, match="ad 1: base_value must be finite, got inf"):
            Ad(ad_id=1, features=np.array([0.5]), base_value=np.inf)


class TestAdTable:
    def table(self):
        feats = [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]
        return AdTable([7, 3, 9], feats, [0.5, 1.5, 2.0], [-1, 4, -1])

    def test_rows_are_ads_built_once(self, monkeypatch):
        t = self.table()
        # rows come from the validated arrays: no feature check runs again
        monkeypatch.setattr(volfied.model, "as_features", None)
        assert t[1] is t[1] and t[-2] is t[1] and list(t)[1] is t[1]
        assert [(a.ad_id, a.base_value, a.target_poa) for a in t] == [
            (7, 0.5, None), (3, 1.5, 4), (9, 2.0, None)
        ]
        assert all(type(a.ad_id) is int and type(a.base_value) is float for a in t)
        assert t[2].features.tolist() == [0.5, 0.6] and t[2].is_global
        with pytest.raises(IndexError):
            t[3]

    def test_slices_share_the_rows(self):
        t = self.table()
        first = t[0]
        mask = np.array([False, True, True])
        for taken, rows in ((t[1:], [1, 2]), (t[np.array([2, 0])], [2, 0]), (t[mask], [1, 2])):
            assert taken.ids.tolist() == t.ids[rows].tolist()
            assert len(taken) == len(rows) and all(a is t[i] for a, i in zip(taken, rows))
        assert t[np.array([2, 0])][np.array([1])][0] is first
        # a row first built through a slice of a slice is the table's row too
        fresh = self.table()
        assert fresh[::2][1:][0] is fresh[2]

    def test_from_ads_keeps_the_objects(self):
        ads = [
            Ad(ad_id=4, features=[1.0, 2.0], base_value=0.5),
            Ad(ad_id=2, features=[3.0, 4.0], base_value=0.25, target_poa=0),
        ]
        t = AdTable.from_ads(ads)
        assert list(t) == ads and all(a is b for a, b in zip(t, ads))
        assert t.ids.tolist() == [4, 2] and t.target_poa.tolist() == [-1, 0]
        assert t[np.array([1])][0] is ads[1]
        assert AdTable.from_ads(t) is t
        assert len(AdTable.from_ads([])) == 0

    def test_arrays_are_read_only(self):
        t = self.table()
        for array in (t.ids, t.features, t.base_values, t.target_poa, t[0].features):
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize(
        "row, message",
        [
            ((5, [np.nan, 0.1], 1.0, -1), "feature vector contains non-finite values"),
            ((5, [0.1, 0.1], 0.0, -1), "ad 5: base_value must be > 0, got 0.0"),
            ((5, [0.1, 0.1], np.nan, -1), "ad 5: base_value must be > 0, got nan"),
            ((5, [0.1, 0.1], np.inf, -1), "ad 5: base_value must be finite, got inf"),
            ((5, [0.1, 0.1], 1.0, -2), "ad 5: target_poa must be >= 0, got -2"),
            ((1, [0.1, 0.1], 1.0, -1), "ad_id 1 repeats row 0"),
        ],
    )
    def test_first_bad_row_named(self, row, message):
        # row 1 is fine; the bad row 2 is named, not the later bad row 3
        rows = [(1, [0.0, 0.0], 1.0, -1), (2, [0.5, 0.5], 1.0, 3), row, (6, [np.inf, 0], -1, -5)]
        with pytest.raises(ValueError) as info:
            AdTable(*map(list, zip(*rows)))
        assert str(info.value) == message

    def test_from_ads_rejects_what_a_table_cannot_hold(self):
        with pytest.raises(ValueError, match="ad 1: target_poa must be >= 0, got -1"):
            AdTable.from_ads([Ad(ad_id=1, features=[0.5], base_value=1.0, target_poa=-1)])
        with pytest.raises(ValueError, match="ad_id 1 repeats row 0"):
            AdTable.from_ads([Ad(ad_id=1, features=[0.5], base_value=1.0)] * 2)
        with pytest.raises(ValueError, match="64 bits"):
            AdTable([2**63], [[0.5]], [1.0], [-1])
        with pytest.raises(ValueError, match=r"want \(N, n\) features"):
            AdTable([1], [0.5], [1.0], [-1])
