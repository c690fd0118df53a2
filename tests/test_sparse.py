"""Sparse ad-set construction and its structural guarantees.

The worked five-ad instance is hand-traced: sorting by value and removing
everything within 2*eps of each kept ad leaves {a1, a4, a5} with a2 and a3
represented by a1; a second layer over the residual {a2, a3} keeps a2 and
maps a3 to it. An O(N^2) reference greedy cross-checks the grid-indexed
scan on random instances and on a hypothesis property that places ads
exactly 2*eps apart, on cell edges, on top of each other, at negative and
huge coordinates, and in more dimensions than the grid uses.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_within
from volfied import sparse
from volfied.guarantees import check_ball_bound, update_cost_bound, verify_analogue_bound
from volfied.model import Ad, AdTable, DistanceMetric, distances_to, paired_distances
from volfied.sparse import SparseAdSet, SparseApproxParams, m_sparse_set

EUCL = DistanceMetric.EUCLIDEAN
ANG = DistanceMetric.ANGULAR


def line_ads():
    spec = [(1, 0.50, 0.9), (2, 0.52, 0.8), (3, 0.49, 0.7), (4, 0.60, 0.6), (5, 0.70, 0.5)]
    return [Ad(ad_id=i, features=np.array([x]), base_value=r) for i, x, r in spec]


def random_ads(rng, count, n):
    return [
        Ad(ad_id=i, features=rng.uniform(0.01, 1.0, size=n), base_value=float(rng.uniform(0.01, 1.0)))
        for i in range(count)
    ]


def brute_force_epsilon_set(ads, epsilon, metric):
    """Straight transcription of the greedy scan: each kept ad checks
    every pending ad with `distances_to`, no grid."""
    pending = sorted(ads, key=lambda a: (-a.base_value, a.ad_id))
    kept, mapping = [], {}
    while pending:
        top = pending.pop(0)
        kept.append(top)
        if not pending:
            break
        dists = distances_to(metric, top.features, np.stack([b.features for b in pending]))
        survivors = []
        for b, d in zip(pending, dists):
            if d <= 2.0 * epsilon:
                mapping[b.ad_id] = top.ad_id
            else:
                survivors.append(b)
        pending = survivors
    return kept, mapping


def brute_force_m_sparse_set(ads, epsilon, m, metric):
    """(member ids, layers, mapping) of m reference layers, each over the
    residual of the previous ones."""
    members, layers, mapping = [], {}, {}
    residual = list(ads)
    for layer in range(1, m + 1):
        kept, layer_map = brute_force_epsilon_set(residual, epsilon, metric)
        members += [a.ad_id for a in kept]
        layers.update({a.ad_id: layer for a in kept})
        mapping.update(layer_map)
        residual = [a for a in residual if a.ad_id not in layers]
    for ad_id in members:
        mapping.pop(ad_id, None)
    return members, layers, mapping


def assert_matches_brute_force(ads, epsilon, m, metric):
    got = m_sparse_set(ads, epsilon, m, metric)
    members, layers, mapping = brute_force_m_sparse_set(ads, epsilon, m, metric)
    assert got.member_ids() == members
    assert got.layers == layers
    assert got.mapping == mapping


@st.composite
def hard_catalogs(draw):
    """Catalogs on a dyadic lattice of step 2*eps, so lattice neighbours sit
    exactly 2*eps apart, mixed with points on the grid's cell edges, free
    negative coordinates and duplicated points, in 1 to 7 dimensions."""
    metric = draw(st.sampled_from([EUCL, ANG]))
    m = draw(st.integers(1, 3))
    n = draw(st.sampled_from([1, 2, 3, 5, 6, 7]))
    eps = draw(st.sampled_from([2.0**-3, 2.0**-4, 2.0**-6]))
    # the grid's cells are 2*eps * (1 + 2^-20) wide
    step, edge = 2.0 * eps, 2.0 * eps * (1.0 + 2.0**-20)
    coord = st.one_of(
        st.integers(-4, 4).map(lambda k: k * step),
        st.integers(-4, 4).map(lambda k: k * edge),
        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
    )
    rows = draw(st.lists(st.lists(coord, min_size=n, max_size=n), max_size=40))
    if rows and draw(st.booleans()):
        rows += draw(st.lists(st.sampled_from(rows), max_size=8))
    if rows and draw(st.booleans()):
        # an anchor at the lowest edge puts the edge points on the grid's edges
        rows.append([-4 * edge] * n)
    if metric is ANG:
        rows = [r if any(r) else [step] * n for r in rows]
    ids = draw(st.permutations(range(len(rows))))
    count = len(rows)
    values = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=count, max_size=count))
    ads = [
        Ad(ad_id=i, features=np.array(r, dtype=float), base_value=v)
        for i, r, v in zip(ids, rows, values)
    ]
    return ads, eps, m, metric


class TestEpsilonSet:
    def test_line_instance(self):
        out = m_sparse_set(line_ads(), epsilon=0.025, m=1, metric=EUCL)
        assert [a.ad_id for a in out.ads] == [1, 4, 5]
        assert out.mapping == {2: 1, 3: 1}

    def test_singleton(self):
        ads = line_ads()[:1]
        out = m_sparse_set(ads, epsilon=0.025, m=1, metric=EUCL)
        assert [a.ad_id for a in out.ads] == [1]
        assert out.mapping == {}

    def test_empty_input(self):
        out = m_sparse_set([], epsilon=0.025, m=1, metric=EUCL)
        assert list(out.ads) == [] and out.mapping == {}

    def test_all_far_apart_all_kept(self):
        ads = [
            Ad(ad_id=i, features=np.array([float(i)]), base_value=0.5 + 0.01 * i)
            for i in range(6)
        ]
        out = m_sparse_set(ads, epsilon=0.025, m=1, metric=EUCL)
        assert sorted(a.ad_id for a in out.ads) == list(range(6))

    def test_value_tie_broken_by_lower_id(self):
        ads = [
            Ad(ad_id=7, features=np.array([0.50]), base_value=0.5),
            Ad(ad_id=3, features=np.array([0.51]), base_value=0.5),
        ]
        out = m_sparse_set(ads, epsilon=0.025, m=1, metric=EUCL)
        assert [a.ad_id for a in out.ads] == [3]
        assert out.mapping == {7: 3}

    def test_insertion_order_is_value_order(self):
        rng = np.random.default_rng(3)
        out = m_sparse_set(random_ads(rng, 40, 2), epsilon=0.05, m=1, metric=EUCL)
        values = [a.base_value for a in out.ads]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("metric", [EUCL, ANG])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_matches_brute_force(self, metric, n):
        # 7-D exercises the grid's projection onto the first 5 coordinates.
        rng = np.random.default_rng(29)
        for trial in range(20):
            count = int(rng.integers(1, 120))
            eps = float(rng.uniform(0.01, 0.2))
            ads = random_ads(rng, count, n)
            got = m_sparse_set(ads, epsilon=eps, m=1, metric=metric)
            want_kept, want_map = brute_force_epsilon_set(ads, eps, metric)
            assert [a.ad_id for a in got.ads] == [a.ad_id for a in want_kept]
            assert got.mapping == want_map

    @settings(max_examples=300, deadline=None)
    @given(hard_catalogs())
    def test_property_matches_brute_force(self, case):
        ads, eps, m, metric = case
        if metric is ANG and ads:
            # a row whose norm underflows is a zero vector to the kernel
            norms = np.linalg.norm(np.stack([a.features for a in ads]), axis=1)
            if np.any(norms == 0.0):
                with pytest.raises(ValueError, match="zero vector"):
                    m_sparse_set(ads, eps, m, metric)
                return
        assert_matches_brute_force(ads, eps, m, metric)

    @pytest.mark.parametrize("n", [2, 6])
    def test_huge_coordinates_match_brute_force(self, n):
        # Cell keys must not overflow: the span here is ~2e308 against
        # cells of 2e-3, far past int64, so each axis is numbered in runs.
        rng = np.random.default_rng(71)
        big = np.finfo(float).max
        choices = np.array([-big, -1e300, -1e300, -1e-3, 1e-3, 2e-3, 1e300, 1e300, big])
        ads = [
            Ad(ad_id=i, features=rng.choice(choices, size=n), base_value=float(v))
            for i, v in enumerate(rng.uniform(0.1, 1.0, 60))
        ]
        # Differences and norms this large overflow to inf in the kernel,
        # which then reads the pair as far apart, on both sides alike.
        with np.errstate(over="ignore", invalid="ignore"):
            for m in (1, 2):
                assert_matches_brute_force(ads, 1e-3, m, EUCL)
                assert_matches_brute_force(ads, 1e-3, m, ANG)

    def test_angular_rounded_to_parallel_matches_brute_force(self):
        # Rows 1 and 2 are 1e-8 rad from row 0, five cells of the chord
        # 2*sin(epsilon) away on the grid, but their cosines with row 0
        # round to 1, so the kernel puts them at 0: the grid's margin must
        # still pair them. Row 3 is far enough to keep.
        ads = [
            Ad(ad_id=i, features=np.array([1.0, y]), base_value=1.0 - 0.1 * i)
            for i, y in enumerate([0.0, 1e-8, -1e-8, 3e-8])
        ]
        assert_matches_brute_force(ads, 1e-9, 1, ANG)
        assert m_sparse_set(ads, 1e-9, 1, ANG).mapping == {1: 0, 2: 0}

    def test_angular_zero_vector_raises(self):
        ads = [
            Ad(ad_id=1, features=np.array([1.0, 0.0]), base_value=0.9),
            Ad(ad_id=2, features=np.array([0.0, 0.0]), base_value=0.5),
            Ad(ad_id=3, features=np.array([0.0, 1.0]), base_value=0.4),
        ]
        with pytest.raises(ValueError, match="zero vector"):
            m_sparse_set(ads, epsilon=0.01, m=1, metric=ANG)
        with pytest.raises(ValueError, match="zero vector"):
            m_sparse_set(ads, 0.01, 2, ANG)


    def test_outlier_does_not_merge_cells(self, monkeypatch):
        # One ad 1e6 out on every axis must not stretch the grid over the
        # rest: the result is the catalog's own plus the outlier (19,996
        # kept, 5 mapped, 304 in layer 2, as the former all-pairs scan
        # gave), the kernel sees a few candidates per ad, and the scan's
        # temporaries stay small where all pairs would take gigabytes.
        rng = np.random.default_rng(31)
        ads = random_ads(rng, 20_000, 5)
        outlier = Ad(ad_id=20_000, features=np.full(5, 1e6), base_value=0.5)
        base = m_sparse_set(ads, 0.025, 2, EUCL)
        evaluated = []

        def counting(metric, a, b):
            evaluated.append(len(a))
            return paired_distances(metric, a, b)

        monkeypatch.setattr(sparse, "paired_distances", counting)
        tracemalloc.start()
        try:
            got = m_sparse_set(ads + [outlier], 0.025, 2, EUCL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(got.ads), len(got.mapping)) == (19_996, 5)
        assert sum(layer == 2 for layer in got.layers.values()) == 304
        assert got.layers == {**base.layers, 20_000: 1}
        assert got.mapping == base.mapping
        assert sum(evaluated) < 5 * len(ads)
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("metric", [EUCL, ANG])
    def test_shared_cell_matches_brute_force(self, metric):
        # 7-D ads equal on their first five coordinates: the grid must bin
        # the two coordinates that vary.
        rng = np.random.default_rng(37)
        ads = [
            Ad(
                ad_id=i,
                features=np.concatenate([np.ones(5), rng.uniform(0.0, 1.0, 2)]),
                base_value=float(rng.uniform(0.01, 1.0)),
            )
            for i in range(1200)
        ]
        for m in (1, 2):
            assert_matches_brute_force(ads, 0.01, m, metric)


    @pytest.mark.parametrize("metric", [EUCL, ANG])
    def test_packed_cell_matches_brute_force(self, metric):
        # 7-D ads inside one cell on every axis: every ad is a candidate of
        # every other, so the candidate budget, not the block length, cuts
        # the blocks.
        rng = np.random.default_rng(37)
        ads = [
            Ad(
                ad_id=i,
                features=1.0 + rng.uniform(0.0, 0.018, 7),
                base_value=float(rng.uniform(0.01, 1.0)),
            )
            for i in range(1200)
        ]
        eps = 0.01 if metric is EUCL else 0.004
        for m in (1, 2):
            assert_matches_brute_force(ads, eps, m, metric)

    def test_busiest_axes_are_binned(self, monkeypatch):
        # 2*10^4 7-D ads equal on their first five coordinates sparsify as
        # their last two coordinates do (the zeros add nothing to a norm):
        # 11,010 kept, as the grid on the first five coordinates also gave
        # after 4,705 kernel pairs per ad. Binning the two that vary leaves
        # the kernel a few candidates per ad.
        rng = np.random.default_rng(41)
        wide = [
            Ad(
                ad_id=i,
                features=np.concatenate([np.full(5, 0.5), rng.uniform(0.01, 1.0, 2)]),
                base_value=float(rng.uniform(0.01, 1.0)),
            )
            for i in range(20_000)
        ]
        narrow = [Ad(ad_id=a.ad_id, features=a.features[5:], base_value=a.base_value) for a in wide]
        evaluated = []

        def counting(metric, a, b):
            evaluated.append(len(a))
            return paired_distances(metric, a, b)

        monkeypatch.setattr(sparse, "paired_distances", counting)
        got = m_sparse_set(wide, 0.0025, 1, EUCL)
        assert sum(evaluated) < 5 * len(wide)
        want = m_sparse_set(narrow, 0.0025, 1, EUCL)
        assert (len(got.ads), len(got.mapping)) == (11_010, 8_990)
        assert got.member_ids() == want.member_ids()
        assert got.mapping == want.mapping


def binary_with_noise(rng):
    return rng.integers(0, 2, (300, 6)) + rng.normal(0.0, 1e-3, (300, 6))


def outlier_on_every_axis(rng):
    return np.vstack([rng.uniform(0.0, 1.0, (300, 5)), np.full(5, 1e6)])


def runs_on_a_line(rng):
    # 2,000 values a unit apart, a run and a gap cell each, and 100 more
    # within 2*eps of some of them
    x = np.arange(2000.0)
    near = rng.choice(x, 100) + rng.uniform(-0.04, 0.04, 100)
    return rng.permutation(np.concatenate([x, near]))[:, None]


def one_cell(rng):
    return rng.uniform(0.0, 0.01, (300, 4))


def below_norm_floor(rng):
    # norms below the angular kernel's floor give an infinite reach
    return rng.uniform(0.01, 1.0, (200, 3)) * 2.0**-460


class TestCellTable:
    @pytest.mark.parametrize(
        "catalog, metric",
        [
            (binary_with_noise, EUCL),
            (outlier_on_every_axis, EUCL),
            (runs_on_a_line, EUCL),
            (one_cell, EUCL),
            (one_cell, ANG),
            (below_norm_floor, ANG),
        ],
    )
    def test_table_is_bounded_and_result_exact(self, catalog, metric):
        rng = np.random.default_rng(43)
        feats = catalog(rng)
        eps = 0.025
        keys, shifts, cells = sparse._grid(feats, 2.0 * eps, metric)
        # at least one axis binned, within the bound, every run in the table
        assert 3 <= cells <= sparse._CELLS_PER_AD * len(feats) + sparse._CELLS_MIN
        centres = keys[:, None] + shifts
        assert centres.min() >= 1 and centres.max() + 2 <= cells
        ads = [
            Ad(ad_id=i, features=f, base_value=float(v))
            for i, (f, v) in enumerate(zip(feats, rng.uniform(0.01, 1.0, len(feats))))
        ]
        for m in (1, 2):
            assert_matches_brute_force(ads, eps, m, metric)

    def test_single_cell_axes_are_skipped(self):
        # Three constant coordinates and two that vary: only the two are binned.
        rng = np.random.default_rng(47)
        feats = np.hstack([np.full((400, 3), 0.5), rng.uniform(0.0, 1.0, (400, 2))])
        _, shifts, cells = sparse._grid(feats, 0.05, EUCL)
        assert len(shifts) == 3 and cells <= 25**2


class TestMSparseSet:
    def test_line_instance_two_layers(self):
        out = m_sparse_set(line_ads(), epsilon=0.025, m=2, metric=EUCL)
        assert [a.ad_id for a in out.ads] == [1, 4, 5, 2]
        assert out.layers == {1: 1, 4: 1, 5: 1, 2: 2}
        # a3 was last removed in the second layer, by a2 (distance 0.03 <= 0.05)
        assert out.mapping == {3: 2}

    @pytest.mark.parametrize("metric", [EUCL, ANG])
    def test_list_and_table_give_the_same_set(self, metric):
        rng = np.random.default_rng(37)
        ads = random_ads(rng, 400, 3)
        ads[5:9] = [Ad(a.ad_id, ads[4].features, a.base_value) for a in ads[5:9]]  # shared points
        a = m_sparse_set(ads, epsilon=0.08, m=2, metric=metric)
        b = m_sparse_set(AdTable.from_ads(ads), epsilon=0.08, m=2, metric=metric)
        assert len(a.mapping) > 50 and max(a.layers.values()) == 2
        assert [x.ad_id for x in a.ads] == [x.ad_id for x in b.ads]
        assert (a.mapping, a.layers) == (b.mapping, b.layers)
        assert list(a.mapping) == list(b.mapping) and list(a.layers) == list(b.layers)
        # both sets hold the input's own Ad objects
        by_id = {x.ad_id: x for x in ads}
        assert all(x is by_id[x.ad_id] for x in [*a.ads, *b.ads])

    def test_large_m_far_apart_returns_input(self):
        ads = [
            Ad(ad_id=i, features=np.array([float(2 * i)]), base_value=0.9 - 0.1 * i)
            for i in range(4)
        ]
        out = m_sparse_set(ads, epsilon=0.025, m=6, metric=EUCL)
        assert sorted(a.ad_id for a in out.ads) == [0, 1, 2, 3]
        assert out.mapping == {}

    def test_size_nondecreasing_in_m(self):
        rng = np.random.default_rng(37)
        ads = random_ads(rng, 80, 2)
        sizes = [len(m_sparse_set(ads, epsilon=0.08, m=m, metric=EUCL).ads) for m in (1, 2, 3, 4)]
        assert sizes == sorted(sizes)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_layer_spacing_invariant(self, m):
        from volfied.model import distance

        rng = np.random.default_rng(41)
        ads = random_ads(rng, 70, 2)
        eps = 0.07
        out = m_sparse_set(ads, epsilon=eps, m=m, metric=EUCL)
        by_layer = {}
        for a in out.ads:
            by_layer.setdefault(out.layers[a.ad_id], []).append(a)
        for members in by_layer.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    assert distance(EUCL, members[i].features, members[j].features) > 2 * eps

    @pytest.mark.parametrize("m", [1, 2])
    def test_mapping_invariant(self, m):
        from volfied.model import distance

        rng = np.random.default_rng(43)
        ads = random_ads(rng, 70, 2)
        eps = 0.07
        out = m_sparse_set(ads, epsilon=eps, m=m, metric=EUCL)
        members = {a.ad_id: a for a in out.ads}
        originals = {a.ad_id: a for a in ads}
        assert set(out.mapping) | set(members) == set(originals)
        for removed_id, rep_id in out.mapping.items():
            removed, rep = originals[removed_id], members[rep_id]
            assert rep.base_value >= removed.base_value
            assert distance(EUCL, removed.features, rep.features) <= 2 * eps

    def test_determinism(self):
        rng = np.random.default_rng(47)
        ads = random_ads(rng, 90, 3)
        a = m_sparse_set(ads, epsilon=0.05, m=2, metric=EUCL)
        b = m_sparse_set(list(ads), epsilon=0.05, m=2, metric=EUCL)
        assert [x.ad_id for x in a.ads] == [x.ad_id for x in b.ads]
        assert a.mapping == b.mapping and a.layers == b.layers


class TestBallBound:
    def test_one_sparse_random_probes(self):
        rng = np.random.default_rng(53)
        ads = random_ads(rng, 150, 2)
        eps = 0.06
        out = m_sparse_set(ads, epsilon=eps, m=1, metric=EUCL)
        probes = rng.uniform(0.0, 1.0, size=(10_000, 2))
        assert check_ball_bound(out, probes, eps) <= 1

    def test_m_sparse_probes_at_members(self):
        rng = np.random.default_rng(59)
        ads = random_ads(rng, 150, 2)
        eps = 0.06
        out = m_sparse_set(ads, epsilon=eps, m=3, metric=EUCL)
        probes = np.stack([a.features for a in out.ads])
        bound = check_ball_bound(out, probes, eps)
        assert 1 <= bound <= 3

    def test_empty_set(self):
        out = m_sparse_set([], epsilon=0.05, m=1, metric=EUCL)
        assert check_ball_bound(out, np.zeros((4, 1)), 0.05) == 0

    @given(case=hard_catalogs(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_property_matches_all_pairs(self, case, data):
        # Any member set, not only sparse ones; probes on the catalog's own
        # lattice and cell edges, at the members, and a radius copied from a
        # probe-member distance, which puts that pair exactly on the ball.
        ads, eps, m, metric = case
        if not ads:
            return
        members = SparseAdSet(ads=ads, params=SparseApproxParams(eps, m, metric))
        feats = np.stack([a.features for a in ads])
        extra = data.draw(st.lists(st.sampled_from(range(len(ads))), max_size=10))
        probes = np.concatenate([feats[::-1], feats[extra] * data.draw(st.sampled_from([1.0, 0.5, -1.0]))])
        radius = data.draw(st.sampled_from([eps, 2.0 * eps, 0.5, 0.0]))
        try:
            if data.draw(st.booleans()):
                on = float(distances_to(metric, probes[0], feats[-1][None, :])[0])
                radius = on if on > 0 else radius
            want = int(count_within(metric, probes, feats, radius).max())
        except ValueError:  # an angular row whose norm underflows to 0
            with pytest.raises(ValueError, match="zero vectors"):
                check_ball_bound(members, probes, radius)
            return
        assert check_ball_bound(members, probes, radius) == want
        counts = sparse.ball_counts(feats, probes, radius, metric)
        assert counts.tolist() == count_within(metric, probes, feats, radius).tolist()


    def test_radius_zero_counts_equal_members_and_nan_is_named(self):
        members = np.array([[0.1, 0.2], [0.5, 0.5]])
        probes = np.array([[0.1, 0.2], [0.9, 0.9]])
        assert sparse.ball_counts(members, probes, 0.0, EUCL).tolist() == [1, 0]
        # [0.9, 0.9] points the way [0.5, 0.5] does
        assert sparse.ball_counts(members, probes, 0.0, ANG).tolist() == [1, 1]
        for metric in (EUCL, ANG):
            with pytest.raises(ValueError, match="radius must be a number, got nan"):
                sparse.ball_counts(members, probes, math.nan, metric)


class TestUpdateCostBound:
    def test_quarter_ratio_n5(self):
        params = SparseApproxParams(epsilon=0.0375, m=1, metric=EUCL)
        assert update_cost_bound(params, d_max=0.15, n=5, set_size=100_000) == 1024

    def test_unit_ratio_n1(self):
        params = SparseApproxParams(epsilon=0.15, m=1, metric=EUCL)
        assert update_cost_bound(params, d_max=0.15, n=1, set_size=10) == 1

    def test_half_ratio_m2_n2(self):
        params = SparseApproxParams(epsilon=0.075, m=2, metric=EUCL)
        assert update_cost_bound(params, d_max=0.15, n=2, set_size=50) == 16

    def test_small_set_caps_bound(self):
        params = SparseApproxParams(epsilon=0.0375, m=1, metric=EUCL)
        assert update_cost_bound(params, d_max=0.15, n=5, set_size=7) == 7

    @pytest.mark.parametrize(
        "epsilon, d_max, n",
        [(0.025, 0.15, 400), (1e-300, 0.15, 5), (0.025, math.inf, 5)],
    )
    def test_packing_past_float_range_caps_at_set_size(self, epsilon, d_max, n):
        params = SparseApproxParams(epsilon=epsilon, m=1, metric=EUCL)
        assert update_cost_bound(params, d_max=d_max, n=n, set_size=123) == 123

    @pytest.mark.parametrize(
        "d_max, n, set_size", [(math.nan, 5, 10), (0.0, 5, 10), (0.15, 0, 10), (0.15, 5, -1)]
    )
    def test_out_of_range_named(self, d_max, n, set_size):
        params = SparseApproxParams(epsilon=0.0375, m=1, metric=EUCL)
        want = f"d_max > 0, n >= 1, set_size >= 0, got {d_max}, {n}, {set_size}"
        with pytest.raises(ValueError, match=want):
            update_cost_bound(params, d_max=d_max, n=n, set_size=set_size)
        assert update_cost_bound(params, d_max=0.15, n=5, set_size=0) == 0


class TestVerifyAnalogueBound:
    def test_empty_s_true(self):
        rng = np.random.default_rng(61)
        ads = random_ads(rng, 8, 2)
        sparse = m_sparse_set(ads, epsilon=0.03, m=1, metric=EUCL)
        assert verify_analogue_bound(ads, sparse, [], d_max=0.2, vehicles=[])

    def test_s_inside_sparse_true(self):
        rng = np.random.default_rng(67)
        ads = random_ads(rng, 8, 2)
        sparse = m_sparse_set(ads, epsilon=0.03, m=1, metric=EUCL)
        member_ids = [a.ad_id for a in sparse.ads][:2]
        vehicles = [rng.uniform(0.0, 1.0, size=2) for _ in range(5)]
        # members of the sparse set admit the identity bijection
        assert verify_analogue_bound(ads, sparse, member_ids, d_max=0.2, vehicles=vehicles)

    def test_enumeration_budget_enforced(self):
        ads = [
            Ad(ad_id=i, features=np.array([float(i)]), base_value=0.5) for i in range(16)
        ]
        sparse = m_sparse_set(ads, epsilon=0.025, m=1, metric=EUCL)
        assert len(sparse.ads) == 16
        with pytest.raises(ValueError, match="15"):
            verify_analogue_bound(ads, sparse, [0], d_max=0.2, vehicles=[])

    # a at 0 (value 1.0), b at 1.5*eps (0.5), c at 3*eps (0.9); d_max = 3*eps,
    # one vehicle sitting on b. b's only value-dominating survivors lie in
    # the (eps, 2*eps] shell.
    EPS = 0.05
    D_MAX = 3 * EPS

    def shell_line(self):
        spec = [(1, 0.0, 1.0), (2, 1.5 * self.EPS, 0.5), (3, 3.0 * self.EPS, 0.9)]
        ads = [Ad(ad_id=i, features=np.array([x]), base_value=r) for i, x, r in spec]
        return ads, [np.array([1.5 * self.EPS])]

    def single(self, ad):
        params = SparseApproxParams(epsilon=self.EPS, m=1, metric=EUCL)
        return SparseAdSet(ads=[ad], params=params)

    def test_representative_in_shell_verifies(self):
        ads, vehicles = self.shell_line()
        sparse = m_sparse_set(ads, epsilon=self.EPS, m=1, metric=EUCL)
        assert sparse.member_ids() == [1, 3]
        assert sparse.mapping == {2: 1}
        gap = abs(float(ads[0].features[0] - ads[1].features[0]))
        assert self.EPS < gap <= 2 * self.EPS
        assert verify_analogue_bound(ads, sparse, [2], d_max=self.D_MAX, vehicles=vehicles)
        # keeping b as well, which an epsilon radius would need, puts two
        # members in one epsilon-ball
        both = SparseAdSet(ads=ads[:2], params=sparse.params)
        assert check_ball_bound(both, [[0.75 * self.EPS]], self.EPS) == 2

    def test_dominating_member_beyond_two_epsilon_fails(self):
        ads, vehicles = self.shell_line()
        far = Ad(ad_id=4, features=np.array([-self.EPS]), base_value=1.0)
        # 2.5*eps from b, close enough to earn on the vehicle at b
        assert verify_analogue_bound(
            ads, self.single(far), [2], d_max=self.D_MAX, vehicles=vehicles
        ) is False

    def test_lower_value_member_within_two_epsilon_fails(self):
        ads, vehicles = self.shell_line()
        near = Ad(ad_id=4, features=np.array([2.5 * self.EPS]), base_value=0.4)
        # a second vehicle that only the stand-in reaches lifts its revenue
        # over b's conservative revenue, leaving only the value clause
        vehicles = vehicles + [np.array([4.5 * self.EPS])]
        assert verify_analogue_bound(
            ads, self.single(near), [2], d_max=self.D_MAX, vehicles=vehicles
        ) is False

    def test_epsilon_larger_than_half_dmax_warns(self):
        ads = [Ad(ad_id=0, features=np.array([0.5]), base_value=0.5)]
        sparse = m_sparse_set(ads, epsilon=0.2, m=1, metric=EUCL)
        with pytest.warns(UserWarning):
            verify_analogue_bound(ads, sparse, [], d_max=0.1, vehicles=[])


class TestParams:
    def test_epsilon_positive_required(self):
        with pytest.raises(ValueError):
            SparseApproxParams(epsilon=0.0, m=1, metric=EUCL)

    @pytest.mark.parametrize("epsilon", [-1.0, float("nan"), float("inf")])
    def test_epsilon_finite_and_positive_required(self, epsilon):
        with pytest.raises(ValueError, match="epsilon must be"):
            SparseApproxParams(epsilon=epsilon, m=1, metric=EUCL)

    def test_m_at_least_one(self):
        with pytest.raises(ValueError):
            SparseApproxParams(epsilon=0.05, m=0, metric=EUCL)
