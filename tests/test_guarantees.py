"""The block checks of `guarantees` against pair-by-pair definitions.

Each check decides its pairs from one `paired_distances` block. The
references here walk the pairs one `model.distance` call at a time, in the
order the checks promise to consult them, so a zero vector under the
angular metric must raise at the same point, or not at all. Each case puts
one pair exactly at 2*d_max, its distance copied from the kernel.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from volfied import guarantees
from volfied.broker import SelectionParams
from volfied.guarantees import is_conflict_free, structurally_conflict_free
from volfied.model import Ad, DistanceMetric, distance

EUCL = DistanceMetric.EUCLIDEAN
ANG = DistanceMetric.ANGULAR


def walk_structural(feats, params):
    """Each row against every earlier row, the later row first."""
    for i in range(1, len(feats)):
        near = [distance(params.metric, feats[i], feats[j]) <= 2.0 * params.d_max for j in range(i)]
        if sum(near) >= params.m:
            return False
    return True


def walk_cliques(feats, threshold, m, metric):
    """The (m+1)-subsets in order, each pair the earlier row first, up to
    the first pair not within `threshold`."""
    for combo in itertools.combinations(range(len(feats)), m + 1):
        if all(
            distance(metric, feats[i], feats[j]) <= threshold
            for i, j in itertools.combinations(combo, 2)
        ):
            return False
    return True


def outcome(check, *args):
    """The check's answer, or the message of the ValueError it raised."""
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


@st.composite
def ordered_sets(draw):
    """1-7 rows of 1-4 features on a coarse lattice (zero rows included)
    or anywhere in [-1, 1] (subnormal rows included), and params whose
    2*d_max is a drawn pair's kernel distance where that is positive."""
    metric = draw(st.sampled_from([EUCL, ANG]))
    n = draw(st.integers(1, 4))
    coord = st.one_of(
        st.integers(-2, 2).map(lambda k: k * 0.25),
        st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False),
    )
    feats = np.array(draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=7)))
    i, j = draw(st.integers(0, len(feats) - 1)), draw(st.integers(0, len(feats) - 1))
    d_max = draw(st.sampled_from([0.1, 0.3, 1.0]))
    try:
        d_max = distance(metric, feats[max(i, j)], feats[min(i, j)]) / 2.0 or d_max
    except ValueError:  # a zero vector under the angular metric
        pass
    return feats, SelectionParams(k=3, m=draw(st.integers(1, 3)), d_max=d_max, metric=metric)


@given(case=ordered_sets())
@settings(max_examples=400, deadline=None)
def test_block_checks_match_pair_walks(case):
    feats, params = case
    ads = [Ad(ad_id=i, features=f, base_value=1.0) for i, f in enumerate(feats)]
    want = outcome(walk_structural, feats, params)
    assert outcome(structurally_conflict_free, ads, params) == want
    threshold = 2.0 * params.d_max
    want = outcome(walk_cliques, feats, threshold, params.m, params.metric)
    near = guarantees._within(params.metric, feats, feats, threshold)
    assert outcome(guarantees._clique_free, near, range(len(feats)), params.m) == want


def test_zero_probe_raises_the_kernel_error_under_angular():
    ads = [Ad(ad_id=1, features=np.array([1.0, 0.0]), base_value=1.0)]
    probes = np.array([[0.5, 0.5], [0.0, 0.0]])
    params = SelectionParams(k=1, m=1, d_max=0.3, metric=ANG)
    with pytest.raises(ValueError, match="zero vectors"):
        is_conflict_free(ads, probes, params)
