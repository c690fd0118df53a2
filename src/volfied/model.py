"""Core domain types: ads, points of access, vehicle profiles, distances.

Ads and vehicle interest profiles live in the same n-dimensional feature
space. Relevance of an ad to a vehicle is a distance threshold test plus a
scope rule: Global ads are eligible everywhere, Local ads only under their
target PoA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Container, Iterable

import numpy as np

__all__ = [
    "DistanceMetric",
    "Ad",
    "PoA",
    "VehicleProfile",
    "as_features",
    "distance",
    "distances_to",
    "paired_distances",
    "count_within",
    "window_points",
    "ad_value",
    "is_relevant",
    "rank_relevant",
    "rank_for_profile",
]

# Features are 1-D float arrays of a common dimension n.
FeatureVector = np.ndarray


class DistanceMetric(Enum):
    EUCLIDEAN = "euclidean"
    ANGULAR = "angular"


def as_features(coords, n: int | None = None) -> FeatureVector:
    """Validate and convert coordinates to a feature vector.

    Raises ValueError on non-finite entries or (when n is given) a
    dimension mismatch.
    """
    f = np.asarray(coords, dtype=float)
    if f.ndim != 1:
        raise ValueError(f"feature vector must be 1-D, got shape {f.shape}")
    if n is not None and f.shape[0] != n:
        raise ValueError(f"expected {n} features, got {f.shape[0]}")
    if not np.isfinite(f).all():
        raise ValueError("feature vector contains non-finite values")
    return f


@dataclass(frozen=True, eq=False)
class Ad:
    """An ad in feature space. target_poa None means Global scope."""

    ad_id: int
    features: FeatureVector  # shape (n,)
    base_value: float
    target_poa: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", as_features(self.features))
        if not self.base_value > 0:
            raise ValueError(f"ad {self.ad_id}: base_value must be > 0, got {self.base_value}")
        if not math.isfinite(self.base_value):
            raise ValueError(f"ad {self.ad_id}: base_value must be finite, got {self.base_value}")

    @property
    def is_global(self) -> bool:
        return self.target_poa is None


@dataclass(frozen=True)
class PoA:
    """Point of access (roadside broadcast unit) with a circular range."""

    poa_id: int
    x_m: float
    y_m: float
    range_m: float

    def __post_init__(self):
        if not self.range_m > 0:
            raise ValueError(f"poa {self.poa_id}: range_m must be > 0, got {self.range_m}")
        if not all(map(math.isfinite, (self.x_m, self.y_m, self.range_m))):
            raise ValueError(
                f"poa {self.poa_id}: x_m, y_m and range_m must be finite, "
                f"got {self.x_m}, {self.y_m}, {self.range_m}"
            )


@dataclass(frozen=True, eq=False)
class VehicleProfile:
    """A vehicle's static interest profile in feature space."""

    vehicle_id: int
    interests: FeatureVector  # shape (n,)

    def __post_init__(self):
        object.__setattr__(self, "interests", as_features(self.interests))


def distance(metric: DistanceMetric, f1: FeatureVector, f2: FeatureVector) -> float:
    """Distance between two feature vectors: the one-row case of
    `distances_to`, so a pair gets the same bits on every code path."""
    return float(distances_to(metric, f1, np.asarray(f2, dtype=float)[None, :])[0])


def distances_to(metric: DistanceMetric, f: FeatureVector, others: np.ndarray) -> np.ndarray:
    """Distances from one vector to each row of `others` (shape (m, n)):
    `paired_distances` with `f` as every row's partner."""
    f = np.asarray(f, dtype=float)
    others = np.asarray(others, dtype=float)
    if f.ndim != 1 or others.ndim != 2 or others.shape[1] != f.shape[0]:
        raise ValueError(f"expected rows of dim {f.shape}, got shape {others.shape}")
    return paired_distances(metric, f[None, :], others)


def _norms(x: np.ndarray) -> np.ndarray:
    """2-norms along the last axis: the sum that `np.linalg.norm(x,
    axis=-1)` makes for real floats, without its wrapper, so the bits are
    the same."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def paired_distances(metric: DistanceMetric, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between each row of `a` and the matching row of `b`.

    The last axis holds the features and the leading axes broadcast, so
    `a[:, None]` against `b[None]` gives a (len(a), len(b)) block. This is
    the package's one feature-space distance kernel. Euclidean is the
    2-norm of the difference. Angular is the angle arccos(cos_sim) with the
    cosine clamped to [-1, 1]; it is undefined for zero vectors and raises
    ValueError. Each pair is reduced on its own, so its distance does not
    depend on the other pairs and the two sides may swap.
    """
    if metric is DistanceMetric.EUCLIDEAN:
        return _norms(b - a)
    na = _norms(a)
    nb = _norms(b)
    if np.any(na == 0.0) or np.any(nb == 0.0):
        raise ValueError("angular distance undefined for zero vectors")
    # A row-wise reduction, like the norms: a matrix product can round a
    # pair differently depending on where it sits in the matrix.
    cos_sim = (b * a).sum(axis=-1) / (nb * na)
    dists = np.arccos(np.clip(cos_sim, -1.0, 1.0))
    # dot/(n1*n2) can round to just below 1 for equal inputs, and arccos
    # amplifies that to ~1e-8; equal vectors must come out at exactly 0.
    dists[(b == a).all(axis=-1)] = 0.0
    return dists


# count_within keeps each kernel temporary below this many, cache-sized, bytes.
_BLOCK_BYTES = 1 << 20


def count_within(
    metric: DistanceMetric, points: np.ndarray, targets: np.ndarray, radius: float
) -> np.ndarray:
    """For each row of `points`, how many rows of `targets` lie within
    `radius` of it (ties inside), evaluated in blocks of points."""
    step = max(1, _BLOCK_BYTES // max(targets.nbytes, 1))
    counts = np.zeros(points.shape[0], dtype=np.int64)
    for start in range(0, points.shape[0], step):
        block = points[start : start + step, None, :]
        dists = paired_distances(metric, block, targets[None, :, :])
        counts[start : start + step] = np.count_nonzero(dists <= radius, axis=1)
    return counts


# Angular windows give up (infinite reach) on a norm below this: the
# kernel's products of two such norms can be subnormal, without the
# relative precision the margin assumes. (A norm that overflows gives a
# zero point, within 1 of every unit vector, and a kernel angle of pi/2
# or NaN, whose reach is at least sqrt(2).)
_NORM_LOW = 2.0**-450


def window_points(
    metric: DistanceMetric, feats: np.ndarray, threshold: float
) -> tuple[np.ndarray, float]:
    """Points for `feats` (features along the last axis) and a reach such
    that two rows that `paired_distances` puts within `threshold` of each
    other have points at most `reach` apart on every coordinate, up to
    rounding that a caller absorbs in a small slack.

    Euclidean: the features themselves and the threshold. Each rounding
    step of the 2-norm is monotone, so one coordinate of the kernel's
    rounded difference exceeds the rounded norm only by the rounding of a
    square and a root (or where a square underflows). Angular: the unit
    vectors, and the chord 2*sin(threshold/2) of unit vectors at that angle
    plus a margin, which bounds how far a rounded cosine, near 1 where
    arccos is ill-conditioned, lets a decided pair stray past the chord;
    the reach is infinite when a norm lies below `_NORM_LOW`. Raises
    ValueError on a zero vector under the angular metric, as the kernel
    does.
    """
    if metric is DistanceMetric.EUCLIDEAN:
        return feats, threshold
    norms = _norms(feats)
    if np.any(norms == 0.0):
        raise ValueError("angular distance undefined for zero vectors")
    if norms.size and norms.min() < _NORM_LOW:
        reach = math.inf
    else:
        margin = 4.0 * math.sqrt((feats.shape[-1] + 8) * np.finfo(float).eps)
        reach = 2.0 * math.sin(min(threshold, math.pi) / 2.0) + margin
    return feats / norms[..., None], reach


def ad_value(ad: Ad, poa_id: int | None) -> float:
    """Value of broadcasting `ad` at the given PoA.

    Global ads keep their base value everywhere; Local ads are worth their
    base value under the target PoA and 0 elsewhere.
    """
    if ad.is_global or ad.target_poa == poa_id:
        return ad.base_value
    return 0.0


def rank_relevant(
    ads: Iterable[Ad],
    dists: Iterable[float],
    poa_id: int | None,
    d_max: float,
    exclude: Container[int] = frozenset(),
) -> list[tuple[Ad, float]]:
    """(ad, distance) pairs for the ads not in `exclude` that are relevant
    at the given PoA, sorted by (distance, ad_id): the one "relevant,
    unseen, closest first" rule that displays take a prefix of.

    `dists[i]` is the distance from the vehicle's profile to `ads[i]`.
    Relevant means in scope at the PoA (positive `ad_value`) and within
    d_max of the profile, ties relevant.
    """
    ranked = [
        (a, d)
        for a, d in zip(ads, dists)
        if d <= d_max and a.ad_id not in exclude and ad_value(a, poa_id) > 0.0
    ]
    ranked.sort(key=lambda pair: (pair[1], pair[0].ad_id))
    return ranked


def rank_for_profile(
    ads: Iterable[Ad],
    profile: VehicleProfile,
    poa_id: int | None,
    d_max: float,
    metric: DistanceMetric,
    exclude: Container[int] = frozenset(),
) -> list[tuple[Ad, float]]:
    """`rank_relevant` with the distances evaluated here, by `distances_to`,
    for the ads in scope and not excluded."""
    scoped = [a for a in ads if a.ad_id not in exclude and ad_value(a, poa_id) > 0.0]
    if not scoped:
        return []
    dists = distances_to(metric, profile.interests, np.stack([a.features for a in scoped]))
    return rank_relevant(scoped, dists.tolist(), poa_id, d_max)


def is_relevant(
    ad: Ad,
    profile: VehicleProfile,
    poa_id: int | None,
    d_max: float,
    metric: DistanceMetric,
) -> bool:
    """True iff the ad is within d_max of the profile (ties relevant) and
    its scope admits the vehicle's current PoA."""
    return bool(rank_for_profile([ad], profile, poa_id, d_max, metric))
