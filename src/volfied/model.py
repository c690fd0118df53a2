"""Core domain types: ads, points of access, vehicle profiles, distances.

Ads and vehicle interest profiles live in the same n-dimensional feature
space. Relevance of an ad to a vehicle is a distance threshold test plus a
scope rule: Global ads are eligible everywhere, Local ads only under their
target PoA.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Container, Iterable

import numpy as np

__all__ = [
    "DistanceMetric",
    "Ad",
    "AdTable",
    "PoA",
    "VehicleProfile",
    "as_features",
    "distance",
    "distances_to",
    "paired_distances",
    "window_points",
    "ad_value",
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

    Raises ValueError on a vector with no coordinates, non-finite entries
    or (when n is given) a dimension mismatch.
    """
    f = np.asarray(coords, dtype=float)
    if f.ndim != 1:
        raise ValueError(f"feature vector must be 1-D, got shape {f.shape}")
    if not f.size:
        raise ValueError("feature vector has no coordinates")
    if n is not None and f.shape[0] != n:
        raise ValueError(f"expected {n} features, got {f.shape[0]}")
    if not np.isfinite(f).all():
        raise ValueError("feature vector contains non-finite values")
    return f


@dataclass(frozen=True, eq=False)
class Ad:
    """An ad in feature space. target_poa None means Global scope, and a
    target PoA id is >= 0."""

    ad_id: int
    features: FeatureVector  # shape (n,)
    base_value: float
    target_poa: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "features", as_features(self.features))
        _check_base_value(self.ad_id, self.base_value)
        if self.target_poa is not None and self.target_poa < 0:
            raise ValueError(f"ad {self.ad_id}: target_poa must be >= 0, got {self.target_poa}")

    @property
    def is_global(self) -> bool:
        return self.target_poa is None


def _check_base_value(ad_id: int, value: float) -> None:
    if not value > 0:
        raise ValueError(f"ad {ad_id}: base_value must be > 0, got {value}")
    if not math.isfinite(value):
        raise ValueError(f"ad {ad_id}: base_value must be finite, got {value}")


class AdTable(Sequence):
    """A catalog of ads as arrays: row i is ad `ids[i]`, with `features[i]`
    (an (N, n) float array), `base_values[i]` and `target_poa[i]`, -1 for a
    Global ad. The arrays are validated once, at construction, and are
    read-only.

    A table is a sequence of `Ad`s. Row i is an `Ad` built from the arrays,
    without validating them again, on first access and then kept, so
    `t[i] is t[i]`. Indexing with a slice, an integer array or a boolean
    mask gives a table of some of these rows, the same `Ad` objects; it
    keeps only their positions and gathers its arrays when they are read.
    """

    __slots__ = ("_columns", "_rows", "_at")

    def __init__(self, ids, features, base_values, target_poa):
        """Raises ValueError, naming the first bad row, unless the features
        are a finite 2-D array with at least one column (a table of no rows
        may have none), every base value is finite and > 0, every target
        PoA is >= 0 or -1, and no id repeats."""
        try:
            ids = np.array(ids, dtype=np.int64)
            target_poa = np.array(target_poa, dtype=np.int64)
        except OverflowError:
            raise ValueError("ad ids and target PoAs must fit in 64 bits") from None
        features = np.array(features, dtype=float, order="C")  # rows reduce as Ad features do
        base_values = np.array(base_values, dtype=float)
        n = len(features)
        if features.ndim != 2 or not ids.shape == base_values.shape == target_poa.shape == (n,):
            raise ValueError(
                f"want (N, n) features and N ids, base values and target PoAs, got shapes "
                f"{features.shape}, {ids.shape}, {base_values.shape}, {target_poa.shape}"
            )
        if n and not features.shape[1]:
            raise ValueError(f"ads need at least one feature column, got shape {features.shape}")
        repeats = np.ones(n, dtype=bool)
        repeats[np.unique(ids, return_index=True)[1]] = False
        finite = np.isfinite(features).all(axis=1)
        bad = ~finite | ~(base_values > 0) | ~np.isfinite(base_values)
        bad |= (target_poa < -1) | repeats
        if bad.any():
            r = int(np.argmax(bad))
            ad_id = int(ids[r])
            if not finite[r]:
                raise ValueError("feature vector contains non-finite values")
            _check_base_value(ad_id, float(base_values[r]))
            if target_poa[r] < -1:
                raise ValueError(f"ad {ad_id}: target_poa must be >= 0, got {target_poa[r]}")
            raise ValueError(f"ad_id {ad_id} repeats row {int(np.argmax(ids == ad_id))}")
        for column in (ids, features, base_values, target_poa):
            column.flags.writeable = False
        # The validated columns and their rows' cache, shared by every table
        # taken from this one, and the positions in them of a taken table's
        # rows (None: all of them, in order).
        self._columns = (ids, features, base_values, target_poa)
        self._rows: list[Ad | None] = [None] * n
        self._at: np.ndarray | None = None

    @classmethod
    def from_ads(cls, ads: Sequence[Ad]) -> "AdTable":
        """A table of `ads` whose rows are the given objects; a table is
        returned as it is."""
        if isinstance(ads, AdTable):
            return ads
        ads = list(ads)
        table = cls(
            [a.ad_id for a in ads],
            [a.features for a in ads] if ads else np.zeros((0, 0)),
            [a.base_value for a in ads],
            [-1 if a.target_poa is None else a.target_poa for a in ads],
        )
        table._rows[:] = ads
        return table

    def _column(self, k: int) -> np.ndarray:
        column = self._columns[k]
        if self._at is None:
            return column
        taken = column[self._at]
        taken.flags.writeable = False
        return taken

    ids = property(lambda self: self._column(0))
    features = property(lambda self: self._column(1))
    base_values = property(lambda self: self._column(2))
    target_poa = property(lambda self: self._column(3))

    def __len__(self) -> int:
        return len(self._rows) if self._at is None else len(self._at)

    def __getitem__(self, key):
        if isinstance(key, (slice, np.ndarray)):
            at = np.arange(len(self))[key]
            taken = object.__new__(AdTable)
            taken._columns, taken._rows = self._columns, self._rows
            taken._at = at if self._at is None else self._at[at]
            return taken
        i = range(len(self))[key]
        j = i if self._at is None else int(self._at[i])
        if self._rows[j] is None:
            ids, _, values, targets = self._columns
            self._build(j, ids[j].item(), values[j].item(), targets[j].item())
        return self._rows[j]

    def __iter__(self):
        at = range(len(self)) if self._at is None else self._at.tolist()
        missing = [j for j in at if self._rows[j] is None]
        ids, _, values, targets = self._columns
        fields = (c[missing].tolist() for c in (ids, values, targets))
        for j, ad_id, value, target in zip(missing, *fields):
            self._build(j, ad_id, value, target)
        return map(self._rows.__getitem__, at)

    def _build(self, j: int, ad_id: int, value: float, target: int) -> None:
        """Keep row j, built from the validated columns, in the row cache."""
        ad = self._rows[j] = object.__new__(Ad)
        ad.__dict__.update(
            ad_id=ad_id,
            features=self._columns[1][j],
            base_value=value,
            target_poa=None if target < 0 else target,
        )


@dataclass(frozen=True)
class PoA:
    """Point of access (roadside broadcast unit) with a circular range; its
    id is >= 0."""

    poa_id: int
    x_m: float
    y_m: float
    range_m: float

    def __post_init__(self):
        if self.poa_id < 0:
            raise ValueError(f"poa {self.poa_id}: poa_id must be >= 0")
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
