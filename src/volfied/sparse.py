"""Sparse approximations of an ad set and their structural guarantees.

A sparse set keeps only ads that are pairwise farther than 2*epsilon apart,
greedily preferring high-value ads; each dropped ad records the surviving
representative that covers it, a member within 2*epsilon of at least its
value. Stacking m such layers (each built on the residual of the previous
ones) yields the m-sparse set, which keeps at most m ads inside any
epsilon-ball and therefore caps the work any single vehicle event can
trigger downstream. The revenue guarantee (`verify_analogue_bound`) is
stated at the same 2*epsilon radius: a covering radius of epsilon cannot
coexist with the epsilon-ball bound.

Conflicts are found on a grid of cells a little wider than 2*epsilon. Its
axes are the coordinates with the most occupied cells, busiest first, less
any of one cell (it prunes nothing): the longest run of at most 5 of them
whose cells number at most _CELLS_PER_AD per ad plus _CELLS_MIN, and at
least one. The cells are numbered densely, so a table of each cell's
first row in key order finds the rows of a run of three cells on the last
axis with two gathers, 3^(g-1) runs per ad. The greedy walks the ads in
value order in blocks cut to a candidate budget (memory O(N)); only the
later ads still present in an ad's neighbouring cells reach
`paired_distances` (ties conflict), so the grid prunes and the kernel
decides. `check_ball_bound` counts on the same grid, built over the
probes and the members together.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .model import Ad, AdTable, DistanceMetric, distance, paired_distances, window_points

__all__ = [
    "SparseApproxParams",
    "SparseAdSet",
    "m_sparse_set",
    "check_ball_bound",
    "update_cost_bound",
    "verify_analogue_bound",
]

# Coordinates the grid bins at most (a projection never brings points closer),
# and its cells at most: this many per ad plus a floor. One axis of N values
# has at most 2N + 1 cells, so the busiest axis always fits.
_GRID_DIMS = 5
_CELLS_PER_AD = 32
_CELLS_MIN = 4096
# Cells are this much wider than the reach, relative to it, which absorbs
# the rounding of two cell indices below 2^28 (2 * 2^-52 * 2^28 = 2^-23).
_SLACK = 2.0**-20
# A greedy block has at most this many ads and about this many bytes of
# candidate temporaries, (n + 8) words each (one ad may exceed it alone).
_BLOCK_ADS = 1024
_BLOCK_BYTES = 1 << 24


@dataclass(frozen=True)
class SparseApproxParams:
    epsilon: float
    m: int
    metric: DistanceMetric

    @staticmethod
    def check(epsilon: float, m: int) -> None:
        """Raise ValueError unless epsilon is finite and > 0 and m >= 1."""
        if not epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {epsilon}")
        if not math.isfinite(epsilon):
            raise ValueError(f"epsilon must be finite, got {epsilon}")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")

    def __post_init__(self):
        self.check(self.epsilon, self.m)


@dataclass(frozen=True)
class SparseAdSet:
    """Result of the greedy sparsification.

    `ads` is in insertion order (per layer, value descending with AdId as
    tie-break); `m_sparse_set` makes it a table of the input's own `Ad`s.
    `mapping` sends each removed original AdId to its surviving
    representative; for m > 1 an ad absent from the final set was removed
    once per layer pass and the representative from the last pass is kept.
    `layers` records the 1-based layer of each member.
    """

    ads: Sequence[Ad]
    params: SparseApproxParams
    mapping: dict[int, int] = field(default_factory=dict)
    layers: dict[int, int] = field(default_factory=dict)

    def member_ids(self) -> list[int]:
        return [a.ad_id for a in self.ads]


def _axis_cells(x: np.ndarray, width: float) -> tuple[np.ndarray, int]:
    """Cell index, from 1, of each value of `x` on cells `width` wide, and
    the number of cells the values occupy: values within `width` share or
    neighbour a cell. Runs of values at most `width` apart are binned from
    their own minimum, exact for any finite values, and sit two indices
    apart, so an outlier does not stretch the axis."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    with np.errstate(over="ignore"):
        starts = np.concatenate(([True], np.diff(xs) > width))
    run = np.cumsum(starts) - 1
    cells = np.floor((xs - xs[starts][run]) / width).astype(np.int64)
    first = np.cumsum(np.concatenate(([1], cells[np.flatnonzero(starts)[1:] - 1] + 2)))
    ascending = first[run] + cells
    index = np.empty_like(cells)
    index[order] = ascending
    return index, 1 + int(np.count_nonzero(np.diff(ascending)))


def _grid(feats: np.ndarray, threshold: float, metric: DistanceMetric):
    """Grid on which rows of `feats` within `threshold` are neighbours: each
    row's cell key, the shifts whose runs of three keys (the last axis has
    step 1) cover the neighbouring cells, and the number of cells. The axes
    are the busiest ones with more than one cell, as many as fit
    `_CELLS_PER_AD * len(feats) + _CELLS_MIN` cells (module docstring)."""
    points, reach = window_points(metric, feats, threshold)
    binned = [_axis_cells(x, reach * (1.0 + _SLACK)) for x in points.T]
    busiest = sorted(binned, key=lambda axis: -axis[1])  # coordinate order on ties
    columns = [col for col, occupied in busiest if occupied > 1] or [busiest[0][0]]
    radix = [int(col.max()) + 2 for col in columns[:_GRID_DIMS]]  # neighbours: 0 .. max + 1
    limit = _CELLS_PER_AD * len(feats) + _CELLS_MIN
    g = max(1, sum(size <= limit for size in itertools.accumulate(radix, operator.mul)))
    steps = [math.prod(radix[k + 1 : g]) for k in range(g)]
    keys = sum(col * step for col, step in zip(columns, steps))
    offsets = itertools.product((-1, 0, 1), repeat=g - 1)
    shifts = np.array([sum(d * t for d, t in zip(o, steps)) for o in offsets], dtype=np.int64)
    return keys, shifts, math.prod(radix[:g])


def _index(keys: np.ndarray, rows: np.ndarray, cells: int):
    """`rows` in key order (stable), and where each of the `cells` cells
    starts in that order (`cells + 1` entries): what `_neighbours` looks
    the rows up in."""
    order = rows[np.argsort(keys[rows], kind="stable")]
    first = np.zeros(cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys[rows], minlength=cells), out=first[1:])
    return order, first


def _neighbours(keys, shifts, index, queries, budget):
    """Pairs (query, indexed row) of the rows of `index` in each query's
    neighbouring cells, for the leading queries whose pairs stay within
    `budget` (at least one query): (query rows, indexed rows, queries taken).
    The pairs come query by query, in the order of `queries`."""
    order, first = index
    centre = keys[queries][:, None] + shifts
    start = first[centre - 1]
    counts = first[centre + 2] - start
    per_query = counts.sum(axis=1)
    take = max(1, int(np.searchsorted(np.cumsum(per_query), budget, side="right")))
    start, counts = start[:take].ravel(), counts[:take].ravel()
    at = np.repeat(start - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return np.repeat(queries[:take], per_query[:take]), order[at], take


def _budget(feats: np.ndarray) -> int:
    """Candidate pairs per block: about _BLOCK_BYTES of temporaries, (n + 8)
    words per pair."""
    return max(1, _BLOCK_BYTES // (8 * (feats.shape[1] + 8)))


def _greedy_layer(feats, keys, shifts, index, threshold, metric, removed, rep) -> None:
    """One greedy layer over the rows not `removed`, in row order: each
    row still present is kept and removes the later rows within
    `threshold`, which it marks in `removed` and records in `rep`."""
    everyone = np.arange(len(feats))
    for first in range(0, len(feats), _BLOCK_ADS):
        rows = everyone[first : first + _BLOCK_ADS]
        while (queries := rows[~removed[rows]]).size:
            src, dst, take = _neighbours(keys, shifts, index, queries, _budget(feats))
            rows = queries[take:]
            keep = np.flatnonzero((dst > src) & ~removed[dst])
            keep = keep[paired_distances(metric, feats[src[keep]], feats[dst[keep]]) <= threshold]
            src, dst = src[keep], dst[keep]
            # src ascends, so each query acts after every earlier row settled,
            # and a removed row maps to the first kept row that reached it.
            bounds = np.flatnonzero(np.diff(src, prepend=-1, append=len(feats)))
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if not removed[src[lo]]:
                    targets = dst[lo:hi][~removed[dst[lo:hi]]]
                    removed[targets] = True
                    rep[targets] = src[lo]


def m_sparse_set(
    ads: Sequence[Ad], epsilon: float, m: int, metric: DistanceMetric
) -> SparseAdSet:
    """m-layer sparse approximation. A layer sorts its ads by value
    descending (AdId ascending on ties), repeatedly keeps the top ad and
    drops every remaining ad within 2*epsilon of it (ties dropped, decided
    by `paired_distances`); each dropped ad maps to the kept ad that
    removed it. Layer i is built over the ads not selected by layers
    1..i-1, and the layers are unioned; m = 1 gives one layer."""
    params = SparseApproxParams(epsilon=epsilon, m=m, metric=metric)
    table = AdTable.from_ads(ads)
    if not len(table):
        return SparseAdSet(ads=table, params=params)
    ranked = np.lexsort((table.ids, -table.base_values))
    feats = table.features[ranked]
    keys, shifts, cells = _grid(feats, 2.0 * epsilon, metric)
    index = _index(keys, np.arange(len(feats)), cells)
    layer_of = np.zeros(len(ranked), dtype=np.int64)
    rep = np.full(len(ranked), -1, dtype=np.int64)
    for layer in range(1, m + 1):
        removed = layer_of > 0
        _greedy_layer(feats, keys, shifts, index, 2.0 * epsilon, metric, removed, rep)
        layer_of[~removed] = layer
    kept = np.flatnonzero(layer_of)
    kept = kept[np.argsort(layer_of[kept], kind="stable")]
    gone = np.flatnonzero(layer_of == 0)
    ids = table.ids[ranked]
    return SparseAdSet(
        ads=table[ranked[kept]],
        params=params,
        mapping=dict(zip(ids[gone].tolist(), ids[rep[gone]].tolist())),
        layers=dict(zip(ids[kept].tolist(), layer_of[kept].tolist())),
    )


def check_ball_bound(sparse: SparseAdSet, probes, radius: float) -> int:
    """Maximum number of set members within the closed `radius`-ball
    around any probe point."""
    probes = np.asarray(probes, dtype=float)
    if not sparse.ads or probes.size == 0:
        return 0
    members = AdTable.from_ads(sparse.ads).features
    return int(_ball_counts(members, probes, radius, sparse.params.metric).max())


def _ball_counts(members: np.ndarray, probes: np.ndarray, radius: float, metric) -> np.ndarray:
    """For each probe, the members within `radius` of it (ties inside), as
    `model.count_within` counts them. Probes and members share one grid;
    each member meets only the probes in its neighbouring cells."""
    feats = np.concatenate([members, probes])
    keys, shifts, cells = _grid(feats, radius, metric)
    index = _index(keys, np.arange(len(members), len(feats)), cells)
    inside = np.zeros(len(feats), dtype=np.int64)
    queries = np.arange(len(members))
    while queries.size:
        member, probe, take = _neighbours(keys, shifts, index, queries, _budget(feats))
        queries = queries[take:]
        near = paired_distances(metric, feats[probe], feats[member]) <= radius
        inside += np.bincount(probe[near], minlength=len(feats))
    return inside[len(members) :]


def update_cost_bound(params: SparseApproxParams, d_max: float, n: int, set_size: int) -> int:
    """Worst-case number of sparse-set ads a single vehicle enter/exit can
    touch: min(ceil((m*d_max/epsilon)^n), set size). A packing too large
    for a float is past any set size."""
    if d_max <= 0 or n < 1 or set_size < 0:
        raise ValueError("d_max, n, set_size must be positive")
    try:
        packing = math.ceil((params.m * d_max / params.epsilon) ** n)
    except OverflowError:
        return set_size
    return min(packing, set_size)


def _warn_if_epsilon_large(epsilon: float, d_max: float) -> None:
    if not d_max > 2.0 * epsilon:
        warnings.warn(
            f"analysis assumes d_max > 2*epsilon, got d_max={d_max} epsilon={epsilon}",
            UserWarning,
            stacklevel=3,
        )


def _clique_free(members: list[Ad], threshold: float, m: int, metric: DistanceMetric) -> bool:
    """No m+1 members pairwise within `threshold`. This is the invariant
    the greedy selector maintains; it implies no vehicle can have more
    than m of these ads relevant at once (triangle inequality)."""
    if len(members) <= m:
        return True
    for combo in itertools.combinations(members, m + 1):
        if all(
            distance(metric, a.features, b.features) <= threshold
            for a, b in itertools.combinations(combo, 2)
        ):
            return False
    return True


def verify_analogue_bound(
    original: list[Ad],
    sparse: SparseAdSet,
    s: list[int],
    d_max: float,
    vehicles,
) -> bool:
    """Executable form of the sparse-set revenue guarantee.

    The sparsifier gives every dropped ad a value-dominating member within
    r = 2*epsilon, so the guarantee is stated at that radius. Given a
    subset `s` of the original catalog that is conflict-free at the
    enlarged threshold d_max + 2*epsilon (no m+1 of its ads pairwise
    within 2*(d_max + 2*epsilon)), searches the sparse set for an
    analogue: a same-size subset, conflict-free at d_max, admitting a
    bijection g with D(a, g(a)) <= 2*epsilon and value(g(a)) >= value(a),
    whose plain revenue (relevance within d_max) is at least the
    conservative revenue of `s` (relevance within d_max - 2*epsilon).
    The thresholds follow from the radius: a vehicle within
    d_max - 2*epsilon of a is within d_max of g(a), and images within
    2*d_max of each other have sources within 2*(d_max + 2*epsilon).
    Revenue is counted over `vehicles` (interest vectors) with each ad's
    base value. d_max > 2*epsilon keeps the conservative threshold
    positive; a smaller d_max warns.
    """
    if len(sparse.ads) > 15:
        raise ValueError(
            f"exhaustive analogue search supports at most 15 sparse ads, got {len(sparse.ads)}"
        )
    eps = sparse.params.epsilon
    radius = 2.0 * eps
    metric = sparse.params.metric
    _warn_if_epsilon_large(eps, d_max)
    by_id = {a.ad_id: a for a in original}
    try:
        s_ads = [by_id[i] for i in s]
    except KeyError as exc:
        raise ValueError(f"ad {exc.args[0]} not in original set") from None
    profiles = [np.asarray(v, dtype=float) for v in vehicles]

    def revenue(ads_subset: list[Ad], threshold: float) -> float:
        total = 0.0
        for v in profiles:
            for a in ads_subset:
                if distance(metric, a.features, v) <= threshold:
                    total += a.base_value
        return total

    r_conservative = revenue(s_ads, d_max - radius)
    want = len(s_ads)
    for subset in itertools.combinations(sparse.ads, want):
        if not _clique_free(list(subset), 2.0 * d_max, sparse.params.m, metric):
            continue
        if revenue(list(subset), d_max) < r_conservative - 1e-9:
            continue
        for perm in itertools.permutations(subset):
            if all(
                perm[i].base_value >= s_ads[i].base_value
                and distance(metric, perm[i].features, s_ads[i].features) <= radius
                for i in range(want)
            ):
                return True
    return False
