"""The paper's guarantees, each stated next to its executable check.

- Conflict-free selection: no vehicle finds more than m of a PoA's
  broadcast ads within d_max (`is_conflict_free`). The greedy selector
  admits an ad only while fewer than m admitted ads lie within 2*d_max of
  it. By the triangle inequality, m+1 ads relevant to one vehicle are
  pairwise within 2*d_max, so this rules out a conflict for every possible
  vehicle (`structurally_conflict_free`, and `_clique_free` unordered).
- Ball bound: the m-sparse set keeps at most m ads inside any
  epsilon-ball (`check_ball_bound`), and therefore caps the work any
  single vehicle event can trigger downstream (`update_cost_bound`).
- Analogue revenue (`verify_analogue_bound`): the sparsifier gives every
  dropped ad a value-dominating member within 2*epsilon, so the guarantee
  is stated at that radius; a covering radius of epsilon cannot coexist
  with the epsilon-ball bound. A subset s of the catalog that is
  conflict-free at d_max + 2*epsilon has an analogue: a same-size subset
  of the sparse set, conflict-free at d_max, with a bijection g,
  D(a, g(a)) <= 2*epsilon and value(g(a)) >= value(a), whose revenue at
  d_max is at least that of s at d_max - 2*epsilon. A vehicle within
  d_max - 2*epsilon of a is within d_max of g(a), and images within
  2*d_max of each other have sources within 2*(d_max + 2*epsilon).
  d_max > 2*epsilon keeps the conservative threshold positive.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import Sequence

import numpy as np

from .broker import SelectionParams
from .model import Ad, AdTable, DistanceMetric, paired_distances
from .sparse import SparseAdSet, SparseApproxParams, ball_counts

__all__ = [
    "is_conflict_free",
    "structurally_conflict_free",
    "check_ball_bound",
    "update_cost_bound",
    "verify_analogue_bound",
]


def _within(metric: DistanceMetric, a: np.ndarray, b: np.ndarray, threshold: float) -> list:
    """Whether each row of `a` lies within `threshold` of each row of `b`
    (ties inside), as nested lists from one `paired_distances` block with
    the row of `a` first, so every pair keeps its bits. A pair the kernel
    refuses (an angular norm of 0) reads None, and `_decided` raises the
    kernel's error on it, where a pair-by-pair walk would have."""
    with np.errstate(over="ignore"):
        refused = [~(x * x).any(axis=-1) & (metric is DistanceMetric.ANGULAR) for x in (a, b)]
    a, b = (np.where(r[:, None], 1.0, x) for r, x in zip(refused, (a, b)))
    near = (paired_distances(metric, a[:, None], b[None]) <= threshold).astype(object)
    near[refused[0]], near[:, refused[1]] = None, None
    return near.tolist()


def _decided(near: bool | None) -> bool:
    if near is None:
        raise ValueError("angular distance undefined for zero vectors")
    return near


def is_conflict_free(selected: Sequence[Ad], interests, params: SelectionParams) -> bool:
    """True iff no row of `interests` (one vehicle's interest vector each)
    has more than m of `selected` within d_max."""
    feats = AdTable.from_ads(selected).features
    return int(ball_counts(feats, interests, params.d_max, params.metric).max(initial=0)) <= params.m


def structurally_conflict_free(selected: Sequence[Ad], params: SelectionParams) -> bool:
    """True iff each ad of `selected`, in order, has fewer than m
    predecessors within 2*d_max."""
    feats = AdTable.from_ads(selected).features
    near = _within(params.metric, feats, feats, 2.0 * params.d_max)
    return all(sum(map(_decided, near[i][:i])) < params.m for i in range(1, len(near)))


def check_ball_bound(sparse: SparseAdSet, probes, radius: float) -> int:
    """Most set members within the closed `radius`-ball around any probe."""
    members = AdTable.from_ads(sparse.ads).features
    return int(ball_counts(members, probes, radius, sparse.params.metric).max(initial=0))


def update_cost_bound(params: SparseApproxParams, d_max: float, n: int, set_size: int) -> int:
    """Worst-case number of sparse-set ads a single vehicle enter/exit can
    touch: min(ceil((m*d_max/epsilon)^n), set size). A packing too large
    for a float is past any set size."""
    if not d_max > 0 or n < 1 or set_size < 0:
        raise ValueError(f"want d_max > 0, n >= 1, set_size >= 0, got {d_max}, {n}, {set_size}")
    try:
        packing = math.ceil((params.m * d_max / params.epsilon) ** n)
    except OverflowError:
        return set_size
    return min(packing, set_size)


def _clique_free(near: list, rows: Sequence[int], m: int) -> bool:
    """No m+1 of `rows` pairwise near, by a `_within` block of the members
    against themselves (the earlier row of a pair first)."""
    return not any(
        all(_decided(near[i][j]) for i, j in itertools.combinations(combo, 2))
        for combo in itertools.combinations(rows, m + 1)
    )


def verify_analogue_bound(
    original: Sequence[Ad], sparse: SparseAdSet, s: list[int], d_max: float, vehicles
) -> bool:
    """Whether the sparse set, of at most 15 members searched exhaustively,
    holds an analogue of the ads of `original` with the ids `s`. Revenue is
    counted over `vehicles` (interest vectors) with each ad's base value.
    d_max <= 2*epsilon warns."""
    if len(sparse.ads) > 15:
        raise ValueError(
            f"exhaustive analogue search supports at most 15 sparse ads, got {len(sparse.ads)}"
        )
    eps, metric = sparse.params.epsilon, sparse.params.metric
    if not d_max > 2.0 * eps:
        warning = f"analysis assumes d_max > 2*epsilon, got d_max={d_max} epsilon={eps}"
        warnings.warn(warning, UserWarning, stacklevel=2)
    catalog = AdTable.from_ads(original)
    row_of = dict(zip(catalog.ids.tolist(), range(len(catalog))))
    try:
        rows = [row_of[i] for i in s]
    except KeyError as exc:
        raise ValueError(f"ad {exc.args[0]} not in original set") from None
    if not rows:
        return True  # the empty selection is its own analogue
    feats, values = catalog.features[rows], catalog.base_values[rows].tolist()
    profiles = np.array(list(vehicles), dtype=float)
    profiles = profiles.reshape(len(profiles), feats.shape[1])  # a width mismatch raises

    def revenue(near: list, ads: Sequence[int], ad_values: list[float]) -> float:
        hits = [ad_values[a] for v in range(len(profiles)) for a in ads if _decided(near[a][v])]
        return float(np.cumsum([0.0, *hits])[-1])  # added one by one, in this order

    least = revenue(_within(metric, feats, profiles, d_max - 2.0 * eps), range(len(rows)), values)
    members = AdTable.from_ads(sparse.ads)
    points = members.features.reshape(len(members), feats.shape[1])
    worth = members.base_values.tolist()
    conflict = _within(metric, points, points, 2.0 * d_max)
    relevant = _within(metric, points, profiles, d_max)
    close = _within(metric, points, feats, 2.0 * eps)
    for subset in itertools.combinations(range(len(members)), len(rows)):
        if not _clique_free(conflict, subset, sparse.params.m):
            continue
        if revenue(relevant, subset, worth) < least - 1e-9:
            continue
        for perm in itertools.permutations(subset):
            if all(worth[p] >= values[i] and _decided(close[p][i]) for i, p in enumerate(perm)):
                return True
    return False
