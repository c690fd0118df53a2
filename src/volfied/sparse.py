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
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import Ad, DistanceMetric, distance, pairwise_distances

__all__ = [
    "SparseApproxParams",
    "SparseAdSet",
    "epsilon_set",
    "m_sparse_set",
    "check_ball_bound",
    "update_cost_bound",
    "verify_analogue_bound",
]

# Probe/tail blocks keep pairwise-distance matrices within ~100 MB.
_TAIL_BLOCK = 16384


@dataclass(frozen=True)
class SparseApproxParams:
    epsilon: float
    m: int
    metric: DistanceMetric

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")


@dataclass(frozen=True)
class SparseAdSet:
    """Result of the greedy sparsification.

    `ads` is in insertion order (per layer, value descending with AdId as
    tie-break). `mapping` sends each removed original AdId to its surviving
    representative; for m > 1 an ad absent from the final set was removed
    once per layer pass and the representative from the last pass is kept.
    `layers` records the 1-based layer of each member.
    """

    ads: list[Ad]
    params: SparseApproxParams
    mapping: dict[int, int] = field(default_factory=dict)
    layers: dict[int, int] = field(default_factory=dict)

    def member_ids(self) -> list[int]:
        return [a.ad_id for a in self.ads]


def _kill_matrix(metric, feats, half_sq, kept_rows, block_rows, threshold):
    """Boolean (kept x block) matrix of pairs within `threshold`.

    Euclidean works on squared distances rearranged around the Gram
    matrix so each block costs one matmul and two elementwise passes.
    """
    if metric is DistanceMetric.EUCLIDEAN:
        g = feats[kept_rows] @ feats[block_rows].T
        g -= half_sq[block_rows][None, :]
        return g >= (half_sq[kept_rows] - 0.5 * threshold * threshold)[:, None]
    return pairwise_distances(metric, feats[kept_rows], feats[block_rows]) <= threshold


def _greedy_scan(feats: np.ndarray, threshold: float, metric: DistanceMetric, chunk_size: int):
    """Greedy thinning of `feats` rows taken in index order.

    Keeps a row unless an earlier kept row lies within `threshold`;
    returns (kept indices, {removed index: index of its remover}). The
    scan is chunked purely for speed: a chunk is resolved internally with
    one pairwise matrix, then its kept rows eliminate the tail in blocks.
    Removal credit goes to the first kept row in index order, matching the
    one-at-a-time scan.
    """
    total = feats.shape[0]
    half_sq = 0.5 * np.einsum("ij,ij->i", feats, feats)
    kept: list[int] = []
    reps: dict[int, int] = {}
    remaining = np.arange(total)
    while remaining.size:
        chunk = remaining[:chunk_size]
        tail = remaining[chunk_size:]
        dmat = pairwise_distances(metric, feats[chunk], feats[chunk])
        chunk_alive = np.ones(chunk.size, dtype=bool)
        chunk_kept: list[int] = []
        for i in range(chunk.size):
            if not chunk_alive[i]:
                continue
            chunk_kept.append(i)
            kill = (dmat[i] <= threshold) & chunk_alive
            kill[: i + 1] = False
            for j in np.flatnonzero(kill):
                reps[int(chunk[j])] = int(chunk[i])
            chunk_alive[kill] = False
        kept.extend(int(chunk[i]) for i in chunk_kept)
        if tail.size:
            kept_rows = chunk[chunk_kept]
            survive = np.ones(tail.size, dtype=bool)
            for start in range(0, tail.size, _TAIL_BLOCK):
                block = tail[start : start + _TAIL_BLOCK]
                killed = _kill_matrix(metric, feats, half_sq, kept_rows, block, threshold)
                hit = killed.any(axis=0)
                cols = np.flatnonzero(hit)
                if cols.size:
                    first = np.argmax(killed[:, cols], axis=0)
                    for idx, j in enumerate(cols):
                        reps[int(block[j])] = int(kept_rows[int(first[idx])])
                    survive[start + cols] = False
            remaining = tail[survive]
        else:
            remaining = tail
    return kept, reps


def epsilon_set(
    ads: list[Ad],
    epsilon: float,
    metric: DistanceMetric,
    chunk_size: int = 512,
) -> SparseAdSet:
    """Single-layer sparse approximation.

    Sorts by value descending (AdId ascending on ties), repeatedly keeps
    the top ad and drops every remaining ad within 2*epsilon of it; each
    dropped ad maps to the kept ad that removed it.
    """
    params = SparseApproxParams(epsilon=epsilon, m=1, metric=metric)
    if not ads:
        return SparseAdSet(ads=[], params=params)
    order = sorted(range(len(ads)), key=lambda i: (-ads[i].base_value, ads[i].ad_id))
    feats = np.stack([ads[i].features for i in order])
    kept, reps = _greedy_scan(feats, 2.0 * epsilon, metric, chunk_size)
    members = [ads[order[i]] for i in kept]
    mapping = {ads[order[j]].ad_id: ads[order[r]].ad_id for j, r in reps.items()}
    layers = {a.ad_id: 1 for a in members}
    return SparseAdSet(ads=members, params=params, mapping=mapping, layers=layers)


def m_sparse_set(
    ads: list[Ad],
    epsilon: float,
    m: int,
    metric: DistanceMetric,
    chunk_size: int = 512,
) -> SparseAdSet:
    """m-layer sparse approximation: layer i is the single-layer build over
    the ads not selected by layers 1..i-1, and the layers are unioned."""
    params = SparseApproxParams(epsilon=epsilon, m=m, metric=metric)
    members: list[Ad] = []
    layers: dict[int, int] = {}
    mapping: dict[int, int] = {}
    residual = list(ads)
    for layer in range(1, m + 1):
        if not residual:
            break
        sub = epsilon_set(residual, epsilon, metric, chunk_size=chunk_size)
        for a in sub.ads:
            members.append(a)
            layers[a.ad_id] = layer
        mapping.update(sub.mapping)
        selected = set(sub.layers)
        residual = [a for a in residual if a.ad_id not in selected]
    for a in members:
        mapping.pop(a.ad_id, None)
    return SparseAdSet(ads=members, params=params, mapping=mapping, layers=layers)


def check_ball_bound(sparse: SparseAdSet, probes, radius: float) -> int:
    """Maximum number of set members within the closed `radius`-ball
    around any probe point."""
    probes = np.asarray(probes, dtype=float)
    if not sparse.ads or probes.size == 0:
        return 0
    feats = np.stack([a.features for a in sparse.ads])
    best = 0
    for start in range(0, probes.shape[0], _TAIL_BLOCK):
        block = probes[start : start + _TAIL_BLOCK]
        dists = pairwise_distances(sparse.params.metric, block, feats)
        counts = np.count_nonzero(dists <= radius, axis=1)
        best = max(best, int(counts.max()))
    return best


def update_cost_bound(params: SparseApproxParams, d_max: float, n: int, set_size: int) -> int:
    """Worst-case number of sparse-set ads a single vehicle enter/exit can
    touch: min(ceil((m*d_max/epsilon)^n), set size)."""
    if d_max <= 0 or n < 1 or set_size < 0:
        raise ValueError("d_max, n, set_size must be positive")
    packing = math.ceil((params.m * d_max / params.epsilon) ** n)
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
