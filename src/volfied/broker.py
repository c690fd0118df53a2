"""Per-PoA revenue estimation and the broadcast selection strategies.

The estimator credits an ad with its value once per relevant, detected,
currently-present vehicle that has not already received that ad, and takes
the credit back when the vehicle leaves or the ad is broadcast to it.
Estimates are stored as contributor counts, so R(a, u) = value * count is
exact and enter/exit round trips restore state bit for bit.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import (
    Ad,
    DistanceMetric,
    VehicleProfile,
    count_within,
    distances_to,
    paired_distances,
    window_points,
)

__all__ = [
    "SelectionParams",
    "SelectionStats",
    "RelevanceMemo",
    "RevenueEstimator",
    "select_volfied",
    "select_topk",
    "select_random",
    "is_conflict_free",
    "structurally_conflict_free",
]


@dataclass(frozen=True)
class SelectionParams:
    k: int  # broadcast budget per PoA per step
    m: int  # display budget per vehicle per step
    d_max: float
    metric: DistanceMetric

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise ValueError(f"k and m must be >= 1, got k={self.k} m={self.m}")
        if not self.d_max > 0:
            raise ValueError(f"d_max must be > 0, got {self.d_max}")
        if self.k < self.m:
            warnings.warn(
                f"k={self.k} < m={self.m}: broadcast budget below display budget",
                UserWarning,
                stacklevel=2,
            )


@dataclass
class SelectionStats:
    """Instrumentation filled in by select_volfied."""

    distance_evals: int = 0


class RelevanceMemo:
    """One vehicle profile's relevant ads: the rows of the estimator's union
    catalog within d_max of it, ascending (their ad ids ascend too), the
    distances to them, and which of them the vehicle's served registry
    does not hold yet. Only `unserved` changes after the scan."""

    __slots__ = ("profile", "rows", "ids", "dists", "unserved", "_dist_of")

    def __init__(self, profile, rows, ids, dists, unserved):
        self.profile = profile
        self.rows = rows
        self.ids = ids
        self.dists = dists
        self.unserved = unserved
        self._dist_of = dict(zip(ids.tolist(), dists.tolist()))

    def distances(self, ad_ids: Iterable[int]) -> list[float]:
        """Distance to each ad, inf for an ad that is not relevant."""
        dist_of = self._dist_of
        return [dist_of.get(ad_id, math.inf) for ad_id in ad_ids]


class _PoaState:
    """A PoA's estimates over the estimator's union rows: each row's value
    here (0 where the ad is not a candidate or is out of scope), its
    contributor count and whether it is a candidate; and, for each detected
    vehicle present, its memo and the memo entries credited on entering."""

    __slots__ = ("ads", "values", "counts", "candidate", "present")

    def __init__(self, ads: list[Ad], values: np.ndarray, candidate: np.ndarray):
        self.ads = ads
        self.values = values
        self.counts = np.zeros(values.size, dtype=np.int64)
        self.candidate = candidate
        # vehicle id -> (its memo, which does not change while it is
        # present, and the indices into it credited on entering)
        self.present: dict[int, tuple[RelevanceMemo, np.ndarray]] = {}

    def credited(self, vehicle_id: int) -> np.ndarray:
        """Union rows a present vehicle is credited for now: those credited
        on entering that its memo still marks unserved."""
        memo, entries = self.present[vehicle_id]
        return memo.rows[entries[memo.unserved[entries]]] if entries.size else entries


_AD_ID = operator.attrgetter("ad_id")


def _same_ad(a: Ad, b: Ad) -> bool:
    return a is b or (
        a.base_value == b.base_value
        and a.target_poa == b.target_poa
        and np.array_equal(a.features, b.features)
    )


class RevenueEstimator:
    """Incremental R(a, u) over fixed per-PoA candidate sets.

    `registry` maps vehicle id to the set of ad ids already broadcast
    while that vehicle was present and detected; such pairs never earn
    credit again anywhere.

    Profiles and candidate sets are fixed, so a vehicle's relevant ads are
    found once, on its first detected enter (or first `relevance` call),
    and remembered in a `RelevanceMemo`, which the display reads too. The
    scan covers the union of all candidate sets through a window: the
    union rows are sorted once on one coordinate, two `searchsorted` calls
    take those within reach of the profile on it, a second coordinate
    drops more, and `distances_to` decides which of the rest lie within
    d_max. Every per-PoA array is indexed by union row. An enter credits
    the memo's rows worth something at the PoA that the memo marks
    unserved. A broadcast zeroes the selected ads' counts, since every
    vehicle credited for them is present, and registers them for those
    vehicles, in the registry and in their memos' flags. An exit takes
    back the entries credited on entering that its memo still marks
    unserved, so the flags and the registry are the one record of who was
    served. That holds because a vehicle is present under at most one PoA
    and its memo does not change while it is present; breaking either
    raises ValueError.
    """

    def __init__(self, params: SelectionParams, candidates_by_poa: dict[int, list[Ad]]):
        self.params = params
        self.registry: dict[int, set[int]] = {}
        # every candidate, PoA after PoA; an id's union row holds the first
        # of them to carry it, and union rows ascend with ad id
        pids = list(candidates_by_poa)
        per_poa = [list(ads) for ads in candidates_by_poa.values()]
        flat = list(itertools.chain.from_iterable(per_poa))
        ids = np.fromiter(map(_AD_ID, flat), dtype=np.int64, count=len(flat))
        order = np.argsort(ids, kind="stable")
        starts = np.ones(len(flat), dtype=bool)
        starts[1:] = ids[order[1:]] != ids[order[:-1]]
        holder = order[starts]  # flat index of each union row's ad
        rows = np.empty(len(flat), dtype=np.int64)
        rows[order] = np.cumsum(starts) - 1
        sizes = [len(ads) for ads in per_poa]
        stops = np.cumsum(sizes).tolist()
        # an id carried by another object than its row's must name the same ad
        objects = np.fromiter(map(id, flat), dtype=np.uint64, count=len(flat))
        for i in np.flatnonzero(objects != objects[holder[rows]]).tolist():
            if not _same_ad(flat[holder[rows[i]]], flat[i]):
                pid = pids[bisect.bisect_right(stops, i)]
                raise ValueError(f"ad id {flat[i].ad_id} names different ads at poa {pid}")
        union = [flat[i] for i in holder.tolist()]
        self._union_ids = ids[holder]
        self._union_feats = np.array([a.features for a in union]) if union else np.zeros((0, 0))
        base = np.array([a.base_value for a in union], dtype=float)
        targets = [a.target_poa for a in union]
        is_global = np.array([t is None for t in targets], dtype=bool)
        target = np.array([-1 if t is None else t for t in targets])
        self._poas = {}
        for pid, ads, stop, size in zip(pids, per_poa, stops, sizes):
            candidate = np.zeros(len(union), dtype=bool)
            candidate[rows[stop - size : stop]] = True
            if np.count_nonzero(candidate) < size:
                raise ValueError(f"duplicate ad ids in candidates for poa {pid}")
            # ad_value over the union at once: a candidate in scope is worth
            # its base value, any other row 0
            values = np.where(candidate & (is_global | (target == pid)), base, 0.0)
            self._poas[pid] = _PoaState(ads, values, candidate)
        # The relevance window: union rows sorted on the first coordinate of
        # their window points, and the second coordinate (the first again
        # in 1-D) in the same order.
        if union:
            points, self._reach = window_points(params.metric, self._union_feats, params.d_max)
            self._axes = (0, min(1, points.shape[1] - 1))
            self._by_first = np.argsort(points[:, 0], kind="stable")
            self._first = points[self._by_first, 0]
            self._second = points[self._by_first, self._axes[1]]
            self._scale = float(np.abs(points[:, self._axes]).max())
        # vehicle id -> memo of the profile last seen under that id
        self._memos: dict[int, RelevanceMemo] = {}
        # vehicle id -> the PoA it is present under, detected
        self._under: dict[int, int] = {}
        # union row -> not selected by the broadcast in progress
        self._unselected = np.ones(len(union), dtype=bool)
        # per-event instrumentation: ads touched by the last / any event
        self.last_event_examined = 0
        self.max_event_examined = 0

    def candidate_ads(self, poa: int) -> list[Ad]:
        return self._poas[poa].ads

    def revenue(self, poa: int, ad_id: int) -> float:
        st = self._poas[poa]
        row = self._candidate_rows(st, [ad_id])[0]
        return float(st.values[row] * st.counts[row])

    def _candidate_rows(self, st: _PoaState, ad_ids: list[int]) -> np.ndarray:
        """Union rows of ad ids that are candidates at st (KeyError for any
        other id)."""
        ids = np.array(ad_ids, dtype=np.int64)
        rows = self._union_ids.searchsorted(ids)
        if (
            self._union_ids.size
            and (self._union_ids.take(rows, mode="clip") == ids).all()
            and st.candidate[rows].all()
        ):
            return rows
        raise KeyError(f"not all of {ad_ids} are candidates here")

    def _note_event(self, examined: int) -> None:
        self.last_event_examined = examined
        if examined > self.max_event_examined:
            self.max_event_examined = examined

    def on_vehicle_enter(self, poa: int, v: VehicleProfile, detected: bool) -> None:
        """Credit every candidate ad relevant to v, unless already served.

        Undetected vehicles leave no trace: the broker never saw them.
        """
        if not detected:
            self._note_event(0)
            return
        st = self._poas[poa]
        under = self._under.get(v.vehicle_id)
        if under == poa:
            raise ValueError(f"vehicle {v.vehicle_id} already present under poa {poa}")
        if under is not None:
            raise ValueError(
                f"vehicle {v.vehicle_id} entered poa {poa} while present under poa {under}"
            )
        memo = self._memos.get(v.vehicle_id)
        if memo is None or memo.profile is not v:
            memo = self.relevance(v)
        worth = st.values[memo.rows] > 0
        self._note_event(np.count_nonzero(worth))
        entries = (worth & memo.unserved).nonzero()[0]
        st.counts[memo.rows[entries]] += 1
        st.present[v.vehicle_id] = (memo, entries)
        self._under[v.vehicle_id] = poa

    def relevance(self, v: VehicleProfile) -> RelevanceMemo:
        """The memo of v's relevant candidate ads, at any PoA; scanned once
        per profile object and remembered under its vehicle id. A vehicle
        present under a PoA keeps its memo: another profile object under
        its id raises ValueError."""
        memo = self._memos.get(v.vehicle_id)
        if memo is not None and memo.profile is v:
            return memo
        if v.vehicle_id in self._under:
            raise ValueError(
                f"vehicle {v.vehicle_id} is present under poa {self._under[v.vehicle_id]} "
                "with another profile"
            )
        if self._union_ids.size:
            rows = self._window(v)
            dists = distances_to(self.params.metric, v.interests, self._union_feats[rows])
        else:
            rows, dists = _NO_ROWS, np.zeros(0)
        relevant = dists <= self.params.d_max
        rows = rows[relevant]
        ids = self._union_ids[rows]
        served = self.registry.get(v.vehicle_id)
        unserved = ~np.isin(ids, list(served)) if served else np.ones(ids.size, dtype=bool)
        memo = RelevanceMemo(v, rows, ids, dists[relevant], unserved)
        self._memos[v.vehicle_id] = memo
        return memo

    def _window(self, v: VehicleProfile) -> np.ndarray:
        """Union rows, ascending, whose window points lie within the reach
        of v's on both window coordinates: a superset of the rows within
        d_max of v, which only `distances_to` decides."""
        if v.interests.shape != self._union_feats.shape[1:]:
            raise ValueError(
                f"vehicle {v.vehicle_id} has {v.interests.size} features, "
                f"ads have {self._union_feats.shape[1]}"
            )
        point, reach = window_points(self.params.metric, v.interests, self.params.d_max)
        first, second = float(point[self._axes[0]]), float(point[self._axes[1]])
        # a relative slack for the kernel's rounding, and a few ulps of the
        # largest coordinate, which also covers differences whose squares
        # underflow
        scale = max(self._scale, abs(first), abs(second), _TINY_SCALE)
        reach = max(reach, self._reach) * (1.0 + _REACH_SLACK) + 4.0 * math.ulp(scale)
        lo = np.searchsorted(self._first, first - reach, side="left")
        hi = np.searchsorted(self._first, first + reach, side="right")
        near = np.abs(self._second[lo:hi] - second) <= reach
        return np.sort(self._by_first[lo:hi][near])

    def on_vehicle_exit(self, poa: int, vehicle_id: int) -> None:
        """Remove the vehicle's credits; no-op for vehicles never detected."""
        st = self._poas[poa]
        if vehicle_id not in st.present:
            self._note_event(0)
            return
        rows = st.credited(vehicle_id)
        del st.present[vehicle_id], self._under[vehicle_id]
        self._note_event(rows.size)
        if rows.size:
            st.counts[rows] -= 1

    def on_broadcast(self, poa: int, selected: list[int]) -> None:
        """Register the broadcast for every detected vehicle present and
        withdraw their pending credit for the selected ads."""
        if not selected:
            return
        st = self._poas[poa]
        rows = self._candidate_rows(st, selected)
        # every vehicle credited for a selected ad is present: none remains
        st.counts[rows] = 0
        self._unselected[rows] = False
        for vid, (memo, _) in st.present.items():
            self.registry.setdefault(vid, set()).update(selected)
            memo.unserved &= self._unselected[memo.rows]
        self._unselected[rows] = True

    def _positive_by_revenue(self, poa: int) -> tuple[np.ndarray, np.ndarray]:
        """(union rows, ad ids) of the positive-estimate ads, ordered by
        R descending then AdId ascending."""
        st = self._poas[poa]
        if not st.present:  # counts count the vehicles present: all are 0
            return _NO_ROWS, _NO_ROWS
        rows = (st.counts > 0).nonzero()[0]
        # rows ascend with ad id, so a stable sort breaks ties by id
        rows = rows[np.argsort(-(st.values[rows] * st.counts[rows]), kind="stable")]
        return rows, self._union_ids[rows]


_NO_ROWS = np.zeros(0, dtype=np.int64)

# The relevance window's reach is this much wider than d_max, relative to
# it, and at least a few ulps of this scale wider.
_REACH_SLACK = 2.0**-20
_TINY_SCALE = 2.0**-460

# select_volfied's first block of candidates, in multiples of k; each later
# block doubles it.
_HEAD_PER_SLOT = 4


def select_volfied(
    est: RevenueEstimator,
    poa: int,
    params: SelectionParams,
    stats: SelectionStats | None = None,
) -> list[int]:
    """Greedy conflict-free selection.

    Scans candidates by estimated revenue (descending, AdId ascending on
    ties) and admits an ad only while fewer than m already-admitted ads
    lie within 2*d_max of it; stops at k admitted. Zero-estimate ads are
    skipped: they cannot contribute revenue but could block a slot.

    The conflict distances come in blocks: the head of the candidate list
    against itself and the ads admitted before it, by one
    `paired_distances` call. `stats.distance_evals` counts the pairs the
    greedy consults, one per admitted ad for every candidate examined.
    """
    rows, ids = est._positive_by_revenue(poa)
    reach = 2.0 * params.d_max
    chosen: list[int] = []  # indices into rows
    chosen_feats = est._union_feats[:0]
    evals = 0
    start, size = 0, _HEAD_PER_SLOT * params.k
    while start < len(rows) and len(chosen) < params.k:
        stop = min(start + size, len(rows))
        block = est._union_feats[rows[start:stop]]
        # columns: the ads admitted before the block, then the block itself
        prior = len(chosen)
        against = np.concatenate([chosen_feats, block]) if prior else block
        near = (paired_distances(params.metric, block[:, None], against[None]) <= reach).tolist()
        columns = list(range(prior))
        for i in range(start, stop):
            n = len(chosen)
            if n >= params.k:
                break
            row = near[i - start]
            evals += n
            if sum([row[c] for c in columns]) < params.m:
                chosen.append(i)
                columns.append(prior + i - start)
        chosen_feats = against[columns]
        start, size = stop, 2 * size
    if stats is not None:
        stats.distance_evals += evals
    return ids[chosen].tolist()


def select_topk(est: RevenueEstimator, poa: int, params: SelectionParams) -> list[int]:
    """The k highest positive-estimate ads."""
    return est._positive_by_revenue(poa)[1][: params.k].tolist()


def select_random(
    est: RevenueEstimator,
    poa: int,
    params: SelectionParams,
    rng_stream: np.random.Generator,
) -> list[int]:
    """Uniform sample without replacement from the positive-estimate ads."""
    positive = np.sort(est._positive_by_revenue(poa)[1])
    if positive.size == 0:
        return []
    size = min(params.k, positive.size)
    picked = rng_stream.choice(positive, size=size, replace=False)
    return picked.tolist()


def is_conflict_free(selected: list[Ad], interests: np.ndarray, params: SelectionParams) -> bool:
    """True iff no vehicle has more than m relevant ads among `selected`.

    `interests` holds one vehicle's interest vector per row, shape
    (count, n). Relevance here is the feature-space test alone; pair it
    with structurally_conflict_free to certify against every possible
    vehicle rather than a sampled population.
    """
    if not selected or len(interests) == 0:
        return True
    feats = np.stack([a.features for a in selected])
    return int(count_within(params.metric, interests, feats, params.d_max).max()) <= params.m


def structurally_conflict_free(selected: list[Ad], params: SelectionParams) -> bool:
    """Certify the greedy invariant on an ordered set: each ad saw fewer
    than m predecessors within 2*d_max. By the triangle inequality this
    rules out conflicts for arbitrary vehicles, not just sampled ones."""
    for i, a in enumerate(selected):
        if i == 0:
            continue
        prior = np.stack([b.features for b in selected[:i]])
        d = distances_to(params.metric, a.features, prior)
        if int(np.count_nonzero(d <= 2.0 * params.d_max)) >= params.m:
            return False
    return True
