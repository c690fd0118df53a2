"""Per-PoA revenue estimation and the broadcast selection strategies.

The estimator credits an ad with its value once per relevant, detected,
currently-present vehicle that has not already received that ad, and takes
the credit back when the vehicle leaves or the ad is broadcast to it.
Estimates are stored as contributor counts, so R(a, u) = value * count is
exact and enter/exit round trips restore state bit for bit.
"""

from __future__ import annotations

import bisect
import math
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
    does not hold yet."""

    __slots__ = ("profile", "rows", "ids", "dists", "unserved")

    def __init__(self, profile, rows, ids, dists, unserved):
        self.profile = profile
        self.rows = rows
        self.ids = ids
        self.dists = dists
        self.unserved = unserved

    def distances(self, ad_ids: Iterable[int]) -> list[float]:
        """Distance to each ad, inf for an ad that is not relevant."""
        ids, dists = self.ids.tolist(), self.dists.tolist()
        out = []
        for ad_id in ad_ids:
            i = bisect.bisect_left(ids, ad_id)
            out.append(dists[i] if i < len(ids) and ids[i] == ad_id else math.inf)
        return out


class _PoaState:
    """Candidates (as rows of the estimator's union feature matrix), their
    values and contributor counts, and the detected vehicles present.

    A present vehicle keeps the positions it was credited for on entering
    and the broadcast sequence number it entered after; a credited
    position broadcast since then (`sent` beyond that number) was taken
    back at the broadcast.
    """

    __slots__ = ("ads", "ids", "pos_of", "rows", "earning", "values", "counts", "sent", "present")

    def __init__(self, poa_id: int, ads: list[Ad], rows: np.ndarray, values: np.ndarray, n_union: int):
        self.ads = list(ads)
        self.ids = np.array([a.ad_id for a in ads], dtype=np.int64)
        if len(set(self.ids.tolist())) != len(ads):
            raise ValueError(f"duplicate ad ids in candidates for poa {poa_id}")
        self.pos_of = {a.ad_id: i for i, a in enumerate(ads)}
        self.rows = rows
        self.values = values
        # union row -> position of a candidate worth something here, else -1
        self.earning = np.full(n_union, -1, dtype=np.int64)
        positive = np.flatnonzero(values > 0)
        self.earning[rows[positive]] = positive
        self.counts = np.zeros(len(ads), dtype=np.int64)
        # position -> sequence number of its last broadcast here (0: never)
        self.sent = np.zeros(len(ads), dtype=np.int64)
        # vehicle id -> (positions credited on entering, sequence number then)
        self.present: dict[int, tuple[np.ndarray, int]] = {}

    def credited(self, vehicle_id: int) -> np.ndarray:
        """Positions a present vehicle is credited for now."""
        positions, entered = self.present[vehicle_id]
        return positions[self.sent[positions] <= entered] if positions.size else positions


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
    found by one scan of the union of all candidate sets, on its first
    detected enter (or first `relevance` call), and remembered in a
    `RelevanceMemo`, which the display reads too. An enter gathers the
    memo's rows into the PoA's earning candidate positions and drops those
    the memo marks served. A broadcast zeroes the selected ads' counts,
    since every vehicle credited for them is present, and registers them
    for those vehicles (registry and memo); their stored credit is left
    as it is, and an exit skips the positions broadcast since the enter.
    """

    def __init__(self, params: SelectionParams, candidates_by_poa: dict[int, list[Ad]]):
        self.params = params
        self.registry: dict[int, set[int]] = {}
        union: dict[int, Ad] = {}
        for pid, ads in candidates_by_poa.items():
            for a in ads:
                first = union.setdefault(a.ad_id, a)
                if not _same_ad(first, a):
                    raise ValueError(f"ad id {a.ad_id} names different ads at poa {pid}")
        order = sorted(union)  # union rows ascend with ad id
        self._union_ids = np.array(order, dtype=np.int64)
        self._union_feats = (
            np.stack([union[i].features for i in order]) if union else np.zeros((0, 0))
        )
        base = np.array([union[i].base_value for i in order], dtype=float)
        is_global = np.array([union[i].is_global for i in order], dtype=bool)
        target = np.array([-1 if union[i].is_global else union[i].target_poa for i in order])
        self._poas = {}
        for pid, ads in candidates_by_poa.items():
            rows = np.searchsorted(self._union_ids, [a.ad_id for a in ads]).astype(np.int64)
            # ad_value over all candidates at once: in scope, base value; else 0
            in_scope = is_global[rows] | (target[rows] == pid)
            values = np.where(in_scope, base[rows], 0.0)
            self._poas[pid] = _PoaState(pid, ads, rows, values, len(order))
        # vehicle id -> memo of the profile last seen under that id
        self._memos: dict[int, RelevanceMemo] = {}
        # broadcasts made so far, the sequence number of the last one
        self._broadcasts = 0
        # union row -> not selected by the broadcast in progress
        self._unselected = np.ones(len(order), dtype=bool)
        # per-event instrumentation: ads touched by the last / any event
        self.last_event_examined = 0
        self.max_event_examined = 0

    def candidate_ads(self, poa: int) -> list[Ad]:
        return self._poas[poa].ads

    def revenue(self, poa: int, ad_id: int) -> float:
        st = self._poas[poa]
        pos = st.pos_of[ad_id]
        return float(st.values[pos] * st.counts[pos])

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
        if v.vehicle_id in st.present:
            raise ValueError(f"vehicle {v.vehicle_id} already present under poa {poa}")
        if st.ids.size == 0:
            positions = _NO_POSITIONS
            self._note_event(0)
        else:
            memo = self._memos.get(v.vehicle_id)
            if memo is None or memo.profile is not v:
                memo = self.relevance(v)
            positions = st.earning[memo.rows]
            relevant = positions >= 0
            self._note_event(np.count_nonzero(relevant))
            positions = positions[relevant & memo.unserved]
        st.counts[positions] += 1
        st.present[v.vehicle_id] = (positions, self._broadcasts)

    def relevance(self, v: VehicleProfile) -> RelevanceMemo:
        """The memo of v's relevant candidate ads, at any PoA; scanned once
        per profile object and remembered under its vehicle id."""
        memo = self._memos.get(v.vehicle_id)
        if memo is not None and memo.profile is v:
            return memo
        if self._union_ids.size:
            dists = distances_to(self.params.metric, v.interests, self._union_feats)
        else:
            dists = np.zeros(0)
        rows = np.flatnonzero(dists <= self.params.d_max)
        ids = self._union_ids[rows]
        unserved = ~np.isin(ids, list(self.registry.get(v.vehicle_id, ())))
        memo = RelevanceMemo(v, rows, ids, dists[rows], unserved)
        self._memos[v.vehicle_id] = memo
        return memo

    def on_vehicle_exit(self, poa: int, vehicle_id: int) -> None:
        """Remove the vehicle's credits; no-op for vehicles never detected."""
        st = self._poas[poa]
        if vehicle_id not in st.present:
            self._note_event(0)
            return
        positions = st.credited(vehicle_id)
        del st.present[vehicle_id]
        self._note_event(len(positions))
        if positions.size:
            st.counts[positions] -= 1

    def on_broadcast(self, poa: int, selected: list[int]) -> None:
        """Register the broadcast for every detected vehicle present and
        withdraw their pending credit for the selected ads."""
        if not selected:
            return
        st = self._poas[poa]
        positions = [st.pos_of[ad_id] for ad_id in selected]
        # every vehicle credited for a selected ad is present: none remains
        st.counts[positions] = 0
        self._broadcasts += 1
        st.sent[positions] = self._broadcasts
        rows = st.rows[positions]
        self._unselected[rows] = False
        for vid in st.present:
            self.registry.setdefault(vid, set()).update(selected)
            memo = self._memos[vid]
            memo.unserved &= self._unselected[memo.rows]
        self._unselected[rows] = True

    def _positive_by_revenue(self, poa: int) -> tuple[np.ndarray, np.ndarray]:
        """(positions, ad ids) of the positive-estimate ads, ordered by
        R descending then AdId ascending."""
        st = self._poas[poa]
        if not st.present:  # counts count the vehicles present: all are 0
            return _NO_POSITIONS, _NO_POSITIONS
        positions = np.flatnonzero(st.counts > 0)
        ids = st.ids[positions]
        order = np.lexsort((ids, -(st.values[positions] * st.counts[positions])))
        return positions[order], ids[order]


_NO_POSITIONS = np.zeros(0, dtype=np.int64)

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
    st = est._poas[poa]
    positions, ids = est._positive_by_revenue(poa)
    rows = st.rows[positions]
    reach = 2.0 * params.d_max
    chosen: list[int] = []  # indices into positions
    chosen_feats = est._union_feats[:0]
    evals = 0
    start, size = 0, _HEAD_PER_SLOT * params.k
    while start < len(positions) and len(chosen) < params.k:
        stop = min(start + size, len(positions))
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
