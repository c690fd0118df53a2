"""Per-PoA revenue estimation and the broadcast selection strategies.

The estimator credits an ad with its value once per relevant, detected,
currently-present vehicle that has not already received that ad, and takes
the credit back when the vehicle leaves or the ad is broadcast to it.
Estimates are stored as contributor counts, so R(a, u) = value * count is
exact and enter/exit round trips restore state bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .model import Ad, DistanceMetric, VehicleProfile, distances_to

__all__ = [
    "SelectionParams",
    "SelectionStats",
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


class _PoaState:
    """Candidates (as rows of the estimator's union feature matrix), their
    values, and contributor bookkeeping for one PoA."""

    __slots__ = ("ads", "ids", "pos_of", "rows", "values", "counts", "contrib")

    def __init__(self, poa_id: int, ads: list[Ad], rows: np.ndarray, values: np.ndarray):
        self.ads = list(ads)
        self.ids = np.array([a.ad_id for a in ads], dtype=np.int64)
        if len(set(self.ids.tolist())) != len(ads):
            raise ValueError(f"duplicate ad ids in candidates for poa {poa_id}")
        self.pos_of = {a.ad_id: i for i, a in enumerate(ads)}
        self.rows = rows
        self.values = values
        self.counts = np.zeros(len(ads), dtype=np.int64)
        # vehicle id -> positions currently credited; keys are exactly the
        # detected vehicles present under this PoA
        self.contrib: dict[int, set[int]] = {}


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
    detected enter, and remembered; every enter then costs O(relevant).
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
        self._union_ids = np.array(list(union), dtype=np.int64)
        self._union_feats = (
            np.stack([a.features for a in union.values()]) if union else np.zeros((0, 0))
        )
        row_of = {ad_id: i for i, ad_id in enumerate(union)}
        base = np.array([a.base_value for a in union.values()], dtype=float)
        is_global = np.array([a.is_global for a in union.values()], dtype=bool)
        target = np.array([-1 if a.is_global else a.target_poa for a in union.values()])
        self._poas = {}
        for pid, ads in candidates_by_poa.items():
            rows = np.array([row_of[a.ad_id] for a in ads], dtype=np.int64)
            # ad_value over all candidates at once: in scope, base value; else 0
            in_scope = is_global[rows] | (target[rows] == pid)
            values = np.where(in_scope, base[rows], 0.0)
            self._poas[pid] = _PoaState(pid, ads, rows, values)
        # vehicle id -> (profile scanned, ids of the union ads relevant to it)
        self._relevant: dict[int, tuple[VehicleProfile, frozenset[int]]] = {}
        # per-event instrumentation: ads touched by the last / any event
        self.last_event_examined = 0
        self.max_event_examined = 0

    def candidate_ads(self, poa: int) -> list[Ad]:
        return self._poas[poa].ads

    def revenue(self, poa: int, ad_id: int) -> float:
        st = self._poas[poa]
        pos = st.pos_of[ad_id]
        return float(st.values[pos] * st.counts[pos])

    def detected_present(self, poa: int) -> set[int]:
        return set(self._poas[poa].contrib)

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
        if v.vehicle_id in st.contrib:
            raise ValueError(f"vehicle {v.vehicle_id} already present under poa {poa}")
        if st.ids.size == 0:
            st.contrib[v.vehicle_id] = set()
            self._note_event(0)
            return
        pos_of, values = st.pos_of, st.values
        relevant = {
            ad_id
            for ad_id in self._relevant_ids(v)
            if ad_id in pos_of and values[pos_of[ad_id]] > 0
        }
        self._note_event(len(relevant))
        served = self.registry.get(v.vehicle_id)
        if served:
            relevant = relevant - served
        positions = {pos_of[ad_id] for ad_id in relevant}
        st.counts[list(positions)] += 1
        st.contrib[v.vehicle_id] = positions

    def _relevant_ids(self, v: VehicleProfile) -> frozenset[int]:
        """Ids of the candidate ads, at any PoA, within d_max of v; scanned
        once per profile object and remembered under its vehicle id."""
        seen = self._relevant.get(v.vehicle_id)
        if seen is not None and seen[0] is v:
            return seen[1]
        dists = distances_to(self.params.metric, v.interests, self._union_feats)
        ids = frozenset(self._union_ids[dists <= self.params.d_max].tolist())
        self._relevant[v.vehicle_id] = (v, ids)
        return ids

    def on_vehicle_exit(self, poa: int, vehicle_id: int) -> None:
        """Remove the vehicle's credits; no-op for vehicles never detected."""
        st = self._poas[poa]
        positions = st.contrib.pop(vehicle_id, None)
        if positions is None:
            self._note_event(0)
            return
        self._note_event(len(positions))
        for p in positions:
            st.counts[p] -= 1

    def on_broadcast(self, poa: int, selected: list[int]) -> None:
        """Register the broadcast for every detected vehicle present and
        withdraw their pending credit for the selected ads."""
        if not selected:
            return
        st = self._poas[poa]
        for ad_id in selected:
            pos = st.pos_of[ad_id]
            for vid in st.contrib:
                self.registry.setdefault(vid, set()).add(ad_id)
                if pos in st.contrib[vid]:
                    st.contrib[vid].discard(pos)
                    st.counts[pos] -= 1

    def _positive_by_revenue(self, poa: int) -> tuple[np.ndarray, np.ndarray]:
        """(positions, ad ids) of the positive-estimate ads, ordered by
        R descending then AdId ascending."""
        st = self._poas[poa]
        positions = np.flatnonzero(st.counts > 0)
        ids = st.ids[positions]
        order = np.lexsort((ids, -(st.values[positions] * st.counts[positions])))
        return positions[order], ids[order]


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
    """
    st = est._poas[poa]
    feats = est._union_feats
    chosen: list[int] = []
    chosen_feats = np.empty((params.k, feats.shape[1]))
    positions, ids = est._positive_by_revenue(poa)
    for pos, ad_id in zip(positions.tolist(), ids.tolist()):
        n = len(chosen)
        if n >= params.k:
            break
        f = feats[st.rows[pos]]
        if n:
            d = distances_to(params.metric, f, chosen_feats[:n])
            if stats is not None:
                stats.distance_evals += n
            blockers = int(np.count_nonzero(d <= 2.0 * params.d_max))
        else:
            blockers = 0
        if blockers < params.m:
            chosen_feats[n] = f
            chosen.append(ad_id)
    return chosen


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


def is_conflict_free(
    selected: list[Ad], vehicles: list[VehicleProfile], params: SelectionParams
) -> bool:
    """True iff no vehicle has more than m relevant ads among `selected`.

    Relevance here is the feature-space test alone; pair it with
    structurally_conflict_free to certify against every possible vehicle
    rather than a sampled population.
    """
    if not selected:
        return True
    feats = np.stack([a.features for a in selected])
    for v in vehicles:
        d = distances_to(params.metric, v.interests, feats)
        if int(np.count_nonzero(d <= params.d_max)) > params.m:
            return False
    return True


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
