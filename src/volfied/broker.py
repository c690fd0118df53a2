"""Per-PoA revenue estimation and the broadcast selection strategies.

The estimator credits an ad with its value once per relevant, detected,
currently-present vehicle that has not already received that ad, and takes
the credit back when the vehicle leaves or the ad is broadcast to it.
Estimates are stored as contributor counts, so R(a, u) = value * count is
exact and enter/exit round trips restore state bit for bit.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import (
    Ad,
    AdTable,
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

    @staticmethod
    def check(k: int, m: int, d_max: float) -> None:
        """Raise ValueError unless k >= 1, m >= 1 and d_max > 0."""
        if k < 1 or m < 1:
            raise ValueError(f"k and m must be >= 1, got k={k} m={m}")
        if not d_max > 0:
            raise ValueError(f"d_max must be > 0, got {d_max}")

    def __post_init__(self):
        self.check(self.k, self.m, self.d_max)
        if self.k < self.m:
            # name the line that made the params: past this module (with
            # the generated __init__) and `dataclasses.replace`
            level, frame = 1, sys._getframe()
            while frame.f_back is not None and frame.f_globals.get("__name__") in (
                __name__,
                "dataclasses",
            ):
                level, frame = level + 1, frame.f_back
            warnings.warn(
                f"k={self.k} < m={self.m}: broadcast budget below display budget",
                UserWarning,
                stacklevel=level,
            )


@dataclass
class SelectionStats:
    """Instrumentation filled in by select_volfied."""

    distance_evals: int = 0


class _ConflictMemo:
    """Which union rows lie within 2*d_max of each other under one metric:
    `select_volfied`'s conflict test, decided once per pair.

    A union row is learned on first use. It takes the next position p, and
    `masks[p]` gets bit q for every learned row q within 2*d_max of it
    (bit p too), as `masks[q]` gets bit p. The rows of one `positions` call
    are learned against every learned row by one `paired_distances` call.
    That kernel reduces each pair on its own and either operand may come
    first, so a pair is decided with the same bits as in any other block.
    L learned rows take L^2/8 bytes of masks.
    """

    __slots__ = ("key", "masks", "_reach", "_union_feats", "_at", "_feats")

    def __init__(self, metric: DistanceMetric, d_max: float, union_feats: np.ndarray):
        self.key = (metric, d_max)
        self.masks: list[int] = []
        self._reach = 2.0 * d_max
        self._union_feats = union_feats
        # the position of each union row (-1: not learned), and the learned
        # rows' features by position
        self._at = np.full(len(union_feats), -1, dtype=np.int64)
        self._feats = np.empty_like(union_feats)

    def positions(self, rows: np.ndarray) -> list[int]:
        """The position of each of `rows` (distinct union rows), learning
        those not learned yet."""
        at = self._at[rows]
        new = rows[at < 0]
        if new.size:
            self._learn(new)
            at = self._at[rows]
        return at.tolist()

    def _learn(self, rows: np.ndarray) -> None:
        old = len(self.masks)
        total = old + rows.size
        feats = self._union_feats[rows]
        self._feats[old:total] = feats
        near = paired_distances(self.key[0], feats[:, None], self._feats[None, :total])
        near = near <= self._reach
        self._at[rows] = np.arange(old, total)
        self.masks.extend(_row_bits(near))
        # the rows learned before get the new rows' bits
        earlier = np.flatnonzero(near[:, :old].any(axis=0))
        masks = self.masks
        for q, bits in zip(earlier.tolist(), _row_bits(near[:, earlier].T)):
            masks[q] |= bits << old


def _row_bits(near: np.ndarray) -> list[int]:
    """Each row of a 2-D boolean array as an int with bit j for column j."""
    packed = np.packbits(near, axis=1, bitorder="little")
    width, raw = packed.shape[1], packed.tobytes()
    return [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]


def _grown(a: np.ndarray, used: int, size: int, fill=0) -> np.ndarray:
    out = np.full(size, fill, dtype=a.dtype)
    out[:used] = a[:used]
    return out


class RevenueEstimator:
    """Incremental R(a, u) over fixed per-PoA candidate sets.

    `catalog` holds the broker's ads, no id twice; `candidates[poa]` is a
    boolean mask over its rows, the ads that PoA broadcasts from, and any
    other mask raises ValueError naming the PoA. The union catalog, the
    rows some mask holds, ascends by ad id for the ranking's tie-break.

    `registry` maps vehicle id to the set of ad ids already broadcast
    while that vehicle was present and detected; such pairs never earn
    credit again anywhere.

    Profiles and candidate sets are fixed, so a vehicle's relevant ads are
    found once per profile, when `vehicle_slots` makes its slot or gives it
    another profile, and kept as its memo: a run of entries in the flat
    arrays below, which the display reads through `memo_entries` and
    `present` and `relevance` read too. The scan covers the union of all
    candidate sets through a window: the union rows are sorted once on
    one coordinate, two `searchsorted` calls take those within reach of
    the profile on it, a second coordinate drops more, and `distances_to`
    decides which of the rest lie within d_max.

    Whether a cell is worth anything (a candidate in scope at its PoA) and
    the contributor counts are (PoA x union row) tables, and R(a, u) is the
    row's base value times the count. The memos' entries lie end to end in
    flat arrays (row, distance, unserved). Each vehicle has a slot, made on
    first sight, and slot arrays hold the PoA row it is present under,
    detected (-1: none), and where its memo's entries start and stop. So a
    step's events are a few array operations over the slots they move and
    the entries of their memos. `on_slot_events`, the one event path,
    takes a step's exits and enters by slot: an enter credits the memo's
    rows worth something at the PoA that the memo marks unserved, and an
    exit takes back those the memo still marks unserved. `on_broadcasts`
    takes a step's broadcasts: it zeroes the selected ads' counts, since
    every vehicle credited for them is present, and registers them for
    those vehicles, in the registry and in their memos' flags; a memo is
    scanned unserved except where the registry holds its vehicle. The flags
    and the registry are thus the one record of who was served. That holds
    because a vehicle is present under at most one PoA and its memo does
    not change while it is present; breaking either raises ValueError. It
    also makes an exit take back exactly what its enter credited, since in
    between the memo's flags only go from unserved to served. The
    per-vehicle `on_vehicle_enter`, `on_vehicle_exit` and `on_broadcast`
    are the one-event cases, by PoA id and vehicle id or profile; the first
    two check their event before they hand it to `on_slot_events`.

    `conflict_memo` keeps, for `select_volfied`, which union rows lie
    within 2*d_max of each other, each pair decided once.
    """

    def __init__(
        self, params: SelectionParams, catalog: Sequence[Ad], candidates: Mapping[int, np.ndarray]
    ):
        self.params = params
        self._registry: dict[int, set[int]] = {}
        # broadcasts not yet in _registry: (vehicle ids present, ad ids)
        self._unfiled: list[tuple[list[int], tuple[int, ...]]] = []
        catalog = AdTable.from_ads(catalog)
        pids = list(candidates)
        masks = np.zeros((len(pids), len(catalog)), dtype=bool)
        for row, (pid, mask) in enumerate(candidates.items()):
            mask = np.asarray(mask)
            if mask.dtype != bool or mask.shape != masks.shape[1:]:
                raise ValueError(
                    f"candidates for poa {pid} must be a boolean mask over the catalog's "
                    f"{len(catalog)} rows, got {mask.dtype} of shape {mask.shape}"
                )
            masks[row] = mask
        union = np.flatnonzero(masks.any(axis=0))
        union = union[np.argsort(catalog.ids[union])]
        self._union_ids = catalog.ids[union]
        self._union_feats = catalog.features[union]
        # base value and target PoA id (-1: Global) of each union row
        base, target = catalog.base_values[union], catalog.target_poa[union]
        self.union_base, self.union_target = base, target
        self._candidate = masks[:, union]
        self._pids = pids
        self._poa_row = {pid: row for row, pid in enumerate(pids)}
        # ad_value over the table at once: a candidate in scope is worth its
        # base value, any other cell nothing
        in_scope = (target < 0) | (target == np.array(pids, dtype=np.int64)[:, None])
        self._worth = self._candidate & in_scope
        self._counts = np.zeros(self._candidate.shape, dtype=np.int64)
        # the cells the last on_broadcasts call selected, and a last row,
        # never set, for PoA row -1
        self._sent = np.zeros((len(pids) + 1, len(union)), dtype=bool)
        self._sent_cells = (_NO_ROWS, _NO_ROWS)
        # per PoA row: (union rows, ad ids) of the positive estimates in
        # selection order, None once a count has changed
        self._ranked: list[tuple[np.ndarray, np.ndarray]] | None = None
        # The relevance window: union rows sorted on the first coordinate of
        # their window points, and the second coordinate (the first again
        # in 1-D) in the same order.
        if len(union):
            points, self._reach = window_points(params.metric, self._union_feats, params.d_max)
            self._axes = (0, min(1, points.shape[1] - 1))
            self._by_first = np.argsort(points[:, 0], kind="stable")
            self._first = points[self._by_first, 0]
            self._second = points[self._by_first, self._axes[1]]
            self._scale = float(np.abs(points[:, self._axes]).max())
        # the memos' entries end to end, the first `_used` in use: union
        # row, distance, not yet served
        self._used = 0
        self._rows = np.zeros(0, dtype=np.int64)
        self._dists = np.zeros(0)
        self._unserved = np.zeros(0, dtype=bool)
        # per slot, the first `_n_slots` in use: vehicle id, the PoA row it
        # is present under, detected (-1: none), where its memo's entries
        # start and stop, and the profile its memo was scanned for
        self._slot_of: dict[int, int] = {}
        self._n_slots = 0
        self._vids = np.zeros(0, dtype=np.int64)
        self._at = np.zeros(0, dtype=np.int64)
        self._start = np.zeros(0, dtype=np.int64)
        self._stop = np.zeros(0, dtype=np.int64)
        self._profile: list[VehicleProfile] = []
        # per-event instrumentation: ads touched by the last / any event
        self.last_event_examined = 0
        self.max_event_examined = 0
        self._conflicts: _ConflictMemo | None = None

    @property
    def registry(self) -> dict[int, set[int]]:
        """Vehicle id -> the ad ids broadcast while it was present and
        detected. Broadcasts are logged per PoA and filed here when read."""
        for vids, ad_ids in self._unfiled:
            for vid in vids:
                self._registry.setdefault(vid, set()).update(ad_ids)
        self._unfiled.clear()
        return self._registry

    def revenue(self, poa: int, ad_id: int) -> float:
        at = self._poa_row[poa]
        row = self._check_candidates(at, [ad_id])[0]
        return float(self.union_base[row] * self._counts[at, row])

    def _check_candidates(self, at: int, ad_ids: Sequence[int]) -> np.ndarray:
        """Union rows of ad ids that are candidates at the PoA row `at`
        (KeyError for any other id)."""
        rows = self._candidate_rows(at, ad_ids)
        if rows is None:
            raise KeyError(f"not all of {ad_ids} are candidates here")
        return rows

    def _candidate_rows(self, at, ad_ids: Sequence[int]) -> np.ndarray | None:
        """Union rows of ad ids, each a candidate at the PoA row `at` (or at
        its own entry of an array `at`); None if any is not."""
        ids = np.array(ad_ids, dtype=np.int64)
        rows = self._union_ids.searchsorted(ids)
        if (
            self._union_ids.size
            and (self._union_ids.take(rows, mode="clip") == ids).all()
            and self._candidate[at, rows].all()
        ):
            return rows
        return None

    def present(self, poa: int) -> dict[int, slice]:
        """Vehicle id -> the slice of the flat entry arrays that holds its
        memo, for each detected vehicle present under `poa`."""
        slots = np.flatnonzero(self._at == self._poa_row[poa]).tolist()
        return {int(self._vids[s]): slice(self._start[s], self._stop[s]) for s in slots}

    def poa_rows(self, poa_ids: Iterable[int]) -> np.ndarray:
        """The row of each PoA id in the estimator's tables."""
        return np.array([self._poa_row[pid] for pid in poa_ids], dtype=np.int64)

    def vehicle_slots(self, profiles: Iterable[VehicleProfile]) -> np.ndarray:
        """The slot of each profile's vehicle, made on first sight. Its memo
        is scanned for the profile when the slot is made or takes another
        profile. A vehicle present under a PoA keeps its profile: another
        one raises ValueError."""
        slots = []
        for v in profiles:
            s = self._slot(v.vehicle_id)
            if self._profile[s] is not v:
                if self._at[s] >= 0:
                    raise ValueError(
                        f"vehicle {v.vehicle_id} is present under poa "
                        f"{self._pids[self._at[s]]} with another profile"
                    )
                self._start[s], self._stop[s] = self._scan(v)
                self._profile[s] = v
            slots.append(s)
        return np.array(slots, dtype=np.int64)

    def _slot(self, vid: int) -> int:
        """The slot of vehicle `vid`, made absent and with no profile if
        new."""
        s = self._slot_of.get(vid)
        if s is not None:
            return s
        s = self._slot_of[vid] = self._n_slots
        self._n_slots += 1
        if s == self._at.size:
            size = max(8, 2 * s)
            self._vids, self._start, self._stop = (
                _grown(a, s, size) for a in (self._vids, self._start, self._stop)
            )
            self._at = _grown(self._at, s, size, -1)
        self._vids[s] = vid
        self._profile.append(None)
        return s

    def on_vehicle_enter(self, poa: int, v: VehicleProfile, detected: bool) -> None:
        """Credit every candidate ad relevant to v, unless already served.

        Undetected vehicles leave no trace: the broker never saw them. A
        detected vehicle must not be present under any PoA: it raises
        ValueError, as a PoA id the estimator does not know raises
        KeyError, before anything changes.
        """
        enters = at = _NO_ROWS
        if detected:
            at = np.array([self._poa_row[poa]], dtype=np.int64)
            vid = v.vehicle_id
            s = self._slot_of.get(vid)
            if s is not None and self._at[s] >= 0:
                was = self._pids[self._at[s]]
                if was == poa:
                    raise ValueError(f"vehicle {vid} already present under poa {poa}")
                raise ValueError(f"vehicle {vid} entered poa {poa} while present under poa {was}")
            enters = self.vehicle_slots([v])
        self.on_slot_events(_NO_ROWS, enters, at)

    def on_vehicle_exit(self, poa: int, vehicle_id: int) -> None:
        """Remove the vehicle's credits; no-op for a vehicle not present
        and detected under `poa` (KeyError for a PoA id the estimator does
        not know)."""
        row = self._poa_row[poa]
        s = self._slot_of.get(vehicle_id)
        exits = np.array([s], dtype=np.int64) if s is not None and self._at[s] == row else _NO_ROWS
        self.on_slot_events(exits, _NO_ROWS, _NO_ROWS)

    def on_slot_events(self, exits: np.ndarray, enters: np.ndarray, at: np.ndarray) -> None:
        """One step's coverage events by vehicle slot, in one pass over
        their memos' entries: the vehicles at `exits` leave the PoA they
        are present under (a vehicle present under none is skipped), then
        those at `enters`, detected and none of them present, enter the PoA
        rows `at`. An exit takes back, and an enter credits, the entries
        worth something at the PoA and still unserved. The examined counts
        are per event, exits first, and `last_event_examined` is the last
        applied event's (0 if none)."""
        exits = exits[self._at[exits] >= 0]
        if not exits.size and not enters.size:
            self.last_event_examined = 0
            return
        out, out_owner = self._entries(exits)
        left = self._at[exits]
        self._at[exits] = -1
        self._at[enters] = at
        into, into_owner = self._entries(enters)
        width = self._counts.shape[1]
        gone = left[out_owner] * width + self._rows[out]
        taken = self._worth.reshape(-1)[gone] & self._unserved[out]
        cells = at[into_owner] * width + self._rows[into]
        worth = self._worth.reshape(-1)[cells]
        credit = worth & self._unserved[into]
        counts = self._counts.reshape(-1)
        np.add.at(counts, gone[taken], -1)
        np.add.at(counts, cells[credit], 1)
        self._ranked = None
        hits = np.concatenate([out_owner[taken], into_owner[worth] + exits.size])
        examined = np.bincount(hits, minlength=exits.size + enters.size)
        self.last_event_examined = int(examined[-1])
        self.max_event_examined = max(self.max_event_examined, int(examined.max()))

    def _entries(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of the memo entries of the vehicles at `slots`, slot
        after slot, and the index into `slots` of the one each belongs to."""
        starts = self._start[slots]
        sizes = self._stop[slots] - starts
        owner = np.repeat(np.arange(slots.size), sizes)
        shift = starts + sizes - sizes.cumsum()
        return np.arange(owner.size) + shift[owner], owner

    def memo_entries(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The memo entries of the vehicles at `slots`, slot after slot and
        ascending by union row within a memo: their flat indices, the index
        into `slots` of the vehicle each belongs to, their union rows and
        their distances."""
        idx, owner = self._entries(slots)
        return idx, owner, self._rows[idx], self._dists[idx]

    def sent(self, at: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Whether the last `on_broadcasts` call sent each union row at each
        PoA row; never at PoA row -1."""
        return self._sent[at, rows]

    def relevance(self, v: VehicleProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(union rows, ad ids, distances) of v's relevant candidate ads, at
        any PoA, ascending by union row: its memo, scanned once per profile
        object. A vehicle present under a PoA keeps its memo: another
        profile object under its id raises ValueError."""
        _, _, rows, dists = self.memo_entries(self.vehicle_slots([v]))
        return rows, self._union_ids[rows], dists

    def _scan(self, v: VehicleProfile) -> tuple[int, int]:
        """Append a new memo of v's relevant union rows to the flat arrays,
        unserved unless the registry holds them; its (start, stop)."""
        if self._union_ids.size:
            rows = self._window(v)
            dists = distances_to(self.params.metric, v.interests, self._union_feats[rows])
        else:
            rows, dists = _NO_ROWS, np.zeros(0)
        relevant = dists <= self.params.d_max
        rows, dists = rows[relevant], dists[relevant]
        ids = self._union_ids[rows]
        start, stop = self._used, self._used + rows.size
        if stop > self._rows.size:
            size = max(stop, 2 * self._rows.size)
            self._rows = _grown(self._rows, start, size)
            self._dists = _grown(self._dists, start, size)
            self._unserved = _grown(self._unserved, start, size)
        self._used = stop
        self._rows[start:stop] = rows
        self._dists[start:stop] = dists
        served = self.registry.get(v.vehicle_id)
        self._unserved[start:stop] = ~np.isin(ids, list(served)) if served else True
        return start, stop

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

    def on_broadcast(self, poa: int, selected: list[int]) -> None:
        """Register the broadcast for every detected vehicle present and
        withdraw their pending credit for the selected ads."""
        self.on_broadcasts({poa: selected})

    def on_broadcasts(self, selected: Mapping[int, Sequence[int]]) -> None:
        """One step's broadcasts, the ad ids selected[poa] at each PoA, as
        one `on_broadcast` call per PoA would apply them. Every id is
        checked before any broadcast is applied. The cells sent stay marked
        for `sent` until the next call."""
        sent = [(self._poa_row.get(pid), ad_ids) for pid, ad_ids in selected.items() if ad_ids]
        at = rows = _NO_ROWS
        if sent:
            rows = None
            if all(row is not None for row, _ in sent):
                at = np.repeat([row for row, _ in sent], [len(ad_ids) for _, ad_ids in sent])
                rows = self._candidate_rows(at, list(itertools.chain.from_iterable(a for _, a in sent)))
            if rows is None:  # raise the first PoA's KeyError
                for pid, ad_ids in selected.items():
                    if ad_ids:
                        self._check_candidates(self._poa_row[pid], ad_ids)
        self._sent[self._sent_cells] = False
        self._sent[at, rows] = True
        self._sent_cells = (at, rows)
        if not sent:
            return
        # every vehicle credited for a selected ad is present: none remains
        self._counts[at, rows] = 0
        self._ranked = None
        # the vehicles present under a PoA that broadcast, by PoA row
        sending = np.zeros(len(self._pids) + 1, dtype=bool)  # the last for row -1
        sending[at] = True
        slots = np.flatnonzero(sending[self._at])
        under = self._at[slots]
        order = np.argsort(under, kind="stable")
        slots, under = slots[order], under[order]
        sent_rows = [row for row, _ in sent]
        lo = np.searchsorted(under, sent_rows, side="left").tolist()
        hi = np.searchsorted(under, sent_rows, side="right").tolist()
        for (_, ad_ids), a, b in zip(sent, lo, hi):
            if a < b:
                self._unfiled.append((self._vids[slots[a:b]].tolist(), tuple(ad_ids)))
        if slots.size:
            idx, owner = self._entries(slots)
            self._unserved[idx] &= ~self._sent[under[owner], self._rows[idx]]

    def conflict_memo(self, metric: DistanceMetric, d_max: float) -> _ConflictMemo:
        """The conflict memo of the union rows for (metric, d_max), kept
        until a call asks for another pair."""
        if self._conflicts is None or self._conflicts.key != (metric, d_max):
            self._conflicts = _ConflictMemo(metric, d_max, self._union_feats)
        return self._conflicts

    def _positive_by_revenue(self, poa: int) -> tuple[np.ndarray, np.ndarray]:
        """(union rows, ad ids) of the positive-estimate ads, ordered by
        R descending then AdId ascending."""
        if self._ranked is None:
            self._ranked = self._rank()
        return self._ranked[self._poa_row[poa]]

    def _rank(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """`_positive_by_revenue` of every PoA row, from one pass over the
        count table."""
        width = max(self._counts.shape[1], 1)
        cells = np.flatnonzero(self._counts > 0)  # by PoA row, then union row
        at, rows = np.divmod(cells, width)
        r = self.union_base[rows] * self._counts.reshape(-1)[cells]
        # rows ascend with ad id within a PoA, so a stable order breaks ties by id
        rows = rows[np.lexsort((-r, at))]
        ids = self._union_ids[rows]
        bounds = np.searchsorted(at, np.arange(self._counts.shape[0] + 1)).tolist()
        return [(rows[a:b], ids[a:b]) for a, b in zip(bounds, bounds[1:])]


_NO_ROWS = np.zeros(0, dtype=np.int64)

# The relevance window's reach is this much wider than d_max, relative to
# it, and at least a few ulps of this scale wider.
_REACH_SLACK = 2.0**-20
_TINY_SCALE = 2.0**-460


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

    The conflicts come from the estimator's conflict memo for the call's
    metric and d_max, which decides each pair of union rows once per
    estimator: it learns every candidate it has not seen in one
    `paired_distances` call. A candidate is admitted iff its mask shares
    fewer than m bits with the admitted ads'. A lone candidate is admitted
    without any memo work.
    `stats.distance_evals` counts the pairs the greedy consults, one per
    admitted ad for every candidate examined.
    """
    rows, ids = est._positive_by_revenue(poa)
    if len(rows) <= 1:
        # the first candidate is always admitted, consulting no pair
        return ids[:1].tolist()
    memo = est.conflict_memo(params.metric, params.d_max)
    masks = memo.masks
    chosen: list[int] = []  # indices into rows
    taken = 0  # the admitted ads' bits
    evals = 0
    for i, p in enumerate(memo.positions(rows)):
        n = len(chosen)
        if n >= params.k:
            break
        evals += n
        if (masks[p] & taken).bit_count() < params.m:
            chosen.append(i)
            taken |= 1 << p
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
