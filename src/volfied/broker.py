"""Per-PoA revenue estimation and the broadcast selection strategies.

The estimator credits an ad with its value once per relevant, detected,
currently-present vehicle that has not already received that ad, and takes
the credit back when the vehicle leaves or the ad is broadcast to it.
Estimates are stored as contributor counts, so R(a, u) = value * count is
exact and enter/exit round trips restore state bit for bit.
"""

from __future__ import annotations

import itertools
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
    distances_to,  # not called here: perfbench's tracer wraps it under this name
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
    `present` and `relevance` read too. The memos one `vehicle_slots` call
    needs are scanned together, over the union of all candidate sets
    through a window: the union rows are sorted once on the first
    coordinate of their window points, and the profiles, in the order of
    theirs, go in chunks. A chunk takes the one slice of those rows within
    reach of any of its profiles on that coordinate, a (chunk x slice) mask
    keeps the pairs within reach on every coordinate, and one
    `paired_distances` call decides which of them lie within d_max.

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

    The selectors read each PoA's positive estimates ranked by R
    descending, then ad id, ranked for every PoA at once when a count has
    changed since the last rank. Only a credit makes a count positive, so a
    rank reads the counts of the cells positive at the last rank and of
    those credited since, never the whole table.

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
        # the flat cells of the count table positive at the last rank,
        # ascending, and the cells credited since (`_n_credited` of them)
        self._positive = _NO_ROWS
        self._credited: list[np.ndarray] = []
        self._n_credited = 0
        # The relevance window: union rows sorted on the first coordinate of
        # their window points, and those points' coordinates in that order,
        # one coordinate per row.
        if len(union):
            points, self._reach = window_points(params.metric, self._union_feats, params.d_max)
            self._by_first = np.argsort(points[:, 0], kind="stable")
            self._window = np.ascontiguousarray(points[self._by_first].T)
            self._scale = float(np.abs(points).max())
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
        """The slot of each profile's vehicle, made on first sight. A slot's
        memo is scanned for its last profile in the call when the slot is
        made or takes another profile, every such memo in one `_scan`. A
        vehicle present under a PoA keeps its profile: another one raises
        ValueError, as a profile whose dimension is not the ads' does,
        before any memo changes."""
        profiles = list(profiles)
        slots = [self._slot(v.vehicle_id) for v in profiles]
        for s, v in zip(slots, profiles):
            if self._profile[s] is not v:
                if self._at[s] >= 0:
                    raise ValueError(
                        f"vehicle {v.vehicle_id} is present under poa "
                        f"{self._pids[self._at[s]]} with another profile"
                    )
                if self._union_ids.size and v.interests.shape != self._union_feats.shape[1:]:
                    raise ValueError(
                        f"vehicle {v.vehicle_id} has {v.interests.size} features, "
                        f"ads have {self._union_feats.shape[1]}"
                    )
        fresh = {s: v for s, v in dict(zip(slots, profiles)).items() if self._profile[s] is not v}
        if fresh:
            self._scan(list(fresh), list(fresh.values()))
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
        credited = cells[credit]
        np.add.at(counts, credited, 1)
        self._ranked = None
        self._credited.append(credited)
        self._n_credited += credited.size
        if self._n_credited > counts.size:  # no rank for a while: fold them in
            self._positive_cells()
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

    def _scan(self, slots: list[int], profiles: list[VehicleProfile]) -> None:
        """Write a new memo of each profile's relevant union rows, for the
        slot at its place, to the flat arrays: memo after memo, each
        ascending by union row and unserved unless the registry holds it.
        They go after the entries in use, or, if the memo of one of the
        slots ends them, from that memo's start. The arrays change only once
        every memo's rows are known, so profiles that raise leave the old
        memos as they were."""
        if self._union_ids.size:
            owner, rows, dists = self._relevant(np.stack([v.interests for v in profiles]))
        else:
            owner, rows, dists = _NO_ROWS, _NO_ROWS, np.zeros(0)
        ends = [s for s in slots if self._profile[s] is not None and self._stop[s] == self._used]
        start = min((int(self._start[s]) for s in ends), default=self._used)
        stop = start + rows.size
        if stop > self._rows.size:
            size = max(stop, 2 * self._rows.size)
            self._rows = _grown(self._rows, start, size)
            self._dists = _grown(self._dists, start, size)
            self._unserved = _grown(self._unserved, start, size)
        self._used = stop
        self._rows[start:stop] = rows
        self._dists[start:stop] = dists
        self._unserved[start:stop] = True
        sizes = np.bincount(owner, minlength=len(slots))
        self._stop[slots] = start + sizes.cumsum()
        self._start[slots] = self._stop[slots] - sizes
        registry = self.registry
        for s, v in zip(slots, profiles):
            self._profile[s] = v
            served = registry.get(v.vehicle_id)
            if served:
                memo = slice(self._start[s], self._stop[s])
                self._unserved[memo] = ~np.isin(self._union_ids[self._rows[memo]], list(served))

    def _relevant(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(index into `feats`, union row, distance) of each pair of a row of
        `feats` and a union row within d_max of it, ascending by index and
        then union row.

        The rows of `feats` are taken in chunks, in the order of their first
        window coordinate. A chunk takes one slice of the window: the union
        rows whose first coordinate lies within reach of any of the chunk's.
        It keeps the pairs that lie within reach of each other on every
        window coordinate, a superset of those within d_max, and one
        `paired_distances` call, with the profile as its first operand,
        decides which of those lie within d_max."""
        metric, d_max = self.params.metric, self.params.d_max
        points = window_points(metric, feats, d_max)[0]
        by_first = np.argsort(points[:, 0], kind="stable")
        found = []
        for at in range(0, by_first.size, _SCAN_CHUNK):
            chunk = by_first[at : at + _SCAN_CHUNK]
            point = points[chunk]
            # the reach of the chunk's own profiles, with a relative slack for
            # the kernel's rounding and a few ulps of the largest coordinate,
            # which also covers differences whose squares underflow
            reach = max(window_points(metric, feats[chunk], d_max)[1], self._reach)
            scale = np.maximum(np.abs(point).max(axis=1), max(self._scale, _TINY_SCALE))
            within = (reach * (1.0 + _REACH_SLACK) + 4.0 * np.spacing(scale))[:, None]
            lo = self._window[0].searchsorted((point[:, 0] - within[:, 0]).min(), side="left")
            hi = self._window[0].searchsorted((point[:, 0] + within[:, 0]).max(), side="right")
            window = self._window[:, lo:hi]
            # the (chunk x slice) mask, one coordinate at a time in reused
            # buffers
            gap = np.abs(window[0] - point[:, :1])
            near = gap <= within
            ok = np.empty_like(near)
            for axis in range(1, len(window)):
                np.abs(np.subtract(window[axis], point[:, axis, None], out=gap), out=gap)
                near &= np.less_equal(gap, within, out=ok)
            pair, col = np.divmod(np.flatnonzero(near), window.shape[1])
            pair, rows = chunk[pair], self._by_first[lo + col]
            dists = paired_distances(metric, feats[pair], self._union_feats[rows])
            relevant = dists <= d_max
            found.append((pair[relevant], rows[relevant], dists[relevant]))
        owner, rows, dists = (np.concatenate(column) for column in zip(*found))
        # one sort on a single key, several times faster than a lexsort
        order = np.argsort(owner * self._union_ids.size + rows)
        return owner[order], rows[order], dists[order]

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
        """`_positive_by_revenue` of every PoA row, from the positive cells
        of the count table."""
        cells = self._positive_cells()  # by PoA row, then union row
        at, rows = np.divmod(cells, max(self._counts.shape[1], 1))
        r = self.union_base[rows] * self._counts.reshape(-1)[cells]
        # rows ascend with ad id within a PoA, so a stable order breaks ties by id
        rows = rows[np.lexsort((-r, at))]
        ids = self._union_ids[rows]
        bounds = np.searchsorted(at, np.arange(self._counts.shape[0] + 1)).tolist()
        return [(rows[a:b], ids[a:b]) for a, b in zip(bounds, bounds[1:])]

    def _positive_cells(self) -> np.ndarray:
        """The flat cells of the count table with a positive count,
        ascending, kept as `_positive` for the next call. Only a credit
        makes a count positive, so they are among the cells positive at the
        last call and those credited since, and no other cell is read."""
        cells = np.concatenate([self._positive, *self._credited])
        cells.sort()
        keep = self._counts.reshape(-1)[cells] > 0
        keep[1:] &= cells[1:] != cells[:-1]
        self._positive = cells[keep]
        self._credited, self._n_credited = [], 0
        return self._positive


_NO_ROWS = np.zeros(0, dtype=np.int64)

# The relevance window's reach is this much wider than d_max, relative to
# it, and at least a few ulps of this scale wider.
_REACH_SLACK = 2.0**-20
_TINY_SCALE = 2.0**-460
# Profiles scanned together: a chunk's (profiles x window slice) temporaries
# stay cache-sized.
_SCAN_CHUNK = 16


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
