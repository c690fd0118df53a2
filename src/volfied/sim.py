"""Discrete-time simulation: mobility, coverage, selection, display, metrics.

Each step runs five phases: (1) coverage changes fire exit and enter
events, only for the vehicles whose PoA changed, with vehicle detection
sampled once per dwell, and the broker-side estimator takes them all, by
vehicle slot, in one batch. Coverage, presence, the changes and the
detection draws never depend on what the broker selects, so
`_dwell_steps` computes them a block of `_STEP_BLOCK` steps ahead, with
one pass per PoA over the block's present positions, and each step
reads its slices; (2) every PoA's strategy selects up to k ads; (3) the
estimator takes all the step's broadcasts in one batch, which updates the
served registry; (4) covered vehicles receive their PoA's set, and every
vehicle present in the trace that received ads or holds cached ones
advances its display step (an absent vehicle keeps its cache), all in one
array pass over their memo entries (`vehicle.step_displays`); (5)
cumulative metrics are appended. Revenue accounting uses the displays
actually made, never the broker's estimates.

The cache is on the vehicle side, and phases 1-3 never read it. So
`run_cache_sizes` runs phases 1-3 once per step for several cache sizes,
and phases 4-5 once per cache size, each on its own display state; `run`
is its one-size case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .broker import (
    RevenueEstimator,
    SelectionParams,
    SelectionStats,
    select_random,
    select_topk,
    select_volfied,
)
from .model import Ad, AdTable, DistanceMetric, PoA, VehicleProfile
from .sparse import SparseApproxParams, m_sparse_set
from .vehicle import step_displays
# perfbench/tracer.py wraps `step_display` under this module's name.
from .vehicle import step_display  # noqa: F401

__all__ = [
    "MobilityTrace",
    "SimConfig",
    "StepMetrics",
    "STRATEGIES",
    "rng_stream",
    "run",
    "run_cache_sizes",
]

# vehicle ids are held in an int64 array
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

# purpose tags for independent RNG streams derived from one seed
STREAM_ADS = 1
STREAM_PROFILES = 2
STREAM_TRACE = 3
STREAM_DETECTION = 4
STREAM_RANDOM_STRATEGY = 5

# strategy name -> selector(est, poa, params, stats, rng). Each entry looks
# its select_* function up in this module when it is called, so a wrapper
# installed on `volfied.sim.select_volfied` sees every selection.
STRATEGIES = {
    "volfied": lambda est, poa, params, stats, rng: select_volfied(est, poa, params, stats),
    "topk": lambda est, poa, params, stats, rng: select_topk(est, poa, params),
    "random": lambda est, poa, params, stats, rng: select_random(est, poa, params, rng),
}


def rng_stream(seed: int, tag: int) -> np.random.Generator:
    """Independent, reproducible generator for one purpose under one seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(tag,))))


def _shape_of(a) -> str:
    """An array's dtype and shape, or the type of anything else, for errors."""
    if isinstance(a, np.ndarray):
        return f"{a.dtype} {a.shape}"
    return type(a).__name__


@dataclass(frozen=True, eq=False)
class MobilityTrace:
    """Vehicle positions per step.

    `positions[step, j]` is the (x, y) of vehicle `ids[j]` at that step,
    NaN where the vehicle is absent; `ids` are the distinct vehicle ids,
    ascending, each present at some step.
    """

    positions: np.ndarray  # (steps, vehicles, 2) float
    ids: np.ndarray  # (vehicles,) int64

    def __post_init__(self):
        ids, positions = self.ids, self.positions
        if not (isinstance(ids, np.ndarray) and ids.dtype == np.int64 and ids.ndim == 1):
            raise ValueError(f"ids must be a 1-D int64 array, got {_shape_of(ids)}")
        if not (
            isinstance(positions, np.ndarray)
            and positions.dtype == np.float64
            and positions.ndim == 3
            and positions.shape[1:] == (ids.size, 2)
        ):
            raise ValueError(
                f"positions must be a float64 array of shape (steps, {ids.size}, 2), "
                f"got {_shape_of(positions)}"
            )
        # one column per id: a block's writes to its columns must not collide
        bad = np.flatnonzero(ids[1:] <= ids[:-1])
        if bad.size:
            before, after = ids[bad[0]], ids[bad[0] + 1]
            if before == after:
                raise ValueError(f"vehicle id {before} repeats in ids")
            raise ValueError(f"ids must ascend: {after} follows {before}")

    def __eq__(self, other):
        if not isinstance(other, MobilityTrace):
            return NotImplemented
        return np.array_equal(self.ids, other.ids) and np.array_equal(
            self.positions, other.positions, equal_nan=True
        )

    @property
    def n_steps(self) -> int:
        return self.positions.shape[0]

    def positions_at(self, step: int) -> dict[int, tuple[float, float]]:
        """Vehicle id -> position at `step`, built on each call; empty
        outside the trace."""
        if not 0 <= step < self.n_steps:
            return {}
        xy = self.positions[step]
        here = ~np.isnan(xy[:, 0])
        return dict(zip(self.ids[here].tolist(), map(tuple, xy[here].tolist())))

    @staticmethod
    def from_records(records: Iterable[tuple[int, int, float, float]]) -> "MobilityTrace":
        seen: set[tuple[int, int]] = set()
        steps, vids, xs, ys = [], [], [], []
        for step, vid, x, y in records:
            if step < 0:
                raise ValueError(f"negative step {step}")
            if not _INT64_MIN <= vid <= _INT64_MAX:
                raise ValueError(f"vehicle id {vid} does not fit in 64 bits")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite position for vehicle {vid} at step {step}")
            if (step, vid) in seen:
                raise ValueError(f"vehicle {vid} appears twice at step {step}")
            seen.add((step, vid))
            steps.append(step)
            vids.append(vid)
            xs.append(float(x))
            ys.append(float(y))
        ids, column = np.unique(np.array(vids, dtype=np.int64), return_inverse=True)
        positions = np.full((max(steps, default=-1) + 1, len(ids), 2), np.nan)
        positions[steps, column, 0] = xs
        positions[steps, column, 1] = ys
        return MobilityTrace(positions=positions, ids=ids)


@dataclass(frozen=True)
class SimConfig:
    """Simulation knobs; the defaults are the reference configuration."""

    k: int = 5
    m: int = 1
    d_max: float = 0.15
    epsilon: float = 0.025
    n_dims: int = 5
    metric: DistanceMetric = DistanceMetric.EUCLIDEAN
    cache_size: int = 0
    detection_accuracy: float = 1.0
    n_ads: int = 10000
    global_fraction: float = 0.9
    steps: int = 480
    seed: int = 0
    strategy: str = "volfied"
    use_sparse: bool = False
    n_poas: int = 10
    poa_range_m: float = 150.0
    area_w_m: float = 5000.0
    area_h_m: float = 5000.0
    n_vehicles: int = 500
    speed_mps: float = 14.0
    step_duration_s: float = 60.0

    @staticmethod
    def check_seed(seed: int) -> None:
        """Raise ValueError unless seed >= 0."""
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")

    def __post_init__(self):
        self.check_seed(self.seed)
        SelectionParams.check(self.k, self.m, self.d_max)
        SparseApproxParams.check(self.epsilon, self.m)
        if not 0.0 <= self.detection_accuracy <= 1.0:
            raise ValueError("detection_accuracy must lie in [0, 1]")
        if self.n_dims < 1:
            raise ValueError("n_dims must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; pick from {tuple(STRATEGIES)}"
            )
        if self.n_ads < 0 or self.n_vehicles < 0 or self.steps < 0 or self.n_poas < 1:
            raise ValueError("n_ads, n_vehicles, steps must be >= 0 and n_poas >= 1")
        if not 0.0 <= self.global_fraction <= 1.0:
            raise ValueError("global_fraction must lie in [0, 1]")
        if self.cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {self.cache_size}")
        for name in ("poa_range_m", "area_w_m", "area_h_m", "step_duration_s"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not (self.speed_mps >= 0 and math.isfinite(self.speed_mps)):
            raise ValueError(f"speed_mps must be finite and >= 0, got {self.speed_mps}")

    @property
    def selection_params(self) -> SelectionParams:
        return SelectionParams(k=self.k, m=self.m, d_max=self.d_max, metric=self.metric)


@dataclass(frozen=True)
class StepMetrics:
    step: int
    revenue_cum: float
    impressions_cum: int
    avg_distance_cum: float
    broadcasts_cum: int


class _CoverageIndex:
    """Vectorized nearest-covering-PoA lookup for a fixed PoA layout.

    A position associates with the nearest PoA whose range covers it
    (boundary inclusive), ties to the lowest PoA id; `lookup` gives -1 where
    no PoA covers it.
    """

    def __init__(self, poas: Sequence[PoA]):
        ordered = sorted(poas, key=lambda p: p.poa_id)
        ids = [p.poa_id for p in ordered]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate PoA ids")
        self.ids = np.array(ids, dtype=np.int64)
        self.xy = np.array([[p.x_m, p.y_m] for p in ordered], dtype=float).reshape(-1, 2)
        self.r2 = np.array([p.range_m * p.range_m for p in ordered], dtype=float)

    def lookup(self, positions: np.ndarray) -> np.ndarray:
        """Index into `ids` of the PoA each position of a (..., 2) array
        associates with, -1 where none covers it or the position is NaN.

        One pass per PoA, in ascending id, keeps a PoA where it covers the
        position and is strictly nearer than the best so far: a tie goes to
        the lowest id, and a NaN distance never compares true."""
        x, y = positions[..., 0], positions[..., 1]
        best = np.full(x.shape, -1, dtype=np.int64)
        best_d2 = np.full(x.shape, np.inf)
        # every pass works in place in these: fresh temporaries per pass
        # took about twice as long on 64 steps x 500 vehicles
        d2, dy = np.empty(x.shape), np.empty(x.shape)
        win, nearer = np.empty(x.shape, dtype=bool), np.empty(x.shape, dtype=bool)
        for j, ((px, py), r2) in enumerate(zip(self.xy.tolist(), self.r2.tolist())):
            np.subtract(x, px, out=d2)
            np.multiply(d2, d2, out=d2)
            np.subtract(y, py, out=dy)
            np.multiply(dy, dy, out=dy)
            np.add(d2, dy, out=d2)
            np.less_equal(d2, r2, out=win)
            np.less(d2, best_d2, out=nearer)
            win &= nearer
            best[win] = j
            best_d2[win] = d2[win]
        return best


# Steps of coverage and dwell changes computed together: the work arrays
# are (_STEP_BLOCK + 1) x vehicles, so memory stays bounded on long traces.
_STEP_BLOCK = 64


def _dwell_steps(config, trace, index, column, n_vehicles, det_rng):
    """Per step of the run: each vehicle's index into `index.ids` of the PoA
    it is under (-1: none), whether it is present in the trace, the vehicles
    that left a PoA, and the detected vehicles that came under one with the
    index of that PoA. Vehicles are indices into the ascending vehicle ids,
    and trace column j is vehicle `column[j]`; past the end of the trace
    every vehicle is absent.

    Coverage, presence and the changes are computed a block of
    `_STEP_BLOCK` steps at a time, and a block's detection draws in one
    call: one draw per arrival, in step order and then ascending vehicle,
    the order and the stream of one call per step. The draws depend on the
    trace alone, so every strategy sees the same detections."""
    cover = np.full((1, n_vehicles), -1, dtype=np.int64)
    for start in range(0, config.steps, _STEP_BLOCK):
        n = min(_STEP_BLOCK, config.steps - start)
        xy = trace.positions[start : start + n]  # fewer rows past the end
        # only the present positions are looked up, since real traces hold
        # few; `compress` gathers them ten times as fast as a mask index
        here = ~np.isnan(xy[..., 0])
        seen = np.full(here.shape, -1, dtype=np.int64)
        seen[here] = index.lookup(np.compress(here.ravel(), xy.reshape(-1, 2), axis=0))
        # row 0 is the previous block's last step
        cover = np.concatenate([cover[-1:], np.full((n, n_vehicles), -1, dtype=np.int64)])
        cover[1 : len(xy) + 1, column] = seen
        present = np.zeros((n, n_vehicles), dtype=bool)
        present[: len(xy), column] = here

        at, vehicle = np.nonzero(cover[1:] != cover[:-1])
        was, now = cover[at, vehicle], cover[at + 1, vehicle]
        gone = np.flatnonzero(was >= 0)
        came = np.flatnonzero(now >= 0)
        came = came[det_rng.uniform(size=came.size) < config.detection_accuracy]
        steps = np.arange(n + 1)
        gone_at = np.searchsorted(at[gone], steps).tolist()
        came_at = np.searchsorted(at[came], steps).tolist()
        left, arrived, arrived_poa = vehicle[gone], vehicle[came], now[came]
        for i in range(n):
            a, b = came_at[i], came_at[i + 1]
            yield (
                cover[i + 1],
                present[i],
                left[gone_at[i] : gone_at[i + 1]],
                arrived[a:b],
                arrived_poa[a:b],
            )


def _candidates_by_poa(config: SimConfig, catalog: AdTable, poas: Sequence[PoA]):
    """Each PoA's eligible ads, as a boolean mask over the catalog's rows:
    Globals plus the PoA's own Locals, optionally replaced by their sparse
    approximation."""
    target = catalog.target_poa
    masks = {p.poa_id: (target < 0) | (target == p.poa_id) for p in poas}
    if config.use_sparse:
        sparse = {}  # by PoA id; PoAs with no Locals share one, under None
        for pid, eligible in masks.items():
            key = pid if np.any(target == pid) else None
            if key not in sparse:
                kept = m_sparse_set(catalog[eligible], config.epsilon, config.m, config.metric)
                sparse[key] = np.isin(catalog.ids, kept.ads.ids)
            masks[pid] = sparse[key]
    return masks


def run(
    config: SimConfig,
    trace: MobilityTrace,
    ads: Sequence[Ad],
    profiles: Sequence[VehicleProfile],
    poas: Sequence[PoA],
) -> tuple[list[StepMetrics], dict]:
    """Simulate `config.steps` steps; returns per-step cumulative metrics
    and a final summary dict (revenue, impressions, avg_distance, broadcasts).
    Deterministic for a fixed config and seed."""
    return run_cache_sizes(config, [config.cache_size], trace, ads, profiles, poas)[0]


class _Display:
    """The vehicle side of a run at one cache size: per memo entry, whether
    its ad was displayed to its vehicle and whether its vehicle caches it;
    which vehicles hold a cache; and its running totals and metrics."""

    def __init__(self, cache_size: int, n_vehicles: int, n_entries: int):
        if cache_size < 0:
            raise ValueError(f"cache_size must be >= 0, got {cache_size}")
        self.cache_size = cache_size
        self.displayed = np.zeros(n_entries, dtype=bool)
        self.cached = np.zeros(n_entries, dtype=bool)
        self.holds_cache = np.zeros(n_vehicles, dtype=bool)
        self.metrics: list[StepMetrics] = []
        self.revenue = 0.0
        self.impressions = 0
        self.distance_sum = 0.0


def run_cache_sizes(
    config: SimConfig,
    cache_sizes: Sequence[int],
    trace: MobilityTrace,
    ads: Sequence[Ad],
    profiles: Sequence[VehicleProfile],
    poas: Sequence[PoA],
) -> list[tuple[list[StepMetrics], dict]]:
    """`run` at each of `cache_sizes` (in place of `config.cache_size`), in
    one pass: the broker side (events, selection, broadcasts and their RNG
    draws) never sees a vehicle's cache, so it runs once, and each cache
    size keeps its own display state. Returns one `run` result per cache
    size, in order."""
    by_vid = {p.vehicle_id: p for p in profiles}
    if len(by_vid) != len(profiles):
        raise ValueError("duplicate vehicle ids in profiles")
    missing = [vid for vid in trace.ids.tolist() if vid not in by_vid]
    if missing:
        raise ValueError(f"trace references vehicles without profiles: {missing}")
    vids = sorted(by_vid)

    params = config.selection_params
    select = STRATEGIES[config.strategy]
    catalog = AdTable.from_ads(ads)
    est = RevenueEstimator(params, catalog, _candidates_by_poa(config, catalog, poas))
    index = _CoverageIndex(poas)
    poa_ids = index.ids.tolist()
    # per index into poa_ids, and last for no PoA (index -1): the PoA's row
    # in the estimator's tables and its id (-1 is no Local ad's target)
    poa_row = np.append(est.poa_rows(poa_ids), -1)
    poa_id = np.append(index.ids, -1)
    # vehicle index -> estimator slot, and trace column -> vehicle index;
    # making the slots scans every memo, so the entries stay fixed from here
    slot = est.vehicle_slots([by_vid[vid] for vid in vids])
    column = np.searchsorted(np.array(vids, dtype=np.int64), trace.ids)
    n_entries = est.memo_entries(slot)[0].size
    displays = [_Display(c, len(vids), n_entries) for c in cache_sizes]

    det_rng = rng_stream(config.seed, STREAM_DETECTION)
    strat_rng = rng_stream(config.seed, STREAM_RANDOM_STRATEGY)
    stats = SelectionStats()
    broadcasts = 0

    dwells = _dwell_steps(config, trace, index, column, len(vids), det_rng)
    for step, (current, present, left, came, came_poa) in enumerate(dwells):
        # events only for the vehicles whose PoA changed, all in one call
        est.on_slot_events(slot[left], slot[came], poa_row[came_poa])

        # every PoA selects before any broadcasts: a selection reads only
        # its own PoA's estimates, and a broadcast changes only those
        chosen_by_poa = {}
        sending = np.zeros(len(poa_ids) + 1, dtype=bool)
        for j, pid in enumerate(poa_ids):
            chosen = chosen_by_poa[pid] = select(est, pid, params, stats, strat_rng)
            broadcasts += len(chosen)
            sending[j] = bool(chosen)
        est.on_broadcasts(chosen_by_poa)

        # a present vehicle displays when it receives ads or holds a cache;
        # an absent one keeps its cache for when it is back
        for d in displays:
            show = np.flatnonzero(present & (sending[current] | d.holds_cache))
            if show.size:
                idx, owner, rows, dists = est.memo_entries(slot[show])
                under = current[show][owner]
                target = est.union_target[rows]
                shown, kept = step_displays(
                    d.displayed,
                    d.cached,
                    idx,
                    owner,
                    dists,
                    est.sent(poa_row[under], rows),
                    (target < 0) | (target == poa_id[under]),
                    params.m,
                    d.cache_size,
                )
                d.holds_cache[show] = False
                d.holds_cache[show[owner[kept]]] = True
                # a left fold from the running totals, as one `+=` per impression
                d.revenue = float(
                    np.add.accumulate(np.append(d.revenue, est.union_base[rows[shown]]))[-1]
                )
                d.distance_sum = float(
                    np.add.accumulate(np.append(d.distance_sum, dists[shown]))[-1]
                )
                d.impressions += shown.size

            d.metrics.append(
                StepMetrics(
                    step=step,
                    revenue_cum=d.revenue,
                    impressions_cum=d.impressions,
                    avg_distance_cum=d.distance_sum / d.impressions if d.impressions else 0.0,
                    broadcasts_cum=broadcasts,
                )
            )

    return [
        (
            d.metrics,
            {
                "revenue": d.revenue,
                "impressions": d.impressions,
                "avg_distance": d.distance_sum / d.impressions if d.impressions else 0.0,
                "broadcasts": broadcasts,
                "distance_evals": stats.distance_evals,
            },
        )
        for d in displays
    ]
