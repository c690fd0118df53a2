"""Discrete-time simulation: mobility, coverage, selection, display, metrics.

Each step runs five phases: (1) coverage changes fire exit and enter
events, only for the vehicles whose PoA changed, with vehicle detection
sampled once per dwell, and the broker-side estimator takes them all, by
vehicle slot, in one batch; (2) every PoA's strategy selects up to k ads; (3) the
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


@dataclass(frozen=True, eq=False)
class MobilityTrace:
    """Vehicle positions per step.

    `positions[step, j]` is the (x, y) of vehicle `ids[j]` at that step,
    NaN where the vehicle is absent; `ids` are the distinct vehicle ids,
    ascending, each present at some step.
    """

    positions: np.ndarray  # (steps, vehicles, 2) float
    ids: np.ndarray  # (vehicles,) int64

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
        """Index into `ids` of the PoA each position associates with, -1
        where none covers it."""
        if not self.ids.size:
            return np.full(len(positions), -1, dtype=np.int64)
        dx = positions[:, 0, None] - self.xy[:, 0]
        dy = positions[:, 1, None] - self.xy[:, 1]
        d2 = dx * dx + dy * dy
        d2[d2 > self.r2[None, :]] = np.inf
        best = np.argmin(d2, axis=1)
        covered = np.isfinite(d2[np.arange(len(positions)), best])
        return np.where(covered, best, -1)


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

    # per vehicle: index into poa_ids of the PoA it is under (-1: none)
    current = np.full(len(vids), -1, dtype=np.int64)
    broadcasts = 0

    for step in range(config.steps):
        new = np.full(len(vids), -1, dtype=np.int64)
        present = np.zeros(len(vids), dtype=bool)
        if step < trace.n_steps:
            xy = trace.positions[step]
            here = ~np.isnan(xy[:, 0])
            present[column[here]] = True
            new[column[here]] = index.lookup(xy[here])

        # events only for the vehicles whose PoA changed, all in one call;
        # one detection draw per dwell, in ascending id, aligned across
        # configs
        changed = np.flatnonzero(new != current)
        left = changed[current[changed] >= 0]
        came = changed[new[changed] >= 0]
        came = came[det_rng.uniform(size=came.size) < config.detection_accuracy]
        est.on_slot_events(slot[left], slot[came], poa_row[new[came]])
        current = new

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
