"""Discrete-time simulation: mobility, coverage, selection, display, metrics.

Each step runs five phases: (1) coverage changes fire exit and enter
events, only for the vehicles whose PoA changed, with vehicle detection
sampled once per dwell, and the broker-side estimator takes them all in
one batch; (2) every PoA's strategy selects up to k ads; (3) the
estimator takes all the step's broadcasts in one batch, which updates the
served registry; (4) covered vehicles receive their PoA's set, and every
vehicle present in the trace that received ads or holds cached ones
advances its display step (an absent vehicle keeps its cache); (5)
cumulative metrics are appended. Revenue accounting uses the displays
actually made, never the broker's estimates.
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
from .vehicle import VehicleState, step_display

__all__ = [
    "MobilityTrace",
    "SimConfig",
    "StepMetrics",
    "STRATEGIES",
    "rng_stream",
    "run",
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

    def __post_init__(self):
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
    (boundary inclusive), ties to the lowest PoA id; None when uncovered.
    """

    def __init__(self, poas: Sequence[PoA]):
        ordered = sorted(poas, key=lambda p: p.poa_id)
        ids = [p.poa_id for p in ordered]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate PoA ids")
        self.ids = np.array(ids, dtype=np.int64)
        self.xy = np.array([[p.x_m, p.y_m] for p in ordered], dtype=float)
        self.r2 = np.array([p.range_m * p.range_m for p in ordered], dtype=float)

    def lookup(self, positions: np.ndarray) -> np.ndarray:
        """Index into `ids` of the PoA each position associates with, -1
        where none covers it."""
        dx = positions[:, 0, None] - self.xy[:, 0]
        dy = positions[:, 1, None] - self.xy[:, 1]
        d2 = dx * dx + dy * dy
        d2[d2 > self.r2[None, :]] = np.inf
        best = np.argmin(d2, axis=1)
        covered = np.isfinite(d2[np.arange(len(positions)), best])
        return np.where(covered, best, -1)


def _candidates_by_poa(config: SimConfig, catalog: AdTable, poas: Sequence[PoA]):
    """Eligible ads per PoA, as tables of the catalog's rows: Globals plus
    the PoA's own Locals, optionally replaced by their sparse approximation."""
    globals_ = np.flatnonzero(catalog.target_poa < 0)

    def eligible(pid: int) -> AdTable:
        return catalog[np.concatenate([globals_, np.flatnonzero(catalog.target_poa == pid)])]

    if not config.use_sparse:
        return {p.poa_id: eligible(p.poa_id) for p in poas}

    def sparse(eligible: AdTable) -> AdTable:
        return m_sparse_set(eligible, config.epsilon, config.m, config.metric).ads

    global_only: AdTable | None = None
    out = {}
    for p in poas:
        if not np.any(catalog.target_poa == p.poa_id):
            if global_only is None:
                global_only = sparse(catalog[globals_])
            out[p.poa_id] = global_only
        else:
            out[p.poa_id] = sparse(eligible(p.poa_id))
    return out


class _ByAdId(dict):
    """Ad id -> the catalog's `Ad`, looked up on first use."""

    def __init__(self, catalog: AdTable):
        super().__init__()
        self._catalog = catalog
        self._row = dict(zip(catalog.ids.tolist(), range(len(catalog))))

    def __missing__(self, ad_id: int) -> Ad:
        ad = self[ad_id] = self._catalog[self._row[ad_id]]
        return ad


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
    by_vid = {p.vehicle_id: p for p in profiles}
    if len(by_vid) != len(profiles):
        raise ValueError("duplicate vehicle ids in profiles")
    missing = [vid for vid in trace.ids.tolist() if vid not in by_vid]
    if missing:
        raise ValueError(f"trace references vehicles without profiles: {missing}")

    params = config.selection_params
    select = STRATEGIES[config.strategy]
    catalog = AdTable.from_ads(ads)
    est = RevenueEstimator(params, _candidates_by_poa(config, catalog, poas))
    index = _CoverageIndex(poas)
    poa_ids = index.ids.tolist()
    by_ad_id = _ByAdId(catalog)
    vids = sorted(by_vid)
    vid_of = np.array(vids, dtype=np.int64)
    states = [VehicleState(profile=by_vid[vid]) for vid in vids]
    # trace column -> vehicle index
    column = np.searchsorted(vid_of, trace.ids)

    det_rng = rng_stream(config.seed, STREAM_DETECTION)
    strat_rng = rng_stream(config.seed, STREAM_RANDOM_STRATEGY)
    stats = SelectionStats()

    # per vehicle: index into poa_ids of the PoA it is under (-1: none),
    # and whether its cache holds anything to display later
    current = np.full(len(vids), -1, dtype=np.int64)
    cached = np.array([bool(s.cache) for s in states], dtype=bool)
    metrics: list[StepMetrics] = []
    revenue = 0.0
    impressions = 0
    distance_sum = 0.0
    broadcasts = 0

    for step in range(config.steps):
        new = np.full(len(vids), -1, dtype=np.int64)
        present = np.zeros(len(vids), dtype=bool)
        if step < trace.n_steps:
            xy = trace.positions[step]
            here = ~np.isnan(xy[:, 0])
            present[column[here]] = True
            new[column[here]] = index.lookup(xy[here])

        # events only for the vehicles whose PoA changed, in ascending id,
        # all in one call; one detection draw per dwell, aligned across
        # configs
        changed = np.flatnonzero(new != current)
        left = changed[current[changed] >= 0]
        came = changed[new[changed] >= 0]
        detected = det_rng.uniform(size=came.size) < config.detection_accuracy
        est.on_events(
            zip(index.ids[current[left]].tolist(), vid_of[left].tolist()),
            zip(
                index.ids[new[came]].tolist(),
                [states[i].profile for i in came.tolist()],
                detected.tolist(),
            ),
        )
        current = new

        # every PoA selects before any broadcasts: a selection reads only
        # its own PoA's estimates, and a broadcast changes only those
        received: list[list[Ad]] = []
        chosen_by_poa = {}
        for pid in poa_ids:
            chosen = chosen_by_poa[pid] = select(est, pid, params, stats, strat_rng)
            broadcasts += len(chosen)
            received.append([by_ad_id[a] for a in chosen])
        received.append([])  # what a vehicle under no PoA (index -1) receives
        est.on_broadcasts(chosen_by_poa)

        # a present vehicle displays when it receives ads or holds a cache;
        # an absent one keeps its cache for when it is back
        sending = np.array([bool(ads) for ads in received])
        for i in np.flatnonzero(present & (sending[current] | cached)).tolist():
            state = states[i]
            poa = int(current[i])
            if state.relevance is None:
                state.relevance = est.relevance(state.profile)
            for ad_id, dist in step_display(
                state, received[poa], poa_ids[poa] if poa >= 0 else None, params, config.cache_size
            ):
                revenue += by_ad_id[ad_id].base_value
                impressions += 1
                distance_sum += dist
            cached[i] = bool(state.cache)

        metrics.append(
            StepMetrics(
                step=step,
                revenue_cum=revenue,
                impressions_cum=impressions,
                avg_distance_cum=distance_sum / impressions if impressions else 0.0,
                broadcasts_cum=broadcasts,
            )
        )

    summary = {
        "revenue": metrics[-1].revenue_cum if metrics else 0.0,
        "impressions": metrics[-1].impressions_cum if metrics else 0,
        "avg_distance": metrics[-1].avg_distance_cum if metrics else 0.0,
        "broadcasts": metrics[-1].broadcasts_cum if metrics else 0,
        "distance_evals": stats.distance_evals,
    }
    return metrics, summary
