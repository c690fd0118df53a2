"""Discrete-time simulation: mobility, coverage, selection, display, metrics.

Each step runs five phases: (1) coverage changes fire enter/exit events
into the broker-side estimator, with vehicle detection sampled once per
dwell; (2) every PoA's strategy selects up to k ads; (3) broadcasts update
the served registry; (4) covered vehicles receive their PoA's set and every
vehicle advances its display step; (5) cumulative metrics are appended.
Revenue accounting uses the displays actually made, never the broker's
estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .broker import (
    RevenueEstimator,
    SelectionParams,
    SelectionStats,
    select_random,
    select_topk,
    select_volfied,
)
from .model import Ad, DistanceMetric, PoA, VehicleProfile
from .sparse import m_sparse_set
from .vehicle import VehicleState, step_display

__all__ = [
    "MobilityTrace",
    "SimConfig",
    "StepMetrics",
    "STRATEGIES",
    "load_trace",
    "rng_stream",
    "run",
    "write_trace_csv",
]

TRACE_HEADER = "step,vehicle_id,x_m,y_m"

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


@dataclass(frozen=True)
class MobilityTrace:
    """Vehicle positions per step; step index equals list index."""

    per_step: tuple[dict[int, tuple[float, float]], ...]
    step_duration_s: float = 1.0

    @property
    def n_steps(self) -> int:
        return len(self.per_step)

    def positions_at(self, step: int) -> dict[int, tuple[float, float]]:
        if 0 <= step < len(self.per_step):
            return self.per_step[step]
        return {}

    def vehicle_ids(self) -> set[int]:
        ids: set[int] = set()
        for step in self.per_step:
            ids.update(step)
        return ids

    @staticmethod
    def from_records(
        records: Iterable[tuple[int, int, float, float]],
        step_duration_s: float = 1.0,
    ) -> "MobilityTrace":
        buckets: dict[int, dict[int, tuple[float, float]]] = {}
        for step, vid, x, y in records:
            if step < 0:
                raise ValueError(f"negative step {step}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"non-finite position for vehicle {vid} at step {step}")
            bucket = buckets.setdefault(step, {})
            if vid in bucket:
                raise ValueError(f"vehicle {vid} appears twice at step {step}")
            bucket[vid] = (float(x), float(y))
        n_steps = max(buckets) + 1 if buckets else 0
        return MobilityTrace(
            per_step=tuple(buckets.get(s, {}) for s in range(n_steps)),
            step_duration_s=step_duration_s,
        )


def load_trace(path, step_duration_s: float = 1.0) -> MobilityTrace:
    """Parse a trace CSV; rows may arrive in any step order. A malformed or
    invalid row raises ValueError naming the file and line."""
    lineno = 1

    def records(fh):
        nonlocal lineno
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.rstrip("\n")
            if raw:
                s, v, x, y = raw.split(",")
                yield int(s), int(v), float(x), float(y)

    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != TRACE_HEADER:
            raise ValueError(f"missing or wrong trace header: want {TRACE_HEADER!r}")
        try:
            return MobilityTrace.from_records(records(fh), step_duration_s)
        except ValueError as exc:
            # from_records checks each record as it arrives, so the line
            # last yielded is the one at fault
            raise ValueError(f"{path}: line {lineno}: {exc}") from None


def write_trace_csv(path, trace: MobilityTrace) -> None:
    from .files import atomic_write_text

    lines = [TRACE_HEADER]
    for step in range(trace.n_steps):
        positions = trace.positions_at(step)
        for vid in sorted(positions):
            x, y = positions[vid]
            lines.append(f"{step},{vid},{repr(x)},{repr(y)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


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

    def lookup(self, positions: np.ndarray) -> list[Optional[int]]:
        if positions.size == 0:
            return []
        diff = positions[:, None, :] - self.xy[None, :, :]
        d2 = np.einsum("vpc,vpc->vp", diff, diff)
        d2[d2 > self.r2[None, :]] = np.inf
        best = np.argmin(d2, axis=1)
        covered = np.isfinite(d2[np.arange(len(positions)), best])
        return [
            int(self.ids[b]) if ok else None for b, ok in zip(best, covered)
        ]


def _candidates_by_poa(config: SimConfig, ads: Sequence[Ad], poas: Sequence[PoA]):
    """Eligible ads per PoA: Globals plus the PoA's own Locals, optionally
    replaced by their sparse approximation."""
    globals_ = [a for a in ads if a.is_global]
    locals_by_poa: dict[int, list[Ad]] = {}
    for a in ads:
        if not a.is_global:
            locals_by_poa.setdefault(a.target_poa, []).append(a)

    if not config.use_sparse:
        return {p.poa_id: globals_ + locals_by_poa.get(p.poa_id, []) for p in poas}

    def sparse(eligible: list[Ad]) -> list[Ad]:
        return list(
            m_sparse_set(eligible, config.epsilon, config.m, config.metric).ads
        )

    global_only: list[Ad] | None = None
    out = {}
    for p in poas:
        if not locals_by_poa.get(p.poa_id):
            if global_only is None:
                global_only = sparse(globals_)
            out[p.poa_id] = global_only
        else:
            out[p.poa_id] = sparse(globals_ + locals_by_poa[p.poa_id])
    return out


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
    missing = sorted(trace.vehicle_ids() - set(by_vid))
    if missing:
        raise ValueError(f"trace references vehicles without profiles: {missing}")

    params = config.selection_params
    select = STRATEGIES[config.strategy]
    candidates = _candidates_by_poa(config, ads, poas)
    est = RevenueEstimator(params, candidates)
    index = _CoverageIndex(poas)
    by_ad_id = {a.ad_id: a for a in ads}
    states = {vid: VehicleState(profile=prof) for vid, prof in by_vid.items()}
    vids = sorted(by_vid)

    det_rng = rng_stream(config.seed, STREAM_DETECTION)
    strat_rng = rng_stream(config.seed, STREAM_RANDOM_STRATEGY)
    stats = SelectionStats()
    poa_ids = sorted(p.poa_id for p in poas)

    current_poa: dict[int, Optional[int]] = {vid: None for vid in vids}
    detected: dict[int, bool] = {vid: False for vid in vids}
    metrics: list[StepMetrics] = []
    revenue = 0.0
    impressions = 0
    distance_sum = 0.0
    broadcasts = 0

    for step in range(config.steps):
        positions = trace.positions_at(step)
        present = [vid for vid in vids if vid in positions]
        pos_arr = np.array([positions[vid] for vid in present], dtype=float)
        lookup = dict(zip(present, index.lookup(pos_arr)))

        for vid in vids:
            new_poa = lookup.get(vid)
            old_poa = current_poa[vid]
            if new_poa == old_poa:
                continue
            if old_poa is not None:
                est.on_vehicle_exit(old_poa, vid)
            if new_poa is not None:
                # one detection draw per dwell, aligned across configs
                detected[vid] = bool(det_rng.uniform() < config.detection_accuracy)
                est.on_vehicle_enter(new_poa, by_vid[vid], detected=detected[vid])
            current_poa[vid] = new_poa

        selected: dict[int, list[int]] = {}
        for pid in poa_ids:
            chosen = select(est, pid, params, stats, strat_rng)
            selected[pid] = chosen
            est.on_broadcast(pid, chosen)
            broadcasts += len(chosen)

        for vid in vids:
            state = states[vid]
            poa = current_poa[vid]
            incoming = selected[poa] if poa is not None else ()
            if not incoming and not state.cache:
                continue  # nothing to pool: the display step is a no-op
            received = [by_ad_id[i] for i in incoming]
            for ad_id, dist in step_display(
                state, received, poa, params, config.cache_size
            ):
                revenue += by_ad_id[ad_id].base_value
                impressions += 1
                distance_sum += dist

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
