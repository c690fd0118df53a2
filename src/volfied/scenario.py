"""Synthetic scenario generators: catalogs, populations, PoA grids, traces.

Every generator draws from its own purpose-tagged RNG stream so that, for
one seed, changing a selection knob (k, m, C, p, ...) never perturbs the
generated world.
"""

from __future__ import annotations

import math

import numpy as np

from .model import AdTable, PoA, VehicleProfile
from .sim import (
    STREAM_ADS,
    STREAM_PROFILES,
    STREAM_TRACE,
    MobilityTrace,
    SimConfig,
    rng_stream,
)

__all__ = [
    "build_scenario",
    "gen_ads",
    "gen_poas",
    "gen_population",
    "gen_profiles",
    "gen_synthetic",
]


def gen_ads(config: SimConfig, seed: int) -> AdTable:
    """Catalog for one seed: features and values uniform on (0, 1), with
    exactly round((1 - global_fraction) * n_ads) Local ads, each targeting
    a uniformly random PoA."""
    ad_rng = rng_stream(seed, STREAM_ADS)
    feats = ad_rng.uniform(0.0, 1.0, size=(config.n_ads, config.n_dims))
    values = ad_rng.uniform(0.0, 1.0, size=config.n_ads)
    values[values == 0.0] = np.nextafter(0.0, 1.0)
    n_local = round((1.0 - config.global_fraction) * config.n_ads)
    local = np.zeros(config.n_ads, dtype=bool)
    if n_local:
        local[ad_rng.choice(config.n_ads, size=n_local, replace=False)] = True
    targets = ad_rng.integers(0, config.n_poas, size=config.n_ads)
    return AdTable(np.arange(1, config.n_ads + 1), feats, values, np.where(local, targets, -1))


def gen_profiles(config: SimConfig, seed: int) -> list[VehicleProfile]:
    """Vehicle interests: Normal(0.5, 0.15) per coordinate, clamped to [0, 1]."""
    prof_rng = rng_stream(seed, STREAM_PROFILES)
    interests = np.clip(
        prof_rng.normal(0.5, 0.15, size=(config.n_vehicles, config.n_dims)), 0.0, 1.0
    )
    return [
        VehicleProfile(vehicle_id=v, interests=interests[v])
        for v in range(config.n_vehicles)
    ]


def gen_population(config: SimConfig, seed: int) -> tuple[AdTable, list[VehicleProfile]]:
    """Catalog and vehicle profiles for one seed (independent RNG streams)."""
    return gen_ads(config, seed), gen_profiles(config, seed)


def gen_poas(config: SimConfig) -> list[PoA]:
    """Even grid of n_poas over the area (no randomness)."""
    n = config.n_poas
    rows = max(1, int(math.floor(math.sqrt(n))))
    cols = math.ceil(n / rows)
    poas = []
    for i in range(n):
        r, c = divmod(i, cols)
        poas.append(
            PoA(
                poa_id=i,
                x_m=(c + 0.5) * config.area_w_m / cols,
                y_m=(r + 0.5) * config.area_h_m / rows,
                range_m=config.poa_range_m,
            )
        )
    return poas


def gen_synthetic(
    area_m: tuple[float, float],
    n_vehicles: int,
    steps: int,
    speed_mps: float,
    seed: int,
    step_duration_s: float = 60.0,
) -> MobilityTrace:
    """Random-waypoint motion: each vehicle heads to a uniformly drawn
    waypoint at constant speed, drawing the next one upon arrival."""
    w, h = area_m
    rng = rng_stream(seed, STREAM_TRACE)
    pos = rng.uniform((0.0, 0.0), (w, h), size=(n_vehicles, 2))
    target = rng.uniform((0.0, 0.0), (w, h), size=(n_vehicles, 2))
    hop = speed_mps * step_duration_s

    positions = np.empty((steps, n_vehicles, 2))
    for step in range(steps):
        positions[step] = pos
        if step == steps - 1:
            break
        delta = target - pos
        dist = np.hypot(delta[:, 0], delta[:, 1])
        arriving = dist <= hop
        pos[arriving] = target[arriving]
        moving = ~arriving & (dist > 0)
        pos[moving] += delta[moving] * (hop / dist[moving])[:, None]
        if arriving.any():
            target[arriving] = rng.uniform((0.0, 0.0), (w, h), size=(int(arriving.sum()), 2))
    # a vehicle has a column only when it is present at some step
    ids = np.arange(n_vehicles if steps else 0, dtype=np.int64)
    return MobilityTrace(positions=positions[:, : len(ids)], ids=ids)


def build_scenario(config: SimConfig, seed: int):
    """All inputs run() needs, generated deterministically for one seed."""
    poas = gen_poas(config)
    ads = gen_ads(config, seed)
    profiles = gen_profiles(config, seed)
    trace = gen_synthetic(
        (config.area_w_m, config.area_h_m),
        config.n_vehicles,
        config.steps,
        config.speed_mps,
        seed,
        config.step_duration_s,
    )
    return ads, profiles, poas, trace
