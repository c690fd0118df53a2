"""On-board runtime: what a vehicle displays each step and what it caches.

Each step the vehicle pools the survivors of its cache with newly received
relevant ads, shows the closest ones (at most m, never repeating an ad),
and keeps the next closest in a bounded cache for later steps. The cache
lets short dwell times under a PoA pay off after the vehicle leaves
coverage.

`step_display` is that rule for one vehicle, on a `VehicleState`; it
evaluates its own distances with `model.distances_to`. `step_displays` is
the same rule for many vehicles in one array pass: their state is a pair of
flags (displayed, cached) per entry of the estimator's relevance memos, in
`DisplayFlags`, the distances are the memos', and one `lexsort` ranks every
vehicle's pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .broker import SelectionParams
from .model import Ad, VehicleProfile, rank_for_profile
# perfbench/tracer.py wraps `distance` under this module's name.
from .model import distance  # noqa: F401

__all__ = ["VehicleState", "step_display", "DisplayFlags", "step_displays"]


@dataclass
class VehicleState:
    """Mutable per-vehicle runtime state.

    `displayed` only ever grows: an ad is shown to a vehicle at most once.
    `cache` holds (ad, distance) pairs sorted by (distance, ad_id), disjoint
    from `displayed`, and no larger than the cache capacity.
    """

    profile: VehicleProfile
    displayed: set[int] = field(default_factory=set)
    cache: list[tuple[Ad, float]] = field(default_factory=list)


def step_display(
    state: VehicleState,
    received: Iterable[Ad],
    current_poa: int | None,
    params: SelectionParams,
    cache_capacity: int = 0,
) -> list[tuple[int, float]]:
    """Advance one display step; returns the impressions made as
    (ad_id, distance) pairs.

    Pool = still-valid cache entries plus received ads that are relevant
    at the current location and not yet displayed. The m pool entries
    closest to the profile (ties by lower ad id) are displayed; of the
    remainder the closest `cache_capacity` are kept, the rest dropped.
    Cached Local ads are invalidated the moment the vehicle is no longer
    under their target PoA.
    """
    if cache_capacity < 0:
        raise ValueError("cache_capacity must be >= 0")
    pool: dict[int, Ad] = {ad.ad_id: ad for ad, _ in state.cache}
    for ad in received:
        pool.setdefault(ad.ad_id, ad)
    ranked = rank_for_profile(
        pool.values(), state.profile, current_poa, params.d_max, params.metric, state.displayed
    )
    shown = ranked[: params.m]
    state.cache = ranked[params.m : params.m + cache_capacity]

    impressions = []
    for ad, dist in shown:
        state.displayed.add(ad.ad_id)
        impressions.append((ad.ad_id, dist))
    return impressions


class DisplayFlags:
    """The display state of many vehicles, per entry of their relevance
    memos, indexed as the estimator's flat entry arrays: whether the
    entry's ad was displayed to its vehicle, and whether its vehicle
    caches it. An entry never seen is neither."""

    def __init__(self):
        self.displayed = np.zeros(0, dtype=bool)
        self.cached = np.zeros(0, dtype=bool)


def step_displays(
    flags: DisplayFlags,
    idx: np.ndarray,
    owner: np.ndarray,
    dists: np.ndarray,
    sent: np.ndarray,
    in_scope: np.ndarray,
    m: int,
    cache_capacity: int,
) -> tuple[np.ndarray, np.ndarray]:
    """`step_display` for many vehicles at once, over all their memo
    entries: flat indices `idx`, gathered vehicle after vehicle and
    ascending by ad id within one, with `owner` the vehicle of each, its
    distance, whether its ad was sent at the vehicle's PoA this step, and
    whether it is in scope at the vehicle's current PoA.

    The pool is the entries sent or cached, not yet displayed and in scope.
    Each vehicle displays its m closest (ties by lower ad id) and caches
    the next `cache_capacity`. Returns the positions in `idx` of the
    impressions, vehicle after vehicle in display order, and of the
    entries now cached.
    """
    end = int(idx.max()) + 1 if idx.size else 0
    if end > flags.displayed.size:
        pad = np.zeros(max(end, 2 * flags.displayed.size) - flags.displayed.size, dtype=bool)
        flags.displayed = np.concatenate([flags.displayed, pad])
        flags.cached = np.concatenate([flags.cached, pad])
    pool = np.flatnonzero((sent | flags.cached[idx]) & ~flags.displayed[idx] & in_scope)
    flags.cached[idx] = False
    # a stable sort: within a vehicle, equal distances keep ad id order
    order = pool[np.lexsort((dists[pool], owner[pool]))]
    who = owner[order]
    rank = np.arange(order.size) - np.searchsorted(who, who)
    shown = order[rank < m]
    kept = order[(rank >= m) & (rank < m + cache_capacity)]
    flags.displayed[idx[shown]] = True
    flags.cached[idx[kept]] = True
    return shown, kept
