"""On-board runtime: what a vehicle displays each step and what it caches.

Each step the vehicle pools the survivors of its cache with newly received
relevant ads, shows the closest ones (at most m, never repeating an ad),
and keeps the next closest in a bounded cache for later steps. The cache
lets short dwell times under a PoA pay off after the vehicle leaves
coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .broker import RelevanceMemo, SelectionParams
from .model import Ad, VehicleProfile, rank_for_profile, rank_relevant
# perfbench/tracer.py wraps `distance` under this module's name.
from .model import distance  # noqa: F401

__all__ = ["VehicleState", "step_display"]


@dataclass
class VehicleState:
    """Mutable per-vehicle runtime state.

    `displayed` only ever grows: an ad is shown to a vehicle at most once.
    `cache` holds (ad, distance) pairs sorted by (distance, ad_id), disjoint
    from `displayed`, and no larger than the cache capacity. `relevance`,
    when set, is the broker's memo of the ads relevant to `profile` and
    their distances, which the display then reads instead of evaluating
    them; it must cover every ad the vehicle receives.
    """

    profile: VehicleProfile
    displayed: set[int] = field(default_factory=set)
    cache: list[tuple[Ad, float]] = field(default_factory=list)
    relevance: RelevanceMemo | None = None


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
    if state.relevance is None:
        ranked = rank_for_profile(
            pool.values(), state.profile, current_poa, params.d_max, params.metric, state.displayed
        )
    else:
        dists = state.relevance.distances(pool)
        ranked = rank_relevant(pool.values(), dists, current_poa, params.d_max, state.displayed)
    shown = ranked[: params.m]
    state.cache = ranked[params.m : params.m + cache_capacity]

    impressions = []
    for ad, dist in shown:
        state.displayed.add(ad.ad_id)
        impressions.append((ad.ad_id, dist))
    return impressions
