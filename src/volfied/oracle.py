"""Exact single-step revenue maximization by exhaustive enumeration.

Small instances decompose per PoA because each vehicle associates with at
most one PoA and display history is fixed within the step, so the optimal
broadcast for one PoA is independent of the others. `simulate_display`
and `solve_exact` take the vehicles' menus from one builder: per PoA, one
distance block and `model.rank_relevant` per covered vehicle. Per PoA,
every subset of eligible ads up to size k is priced in one pass:

- a cached membership table has one column per subset, in
  `itertools.combinations` order for r = 1..k, and one row per candidate;
- vehicles in ascending id, menu in rank order, an ad adds its value to
  every column that holds it and has shown fewer than m ads to that
  vehicle (and 0.0, which is exact, to the others), so each subset's
  revenue has the bits of that subset priced on its own;
- the best revenue wins, ties going to the lexicographically smallest ad
  id tuple whatever its size; a best revenue of 0 gives no broadcast;
- the reported revenue adds the winning columns in ascending PoA id, the
  sum `simulate_display` makes for the chosen broadcast.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from .broker import SelectionParams
from .model import (
    Ad,
    DistanceMetric,
    VehicleProfile,
    ad_value,
    paired_distances,
    rank_relevant,
)
# perfbench/tracer.py wraps `distance` under this module's name.
from .model import distance  # noqa: F401

__all__ = [
    "MAX_CANDIDATES",
    "MAX_K",
    "OracleInstance",
    "OracleResult",
    "instance_from_json",
    "instance_to_json",
    "result_to_json",
    "simulate_display",
    "solve_exact",
]

MAX_CANDIDATES = 15
MAX_K = 5


@dataclass(frozen=True)
class OracleInstance:
    """A single time step: catalog, covered vehicles, and display history.

    `coverage` maps vehicle_id to the PoA it currently associates with
    (None = out of coverage); one PoA per vehicle by construction.
    `displayed` carries the ads each vehicle has already shown.
    """

    ads: tuple[Ad, ...]
    vehicles: tuple[VehicleProfile, ...]
    coverage: dict[int, int | None]
    params: SelectionParams
    displayed: dict[int, frozenset[int]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "ads", tuple(self.ads))
        object.__setattr__(self, "vehicles", tuple(self.vehicles))
        ids = [a.ad_id for a in self.ads]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ad ids in instance")
        vids = {v.vehicle_id for v in self.vehicles}
        if len(vids) != len(self.vehicles):
            raise ValueError("duplicate vehicle ids in instance")
        for label, mapping in (("coverage", self.coverage), ("displayed", self.displayed)):
            unknown = set(mapping) - vids
            if unknown:
                raise ValueError(f"{label} references unknown vehicles: {sorted(unknown)}")


@dataclass(frozen=True)
class OracleResult:
    broadcasts: dict[int, tuple[int, ...]]
    revenue: float


def simulate_display(
    broadcast: Mapping[int, Sequence[int]],
    instance: OracleInstance,
) -> tuple[dict[int, list[int]], float]:
    """Price a broadcast: each covered vehicle displays the m most relevant
    received ads it has not shown before (smallest distance, ties by ad id).

    Returns (per-vehicle displayed ad ids, total revenue). The revenue is
    accumulated per PoA in ascending PoA id, vehicles in ascending id, so
    repeated pricings of the same broadcast are bit-identical.
    """
    params = instance.params
    by_id = {a.ad_id: a for a in instance.ads}
    clean: dict[int, list[Ad]] = {}
    for pid, ad_ids in broadcast.items():
        unique = list(dict.fromkeys(ad_ids))
        if len(unique) > params.k:
            raise ValueError(f"broadcast at PoA {pid} has {len(unique)} ads, k={params.k}")
        for ad_id in unique:
            if ad_id not in by_id:
                raise ValueError(f"broadcast references unknown ad {ad_id}")
        clean[pid] = [by_id[ad_id] for ad_id in unique]

    displays: dict[int, list[int]] = {v.vehicle_id: [] for v in instance.vehicles}
    revenue = 0.0
    for poa, menus in _menus(instance, clean):
        subtotal = 0.0
        for vid, menu in menus:
            for ad, _ in menu[: params.m]:
                displays[vid].append(ad.ad_id)
                subtotal += ad_value(ad, poa)
        revenue += subtotal
    return displays, revenue


def _menus(instance: OracleInstance, offered: Mapping[int, Sequence[Ad]]) -> Iterator[tuple]:
    """(PoA id, [(vehicle id, menu)]) per PoA with offered ads and covered
    vehicles, both ascending. A menu is `model.rank_relevant` over the
    PoA's ads less those the vehicle has shown, with the distances of one
    `paired_distances` block of (covered vehicles x offered ads)."""
    params = instance.params
    by_vid = {v.vehicle_id: v for v in instance.vehicles}
    for poa in sorted({p for p in instance.coverage.values() if offered.get(p)}):
        ads = offered[poa]
        vids = sorted(vid for vid, p in instance.coverage.items() if p == poa)
        interests = np.stack([by_vid[vid].interests for vid in vids])
        features = np.stack([a.features for a in ads])
        if interests.shape[1] != features.shape[1]:
            raise ValueError(
                f"PoA {poa}: vehicles have {interests.shape[1]} features, "
                f"ads have {features.shape[1]}"
            )
        dists = paired_distances(params.metric, interests[:, None, :], features[None, :, :])
        yield poa, [
            (vid, rank_relevant(ads, row, poa, params.d_max, instance.displayed.get(vid, ())))
            for vid, row in zip(vids, dists.tolist())
        ]


@functools.cache
def _subset_table(n: int, k: int) -> np.ndarray:
    """Read-only (n, subsets) membership table of every subset of n
    candidate positions up to size k, one column per subset in
    `itertools.combinations` order for r = 1..min(k, n). The cache hands
    the same table to every caller."""
    combos = [c for r in range(1, min(k, n) + 1) for c in itertools.combinations(range(n), r)]
    table = np.zeros((n, len(combos)), dtype=bool)
    for col, combo in enumerate(combos):
        table[combo, col] = True
    table.flags.writeable = False
    return table


def solve_exact(instance: OracleInstance) -> OracleResult:
    """Optimal broadcast per PoA by exhaustive enumeration.

    Eligible ads at a PoA are those with positive value there (Global, or
    Local with matching target). Raises ValueError when the instance
    exceeds the enumeration budget (more than 15 eligible ads at one PoA,
    or k above 5), and when a PoA's candidates and covered vehicles do
    not share one feature dimension or, under the angular metric, include
    a zero vector, even one the vehicle has shown.
    """
    params = instance.params
    if params.k > MAX_K:
        raise ValueError(f"enumeration budget exceeded: k={params.k} (max {MAX_K})")

    candidates: dict[int, list[Ad]] = {}
    for poa in sorted({p for p in instance.coverage.values() if p is not None}):
        ads = sorted((a for a in instance.ads if ad_value(a, poa) > 0.0), key=lambda a: a.ad_id)
        if len(ads) > MAX_CANDIDATES:
            raise ValueError(
                f"enumeration budget exceeded: {len(ads)} eligible ads "
                f"at PoA {poa} (max {MAX_CANDIDATES})"
            )
        candidates[poa] = ads
    broadcasts: dict[int, tuple[int, ...]] = dict.fromkeys(candidates, ())
    revenue = 0.0
    for poa, menus in _menus(instance, candidates):
        table = _subset_table(len(candidates[poa]), params.k)
        pos = {a.ad_id: i for i, a in enumerate(candidates[poa])}
        rev = np.zeros(table.shape[1])
        for _, menu in menus:
            shown = np.zeros(table.shape[1], dtype=np.int64)
            for ad, _ in menu:
                hit = table[pos[ad.ad_id]] & (shown < params.m)
                # adding 0.0 where the ad is not shown leaves those sums exact
                rev += hit * ad_value(ad, poa)
                shown += hit
        best = rev.max()
        if best > 0.0:
            combo = min(
                tuple(np.flatnonzero(table[:, col]).tolist())
                for col in np.flatnonzero(rev == best).tolist()
            )
            broadcasts[poa] = tuple(candidates[poa][i].ad_id for i in combo)
            # the winning column holds what simulate_display would add up
            revenue += float(best)
    return OracleResult(broadcasts=broadcasts, revenue=revenue)


def instance_to_json(instance: OracleInstance) -> dict:
    """Plain-JSON form of an instance (file format of the oracle command)."""
    doc = {
        "params": {
            "k": instance.params.k,
            "m": instance.params.m,
            "d_max": instance.params.d_max,
            "metric": instance.params.metric.value,
        },
        "ads": [
            {
                "ad_id": a.ad_id,
                "features": a.features.tolist(),
                "base_value": a.base_value,
                "target_poa": a.target_poa,
            }
            for a in instance.ads
        ],
        "vehicles": [
            {
                "vehicle_id": v.vehicle_id,
                "interests": v.interests.tolist(),
            }
            for v in instance.vehicles
        ],
        "coverage": {str(vid): poa for vid, poa in instance.coverage.items()},
    }
    if instance.displayed:
        doc["displayed"] = {
            str(vid): sorted(ads) for vid, ads in instance.displayed.items()
        }
    return doc


def _int(value, name: str, null: bool = False):
    """The value of a JSON integer field, or null where `null` allows it;
    ValueError naming the field for any other value, booleans included."""
    if not (type(value) is int or null and value is None):
        raise ValueError(f"instance field {name} must be an integer, got {value!r}")
    return value


def _real(value, name: str) -> float:
    """A JSON number field as a float; ValueError naming the field for any other value."""
    if type(value) not in (int, float):
        raise ValueError(f"instance field {name} must be a number, got {value!r}")
    return float(value)


def _reals(values, name: str) -> list[float]:
    if type(values) is not list:
        raise ValueError(f"instance field {name} must be a list of numbers, got {values!r}")
    return [_real(x, name) for x in values]


def _ints(values, name: str) -> list[int]:
    if type(values) is not list:
        raise ValueError(f"instance field {name} must be a list of integers, got {values!r}")
    return [_int(x, name) for x in values]


def _objects(values, name: str) -> list[dict]:
    """A JSON array of objects; ValueError naming the field for anything else."""
    if type(values) is not list:
        raise ValueError(f"instance field {name} must be a JSON array, got {type(values).__name__}")
    for i, value in enumerate(values):
        _object(value, f"field {name} entry {i}")
    return values


def _object(value, name: str) -> dict:
    if type(value) is not dict:
        raise ValueError(f"instance {name} must be a JSON object, got {type(value).__name__}")
    return value


def _vehicle_key(key: str, name: str) -> int:
    """An object key's vehicle id, a canonical integer: "7", not " 7", "07" or "7.0"."""
    if not (key.removeprefix("-").isdecimal() and str(int(key)) == key):
        raise ValueError(f"instance field {name} has a key that is not an integer: {key!r}")
    return int(key)


def instance_from_json(doc: dict) -> OracleInstance:
    """The instance a JSON document spells out; a value of another JSON type raises ValueError."""
    try:
        p = _object(_object(doc, "document")["params"], "params")
        params = SelectionParams(
            k=_int(p["k"], "k"),
            m=_int(p["m"], "m"),
            d_max=_real(p["d_max"], "d_max"),
            metric=DistanceMetric(p["metric"]),
        )
        ads = tuple(
            Ad(
                ad_id=_int(a["ad_id"], "ad_id"),
                features=_reals(a["features"], "features"),
                base_value=_real(a["base_value"], "base_value"),
                target_poa=_int(a.get("target_poa"), "target_poa", null=True),
            )
            for a in _objects(doc["ads"], "ads")
        )
        vehicles = tuple(
            VehicleProfile(_int(v["vehicle_id"], "vehicle_id"), _reals(v["interests"], "interests"))
            for v in _objects(doc["vehicles"], "vehicles")
        )
        coverage = {
            _vehicle_key(vid, "coverage"): _int(poa, "coverage", null=True)
            for vid, poa in _object(doc["coverage"], "coverage").items()
        }
        displayed = {
            _vehicle_key(vid, "displayed"): frozenset(_ints(ads_, "displayed"))
            for vid, ads_ in _object(doc.get("displayed", {}), "displayed").items()
        }
    except KeyError as exc:
        raise ValueError(f"instance file missing field: {exc.args[0]}") from exc
    return OracleInstance(
        ads=ads, vehicles=vehicles, coverage=coverage, params=params, displayed=displayed
    )


def result_to_json(result: OracleResult) -> dict:
    return {
        "broadcasts": {str(pid): list(ads) for pid, ads in result.broadcasts.items()},
        "revenue": result.revenue,
    }
