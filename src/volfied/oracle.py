"""Exact single-step revenue maximization by exhaustive enumeration.

Small instances decompose per PoA because each vehicle associates with at
most one PoA and display history is fixed within the step, so the optimal
broadcast for one PoA is independent of the others. `simulate_display`
and `solve_exact` take the vehicles' menus from one builder: per PoA, one
(covered vehicles x ads) distance block, one relevant/in-scope/unseen
mask over it and one `lexsort` of the kept entries by (vehicle, distance,
ad id). Per PoA, every subset of eligible ads up to size k is priced in
one pass:

- a cached table lists the subsets, one column each, in lexicographic
  order of their candidate positions (the candidates sorted by ad id),
  and for each candidate the columns that hold it;
- each vehicle with a non-empty menu fills min(m, k, menu length) reused
  slot rows, all 0.0 at first, by walking its menu backwards: an entry
  shifts slot r-1 into slot r in the columns that hold its ad, then
  writes its value into slot 0 there. Slot r then holds the value of each
  subset's r-th menu ad, the ad it shows r-th, and 0.0 where the subset
  has fewer such ads. The vehicles, in ascending id, add their slots
  1..m to the revenue row;
- so each column adds the same non-zero terms, in the same order, as that
  subset priced on its own; every other term is an exact +0.0, which
  leaves a sum of positive values unchanged, and each column keeps the
  bits of the per-subset sum;
- the best revenue wins, ties going to the lexicographically smallest ad
  id tuple whatever its size, which is the first best column; a best
  revenue of 0 gives no broadcast;
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

    `coverage` maps vehicle_id to the id (>= 0) of the PoA it currently
    associates with (None = out of coverage); one PoA per vehicle by
    construction.
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
        for vid, poa in self.coverage.items():
            if poa is not None and poa < 0:
                raise ValueError(f"coverage maps vehicle {vid} to poa {poa}; PoA ids must be >= 0")


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
        ads = clean[poa]
        subtotal = 0.0
        for vid, menu in menus:
            for j in menu[: params.m]:
                displays[vid].append(ads[j].ad_id)
                subtotal += ad_value(ads[j], poa)
        revenue += subtotal
    return displays, revenue


def _menus(
    instance: OracleInstance, offered: Mapping[int, Sequence[Ad]]
) -> Iterator[tuple[int, list[tuple[int, list[int]]]]]:
    """(PoA id, [(vehicle id, menu)]) per PoA with offered ads and covered
    vehicles, both ascending; a vehicle with an empty menu is left out. A
    menu lists positions in `offered[poa]`: the ads in scope at the PoA,
    within d_max and not yet shown, by (distance, ad id). The distances
    are one `paired_distances` block of (covered vehicles x offered ads),
    and one `lexsort` orders the whole block's entries."""
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
        keep = dists <= params.d_max
        keep[:, [ad_value(a, poa) <= 0.0 for a in ads]] = False
        at = {a.ad_id: j for j, a in enumerate(ads)}
        for i, vid in enumerate(vids):
            for ad_id in instance.displayed.get(vid, ()):
                if ad_id in at:
                    keep[i, at[ad_id]] = False
        rows, cols = np.nonzero(keep)
        ids = np.array([a.ad_id for a in ads])
        order = np.lexsort((ids[cols], dists[rows, cols], rows))
        rows, cols = rows[order], cols[order].tolist()
        starts = np.flatnonzero(np.diff(rows, prepend=-1)).tolist()
        yield poa, [
            (vids[rows[a]], cols[a:b]) for a, b in zip(starts, starts[1:] + [len(cols)])
        ]


@functools.cache
def _subset_table(n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], tuple[np.ndarray, ...]]:
    """Every subset of n candidate positions up to size k, as sorted
    position tuples in lexicographic order, and per position the ascending
    indices of the subsets that hold it (read-only). The cache hands the
    same table to every caller."""
    subsets = tuple(
        sorted(c for r in range(1, min(k, n) + 1) for c in itertools.combinations(range(n), r))
    )
    members = tuple([] for _ in range(n))
    for col, subset in enumerate(subsets):
        for p in subset:
            members[p].append(col)
    held = tuple(np.array(cols, dtype=np.intp) for cols in members)
    for cols in held:
        cols.flags.writeable = False
    return subsets, held


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
        subsets, held = _subset_table(len(candidates[poa]), params.k)
        values = [ad_value(a, poa) for a in candidates[poa]]
        rev = np.zeros(len(subsets))
        slots = np.empty((min(params.m, params.k), len(subsets)))
        for _, menu in menus:
            # Walked backwards, the menu leaves in slot r the value of each
            # subset's r-th menu ad, 0.0 past its last: rev gets the terms
            # it would if every subset were priced on its own, in order.
            slot = slots[: min(len(menu), len(slots))]
            slot.fill(0.0)
            first = slot[0]
            for p in reversed(menu):
                cols = held[p]
                if len(slot) > 1:
                    slot[1:, cols] = slot[:-1, cols]
                first[cols] = values[p]
            for row in slot:
                rev += row
        # subsets run in lexicographic order, so the first best is the
        # tie-break's choice
        col = int(np.argmax(rev))
        if rev[col] > 0.0:
            broadcasts[poa] = tuple(candidates[poa][i].ad_id for i in subsets[col])
            # the winning column holds what simulate_display would add up
            revenue += float(rev[col])
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
