"""CSV file formats: catalogs, populations, and plot-ready run outputs.

All writers go through `atomic_write_text` (temp file + rename) so a
partially written file never appears under its final name. Feature vectors and
values are stored with full float precision (repr round trip); metrics and
summary files print reals to 6 decimal places.
"""

from __future__ import annotations

import os
import tempfile
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .model import Ad, PoA, VehicleProfile

if TYPE_CHECKING:
    from .sim import StepMetrics

__all__ = [
    "ADS_HEADER_PREFIX",
    "METRICS_HEADER",
    "SUMMARY_HEADER",
    "atomic_write_text",
    "load_ads_csv",
    "load_poas_csv",
    "load_profiles_csv",
    "render_metrics_csv",
    "render_summary_row",
    "write_ads_csv",
    "write_mapping_csv",
    "write_poas_csv",
    "write_profiles_csv",
]

ADS_HEADER_PREFIX = "ad_id,f1"
METRICS_HEADER = "step,strategy,revenue_cum,impressions_cum,avg_distance_cum,broadcasts_cum"
SUMMARY_HEADER = "strategy,seed,param_value,final_revenue,final_impressions,final_avg_distance"


def atomic_write_text(path, text: str) -> None:
    """Write `text` to `path` via a temp file in the same directory."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _feature_header(n_dims: int) -> list[str]:
    return [f"f{i + 1}" for i in range(n_dims)]


def write_ads_csv(path, ads: Sequence[Ad]) -> None:
    n_dims = len(np.asarray(ads[0].features)) if ads else 1
    lines = ["ad_id," + ",".join(_feature_header(n_dims)) + ",base_value,scope,target_poa"]
    for ad in ads:
        feats = ",".join(repr(float(x)) for x in np.asarray(ad.features, dtype=float))
        scope = "G" if ad.is_global else "L"
        target = "" if ad.target_poa is None else str(ad.target_poa)
        lines.append(f"{ad.ad_id},{feats},{repr(ad.base_value)},{scope},{target}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_ads_csv(path) -> list[Ad]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if (
            not header.startswith(ADS_HEADER_PREFIX)
            or cols[-3:] != ["base_value", "scope", "target_poa"]
        ):
            raise ValueError(
                f"unexpected ads header {header!r}: want '{ADS_HEADER_PREFIX},...,"
                "base_value,scope,target_poa'"
            )
        n_dims = len(cols) - 4
        ads = []
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.rstrip("\n")
            if not raw:
                continue
            parts = raw.split(",")
            try:
                if len(parts) != n_dims + 4:
                    raise ValueError(f"expected {n_dims + 4} fields, got {len(parts)}")
                ad_id = int(parts[0])
                feats = np.array([float(x) for x in parts[1 : 1 + n_dims]])
                value = float(parts[1 + n_dims])
                scope, target = parts[2 + n_dims], parts[3 + n_dims]
                if scope == "G":
                    if target:
                        raise ValueError("Global ad with a target_poa")
                    target_poa = None
                elif scope == "L":
                    target_poa = int(target)
                else:
                    raise ValueError(f"scope must be G or L, got {scope!r}")
                ads.append(
                    Ad(ad_id=ad_id, features=feats, base_value=value, target_poa=target_poa)
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return ads


def write_poas_csv(path, poas: Sequence[PoA]) -> None:
    lines = ["poa_id,x_m,y_m,range_m"]
    for p in poas:
        lines.append(f"{p.poa_id},{repr(p.x_m)},{repr(p.y_m)},{repr(p.range_m)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_poas_csv(path) -> list[PoA]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != "poa_id,x_m,y_m,range_m":
            raise ValueError(f"unexpected PoA header {header!r}")
        poas = []
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.rstrip("\n")
            if not raw:
                continue
            try:
                pid, x, y, r = raw.split(",")
                poas.append(PoA(poa_id=int(pid), x_m=float(x), y_m=float(y), range_m=float(r)))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return poas


def write_profiles_csv(path, profiles: Sequence[VehicleProfile]) -> None:
    n_dims = len(np.asarray(profiles[0].interests)) if profiles else 1
    lines = ["vehicle_id," + ",".join(_feature_header(n_dims))]
    for prof in profiles:
        feats = ",".join(repr(float(x)) for x in np.asarray(prof.interests, dtype=float))
        lines.append(f"{prof.vehicle_id},{feats}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_profiles_csv(path) -> list[VehicleProfile]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        cols = header.split(",")
        if cols[0] != "vehicle_id" or len(cols) < 2:
            raise ValueError(f"unexpected profiles header {header!r}")
        n_dims = len(cols) - 1
        profiles = []
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.rstrip("\n")
            if not raw:
                continue
            parts = raw.split(",")
            try:
                if len(parts) != n_dims + 1:
                    raise ValueError(f"expected {n_dims + 1} fields, got {len(parts)}")
                profiles.append(
                    VehicleProfile(
                        vehicle_id=int(parts[0]),
                        interests=np.array([float(x) for x in parts[1:]]),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return profiles


def write_mapping_csv(path, rows: Iterable[tuple[int, int, float]]) -> None:
    """Sparsification mapping: removed ad, its representative, their distance."""
    lines = ["removed_ad_id,representative_ad_id,distance"]
    for removed, rep, dist in rows:
        lines.append(f"{removed},{rep},{dist:.6f}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def render_metrics_csv(strategy: str, metrics: Sequence["StepMetrics"]) -> str:
    lines = [METRICS_HEADER]
    for row in metrics:
        lines.append(
            f"{row.step},{strategy},{row.revenue_cum:.6f},{row.impressions_cum},"
            f"{row.avg_distance_cum:.6f},{row.broadcasts_cum}"
        )
    return "\n".join(lines) + "\n"


def render_summary_row(strategy: str, seed: int, param_value: str, last: "StepMetrics") -> str:
    return (
        f"{strategy},{seed},{param_value},{last.revenue_cum:.6f},"
        f"{last.impressions_cum},{last.avg_distance_cum:.6f}"
    )
