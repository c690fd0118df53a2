"""CSV file formats: catalogs, populations, traces, and plot-ready run outputs.

Every CSV file is read by `_read_csv` and written by `_write_csv`; a format
is a header plus a row parser and a row renderer. `_write_csv` goes through
`atomic_write_text` (temp file + rename) so a partially written file never
appears under its final name. Feature vectors, values and positions are
stored with full float precision (repr round trip); metrics and summary
files print reals to 6 decimal places.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from typing import Callable, Iterable, Sequence

import numpy as np

from .model import Ad, AdTable, PoA, VehicleProfile
from .sim import MobilityTrace, StepMetrics

__all__ = [
    "ADS_HEADER_PREFIX",
    "METRICS_HEADER",
    "SUMMARY_HEADER",
    "TRACE_HEADER",
    "atomic_write_text",
    "load_ads_csv",
    "load_poas_csv",
    "load_profiles_csv",
    "load_trace",
    "render_metrics_csv",
    "render_summary_row",
    "write_ads_csv",
    "write_mapping_csv",
    "write_metrics_csv",
    "write_poas_csv",
    "write_profiles_csv",
    "write_summary_csv",
    "write_trace_csv",
]

ADS_HEADER_PREFIX = "ad_id,f1"
METRICS_HEADER = "step,strategy,revenue_cum,impressions_cum,avg_distance_cum,broadcasts_cum"
SUMMARY_HEADER = "strategy,seed,param_value,final_revenue,final_impressions,final_avg_distance"
TRACE_HEADER = "step,vehicle_id,x_m,y_m"

# In a header, _FEATURES stands for the feature columns f1, ..., fn, n >= 1.
_FEATURES = "f1,...,fn"
_ADS_HEADER = f"ad_id,{_FEATURES},base_value,scope,target_poa"
_POAS_HEADER = "poa_id,x_m,y_m,range_m"
_PROFILES_HEADER = f"vehicle_id,{_FEATURES}"
_MAPPING_HEADER = "removed_ad_id,representative_ad_id,distance"


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


def _with_features(header: str, n_dims: int) -> str:
    return header.replace(_FEATURES, ",".join(f"f{i + 1}" for i in range(n_dims)))


def _csv_text(header: str, rows: Iterable[str]) -> str:
    return "\n".join([header, *rows]) + "\n"


def _write_csv(path, header: str, rows: Iterable[str]) -> None:
    """Write the header line, then one line per rendered row."""
    atomic_write_text(path, _csv_text(header, rows))


def _listed(records: Iterable, n_dims: int) -> list:
    return list(records)


def _read_csv(path, header: str, parse_row: Callable, collect: Callable = _listed, key=None):
    """Parse the CSV file at `path`; returns `collect(records, n_dims)`.

    The first line must be `header`, its `f1,...,fn` standing for one or
    more feature columns, n_dims of them. Each non-blank line after it must
    have as many fields as the header, and `parse_row(fields)` makes it a
    record. No two records may share the attribute named `key`, if given.
    `collect` takes the records as they are read, so an error it raises
    names the line at fault too. Any ValueError is raised again as "{path}: line N: ...", the
    header being line 1.
    """
    lineno = 1

    def records(fh, width: int):
        nonlocal lineno
        seen: dict = {}  # key -> the line it is on
        for lineno, raw in enumerate(fh, start=2):
            raw = raw.rstrip("\n")
            if not raw:
                continue
            fields = raw.split(",")
            if len(fields) != width:
                raise ValueError(f"expected {width} fields, got {len(fields)}")
            record = parse_row(fields)
            if key is not None:
                k = getattr(record, key)
                if k in seen:
                    raise ValueError(f"{key} {k} repeats line {seen[k]}")
                seen[k] = lineno
            yield record

    with open(path) as fh:
        try:
            line = fh.readline().rstrip("\n")
            width = line.count(",") + 1
            n_dims = width - header.count(",") + _FEATURES.count(",")
            if n_dims < 1 or line != _with_features(header, n_dims):
                raise ValueError(f"unexpected header {line!r}: want {header!r}")
            return collect(records(fh, width), n_dims)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None


def write_ads_csv(path, ads: Sequence[Ad]) -> None:
    table = AdTable.from_ads(ads)
    scopes = ["G," if t < 0 else f"L,{t}" for t in table.target_poa.tolist()]
    columns = (
        map(str, table.ids.tolist()),
        *(map(repr, column) for column in table.features.T.tolist()),
        map(repr, table.base_values.tolist()),
        scopes,
    )
    n_dims = max(table.features.shape[1], 1)  # a table of no Ads has none
    _write_csv(path, _with_features(_ADS_HEADER, n_dims), map(",".join, zip(*columns)))


def _target_poa(scope: str, target: str) -> int:
    """A row's target PoA, -1 for a Global ad."""
    if scope not in ("G", "L"):
        raise ValueError(f"scope must be G or L, got {scope!r}")
    if scope == "G":
        if target:
            raise ValueError("Global ad with a target_poa")
        return -1
    poa = int(target)
    if poa < 0:
        raise ValueError(f"target_poa must be >= 0, got {poa}")
    return poa


def _ads_table(rows: Iterable[list[str]], n_dims: int) -> AdTable:
    """The ads of every row, converted column by column; no rows give a
    table of n_dims features."""
    columns = list(zip(*rows))
    if not columns:
        return AdTable([], np.zeros((0, n_dims)), [], [])
    ids, *feats, values, scopes, targets = columns
    flat = np.array(list(map(float, itertools.chain.from_iterable(feats))))
    return AdTable(
        list(map(int, ids)),
        flat.reshape(len(feats), len(ids)).T,
        list(map(float, values)),
        list(map(_target_poa, scopes, targets)),
    )


def _ad_row(fields: list[str]) -> Ad:
    """One row, checked as `_ads_table` checks every row."""
    target = _target_poa(*fields[-2:])
    ad_id, feats, value = int(fields[0]), list(map(float, fields[1:-3])), float(fields[-3])
    return AdTable([ad_id], [feats], [value], [target])[0]


def load_ads_csv(path) -> AdTable:
    try:
        return _read_csv(path, _ADS_HEADER, lambda fields: fields, collect=_ads_table)
    except ValueError:
        # Name the first bad row in file order, as the header, field count
        # and repeated-id checks do: check the rows again one at a time.
        _read_csv(path, _ADS_HEADER, _ad_row, key="ad_id")
        raise


def write_poas_csv(path, poas: Sequence[PoA]) -> None:
    rows = (f"{p.poa_id},{p.x_m!r},{p.y_m!r},{p.range_m!r}" for p in poas)
    _write_csv(path, _POAS_HEADER, rows)


def load_poas_csv(path) -> list[PoA]:
    return _read_csv(
        path, _POAS_HEADER, lambda f: PoA(int(f[0]), *map(float, f[1:])), key="poa_id"
    )


def write_profiles_csv(path, profiles: Sequence[VehicleProfile]) -> None:
    n_dims = len(profiles[0].interests) if profiles else 1
    rows = (f"{p.vehicle_id}," + ",".join(map(repr, p.interests.tolist())) for p in profiles)
    _write_csv(path, _with_features(_PROFILES_HEADER, n_dims), rows)


def load_profiles_csv(path) -> list[VehicleProfile]:
    return _read_csv(
        path,
        _PROFILES_HEADER,
        lambda f: VehicleProfile(int(f[0]), [float(x) for x in f[1:]]),
        key="vehicle_id",
    )


def write_trace_csv(path, trace: MobilityTrace) -> None:
    ids = trace.ids.tolist()
    rows = (
        f"{step},{vid},{x!r},{y!r}"
        for step, xy in enumerate(trace.positions)
        for vid, (x, y) in zip(ids, xy.tolist())
        if not math.isnan(x)  # absent at this step
    )
    _write_csv(path, TRACE_HEADER, rows)


def load_trace(path) -> MobilityTrace:
    """Parse a trace CSV; rows may arrive in any step order. A malformed or
    invalid row raises ValueError naming the file and line."""
    return _read_csv(
        path,
        TRACE_HEADER,
        lambda f: (int(f[0]), int(f[1]), float(f[2]), float(f[3])),
        collect=lambda records, n_dims: MobilityTrace.from_records(records),
    )


def write_mapping_csv(path, rows: Iterable[tuple[int, int, float]]) -> None:
    """Sparsification mapping: removed ad, its representative, their distance."""
    lines = (f"{removed},{rep},{dist:.6f}" for removed, rep, dist in rows)
    _write_csv(path, _MAPPING_HEADER, lines)


def _metrics_rows(strategy: str, metrics: Sequence[StepMetrics]) -> Iterable[str]:
    return (
        f"{row.step},{strategy},{row.revenue_cum:.6f},{row.impressions_cum},"
        f"{row.avg_distance_cum:.6f},{row.broadcasts_cum}"
        for row in metrics
    )


def render_metrics_csv(strategy: str, metrics: Sequence[StepMetrics]) -> str:
    return _csv_text(METRICS_HEADER, _metrics_rows(strategy, metrics))


def write_metrics_csv(path, strategy: str, metrics: Sequence[StepMetrics]) -> None:
    _write_csv(path, METRICS_HEADER, _metrics_rows(strategy, metrics))


def write_summary_csv(path, rows: Iterable[str]) -> None:
    """A run's finals, one `render_summary_row` row per job."""
    _write_csv(path, SUMMARY_HEADER, rows)


def render_summary_row(strategy: str, seed: int, param_value: str, last: StepMetrics) -> str:
    return (
        f"{strategy},{seed},{param_value},{last.revenue_cum:.6f},"
        f"{last.impressions_cum},{last.avg_distance_cum:.6f}"
    )
