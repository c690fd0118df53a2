"""CSV file formats: catalogs, populations, traces, and plot-ready run outputs.

Every CSV file is read by `_read_csv` and written by `_write_csv`, with one
exception: `copy_ads_rows` writes a sparse catalog by copying the kept
rows' lines from its input file. A format is a header plus a row parser
and a row renderer. The ads loader parses column by column first, over
chunks of whole lines, with the `int`, `float` and scope rules of its row
parser; on any error it reads the file again through `_read_csv`, which
names the first bad line. `_write_csv` and `copy_ads_rows` go through
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
    "copy_ads_rows",
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
# The ads loader reads whole lines, and `atomic_write_text` encodes and
# writes slices of its text, in chunks of about this many characters.
_CHUNK_BYTES = 1 << 18


def atomic_write_text(path, text: str) -> None:
    """Write `text` to `path`, UTF-8, via a temp file in the same directory."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            for start in range(0, len(text), _CHUNK_BYTES):
                fh.write(text[start : start + _CHUNK_BYTES].encode())
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
            width, n_dims = _read_header(fh, header)
            return collect(records(fh, width), n_dims)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None


def _read_header(fh, header: str) -> tuple[int, int]:
    """Read the first line of `fh`, which must be `header`, its `f1,...,fn`
    standing for n >= 1 feature columns: (fields per line, n)."""
    line = fh.readline().rstrip("\n")
    width = line.count(",") + 1
    n_dims = width - header.count(",") + _FEATURES.count(",")
    if n_dims < 1 or line != _with_features(header, n_dims):
        raise ValueError(f"unexpected header {line!r}: want {header!r}")
    return width, n_dims


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


def _ads_table(fh, width: int, n_dims: int) -> AdTable:
    """The ads of the lines after the header, parsed column by column in
    chunks of whole lines (about _CHUNK_BYTES each), so no more than a
    chunk's fields exist as strings at once. Raises ValueError without
    naming a line: `load_ads_csv` then names it."""
    ids, feats, values, targets = [], [], [], []
    poa_of: dict[tuple[str, str], int] = {}  # (scope, target) -> _target_poa of it
    while lines := fh.readlines(_CHUNK_BYTES):
        rows = list(filter(None, "".join(lines).split("\n")))  # no blank lines
        if set(map(str.count, rows, itertools.repeat(","))) - {width - 1}:
            raise ValueError(f"a line does not have {width} fields")
        fields = ",".join(rows).split(",")
        ids += map(int, fields[0::width])
        columns = [list(map(float, fields[k::width])) for k in range(1, n_dims + 1)]
        feats.append(np.array(columns).T)
        values += map(float, fields[width - 3 :: width])
        pairs = list(zip(fields[width - 2 :: width], fields[width - 1 :: width]))
        for pair in set(pairs) - poa_of.keys():  # at most n_poas + 1 in a catalog
            poa_of[pair] = _target_poa(*pair)
        targets += map(poa_of.__getitem__, pairs)
    features = np.concatenate(feats) if feats else np.zeros((0, n_dims))
    return AdTable(ids, features, values, targets)


def _ad_row(fields: list[str]) -> Ad:
    """One row, checked as `_ads_table` checks every row."""
    target = _target_poa(*fields[-2:])
    ad_id, feats, value = int(fields[0]), list(map(float, fields[1:-3])), float(fields[-3])
    return AdTable([ad_id], [feats], [value], [target])[0]


def load_ads_csv(path) -> AdTable:
    try:
        with open(path) as fh:
            return _ads_table(fh, *_read_header(fh, _ADS_HEADER))
    except ValueError:
        # Name the first bad row in file order, as the header, field count
        # and repeated-id checks do: check the rows again one at a time.
        _read_csv(path, _ADS_HEADER, _ad_row, key="ad_id")
        raise


def copy_ads_rows(source, path, rows, ids, stamp: tuple[int, int]) -> None:
    """Write to `path` the header line of the ads CSV `source`, then its
    data lines at `rows`, in the order given. A row is a position among the
    non-blank lines after the header, 0-based: the row number
    `load_ads_csv` gives the table. The lines are copied as read, so a row
    keeps its spelling.

    `source` is read line by line. It must still have `stamp`, the
    (st_size, st_mtime_ns) it had when it was loaded, and the leading field
    of each copied line must be the ad id `ids` gives at its place;
    otherwise ValueError, naming `source`, and nothing is written."""
    rows = np.asarray(rows, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    wanted = np.zeros(rows.max() + 1 if rows.size else 0, dtype=bool)
    wanted[rows] = True
    with open(source) as fh:
        st = os.fstat(fh.fileno())
        header = fh.readline().rstrip("\n") + "\n"
        # in file order; compress stops reading after the last wanted line
        lines = list(itertools.compress(filter("\n".__ne__, fh), wanted.tolist()))
    try:
        leading = np.fromiter((int(line.split(",", 1)[0]) for line in lines), np.int64, len(lines))
    except (ValueError, OverflowError):  # not a line that was loaded
        leading = None
    if (st.st_size, st.st_mtime_ns) != tuple(stamp) or not np.array_equal(
        leading, np.asarray(ids)[order]
    ):
        raise ValueError(f"{source} changed while sparsify read it")
    if lines and not lines[-1].endswith("\n"):  # the file's last line
        lines[-1] += "\n"
    text = "".join([header, *map(lines.__getitem__, np.argsort(order).tolist())])
    del lines  # one copy of the rows, not two, while the file is written
    atomic_write_text(path, text)


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
