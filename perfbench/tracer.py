"""Span tracing of the volfied layers, installed from outside the package.

The tracer replaces public names with wrappers at the places they are
looked up when the program runs: a module attribute such as
`volfied.sim.step_display` (the name `sim.run` calls) or a class attribute
such as `RevenueEstimator.on_vehicle_enter`. Each wrapped call records one
span (id, parent id, name, start, end, per-call counts, and the wrapper's
own entry and exit times). Spans stay in memory until the run ends;
`uninstall` restores every original and proves that no wrapper is left
behind.

[start, end] times the wrapped call alone; [entered, left] also holds the
wrapper's own work (hooks, ids, stack, counts). The call into a wrapper and
the return from it fall outside both; `Tracer.residual_s` is that cost per
call, measured on a wrapped no-op when the tracer is installed. A span's
time in the metrics is [start, end] less the tracer's cost inside it: for
each descendant span, [entered, left] minus [start, end], plus the
residual. So the wrappers' cost shows neither in a layer's time nor in a
parent's self time.

The package itself is not modified: a name a module binds at import time
(`from .model import distance`) has to be wrapped in every module that
imported it, which is why some layers appear under several owners below.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import itertools
import math
import statistics
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter

from workloads import vehicle_steps

# Marks a wrapper, so a leftover one can be found after uninstall.
_MARK = "_perfbench_span"


def _idle_display(args, kwargs):
    # step_display(state, received, ...) with no ads received and an
    # empty cache has nothing to do; the cache is replaced by the call.
    state, received = args[0], args[1]
    return not received and not state.cache


def _display_counts(args, kwargs, result, idle):
    return {"impressions": len(result), "idle": int(idle)}


def _enter_hits(args, kwargs, result, _):
    detected = kwargs["detected"] if "detected" in kwargs else args[3]
    return {"hits": args[0].last_event_examined if detected else 0}


def _select_stats(args, kwargs):
    stats = kwargs.get("stats", args[3] if len(args) > 3 else None)
    return (stats, stats.distance_evals) if stats is not None else None


def _select_evals(args, kwargs, result, ctx):
    if ctx is None:
        return {"evals": 0}
    stats, before = ctx
    return {"evals": stats.distance_evals - before}


def _broadcast_ads(args, kwargs, result, _):
    return {"ads": len(args[2])}


def _rows(args, kwargs, result, _):
    return {"rows": len(args[2])}


def _vehicle_steps(args, kwargs, result, _):
    return {"vehicle_steps": vehicle_steps(args[0], args[1])}


def _sparse_counts(args, kwargs, result, _):
    return {"ads_in": len(args[0]), "ads_kept": len(result.ads)}


def _subsets(args, kwargs, result, _):
    """Subsets solve_exact prices: over covered PoAs, C(n, r) summed for
    r = 1..min(k, n), n being the ads eligible at that PoA."""
    from volfied.model import ad_value

    instance = args[0]
    total = 0
    for poa in {p for p in instance.coverage.values() if p is not None}:
        n = sum(1 for a in instance.ads if ad_value(a, poa) > 0.0)
        total += sum(math.comb(n, r) for r in range(1, min(instance.params.k, n) + 1))
    return {"subsets": total}


def _rows_loaded(args, kwargs, result, _):
    return {"rows": len(result)}


def _bytes(args, kwargs, result, _):
    return {"bytes": len(args[1].encode())}


def _workers(args, kwargs, result, _):
    return {"workers": result}


# (module, attribute path, span name, before, after): `before(args, kwargs)`
# runs ahead of the call, `after(args, kwargs, result, before's value)`
# returns the span's counts. Only names the workloads reach are wrapped.
WRAPPED = [
    ("volfied.broker", "RevenueEstimator.on_vehicle_enter", "broker.enter", None, _enter_hits),
    ("volfied.broker", "RevenueEstimator.on_vehicle_exit", "broker.exit", None, None),
    ("volfied.broker", "RevenueEstimator.on_broadcast", "broker.broadcast", None, _broadcast_ads),
    ("volfied.sim", "select_volfied", "broker.select", _select_stats, _select_evals),
    ("volfied.sim", "select_topk", "broker.select", None, None),
    ("volfied.broker", "distances_to", "model.distances_to", None, _rows),
    ("volfied.model", "distance", "model.distance", None, None),
    ("volfied.vehicle", "distance", "model.distance", None, None),
    ("volfied.oracle", "distance", "model.distance", None, None),
    ("volfied.cli", "distance", "model.distance", None, None),
    ("volfied.sim", "step_display", "vehicle.display", _idle_display, _display_counts),
    ("volfied.sim", "run", "sim.run", None, _vehicle_steps),
    ("volfied.cli", "run", "sim.run", None, _vehicle_steps),
    ("volfied.scenario", "gen_ads", "scenario.gen_ads", None, None),
    ("volfied.scenario", "gen_profiles", "scenario.gen_profiles", None, None),
    ("volfied.scenario", "gen_synthetic", "scenario.gen_trace", None, None),
    ("volfied.cli", "m_sparse_set", "sparse.m_sparse_set", None, _sparse_counts),
    ("volfied.cli", "solve_exact", "oracle.solve", None, _subsets),
    ("volfied.oracle", "simulate_display", "oracle.simulate_display", None, None),
    ("volfied.cli", "load_ads_csv", "files.load_ads", None, _rows_loaded),
    # A writer renders its rows and then calls atomic_write_text; the
    # outermost files.write span of a call covers both.
    ("volfied.files", "write_ads_csv", "files.write", None, None),
    ("volfied.cli", "write_ads_csv", "files.write", None, None),
    ("volfied.cli", "write_mapping_csv", "files.write", None, None),
    ("volfied.files", "atomic_write_text", "files.write", None, _bytes),
    ("volfied.cli", "atomic_write_text", "files.write", None, _bytes),
    ("volfied.cli", "_run_one", "cli.job", None, None),
    ("volfied.cli", "_workers", "cli.workers", None, _workers),
]


class Tracer:
    """Wraps the names in WRAPPED and collects one span per call."""

    def __init__(self):
        # (id, parent, name, start, end, info, entered, left)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.residual_s = 0.0

    def install(self) -> None:
        self.residual_s = wrapper_residual()
        for module, path, name, before, after in WRAPPED:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._wrap(owner, attr, name, before, after)

    def _wrap(self, owner, attr, name, before, after) -> None:
        original = getattr(owner, attr)
        if hasattr(original, _MARK):
            raise RuntimeError(f"{owner!r}.{attr} is already wrapped")
        spans, ids, local = self.spans, self._ids, self._local

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            ctx = before(args, kwargs) if before else None
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, None, entered, perf_counter()))
                raise
            end = perf_counter()
            stack.pop()
            info = after(args, kwargs, result, ctx) if after else None
            spans.append((sid, parent, name, start, end, info, entered, perf_counter()))
            return result

        setattr(wrapper, _MARK, name)
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> list[str]:
        """Restore every original; returns the names still wrapped (none
        when the restore worked)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return leftover_wrappers()

    def write_csv(self, path) -> None:
        """Write the spans, in id order, as gzip-compressed CSV."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(
                ["span_id", "parent_id", "name", "start_s", "end_s", "info", "entered_s", "left_s"]
            )
            for sid, parent, name, start, end, info, entered, left in sorted(self.spans):
                out.writerow(
                    [sid, parent, name, repr(start), repr(end), info or "", repr(entered), repr(left)]
                )


def _noop(*args, **kwargs):
    return None


def wrapper_residual() -> float:
    """Seconds per wrapped call spent outside the span's [entered, left]:
    the median, over 5 batches of 20,000 calls, of a wrapped no-op's cost
    per call less its mean [entered, left]."""
    calls = 20_000
    samples = []
    for _ in range(5):
        tracer = Tracer()
        holder = types.SimpleNamespace(f=_noop)
        tracer._wrap(holder, "f", "noop", None, None)
        wrapped = holder.f
        t0 = perf_counter()
        for _ in range(calls):
            wrapped(1, 2)
        t1 = perf_counter()
        for _ in range(calls):
            pass
        t2 = perf_counter()
        inside = sum(left - entered for *_, entered, left in tracer.spans)
        samples.append(((t1 - t0) - (t2 - t1) - inside) / calls)
    return max(statistics.median(samples), 0.0)


def leftover_wrappers() -> list[str]:
    """Names in any loaded volfied module or class that are still wrappers."""
    found = []
    for modname, module in list(sys.modules.items()):
        if modname != "volfied" and not modname.startswith("volfied."):
            continue
        for attr, obj in vars(module).items():
            if hasattr(obj, _MARK):
                found.append(f"{modname}.{attr}")
            if isinstance(obj, type) and obj.__module__ == modname:
                for cattr, cobj in vars(obj).items():
                    if hasattr(cobj, _MARK):
                        found.append(f"{modname}.{attr}.{cattr}")
    return found


def layer_metrics(
    spans, residual_s: float, traced_wall_s: float, untraced_wall_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the spans of one traced run, whose wrappers
    cost `residual_s` per call outside [entered, left]."""
    dur = defaultdict(float)
    calls = defaultdict(int)
    info_sum = defaultdict(int)
    name_of = {}
    span_s = {}  # span id -> [start, end] less the tracer's cost inside
    tracer_s = defaultdict(float)  # span id -> the tracer's cost inside
    child_s = defaultdict(float)  # span id -> its children's span_s
    # A span is appended when its call returns, so after all its children.
    for sid, parent, name, start, end, info, entered, left in spans:
        name_of[sid] = name
        span_s[sid] = (end - start) - tracer_s[sid]
        tracer_s[parent] += tracer_s[sid] + (left - entered) - (end - start) + residual_s
        child_s[parent] += span_s[sid]
        dur[name] += span_s[sid]
        calls[name] += 1
        if info:
            for key, value in info.items():
                info_sum[name, key] += value
    rows_under_enter = sum(
        info["rows"]
        for sid, parent, name, start, end, info, *_ in spans
        if name == "model.distances_to" and info and name_of.get(parent) == "broker.enter"
    )
    write_s = sum(
        span_s[sid]
        for sid, parent, name, *_ in spans
        if name == "files.write" and name_of.get(parent) != "files.write"
    )
    sim_self = sum(span_s[sid] - child_s[sid] for sid, _, name, *_ in spans if name == "sim.run")
    workers = max(
        (s[5]["workers"] for s in spans if s[2] == "cli.workers" and s[5]), default=0
    )
    impressions = info_sum["vehicle.display", "impressions"]
    broadcast_ads = info_sum["broker.broadcast", "ads"]
    hits = info_sum["broker.enter", "hits"]

    def ratio(num, den):
        return num / den if den else 0.0

    count, secs = "count", "s"
    return {
        "broker.enter_calls": (calls["broker.enter"], count),
        "broker.enter_s": (dur["broker.enter"], secs),
        "broker.enter_rows_scanned": (rows_under_enter, count),
        "broker.enter_hit_ratio": (ratio(hits, rows_under_enter), "ratio"),
        "broker.exit_calls": (calls["broker.exit"], count),
        "broker.exit_s": (dur["broker.exit"], secs),
        "broker.broadcast_s": (dur["broker.broadcast"], secs),
        "broker.select_calls": (calls["broker.select"], count),
        "broker.select_s": (dur["broker.select"], secs),
        "broker.select_distance_evals": (info_sum["broker.select", "evals"], count),
        "broker.broadcast_ads": (broadcast_ads, count),
        "broker.broadcast_yield": (ratio(impressions, broadcast_ads), "ratio"),
        "model.distances_to_calls": (calls["model.distances_to"], count),
        "model.distances_to_rows": (info_sum["model.distances_to", "rows"], count),
        "model.distances_to_s": (dur["model.distances_to"], secs),
        "model.distance_calls": (calls["model.distance"], count),
        "model.distance_s": (dur["model.distance"], secs),
        "vehicle.display_calls": (calls["vehicle.display"], count),
        "vehicle.display_idle_calls": (info_sum["vehicle.display", "idle"], count),
        "vehicle.display_s": (dur["vehicle.display"], secs),
        "vehicle.impressions": (impressions, count),
        "sim.run_s": (dur["sim.run"], secs),
        "sim.self_s": (sim_self, secs),
        "sim.vehicle_steps": (info_sum["sim.run", "vehicle_steps"], count),
        "scenario.gen_ads_s": (dur["scenario.gen_ads"], secs),
        "scenario.gen_profiles_s": (dur["scenario.gen_profiles"], secs),
        "scenario.gen_trace_s": (dur["scenario.gen_trace"], secs),
        "sparse.m_sparse_set_s": (dur["sparse.m_sparse_set"], secs),
        "sparse.ads_in": (info_sum["sparse.m_sparse_set", "ads_in"], count),
        "sparse.ads_kept": (info_sum["sparse.m_sparse_set", "ads_kept"], count),
        "oracle.solve_calls": (calls["oracle.solve"], count),
        "oracle.solve_s": (dur["oracle.solve"], secs),
        "oracle.subsets_priced": (info_sum["oracle.solve", "subsets"], count),
        "oracle.simulate_display_s": (dur["oracle.simulate_display"], secs),
        "files.load_ads_s": (dur["files.load_ads"], secs),
        "files.rows_loaded": (info_sum["files.load_ads", "rows"], count),
        "files.write_s": (write_s, secs),
        "files.bytes_written": (info_sum["files.write", "bytes"], "bytes"),
        "cli.jobs": (calls["cli.job"], count),
        "cli.workers": (workers, count),
        "cli.job_run_s": (dur["cli.job"], secs),
        "cli.parallel_efficiency": (
            ratio(dur["cli.job"], traced_wall_s * workers),
            "ratio",
        ),
        "trace.overhead_ratio": (ratio(traced_wall_s, untraced_wall_s), "ratio"),
    }
