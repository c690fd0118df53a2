"""Command-line front end.

Subcommands: gen-ads, gen-poas, gen-trace, gen-profiles, sparsify, run,
oracle, sweep. A config file is JSON carrying every simulation field; `run`
and `sweep` regenerate the scenario deterministically per seed, write one
metrics CSV per (strategy, seed, sweep value) combination plus a summary
CSV, and exit 0 only when every combination completed.

Jobs that differ only in the cache size form a group: the cache is on the
vehicle side, so a group builds its world once and makes one simulation
pass (`sim.run_cache_sizes`), then writes each job's metrics CSV. The
groups run in a pool of forked worker processes, one per usable CPU and no
more than there are groups; with one group or one CPU they run one after
another in the calling process. Either way the summary rows and the
failure lines come out in job order. A failure in a group's pass fails
every job of the group; a failure writing one job's CSV fails that job
alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .files import (
    atomic_write_text,
    load_ads_csv,
    render_summary_row,
    write_ads_csv,
    write_mapping_csv,
    write_metrics_csv,
    write_poas_csv,
    write_profiles_csv,
    write_summary_csv,
    write_trace_csv,
)
from .model import DistanceMetric, paired_distances
# perfbench/tracer.py wraps `distance` under this module's name.
from .model import distance  # noqa: F401
from .oracle import instance_from_json, result_to_json, solve_exact
from .scenario import build_scenario, gen_ads, gen_poas, gen_profiles, gen_synthetic
from .sim import SimConfig, StepMetrics, run_cache_sizes
# perfbench/tracer.py wraps `run` under this module's name.
from .sim import run  # noqa: F401
from .sparse import m_sparse_set

__all__ = ["main"]

# sweepable parameter -> (SimConfig field, parser)
SWEEP_PARAMS = {
    "k": ("k", int),
    "m": ("m", int),
    "A": ("n_ads", int),
    "n_ads": ("n_ads", int),
    "epsilon": ("epsilon", float),
    "d_max": ("d_max", float),
    "C": ("cache_size", int),
    "p": ("detection_accuracy", float),
}

# field -> the type of its default: int, float, bool, str or DistanceMetric
_CONFIG_FIELDS = {f.name: type(f.default) for f in dataclasses.fields(SimConfig)}
# the JSON types a config field takes, by the type of its default: a string
# for any other, such as a metric
_JSON_TYPES = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "a boolean"),
}


def load_config(path: str | None) -> SimConfig:
    """Config file must carry every field, each a JSON value of the field's
    type; None means built-in defaults."""
    if path is None:
        return SimConfig()
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    missing = sorted(_CONFIG_FIELDS.keys() - doc.keys())
    if missing:
        raise ValueError(f"config missing field: {missing[0]}")
    unknown = sorted(doc.keys() - _CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"unknown config field: {unknown[0]}")
    for name, kind in _CONFIG_FIELDS.items():
        types, expected = _JSON_TYPES.get(kind, ((str,), "a string"))
        if type(doc[name]) not in types:
            raise ValueError(f"config field {name} must be {expected}, got {doc[name]!r}")
    doc = dict(doc)
    doc["metric"] = DistanceMetric(doc["metric"])
    return SimConfig(**doc)


def _workers(n_jobs: int) -> int:
    """Worker processes for `n_jobs` jobs: one per CPU this process may run
    on, and no more than there are jobs."""
    return min(n_jobs, len(os.sched_getaffinity(0)))


def _parse_list(text: str, what: str, parse=str) -> list[str]:
    """The non-empty comma-separated tokens of a job list; ValueError, naming
    `what`, when there are none or two parse to the same value."""
    tokens = [tok for tok in text.split(",") if tok != ""]
    if not tokens:
        raise ValueError(f"{what} has no values")
    seen: dict = {}  # value -> its first token
    for tok in tokens:
        value = parse(tok)
        if value in seen:
            spelt = "" if seen[value] == tok else f" as {tok!r}"
            raise ValueError(f"{what} repeats {seen[value]!r}{spelt}")
        seen[value] = tok
    return tokens


def _parse_seeds(text: str) -> list[int]:
    seeds = [int(tok) for tok in _parse_list(text, "--seed", int)]
    for seed in seeds:
        SimConfig.check_seed(seed)
    return seeds


def _parse_strategies(text: str) -> list[str]:
    return _parse_list(text, "--strategy")


def _parse_sweep(text: str) -> tuple[str, str, type, list[str]]:
    """PARAM=V1,V2,... -> (name, config field, type, raw value tokens)."""
    if "=" not in text:
        raise ValueError("sweep must look like PARAM=V1,V2,...")
    name, _, values = text.partition("=")
    if name not in SWEEP_PARAMS:
        raise ValueError(
            f"cannot sweep {name!r}; parameters: {', '.join(sorted(SWEEP_PARAMS))}"
        )
    field, typ = SWEEP_PARAMS[name]
    return name, field, typ, _parse_list(values, f"sweep {name}", typ)


def _cmd_gen(args, what: str) -> int:
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.seed
    SimConfig.check_seed(seed)
    os.makedirs(args.out, exist_ok=True)
    if what == "ads":
        write_ads_csv(os.path.join(args.out, "ads.csv"), gen_ads(config, seed))
    elif what == "poas":
        write_poas_csv(os.path.join(args.out, "poas.csv"), gen_poas(config))
    elif what == "trace":
        trace = gen_synthetic(
            (config.area_w_m, config.area_h_m),
            config.n_vehicles,
            config.steps,
            config.speed_mps,
            seed,
            config.step_duration_s,
        )
        write_trace_csv(os.path.join(args.out, "trace.csv"), trace)
    else:
        write_profiles_csv(
            os.path.join(args.out, "profiles.csv"), gen_profiles(config, seed)
        )
    return 0


def _cmd_sparsify(args) -> int:
    config = load_config(args.config)
    ads = load_ads_csv(args.ads_csv)
    sparse = m_sparse_set(ads, config.epsilon, config.m, config.metric)
    os.makedirs(args.out, exist_ok=True)
    write_ads_csv(os.path.join(args.out, "ads_sparse.csv"), sparse.ads)
    pairs = np.array(sorted(sparse.mapping.items()), dtype=np.int64).reshape(-1, 2)
    by_id = np.argsort(ads.ids)
    at = by_id[np.searchsorted(ads.ids, pairs, sorter=by_id)]  # the table row of each id
    dists = paired_distances(config.metric, ads.features[at[:, 0]], ads.features[at[:, 1]])
    rows = list(zip(*pairs.T.tolist(), dists.tolist()))
    write_mapping_csv(os.path.join(args.out, "mapping.csv"), rows)
    return 0


def _cmd_oracle(args) -> int:
    with open(args.instance) as fh:
        doc = json.load(fh)
    result = solve_exact(instance_from_json(doc))
    payload = json.dumps(result_to_json(result), indent=2)
    print(payload)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        atomic_write_text(os.path.join(args.out, "oracle_result.json"), payload + "\n")
    return 0


def _run_one(group: list[tuple]) -> list[tuple[bool, str]]:
    """Run one group of jobs that differ only in the cache size: one world
    and one pass, then each job's metrics CSV. Per job, (True, its summary
    row) or (False, the error text), so no exception has to be pickled on
    its way back from a worker."""
    config = group[0][0]
    ads, profiles, poas, trace = build_scenario(config, config.seed)
    cache_sizes = [job[0].cache_size for job in group]
    runs = run_cache_sizes(config, cache_sizes, trace, ads, profiles, poas)
    results = []
    for (_, out_dir, strategy, seed, sweep_name, token), (metrics, _) in zip(group, runs):
        suffix = f"_{sweep_name}_{token}" if sweep_name else ""
        path = os.path.join(out_dir, f"metrics_{strategy}_seed{seed}{suffix}.csv")
        try:
            write_metrics_csv(path, strategy, metrics)
        except Exception as exc:
            results.append((False, str(exc)))
        else:
            last = metrics[-1] if metrics else StepMetrics(0, 0.0, 0, 0.0, 0)
            results.append((True, render_summary_row(strategy, seed, token or "", last)))
    return results


def _group(group: list[tuple]) -> list[tuple[bool, str]]:
    """`_run_one`, with a failure before the CSVs given to every job of the
    group. Module level, and not `_run_one` itself, so that it pickles by
    name even when `_run_one` or `run_cache_sizes` is replaced by a
    wrapper."""
    try:
        return _run_one(group)
    except Exception as exc:
        return [(False, str(exc))] * len(group)


def _run_jobs(jobs: list[tuple]) -> list[tuple[bool, str]]:
    """The `_run_one` result of every job, in job order. Jobs whose configs
    differ only in the cache size run as one group."""
    by_world: dict[SimConfig, list[int]] = {}
    for i, job in enumerate(jobs):
        by_world.setdefault(dataclasses.replace(job[0], cache_size=0), []).append(i)
    indices = list(by_world.values())
    outcomes = _run_groups([[jobs[i] for i in group] for group in indices])
    results: list = [None] * len(jobs)
    for group, outcome in zip(indices, outcomes):
        for i, result in zip(group, outcome):
            results[i] = result
    return results


def _run_groups(groups: list[list[tuple]]) -> list[list[tuple[bool, str]]]:
    """The `_group` result of every group, in group order."""
    workers = _workers(len(groups))
    if workers == 1:
        return [_group(group) for group in groups]
    # Imported here: they add about 2 MB to a process, and only a pool
    # uses them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: workers import nothing again and inherit the
    # parent's module state, including any name replaced at run time.
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = [pool.submit(_group, group) for group in groups]
        outcomes = []
        for group, future in zip(groups, futures):
            try:
                outcomes.append(future.result())
            except BrokenProcessPool as exc:  # a worker died; its jobs are lost
                outcomes.append([(False, str(exc))] * len(group))
        return outcomes


def _cmd_run(args, sweep_required: bool) -> int:
    config = load_config(args.config)
    strategies = _parse_strategies(args.strategy)
    seeds = _parse_seeds(args.seed)
    sweep_name = field = typ = None
    tokens: list[str | None] = [None]
    if args.sweep:
        sweep_name, field, typ, tokens = _parse_sweep(args.sweep)
    elif sweep_required:
        raise ValueError("sweep requires --sweep PARAM=V1,V2,...")

    jobs = []
    for strategy in strategies:
        for seed in seeds:
            for token in tokens:
                cfg = dataclasses.replace(config, strategy=strategy, seed=seed)
                if token is not None:
                    cfg = dataclasses.replace(cfg, **{field: typ(token)})
                jobs.append((cfg, args.out, strategy, seed, sweep_name, token))

    os.makedirs(args.out, exist_ok=True)
    rows = []
    failures = []
    for (_, _, strategy, seed, _, token), (ok, text) in zip(jobs, _run_jobs(jobs)):
        if ok:
            rows.append(text)
        else:
            label = f"strategy={strategy} seed={seed}" + (
                f" {sweep_name}={token}" if token is not None else ""
            )
            failures.append(f"{label}: {text}")

    write_summary_csv(os.path.join(args.out, "summary.csv"), rows)
    for failure in failures:
        print(f"error: run failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


@functools.cache  # built once; parse_args does not change it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volfied", description="Targeted-ad scheduling simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=None):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=seed_default)

    for name in ("gen-ads", "gen-poas", "gen-trace", "gen-profiles"):
        common(sub.add_parser(name, help=f"write {name[4:]}.csv"))

    p = sub.add_parser("sparsify", help="sparse-approximate an ads CSV")
    p.add_argument("ads_csv")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="solve a small instance exactly")
    p.add_argument("instance")
    p.add_argument("--out", default=None)

    for name in ("run", "sweep"):
        p = sub.add_parser(name, help=f"{name} simulations")
        p.add_argument("--config", default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", default="0", help="comma-separated seed list")
        p.add_argument("--strategy", default="volfied", help="comma-separated strategies")
        p.add_argument("--sweep", default=None, help="PARAM=V1,V2,...")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("gen-ads", "gen-poas", "gen-trace", "gen-profiles"):
            return _cmd_gen(args, args.command[4:])
        if args.command == "sparsify":
            return _cmd_sparsify(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        return _cmd_run(args, sweep_required=args.command == "sweep")
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
