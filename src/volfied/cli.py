"""Command-line front end.

Subcommands: gen-ads, gen-poas, gen-trace, gen-profiles, sparsify, run,
oracle, sweep. A config file is JSON carrying every simulation field; `run`
and `sweep` regenerate the scenario deterministically per seed, write one
metrics CSV per (strategy, seed, sweep value) combination plus a summary
CSV, and exit 0 only when every combination completed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .files import (
    SUMMARY_HEADER,
    atomic_write_text,
    load_ads_csv,
    render_metrics_csv,
    render_summary_row,
    write_ads_csv,
    write_mapping_csv,
    write_poas_csv,
    write_profiles_csv,
)
from .model import DistanceMetric, distance
from .oracle import instance_from_json, result_to_json, solve_exact
from .scenario import build_scenario, gen_ads, gen_poas, gen_profiles, gen_synthetic
from .sim import SimConfig, StepMetrics, run, write_trace_csv
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

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(SimConfig)}


def load_config(path: str | None) -> SimConfig:
    """Config file must carry every field; None means built-in defaults."""
    if path is None:
        return SimConfig()
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    missing = sorted(_CONFIG_FIELDS - doc.keys())
    if missing:
        raise ValueError(f"config missing field: {missing[0]}")
    unknown = sorted(doc.keys() - _CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"unknown config field: {unknown[0]}")
    doc = dict(doc)
    doc["metric"] = DistanceMetric(doc["metric"])
    return SimConfig(**doc)


def _workers(n_jobs: int) -> int:
    # Jobs run one after another; perfbench still reports this pool size.
    return 1


def _parse_seeds(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok != ""]


def _parse_strategies(text: str) -> list[str]:
    return [tok for tok in text.split(",") if tok != ""]


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
    tokens = [tok for tok in values.split(",") if tok != ""]
    if not tokens:
        raise ValueError(f"sweep {name} has no values")
    for tok in tokens:
        typ(tok)
    return name, field, typ, tokens


def _cmd_gen(args, what: str) -> int:
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.seed
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
    write_ads_csv(os.path.join(args.out, "ads_sparse.csv"), list(sparse.ads))
    by_id = {a.ad_id: a for a in ads}
    rows = [
        (removed, rep, distance(config.metric, by_id[removed].features, by_id[rep].features))
        for removed, rep in sorted(sparse.mapping.items())
    ]
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


def _run_one(config: SimConfig, out_dir: str, strategy: str, seed: int,
             sweep_name: str | None, token: str | None) -> str:
    ads, profiles, poas, trace = build_scenario(config, seed)
    metrics, _ = run(config, trace, ads, profiles, poas)
    suffix = f"_{sweep_name}_{token}" if sweep_name else ""
    path = os.path.join(out_dir, f"metrics_{strategy}_seed{seed}{suffix}.csv")
    atomic_write_text(path, render_metrics_csv(strategy, metrics))
    last = metrics[-1] if metrics else StepMetrics(0, 0.0, 0, 0.0, 0)
    return render_summary_row(strategy, seed, token or "", last)


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
                jobs.append((cfg, strategy, seed, token))

    os.makedirs(args.out, exist_ok=True)
    rows = [SUMMARY_HEADER]
    failures = []
    for cfg, strategy, seed, token in jobs:
        try:
            rows.append(_run_one(cfg, args.out, strategy, seed, sweep_name, token))
        except Exception as exc:
            label = f"strategy={strategy} seed={seed}" + (
                f" {sweep_name}={token}" if token is not None else ""
            )
            failures.append(f"{label}: {exc}")

    atomic_write_text(os.path.join(args.out, "summary.csv"), "\n".join(rows) + "\n")
    for failure in failures:
        print(f"error: run failed: {failure}", file=sys.stderr)
    return 1 if failures else 0


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
