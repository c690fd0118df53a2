"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Each workload has three parts:

- `setup(seed, work)` generates the inputs with the `volfied.scenario`
  generators and writes any input files under `work`;
- `op(inputs, out)` is the timed operation: what a user of the library
  or of the CLI waits for; it writes its files under `out`;
- `check(inputs, result, golden)` returns one (item, problem) pair per
  output item, problem None when the item is right. Every item is checked
  against invariants that hold for any seed; when `golden` holds digests
  recorded at a known-good commit, the item must also match them byte for
  byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
from pathlib import Path

from volfied import cli, files, oracle, scenario, sim
from volfied.sim import SimConfig

# tests/test_acceptance.py::_SCENARIO, the scenario of the statistical
# acceptance criteria (20 PoAs on 5x5 km, 1000 ads in 3-D, 120 steps).
ACCEPTANCE_SCENARIO = dict(
    k=5,
    m=1,
    n_ads=1000,
    n_poas=20,
    n_vehicles=500,
    steps=120,
    area_w_m=5000.0,
    area_h_m=5000.0,
    n_dims=3,
    poa_range_m=400.0,
)
SWEEP_STRATEGIES = ("volfied", "topk")
SWEEP_PARAM, SWEEP_VALUES = "C", ("0", "4")

CATALOG_ADS = 50_000  # 5-D, epsilon = 0.025, m = 1 (SimConfig defaults)
ORACLE_INSTANCES = 40
# At the enumeration budget (MAX_CANDIDATES ads, MAX_K broadcast slots);
# d_max = 0.6 leaves about 4 of the 15 ads relevant to each vehicle, so
# the m = 1 screen makes ads compete.
ORACLE_CONFIG = SimConfig(
    n_ads=oracle.MAX_CANDIDATES,
    global_fraction=1.0,
    n_vehicles=40,
    n_poas=1,
    k=oracle.MAX_K,
    m=1,
    d_max=0.6,
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclasses.dataclass
class Result:
    """Artifacts of one operation (name -> text) and CLI exit codes."""

    artifacts: dict[str, str]
    exit_codes: dict[str, int] = dataclasses.field(default_factory=dict)


def vehicle_steps(config: SimConfig, trace) -> int:
    """Vehicle positions the trace holds over the simulated steps."""
    return sum(len(trace.positions_at(s)) for s in range(config.steps))


@functools.cache
def world_vehicle_steps(config: SimConfig) -> int:
    """Vehicle-steps of the world the CLI builds for `config`; strategy
    and cache size do not change it. Built once per config, outside the
    timed set-up and operation."""
    _, _, _, trace = scenario.build_scenario(config, config.seed)
    return vehicle_steps(config, trace)


def metrics_problem(text: str, config: SimConfig, n_vehicle_steps: int) -> str | None:
    """Invariants of one metrics CSV: one row per step, cumulative
    revenue, impressions and broadcasts never decrease, broadcasts stay
    within k x PoAs x steps and impressions within m x vehicle-steps."""
    lines = text.splitlines()
    if not lines or lines[0] != files.METRICS_HEADER:
        return "missing or wrong metrics header"
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(range(config.steps)):
        return f"expected steps 0..{config.steps - 1}"
    prev = (0.0, 0, 0)
    for r in rows:
        cur = (float(r[2]), int(r[3]), int(r[5]))
        if any(c < p for c, p in zip(cur, prev)):
            return f"cumulative metric decreases at step {r[0]}"
        prev = cur
    revenue, impressions, broadcasts = prev
    if broadcasts > config.k * config.n_poas * config.steps:
        return f"{broadcasts} broadcasts exceed k x PoAs x steps"
    if impressions > config.m * n_vehicle_steps:
        return f"{impressions} impressions exceed m x vehicle-steps ({n_vehicle_steps})"
    return None


def _golden_problem(name: str, text: str | None, golden: dict | None) -> str | None:
    if text is None:
        return "not written"
    if golden is not None and golden.get(name) != digest(text):
        return f"digest {digest(text)} differs from golden {golden.get(name)}"
    return None


class Reference:
    """`sim.run()` on the reference `SimConfig()` with strategy volfied."""

    name = "reference"

    def setup(self, seed: int, work: Path):
        config = SimConfig(seed=seed)
        ads, profiles, poas, trace = scenario.build_scenario(config, seed)
        return config, trace, ads, profiles, poas

    def op(self, inputs, out: Path) -> Result:
        config, trace, ads, profiles, poas = inputs
        metrics, _ = sim.run(config, trace, ads, profiles, poas)
        name = f"metrics_{config.strategy}_seed{config.seed}.csv"
        return Result({name: files.render_metrics_csv(config.strategy, metrics)})

    def check(self, inputs, result: Result, golden):
        config, trace, *_ = inputs
        (name, text), = result.artifacts.items()
        problem = _golden_problem(name, text, golden) or metrics_problem(
            text, config, vehicle_steps(config, trace)
        )
        return [(name, problem)]


class Sweep:
    """CLI `volfied sweep --strategy volfied,topk --sweep C=0,4` on the
    acceptance scenario, in-process, with the CLI's own pool size."""

    name = "sweep"

    def setup(self, seed: int, work: Path):
        config = SimConfig(seed=seed, **ACCEPTANCE_SCENARIO)
        doc = dataclasses.asdict(config)
        doc["metric"] = config.metric.value
        config_path = work / "acceptance.json"
        config_path.write_text(json.dumps(doc, indent=2) + "\n")
        return config, config_path

    def jobs(self, seed: int):
        for strategy in SWEEP_STRATEGIES:
            for value in SWEEP_VALUES:
                yield strategy, value, f"metrics_{strategy}_seed{seed}_{SWEEP_PARAM}_{value}.csv"

    def op(self, inputs, out: Path) -> Result:
        config, config_path = inputs
        code = cli.main([
            "sweep",
            "--config", str(config_path),
            "--out", str(out),
            "--seed", str(config.seed),
            "--strategy", ",".join(SWEEP_STRATEGIES),
            "--sweep", f"{SWEEP_PARAM}={','.join(SWEEP_VALUES)}",
        ])
        artifacts = {p.name: p.read_text() for p in sorted(out.iterdir())}
        return Result(artifacts, {"sweep": code})

    def check(self, inputs, result: Result, golden):
        config, _ = inputs
        n_vehicle_steps = world_vehicle_steps(config)
        items = []
        expected_rows = [files.SUMMARY_HEADER]
        for strategy, value, name in self.jobs(config.seed):
            text = result.artifacts.get(name)
            job = dataclasses.replace(config, strategy=strategy, cache_size=int(value))
            problem = _golden_problem(name, text, golden) or metrics_problem(
                text, job, n_vehicle_steps
            )
            items.append((name, problem))
            if text is not None:
                last = text.splitlines()[-1].split(",")
                expected_rows.append(
                    f"{strategy},{config.seed},{value},{last[2]},{last[3]},{last[4]}"
                )
        summary = result.artifacts.get("summary.csv")
        problem = _golden_problem("summary.csv", summary, golden)
        if result.exit_codes["sweep"] != 0:
            problem = f"sweep exited {result.exit_codes['sweep']}"
        elif problem is None and summary.splitlines() != expected_rows:
            problem = "summary rows differ from the final rows of the metrics CSVs"
        items.append(("summary.csv", problem))
        return items


class Catalog:
    """CLI `volfied sparsify` on a 5x10^4-ad CSV, then CLI `volfied oracle`
    on 40 instances at the enumeration budget."""

    name = "catalog"

    def setup(self, seed: int, work: Path):
        config = SimConfig(n_ads=CATALOG_ADS, seed=seed)
        ads_path = work / "ads.csv"
        files.write_ads_csv(ads_path, scenario.gen_ads(config, seed))
        instances = []
        for i in range(ORACLE_INSTANCES):
            # far from any workload seed, so no instance reuses a stream
            inst_seed = 1_000_000 * (i + 1) + seed
            profiles = scenario.gen_profiles(ORACLE_CONFIG, inst_seed)
            instance = oracle.OracleInstance(
                ads=scenario.gen_ads(ORACLE_CONFIG, inst_seed),
                vehicles=profiles,
                coverage={p.vehicle_id: 0 for p in profiles},
                params=ORACLE_CONFIG.selection_params,
            )
            path = work / f"instance_{i:02d}.json"
            path.write_text(json.dumps(oracle.instance_to_json(instance)) + "\n")
            instances.append((path, instance))
        return config, ads_path, instances

    def op(self, inputs, out: Path) -> Result:
        _, ads_path, instances = inputs
        codes = {"sparsify": cli.main(["sparsify", str(ads_path), "--out", str(out / "sparse")])}
        artifacts = {
            p.name: p.read_text() for p in sorted((out / "sparse").iterdir())
        }
        for i, (path, _) in enumerate(instances):
            name = f"oracle_{i:02d}"
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                codes[name] = cli.main(["oracle", str(path), "--out", str(out / name)])
            result_path = out / name / "oracle_result.json"
            if result_path.exists():
                artifacts[f"{name}.json"] = result_path.read_text()
            artifacts[f"{name}.stdout"] = printed.getvalue()
        return Result(artifacts, codes)

    def check(self, inputs, result: Result, golden):
        config, ads_path, instances = inputs
        items = [("sparsify", self._sparsify_problem(config, ads_path, result, golden))]
        for i, (_, instance) in enumerate(instances):
            name = f"oracle_{i:02d}"
            items.append((name, self._oracle_problem(name, instance, result, golden)))
        return items

    def _sparsify_problem(self, config, ads_path, result, golden):
        if result.exit_codes["sparsify"] != 0:
            return f"sparsify exited {result.exit_codes['sparsify']}"
        kept_text = result.artifacts.get("ads_sparse.csv")
        mapping_text = result.artifacts.get("mapping.csv")
        problem = _golden_problem("ads_sparse.csv", kept_text, golden) or _golden_problem(
            "mapping.csv", mapping_text, golden
        )
        if problem:
            return problem
        source = ads_path.read_text().splitlines()
        kept_lines = kept_text.splitlines()
        if kept_lines[0] != source[0]:
            return "ads_sparse.csv header differs from the input's"
        source_rows = set(source[1:])
        if not all(line in source_rows for line in kept_lines[1:]):
            return "ads_sparse.csv has a row that is not an input row verbatim"
        kept = {int(line.split(",", 1)[0]) for line in kept_lines[1:]}
        removed = set()
        for line in mapping_text.splitlines()[1:]:
            gone, rep, dist = line.split(",")
            removed.add(int(gone))
            if int(rep) not in kept:
                return f"ad {gone} maps to {rep}, which was not kept"
            if float(dist) > 2.0 * config.epsilon + 5e-7:
                return f"ad {gone} is {dist} from its representative, over 2*epsilon"
        all_ids = {int(line.split(",", 1)[0]) for line in source[1:]}
        if kept & removed or kept | removed != all_ids or not kept:
            return "kept and removed ads do not partition the input"
        return None

    def _oracle_problem(self, name, instance, result, golden):
        if result.exit_codes[name] != 0:
            return f"oracle exited {result.exit_codes[name]}"
        text = result.artifacts.get(f"{name}.json")
        problem = _golden_problem(f"{name}.json", text, golden)
        if problem:
            return problem
        if result.artifacts[f"{name}.stdout"] != text:
            return "printed result differs from oracle_result.json"
        doc = json.loads(text)
        ad_ids = {a.ad_id for a in instance.ads}
        covered = {str(p) for p in instance.coverage.values() if p is not None}
        if set(doc["broadcasts"]) != covered:
            return "broadcasts are not keyed by the covered PoAs"
        for chosen in doc["broadcasts"].values():
            if len(chosen) > instance.params.k or len(set(chosen)) != len(chosen):
                return f"broadcast {chosen} breaks the k={instance.params.k} budget"
            if not set(chosen) <= ad_ids:
                return f"broadcast {chosen} names unknown ads"
        if not (math.isfinite(doc["revenue"]) and doc["revenue"] >= 0.0):
            return f"revenue {doc['revenue']} is not a finite non-negative number"
        return None


WORKLOADS = {w.name: w for w in (Reference(), Sweep(), Catalog())}
