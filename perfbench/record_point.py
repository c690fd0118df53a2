"""Record one point of the bench trajectory for the sources of this checkout.

    python3 perfbench/record_point.py --out perfbench/baseline.json

Runs `run.py` once per workload and seed of `run.TRAJECTORY_SEEDS` with
tracing off, for the `run_seconds` that BENCHMARK.json fixes, then once
traced per workload on `run.TRACE_SEED`. Writes, per workload, each
end-to-end metric's values, median, quartiles and spread (quartile
distance over median, the figure BENCHMARK.json bounds), the per-layer
metrics of the traced run, the operation counts and the provenance of the
first run. Runs one process at a time and waits for each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, TRACE_SEED, TRAJECTORY_SEEDS


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"error: {' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    return lines[0]["provenance"], lines[-1]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    point = {
        "run_seconds": bench["run_seconds"],
        "seeds": TRAJECTORY_SEEDS,
        "trace_seed": TRACE_SEED,
        "provenance": None,
        "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        units = {}
        attempted = failed = 0
        for seed in TRAJECTORY_SEEDS:
            prov, result = _run(name, seed, bench["run_seconds"], 0)
            point["provenance"] = point["provenance"] or prov
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
                units[metric] = v["unit"]
            print(name, seed, {m: round(v[-1], 4) for m, v in values.items()}, flush=True)
        _, traced = _run(name, TRACE_SEED, bench["run_seconds"], 1)
        point["workloads"][name] = {
            "attempted": attempted + traced["attempted"],
            "failed": failed + traced["failed"],
            "end_to_end": {
                m: {"unit": units[m], **summarize(v)} for m, v in values.items()
            },
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        for m, v in point["workloads"][name]["end_to_end"].items():
            print(f"{name} {m}: median {v['median']:.4f} spread {v['spread']:.4f}", flush=True)
    with open(args.out, "w") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
