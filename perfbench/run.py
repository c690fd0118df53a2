"""Run one seeded benchmark workload against the volfied sources of this checkout.

    python3 perfbench/run.py --workload reference --seed 0 --seconds 35 --trace 0

With `--trace 0` the workload runs in rounds for about `--seconds` (at
least one round): a round sets the inputs up again and again for at least
SETUP_ROUND_SECONDS or SETUP_ROUND_REPEATS times, whichever comes first,
then runs the operation once on the last inputs, and every operation's
outputs are checked. Set-ups are thus spread over the run like the
operations. The end-to-end metrics are medians over those repeats:

- wall_s: host seconds of one operation;
- cpu_s: user + system CPU seconds of the process and its children
  during one operation;
- setup_s: host seconds of one set-up (generating and writing inputs);
- peak_rss_mb: peak resident memory of the process.

With `--trace 1` the operation runs untraced, then with every layer
wrapped by `tracer.Tracer` (set-up included), then untraced again, and the
metrics are the per-layer ones. The traced outputs must equal the untraced ones byte
for byte, and no wrapper may survive the run. Spans are written to
`.bench_work/spans_<workload>_seed<seed>.csv.gz`.

Standard output ends with a provenance line, a samples line and, last,
the result: {"correct", "attempted", "failed", "metrics"}. The exit code
is 0 when a result was printed, even if some operations failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Each round repeats the set-up for this long or this many times, whichever
# comes first (at least once), so that short set-ups get enough samples for
# a steady median.
SETUP_ROUND_SECONDS = 1.0
SETUP_ROUND_REPEATS = 50
# Claims must also hold on this seed; do not tune on it.
HELD_OUT_SEED = 7919
# Seeds whose output digests goldens.json holds (record_goldens.py).
GOLDEN_SEEDS = [*range(30), HELD_OUT_SEED]
# Seeds of each trajectory point's untraced runs, and of its traced run
# (record_point.py); every point uses the same ones, so points compare.
TRAJECTORY_SEEDS = list(range(1, 11))
TRACE_SEED = 0


def load_program() -> None:
    """Put this checkout's `src` first on the path and import volfied from
    it; exit non-zero, printing no result, when the sources are missing."""
    src = ROOT / "src"
    if not (src / "volfied" / "__init__.py").is_file():
        sys.exit(f"error: no volfied sources under {src}")
    sys.path.insert(0, str(src))
    import volfied

    if Path(volfied.__file__).resolve().parent != (src / "volfied").resolve():
        sys.exit(f"error: imported volfied from {volfied.__file__}, not {src}")


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "volfied").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(workload: str, seed: int) -> dict:
    import numpy as np
    from volfied import cli

    from workloads import SWEEP_STRATEGIES, SWEEP_VALUES

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(
            str(blas.get(key, "")) for key in ("name", "version", "openblas configuration")
        ).strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "VOLFIED_THREADS": os.environ.get("VOLFIED_THREADS"),
        "sweep_pool_size": cli._workers(len(SWEEP_STRATEGIES) * len(SWEEP_VALUES)),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def _goldens(workload: str, seed: int) -> dict | None:
    path = HERE / "goldens.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(str(seed))


def _checked(wl, inputs, result, golden) -> tuple[int, int]:
    items = wl.check(inputs, result, golden)
    bad = [(item, problem) for item, problem in items if problem]
    for item, problem in bad:
        print(f"check failed: {wl.name} {item}: {problem}", file=sys.stderr)
    return len(items), len(bad)


def fresh_dir(work: Path) -> Path:
    """A new, empty directory under `work`. Each set-up and operation gets
    one, so none of them times the removal of files an earlier one left."""
    return Path(tempfile.mkdtemp(dir=work))


def measure(wl, seed: int, seconds: float, work: Path) -> dict:
    golden = _goldens(wl.name, seed)
    setup_times, walls, cpus, rounds = [], [], [], []
    attempted = failed = 0
    start = perf_counter()
    # Start another round only while it is expected to end within
    # `seconds`, so a run takes about `seconds` however slow the host is.
    while not rounds or perf_counter() - start + statistics.median(rounds) <= seconds:
        r0 = perf_counter()
        for _ in range(SETUP_ROUND_REPEATS):
            if perf_counter() - r0 >= SETUP_ROUND_SECONDS:
                break
            where = fresh_dir(work)
            t0 = perf_counter()
            inputs = wl.setup(seed, where)
            setup_times.append(perf_counter() - t0)
        out = fresh_dir(work)
        gc.collect()
        try:
            c0, t0 = _cpu_seconds(), perf_counter()
            result = wl.op(inputs, out)
            t1, c1 = perf_counter(), _cpu_seconds()
        except Exception:
            traceback.print_exc()
            attempted, failed = attempted + 1, failed + 1
        else:
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            n, bad = _checked(wl, inputs, result, golden)
            attempted, failed = attempted + n, failed + bad
            result = None
        for path in work.iterdir():
            shutil.rmtree(path)
        rounds.append(perf_counter() - r0)
    if not walls:
        sys.exit(f"error: every {wl.name} operation raised")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"samples": {"wall_s": walls, "cpu_s": cpus, "setup_s": setup_times}}))
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def traced(wl, seed: int, work: Path) -> dict:
    from tracer import Tracer, layer_metrics

    golden = _goldens(wl.name, seed)
    inputs = wl.setup(seed, fresh_dir(work))
    # The first operation also warms caches and lazy imports; the untraced
    # wall time is taken from a second one, after the traced run.
    plain = wl.op(inputs, fresh_dir(work))
    attempted, failed = _checked(wl, inputs, plain, golden)

    tracer = Tracer()
    tracer.install()
    try:
        inputs = wl.setup(seed, fresh_dir(work))
        out = fresh_dir(work)
        t0 = perf_counter()
        result = wl.op(inputs, out)
        traced_wall = perf_counter() - t0
    finally:
        leftovers = tracer.uninstall()
    n, bad = _checked(wl, inputs, result, golden)
    attempted, failed = attempted + n + 1, failed + bad
    if result.artifacts != plain.artifacts or leftovers:
        failed += 1
        print(
            f"check failed: {wl.name} trace self-check: outputs identical="
            f"{result.artifacts == plain.artifacts}, wrappers left={leftovers}",
            file=sys.stderr,
        )

    out = fresh_dir(work)
    t0 = perf_counter()
    again = wl.op(inputs, out)
    untraced_wall = perf_counter() - t0
    n, bad = _checked(wl, inputs, again, golden)
    attempted, failed = attempted + n, failed + bad

    tracer.write_csv(ROOT / ".bench_work" / f"spans_{wl.name}_seed{seed}.csv.gz")
    metrics = layer_metrics(tracer.spans, tracer.residual_s, traced_wall, untraced_wall)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("reference", "sweep", "catalog"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    print(json.dumps({"provenance": provenance(args.workload, args.seed)}))
    work = ROOT / ".bench_work" / f"run-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            out = traced(wl, args.seed, work)
        else:
            out = measure(wl, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
