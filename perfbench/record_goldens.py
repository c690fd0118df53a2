"""Record the output digests that the benchmark's checks compare against.

    VOLFIED_THREADS=1 python3 perfbench/record_goldens.py

Runs each workload's operation once per seed of `run.GOLDEN_SEEDS` (0-29
and the held-out seed) with the volfied sources of this checkout, requires
the seed-independent invariants to hold, and writes
`perfbench/goldens.json`. Record only at a commit whose outputs are
known to be right: for a fixed config and seed the metrics, summary,
sparsifier and oracle files must stay byte-identical, and the goldens are
what holds later commits to that. The pool size does not change outputs.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    run.load_program()
    from workloads import WORKLOADS, digest

    goldens: dict[str, dict[str, dict[str, str]]] = {}
    work = run.ROOT / ".bench_work" / "goldens"
    try:
        for name, wl in WORKLOADS.items():
            for seed in run.GOLDEN_SEEDS:
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                inputs = wl.setup(seed, run.fresh_dir(work))
                result = wl.op(inputs, run.fresh_dir(work))
                bad = [(item, p) for item, p in wl.check(inputs, result, None) if p]
                if bad:
                    sys.exit(f"error: {name} seed {seed}: {bad}")
                goldens.setdefault(name, {})[str(seed)] = {
                    artifact: digest(text)
                    for artifact, text in sorted(result.artifacts.items())
                    if not artifact.endswith(".stdout")
                }
                print(f"{name} seed {seed}: {len(goldens[name][str(seed)])} files", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
