"""Run the benchmark over several seeds and write a results file.

    python3 bench/repeat.py --label NAME

For each workload in BENCHMARK.json it runs `run.py` once for each of
seeds 1 to 10 untraced, then twice traced at seed 1, and writes
`bench/results/BENCH_<label>.json`: provenance (git commit, seeds, Python
and numpy versions, CPU count, run count), every run's result, and per
end-to-end metric the median, quartiles and spread (quartile distance over
median) next to the bound from BENCHMARK.json.  Traced runs record whether
their counts repeated exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = list(range(1, 11))
#: Traced runs per workload; two are enough to see whether the counts repeat.
TRACED_RUNS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}")
    return {"seed": seed, "trace": trace, **json.loads(proc.stdout.splitlines()[-1])}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else None,
                     "bound": metric["bound"]}
    return out


def counts_repeat(traced: list[dict]) -> bool:
    """True when every non-time per-layer value is equal across traced runs."""
    keys = [k for k, v in traced[0]["metrics"].items() if v["unit"] == "count"]
    return all(r["metrics"][k] == traced[0]["metrics"][k] for r in traced for k in keys)


def provenance(seeds: list[int], runs: int, seconds: int) -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"git_commit": commit, "seeds": seeds, "runs_per_workload": runs,
            "run_seconds": seconds, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    seconds = SPEC["run_seconds"]
    results = {"provenance": provenance(SEEDS, len(SEEDS), seconds), "workloads": {}}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in SEEDS]
        traced = [run_once(workload, SEEDS[0], seconds, 1) for _ in range(TRACED_RUNS)]
        results["workloads"][workload] = {
            "summary": summarize(runs),
            "failed_ops": sum(r["failed"] for r in runs + traced),
            "attempted_ops": sum(r["attempted"] for r in runs + traced),
            "traced_counts_repeat": counts_repeat(traced),
            "runs": runs,
            "traced": traced,
        }
        for name, s in results["workloads"][workload]["summary"].items():
            print(f"{workload:7} {name:15} median {s['median']:.4g}  spread "
                  f"{s['spread'] if s['spread'] is None else round(s['spread'], 4)}"
                  f"  bound {s['bound']}", flush=True)
    out = HERE / "results" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
