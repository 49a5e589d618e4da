"""End-to-end benchmark of the gyrograph CLI.

    python3 bench/run.py --workload {paper,tables} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the CLI runs from `src/` with no
install step.  One benchmark process runs the workload's CLI ops one after
another, each in a fresh interpreter (a closed loop with one client) pinned
to one CPU.  A pass runs the ops on one of the input sets the seed fixes;
passes cycle through every set at least once and repeat until `--seconds`
is used up.  Every op's exit code and output are checked; `attempted` and
`failed` in the result count ops.  Every time is scaled to a fixed
reference speed (speed.py).

With `--trace 0` the last stdout line reports the end-to-end metrics: pass
time (each op at its median over its repeats, averaged over the input
sets), median import time of `gyrograph.cli`, peak RSS and the share of
requested results that no order bound refused.
With `--trace 1` untraced and traced passes alternate over the same inputs,
and the result holds the per-layer metrics taken from the spans that
`child.py` records, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from speed import REFERENCE_KERNEL_S, Speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

WORKLOADS = ("paper", "tables")
#: Fresh-interpreter imports timed for setup_s: this many before the first
#: pass (after one untimed warm-up that also writes the bytecode cache), then
#: SETUP_PER_PASS after each pass, so the samples span the whole run.
SETUP_SAMPLES = 6
SETUP_PER_PASS = 2
#: Every op is killed by this many seconds after start, so the run ends
#: well within three minutes even when the program hangs.
DEADLINE_S = 165.0

END_TO_END_UNITS = {
    "scaled_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "answered_share": "share",
}
STAT_UNITS = {"self_s": "s", "calls": "count", "max_order": "count", "refused": "count"}
#: CLI subcommands whose peak RSS the traced run reports apart, so that the
#: memory of the graph layers is not hidden under that of the axiom check.
SUBCOMMANDS = ("verify-paper", "invariants", "build")


@dataclass
class OpRun:
    rc: int
    out: str
    err: str
    wall: float
    #: wall time scaled to the reference speed
    scaled: float
    rss_mib: float
    timed_out: bool
    #: what child.py wrote: kernel samples, and spans when traced
    record: dict


@dataclass
class PassRun:
    wall: float = 0.0
    rss_mib: float = 0.0
    attempted: int = 0
    failed: int = 0
    requested: int = 0
    refused: int = 0
    timed_out: bool = False
    #: argv -> (scaled wall, max-RSS in MiB) of each op run in the pass
    op_times: dict[tuple[str, ...], tuple[float, float]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    missing: set[str] = field(default_factory=set)


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


class Launcher:
    """Runs child processes through launcher.py, which must be started
    before run.py imports its checkers (see launcher.py for why)."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT,
        )

    def run(self, mode: str, argv: tuple[str, ...], deadline: float) -> OpRun:
        """Run `child.py` in `mode` on CLI arguments `argv`."""
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        record_path = self.workdir / "record.json"
        record_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(CHILD), str(record_path), mode, *argv]
        request = {"cmd": cmd, "out": str(out_path), "err": str(err_path),
                   "timeout": deadline - time.perf_counter()}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit("error: the launcher process exited")
        reply = json.loads(line)
        record = (json.loads(record_path.read_text(encoding="utf-8"))
                  if record_path.exists() else {"samples": [], "spans": [], "missing": []})
        return OpRun(
            rc=reply["rc"],
            out=out_path.read_text(encoding="utf-8", errors="replace"),
            err=err_path.read_text(encoding="utf-8", errors="replace"),
            wall=reply["end"] - reply["start"],
            scaled=Speed(record["samples"]).scaled(reply["start"], reply["end"]),
            rss_mib=reply["maxrss_kib"] / 1024,  # ru_maxrss is in KiB on Linux
            timed_out=reply["timed_out"],
            record=record,
        )

    def close(self) -> None:
        """End the launcher once its current child, if any, has ended."""
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def problems_of(op, run: OpRun) -> list[str]:
    if run.timed_out:
        return ["timed out"]
    if run.rc != op.expect_rc:
        return [f"exit code {run.rc}, expected {op.expect_rc}: {run.err.strip()[-300:]}"]
    try:
        return op.check(run.out, run.err)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"unreadable output: {exc!r}"]


def layer_stats(trace: dict, stats: dict[str, float]) -> None:
    """Add one traced op's self times (scaled to the reference speed) and
    counts into `stats`."""
    spans = trace["spans"]
    scaled = Speed(trace["samples"]).scaled
    covered = [0.0] * len(spans)
    top_level = 0.0
    for name, start, end, parent, order, refused in spans:
        if parent is None:
            top_level += scaled(start, end)
        else:
            covered[parent] += scaled(start, end)
    for (name, start, end, parent, order, refused), inner in zip(spans, covered):
        stats[f"{name}.self_s"] = stats.get(f"{name}.self_s", 0.0) + scaled(start, end) - inner
        stats[f"{name}.calls"] = stats.get(f"{name}.calls", 0) + 1
        stats[f"{name}.max_order"] = max(stats.get(f"{name}.max_order", 0), order)
        stats[f"{name}.refused"] = stats.get(f"{name}.refused", 0) + int(refused)
    stats["cli.self_s"] = (stats.get("cli.self_s", 0.0)
                           + scaled(trace["t0"], trace["t1"]) - top_level)


def run_pass(ops, launcher: Launcher, deadline: float, traced: bool,
             keep: list | None) -> PassRun:
    result = PassRun()
    for op in ops:
        run = launcher.run("trace" if traced else "run", op.argv, deadline)
        result.attempted += 1
        result.wall += run.wall
        result.op_times[op.argv] = (run.scaled, run.rss_mib)
        result.rss_mib = max(result.rss_mib, run.rss_mib)
        problems = problems_of(op, run)
        if problems:
            result.failed += 1
            print(f"FAILED {op.name}: " + "; ".join(problems), file=sys.stderr)
        else:
            requested, refused = op.tally(run.out)
            result.requested += requested
            result.refused += refused
            if keep is not None:
                keep.append((op, run))
        if traced and "t0" in run.record:
            layer_stats(run.record, result.layers)
            result.missing.update(run.record["missing"])
        if run.timed_out:
            result.timed_out = True
            break
    return result


def negative_controls(kept: list) -> list[str]:
    """Ops whose altered output the checker still accepted."""
    uncaught = []
    for op, run in kept:
        out, err = op.control(run.out, run.err)
        if not problems_of(op, replace(run, out=out, err=err)):
            uncaught.append(op.name)
    return uncaught


def measure_setup(count: int, launcher: Launcher, deadline: float) -> list[float]:
    """Times of `count` fresh interpreters to import gyrograph.cli, each
    scaled by the median of the kernel times measured around it."""
    times = []
    for _ in range(count):
        run = launcher.run("import", (), deadline)
        if run.rc != 0:
            raise SystemExit(f"error: importing gyrograph.cli failed: {run.err.strip()}")
        kernel = statistics.median(seconds for _, seconds in run.record["samples"])
        times.append((run.record["t1"] - run.record["t0"]) * REFERENCE_KERNEL_S / kernel)
    return times


def per_layer_names() -> dict[str, str]:
    from child import LAYERS

    names = {}
    for module, functions in LAYERS.items():
        for function, stats in functions.items():
            for stat in stats:
                names[f"{module}.{function}.{stat}"] = STAT_UNITS[stat]
    names.update({"cli.self_s": "s", "cli.refused": "count", "trace.overhead_s": "s"})
    names.update({f"cli.{command}.peak_rss_mb": "MiB" for command in SUBCOMMANDS})
    return names


def pass_time(passes: list[PassRun], sets: list) -> float:
    """Mean over the input sets of a pass's scaled time, each distinct
    command counted at its median over the passes that ran it."""
    times: dict[tuple[str, ...], list[float]] = {}
    for p in passes:
        for argv, (scaled, _) in p.op_times.items():
            times.setdefault(argv, []).append(scaled)
    return statistics.fmean(sum(statistics.median(times[op.argv])
                                for op in ops if op.argv in times)
                            for ops in sets)


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              launcher: Launcher) -> dict:
    import ops as workload_ops

    started = time.perf_counter()
    deadline = started + DEADLINE_S
    sets = workload_ops.input_sets(workload, seed, launcher.workdir)
    measure_setup(1, launcher, deadline)
    setup = measure_setup(SETUP_SAMPLES, launcher, deadline)
    plain: list[PassRun] = []
    traced: list[PassRun] = []
    kept: list = []
    cycle_times: list[float] = []
    index = 0
    while True:
        cycle_start = time.perf_counter()
        ops = sets[index % len(sets)]
        plain.append(run_pass(ops, launcher, deadline, False, kept if index == 0 else None))
        if trace and not plain[-1].timed_out:
            traced.append(run_pass(ops, launcher, deadline, True, None))
        setup += measure_setup(SETUP_PER_PASS, launcher, deadline)
        now = time.perf_counter()
        cycle_times.append(now - cycle_start)
        index += 1
        typical = statistics.median(cycle_times)
        if (any(p.timed_out for p in plain + traced) or now + typical > deadline
                or (index >= len(sets) and now - started + typical > seconds)):
            break

    uncaught = negative_controls(kept)
    if uncaught:
        raise SystemExit(f"error: the checker accepted altered output of {uncaught}")

    runs = plain + traced
    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    if trace:
        units = per_layer_names()
        values = dict.fromkeys(units, 0)
        for name in values:
            samples = [p.layers.get(name, 0) for p in traced] or [0]
            values[name] = statistics.median(samples) if name.endswith("_s") else samples[0]
            if len(set(samples)) > 1 and not name.endswith("_s"):
                print(f"warning: {name} differs between passes: {samples}", file=sys.stderr)
        if traced:
            values["cli.refused"] = traced[0].refused
            values["trace.overhead_s"] = pass_time(traced, sets) - pass_time(plain, sets)
        for command in SUBCOMMANDS:
            values[f"cli.{command}.peak_rss_mb"] = max(
                (rss for p in plain for argv, (_, rss) in p.op_times.items()
                 if argv[0] == command), default=0)
        for name in sorted(set().union(*(p.missing for p in traced))):
            print(f"warning: traced function {name} is missing", file=sys.stderr)
    else:
        requested = sum(p.requested for p in plain)
        values = {
            "scaled_wall_s": pass_time(plain, sets),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p.rss_mib for p in plain),
            "answered_share": 1 - sum(p.refused for p in plain) / requested if requested else 0.0,
        }
        units = END_TO_END_UNITS
    print(f"{workload}: seed {seed}, {len(plain)} passes"
          + (f" + {len(traced)} traced" if trace else "")
          + f", {time.perf_counter() - started:.1f} s; unscaled pass wall "
          + " ".join(f"{p.wall:.2f}" for p in plain) + "; scaled "
          + " ".join(f"{sum(t for t, _ in p.op_times.values()):.2f}" for p in plain),
          file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gyrograph" / "cli.py").is_file():
        print(f"error: no gyrograph sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    launcher = Launcher(workdir)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), launcher)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
