"""Start, time and reap the benchmark's child processes.

    python launcher.py    (reads requests on stdin, one JSON object a line)

Request: {"cmd": [...], "out": path, "err": path, "timeout": seconds}.
Reply:   {"rc", "start", "end", "maxrss_kib", "timed_out"}.

The launcher pins itself, and so every child, to one CPU.  On the shared
machine the CPUs give different speeds at the same moment, and a child that
moved between them would run at a speed its own kernel samples (child.py)
did not see.  One CPU is enough: a run starts one child at a time.

A child's max-RSS from wait4 starts at its parent's peak, because Linux
carries the parent's high-water mark across fork and exec.  run.py
holds numpy, networkx and gyrograph for its checks, so it asks this small
process, started before those imports, to run the children instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def spawn(cmd: list[str], out_path: str, err_path: str, timeout: float) -> dict:
    """Run one process to completion, killing it after `timeout` seconds."""
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timer = threading.Timer(max(timeout, 0.0), lambda: (killed.set(), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "start": start,
        "end": end,
        "maxrss_kib": usage.ru_maxrss,
        "timed_out": killed.is_set(),
    }


def main() -> int:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for line in sys.stdin:
        req = json.loads(line)
        reply = spawn(req["cmd"], req["out"], req["err"], req["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
