"""Run one gyrograph CLI command, or only import the CLI, in a fresh
interpreter while a sampler thread times a fixed reference kernel.

    python child.py OUT.json import
    python child.py OUT.json run   CLI_ARGS...
    python child.py OUT.json trace CLI_ARGS...

`run` and `trace` start a sampler thread that runs `kernel` every
SAMPLE_EVERY_S seconds in this process, so on the same CPU as the command.
run.py turns those samples into the speed the CPU gave at each moment (see
speed.py).  `import` times `import gyrograph.cli` between two runs of
IMPORT_SAMPLES kernels instead, because an import is too short for the
sampler to time more than once or twice.  `trace` also records spans
around each layer's public functions, from outside the library: before
calling `gyrograph.cli.main`, every name in LAYERS is replaced by a
recording wrapper in each `gyrograph.*` module namespace that holds it, so
calls made through the defining module and through importers are both seen.
A name that no longer exists is listed as missing instead of failing the
run.  On exit OUT.json holds
{"t0", "t1", "samples": [[start, seconds], ...], "missing",
 "spans": [[name, start, end, parent, max_order, refused], ...]}
(t0 and t1 bound the import alone in `import` mode) and the exit status is
the CLI's own.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

SAMPLE_EVERY_S = 0.1
IMPORT_SAMPLES = 5


def kernel() -> tuple[int, int, int]:
    """The fixed reference work the speed is measured with: dict and small
    integer arithmetic, big-integer matrix products and a bitmask path
    search, the kinds of work the library does.  It must never change, or
    results taken before and after the change stop being comparable."""
    s, seen_mod = 0, {}
    for i in range(3000):
        s += i * i % 7
        seen_mod[i & 255] = s
    a = [[(i * 7 + j * 3) % 5 - 2 for j in range(6)] for i in range(6)]
    m = [row[:] for row in a]
    for _ in range(12):
        m = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in m]
    adj = [[j for j in range(7) if j != i and (i * j + i + j) % 3] for i in range(7)]
    longest, stack = 0, [(0, 1, 0)]
    while stack:
        v, visited, length = stack.pop()
        longest = max(longest, length)
        for w in adj[v]:
            if not visited >> w & 1:
                stack.append((w, visited | 1 << w, length + 1))
    return s, m[0][0], longest


def sample(samples: list) -> None:
    """Append (start, seconds) of one kernel run."""
    start = time.perf_counter()
    kernel()
    samples.append((start, time.perf_counter() - start))


def start_sampler(samples: list) -> None:
    """Sample every SAMPLE_EVERY_S seconds, after one untimed run that warms
    the kernel's code and data.  The kernel runs holding the interpreter
    lock, so the command waits while it runs and the two never share the
    CPU."""

    def loop() -> None:
        kernel()
        while True:
            sample(samples)
            time.sleep(SAMPLE_EVERY_S)

    threading.Thread(target=loop, daemon=True).start()


#: module -> public function -> the stats reported for it.
LAYERS: dict[str, dict[str, tuple[str, ...]]] = {
    "distances": {
        "detour_matrix": ("self_s", "calls", "max_order", "refused"),
        "distance_matrix": ("self_s", "calls"),
        "reciprocal_status_hosoya": ("self_s", "refused"),
    },
    "spectral": {
        "char_poly_exact": ("self_s", "calls", "max_order"),
        "spectral_radius": ("self_s",),
        "verify_spectral_bounds": ("self_s",),
    },
    "gyrogroups": {
        "verify_axioms": ("self_s", "calls", "max_order"),
        "read_cayley_file": ("self_s",),
        "to_cayley_json": ("self_s",),
        "build_gn": ("calls",),
    },
    "resolving": {
        "resolving_polynomial": ("self_s", "calls", "max_order", "refused"),
        "metric_dimension": ("self_s", "calls"),
        "twin_partition": ("calls",),
    },
    "structure": {
        "is_planar": ("self_s",),
        "is_hamiltonian": ("self_s", "refused"),
        "find_isomorphism": ("self_s",),
        "gyro_isomorphic": ("self_s",),
    },
    "graphs": {
        "power_graph": ("self_s", "calls"),
    },
    "verification": {
        "verify_gn": ("self_s",),
        "verify_example_tables": ("self_s",),
    },
}


def _order(args: tuple, kwargs: dict) -> int:
    """The largest `.n` / `.order` among the arguments (0 if none has one)."""
    best = 0
    for arg in (*args, *kwargs.values()):
        for attr in ("n", "order"):
            value = getattr(arg, attr, None)
            if isinstance(value, int) and not isinstance(value, bool):
                best = max(best, value)
    return best


def wrap(name: str, fn, spans: list, stack: list):
    """A wrapper that records one span per call and re-raises unchanged.
    A ValueError (BoundExceededError is one) leaving the call counts as a
    refusal."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else None
        stack.append(index)
        refused = False
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except ValueError:
            refused = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            spans[index] = [name, start, end, parent, _order(args, kwargs), refused]

    return wrapper


def install(spans: list, stack: list) -> list[str]:
    """Wrap every LAYERS function in every loaded gyrograph module; return
    the names that could not be found."""
    modules = [m for key, m in list(sys.modules.items())
               if key == "gyrograph" or key.startswith("gyrograph.")]
    missing = []
    for module, functions in LAYERS.items():
        home = sys.modules.get(f"gyrograph.{module}")
        for function in functions:
            original = getattr(home, function, None)
            if not callable(original):
                missing.append(f"{module}.{function}")
                continue
            wrapper = wrap(f"{module}.{function}", original, spans, stack)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
    return missing


def write(out_path: str, record: dict) -> None:
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def time_import(out_path: str) -> int:
    samples: list = []
    kernel()
    for _ in range(IMPORT_SAMPLES):
        sample(samples)
    t0 = time.perf_counter()
    import gyrograph.cli  # noqa: F401

    t1 = time.perf_counter()
    for _ in range(IMPORT_SAMPLES):
        sample(samples)
    write(out_path, {"t0": t0, "t1": t1, "samples": samples, "missing": [], "spans": []})
    return 0


def main(argv: list[str]) -> int:
    out_path, mode, cli_argv = argv[0], argv[1], argv[2:]
    if mode == "import":
        return time_import(out_path)
    samples: list = []
    start_sampler(samples)
    import gyrograph.cli

    spans: list = []
    missing = install(spans, []) if mode == "trace" else []
    try:
        return gyrograph.cli.main(cli_argv)
    finally:
        write(out_path, {"t0": T0, "t1": time.perf_counter(), "samples": list(samples),
                         "missing": missing, "spans": [s for s in spans if s is not None]})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
