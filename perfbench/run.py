"""Benchmark of the projcode decoder stack.

Run from the repository root:

    python3 perfbench/run.py --workload bsc_stream --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` beside this directory, never from an
installed copy.  Workloads are described in ``perfbench/workloads.py``;
which layer metric should move which end-to-end metric, on which
workload, is recorded in ``perfbench/design.json``.

``--trace 0`` sets up once, runs timed units for ``--seconds`` with more
set-ups spread between them, measures the package's peak allocation for
set-up plus a few units, and reports the end-to-end metrics of
BENCHMARK.json.  ``--trace 1`` reports the per-layer metrics instead: it
times untraced passes, one pass with only decode calls timed (decode time
by outcome), and one pass with spans around every layer, which it writes
to ``.bench_out/trace-<workload>.npz``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every answer is checked; the
exit code is 1 if any check failed and 2 if the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("gf4", "bitlin", "quaternary", "projection", "decoder", "cli")
SETUP_REPEATS = 60
SETUP_QUIET = 15

# Neighbours on a shared host slow this process for whole seconds, by up
# to 1.8x, and how much of a run they slow changes from run to run; a
# median of unit times follows them.  The fastest of many short
# repetitions of the same unit is the host's quiet floor: within a few
# minutes it repeats within a few per cent, though it drifts by up to
# about 10% over longer stretches.  So a pass is timed as the sum of its
# units' floors, latency percentiles are taken over each call's fastest
# repetition, and set-up time is the median of the set-ups taken between
# units that ran nearest their floor.


def fresh_import():
    """Import the package anew from ``src/`` and return its modules.

    Dropping the cached modules first makes each set-up pay the import
    and start from empty caches (the quaternary factories are lru_cached).
    """
    for name in [n for n in sys.modules
                 if n == "projcode" or n.startswith("projcode.")]:
        del sys.modules[name]
    pkg = importlib.import_module("projcode")
    if Path(pkg.__file__).resolve().parent != SRC / "projcode":
        raise ImportError(f"projcode imported from {pkg.__file__}, "
                          f"not from {SRC}")
    return SimpleNamespace(**{layer: importlib.import_module(f"projcode.{layer}")
                              for layer in LAYERS})


def set_up(workload):
    """Import the package and build and warm the workload's objects;
    return the package and the seconds taken.

    A workload keeps the modules it was built from, so a later set-up
    (on another workload object) does not disturb it."""
    gc.collect()
    t0 = time.perf_counter()
    pkg = fresh_import()
    workload.build(pkg)
    workload.warm()
    return pkg, time.perf_counter() - t0


class Tally:
    """Timed units of a run and the outcome of their checks.

    Units whose indices agree modulo the workload's ``unit_kinds`` do the
    same work on the same inputs.  Per kind the tally keeps the fastest
    unit's time and, when the workload times each decode call, every
    call's fastest latency over the kind's units."""

    def __init__(self, workload):
        self.workload = workload
        self.words: list[int] = []
        self.elapsed_ns: list[int] = []
        self.best_ns: dict[int, int] = {}
        self.best_calls: dict[int, np.ndarray] = {}
        self.samples = 0
        self.attempted = 0
        self.failed = 0

    def run(self, i: int) -> int:
        """Run and check unit ``i``; return its timed nanoseconds."""
        elapsed, words, latencies = self.workload.run_unit(i)
        attempted, failed = self.workload.check_unit(i)
        self.words.append(words)
        self.elapsed_ns.append(elapsed)
        kind = i % self.workload.unit_kinds
        self.best_ns[kind] = min(self.best_ns.get(kind, elapsed), elapsed)
        if latencies is not None:
            calls = np.array(latencies)
            best = self.best_calls.get(kind)
            self.best_calls[kind] = (calls if best is None
                                     else np.minimum(best, calls))
            self.samples += len(latencies)
        self.attempted += attempted
        self.failed += failed
        return elapsed

    def run_pass(self) -> int:
        """Run one full pass; return its timed nanoseconds."""
        return sum(self.run(i) for i in range(self.workload.units_per_pass))

    def slowdown(self, i: int) -> float:
        """Unit ``i``'s time over the fastest of its kind."""
        kind = i % self.workload.unit_kinds
        return self.elapsed_ns[i] / max(self.best_ns[kind], 1)


def prepare(workload, seed: int):
    """Set up, then make the inputs from the seed with the package's own
    codes.  The inputs are frozen out of the garbage collector's reach so
    the benchmark's own data does not slow the program's collections."""
    pkg, setup_seconds = set_up(workload)
    workload.generate(seed)
    gc.collect()
    gc.freeze()
    return pkg, setup_seconds


def peak_alloc_mb(workload, tally: Tally) -> float:
    """Peak memory the package allocates for set-up plus the workload's
    first ``memory_units`` units.

    tracemalloc counts the package's Python objects and numpy buffers,
    not the interpreter, numpy's import or the benchmark's inputs: once
    for a fresh import, build and warm-up, once for the checked units on
    the measured workload, whose set-up is then held in memory.  It slows
    allocation-heavy code many times, hence the few units."""
    gc.collect()
    tracemalloc.start()
    set_up(type(workload)())
    setup_held, setup_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    gc.collect()
    tracemalloc.start()
    for i in range(workload.memory_units):
        workload.run_unit(i)
        attempted, failed = workload.check_unit(i)
        tally.attempted += attempted
        tally.failed += failed
    _, pass_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return max(setup_peak, setup_held + pass_peak) / 2**20


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, Tally]:
    prepare(workload, seed)
    tally = Tally(workload)
    setups: list[tuple[float, int]] = []  # (seconds, unit run just before)
    begin = time.perf_counter()
    i = 0
    # at least one full pass, so the pass-level checks always run
    while i < workload.units_per_pass or time.perf_counter() - begin < seconds:
        tally.run(i)
        # spread the set-ups over the run, each right after a timed unit
        due = (time.perf_counter() - begin) / seconds * SETUP_REPEATS
        if len(setups) < min(due, SETUP_REPEATS):
            setups.append((set_up(type(workload)())[1], i))
        i += 1
    while len(setups) < SETUP_REPEATS:
        tally.run(i)
        setups.append((set_up(type(workload)())[1], i))
        i += 1
    tally.run(i)  # the unit after the last set-up
    i += 1
    # the set-ups between the two units nearest their kinds' floors
    quiet = sorted(setups, key=lambda s: max(tally.slowdown(s[1]),
                                             tally.slowdown(s[1] + 1)))
    setup_s = statistics.median(t for t, _ in quiet[:SETUP_QUIET])

    units = workload.units_per_pass
    pass_words = sum(tally.words[:units])
    pass_ns = sum(tally.best_ns[j % workload.unit_kinds] for j in range(units))
    if tally.best_calls:
        latencies = np.concatenate(list(tally.best_calls.values()))
        p50_ns, p99_ns = np.percentile(latencies, [50, 99])
    else:
        latencies = ()
        p50_ns = p99_ns = pass_ns / pass_words
    metrics = {
        "setup_s": (setup_s, "s"),
        "words_per_s": (pass_words / pass_ns * 1e9, "1/s"),
        "decode_us_p50": (float(p50_ns) / 1e3, "us"),
        "decode_us_p99": (float(p99_ns) / 1e3, "us"),
        "verify_s": (float(pass_ns) / 1e9, "s"),
        "peak_alloc_mb": (peak_alloc_mb(workload, tally), "MB"),
    }
    if len(latencies):
        print(f"latency percentiles over {len(latencies)} calls, each the "
              f"fastest of {tally.samples / len(latencies):.0f} repetitions")
    print(f"{workload.name}: {i} units ({i / units:.1f} passes); set-ups "
          f"{len(setups)}, median of the {SETUP_QUIET} quietest; wrong_frac "
          f"{tally.failed / max(tally.attempted, 1)} "
          f"({tally.failed}/{tally.attempted})")
    return metrics, tally


def traced(workload, seed: int, seconds: float) -> tuple[dict, Tally]:
    pkg, _ = prepare(workload, seed)
    tally = Tally(workload)
    untraced = []
    begin = time.perf_counter()
    while not untraced or time.perf_counter() - begin < seconds / 2:
        untraced.append(tally.run_pass())
    light_stats = {}
    if workload.decodes:
        with tracing.Tracer(pkg, tracing.DECODE_SITES) as light:
            tally.run_pass()
        light_stats = light.stats()
    with tracing.Tracer(pkg, tracing.FULL_SITES) as full:
        # builds on a spare object time the set-up layers; the pass runs
        # on the measured workload's warm objects
        type(workload)().build(pkg)
        full.word_index = tracing.NO_WORD
        traced_ns = tally.run_pass()
    overhead = traced_ns / min(untraced) - 1
    stats = full.stats()
    metrics = tracing.per_layer_metrics(stats, light_stats, full.branches,
                                        overhead)
    missing = [s for s in workload.required_spans
               if stats.get(s, {}).get("calls", 0) == 0]
    if missing:
        print(f"no spans recorded for {missing}", file=sys.stderr)
        tally.attempted += len(workload.required_spans)
        tally.failed += len(missing)
    out = ROOT / ".bench_out" / f"trace-{workload.name}.npz"
    full.write(out)
    print(f"{workload.name}: {len(untraced)} untraced passes, spans "
          f"{len(full.start)} written to {out.relative_to(ROOT)}; wrapper "
          f"cost outside its span {full.residual_ns:.0f} ns per call")
    return metrics, tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "projcode" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    run = traced if args.trace else end_to_end
    try:
        metrics, tally = run(workload, args.seed, args.seconds)
    except ImportError as exc:
        print(f"cannot import the package: {exc}", file=sys.stderr)
        return 2
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != expected:
        print(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
              f"{sorted(expected.items())}", file=sys.stderr)
        return 2
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
