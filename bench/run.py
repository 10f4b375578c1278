"""Benchmark runner for the su12fiber command line.

One client, one process, closed loop: each op is an in-process call of
``su12fiber.cli.main(argv)`` with stdout and stderr captured, and the next
op starts only after the previous one has been checked.  Inputs come from
the workload seed alone.

    python3 bench/run.py --workload hecke_t8 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --all [--seed 0 1] [--seconds 20] [--write-baseline]
    python3 bench/run.py --record-goldens

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a fixed op
prefix untraced and then traced, and reports the per-layer metrics.  The
last line of a workload run is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--all`` runs every workload in
turn, each in its own process, and prints every metric with its unit.
End-to-end times are nominal: wall time rescaled by a reference kernel
sampled throughout the run (see SpeedProbe), so that drift in the host's
speed does not read as a change in the program.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import importlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDENS = BENCH / "goldens.json"
BASELINE = BENCH / "baseline.json"

from tracing import PER_LAYER_UNITS, Tracer  # noqa: E402
from workloads import CHECKS, WORKLOADS, Op  # noqa: E402

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}
SETUP_REPEATS = 9
GOLDEN_SEEDS = (0, 1)  # canonical and held-out


class Harness:
    """One workload's inputs, the imported package and the op checker."""

    def __init__(self, workload: str, seed: int, goldens: dict) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.workdir = BENCH / "_work" / str(os.getpid())
        self.goldens = goldens.get(workload, {}).get(str(seed), {})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.cli = None
        self.pool: list[Op] = []
        self.warmup: Op | None = None

    def setup(self) -> None:
        """Import the package, generate the inputs, run and check one warm-up op."""
        for name in [m for m in sys.modules if m == "su12fiber" or m.startswith("su12fiber.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("su12fiber.cli")
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        rng = Random(f"{self.workload.name}:{self.seed}")
        self.pool = self.workload.pool(rng, self.workdir)
        self.warmup = self.workload.warmup(rng, self.workdir)
        self.run(self.warmup, self.goldens.get("warmup"))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def execute(self, op: Op) -> tuple[int | None, str, str, tuple[int, int]]:
        """Run one op: exit code or None, stdout, stderr, (start, end) in ns."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op.argv)
        except (Exception, SystemExit):  # a traceback is a failed op
            code = None
            err.write(traceback.format_exc())
        end = time.perf_counter_ns()
        return code, out.getvalue(), err.getvalue(), (start, end)

    def check(self, op: Op, code, out: str, err: str, golden: str | None) -> str | None:
        if code is None:
            return f"raised {err}"
        if golden is not None and hashlib.sha256(out.encode()).hexdigest() != golden:
            return "stdout differs from the recorded golden"
        try:
            return CHECKS[op.kind](op, code, out, err)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"

    def run(self, op: Op, golden: str | None) -> tuple[bool, tuple[int, int], str]:
        # each op starts from a collected heap, as a fresh process would, so
        # no op pays for an earlier op's garbage
        gc.collect()
        code, out, err, interval = self.execute(op)
        problem = self.check(op, code, out, err, golden)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{' '.join(op.argv)}: {problem}")
        return problem is None, interval, out

    def run_index(self, i: int) -> tuple[bool, tuple[int, int], str]:
        k = i % len(self.pool)
        ops = self.goldens.get("ops", [])
        return self.run(self.pool[k], ops[k] if k < len(ops) else None)


@dataclass(frozen=True)
class _Pair:
    """a + b*r with r*r = 2, shaped like the package's field elements."""

    a: Fraction
    b: Fraction

    def __mul__(self, o: "_Pair") -> "_Pair":
        return _Pair(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def __add__(self, o: "_Pair") -> "_Pair":
        return _Pair(self.a + o.a, self.b + o.b)


def _series_product() -> list:
    xs = [_Pair(Fraction(i, i + 3), Fraction(1, i + 1)) for i in range(1, 7)]
    out = [_Pair(Fraction(0), Fraction(0))] * 6
    for i, x in enumerate(xs):
        for j in range(6 - i):
            out[i + j] = out[i + j] + x * xs[j]
    return out


def _table_json() -> int:
    N = 12
    rows = [
        {"d_beta": b, "d_gamma": c, "count": math.comb(N, b) * math.comb(N - b, c),
         "stability": "Stable" if b < 8 and c < 8 else "Unstable"}
        for b in range(N + 1)
        for c in range(N + 1 - b)
    ]
    return len(json.dumps({"rows": rows}, indent=2, sort_keys=True))


def _compositions() -> int:
    m = [0] * 5

    def fill(i: int, rest: int):
        if i == 4:
            m[i] = rest
            yield tuple(m)
            return
        for v in range(max(0, rest - 4 * (4 - i)), min(4, rest) + 1):
            m[i] = v
            yield from fill(i + 1, rest - v)

    return sum(1 for v in fill(0, 10) if v[1] == 4 and v[3] == 0)


def reference_kernel() -> None:
    """About 2 ms of fixed interpreter work in three parts, each a miniature
    of one workload's hot loop: a truncated product of Fraction pairs, a
    census-like table emitted as JSON, and a recursive enumeration of
    bounded compositions.  Host slowdowns hit these kinds of work unequally,
    and their sum tracks all four workloads better than any one part does.
    No change to the package can make the kernel faster."""
    _series_product()
    _table_json()
    _compositions()


class SpeedProbe:
    """Times the reference kernel every 50 ms from an interval timer.

    A shared host's speed can drift by tens of percent within seconds (clock
    frequency and co-tenant load), inside a single op as well as between
    ops.  The timer keeps sampling during ops.  An interval's wall time,
    less the probes that ran inside it, is scaled by NOMINAL_NS times the
    mean reciprocal kernel time of the probes from one period before it to
    one period after it: the time it would have taken on a host where the
    reference kernel takes 2 ms.
    """

    NOMINAL_NS = 2_000_000
    PERIOD_NS = 50_000_000

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.kernel_ns: list[int] = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a stall outlasted the period; skip the nested tick
            return
        self._busy = True
        start = time.perf_counter_ns()
        reference_kernel()
        self.kernel_ns.append(time.perf_counter_ns() - start)
        self.starts.append(start)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        period = self.PERIOD_NS / 1e9
        signal.setitimer(signal.ITIMER_REAL, period, period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def nominal(self, start: int, end: int) -> float:
        """Nominal ns of the wall interval [start, end]."""
        inside = slice(bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end))
        wall = end - start - sum(self.kernel_ns[inside])
        lo = bisect.bisect_left(self.starts, start - self.PERIOD_NS)
        hi = bisect.bisect_right(self.starts, end + self.PERIOD_NS)
        if lo == hi:  # no probe near: the nearest one on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        near = self.kernel_ns[lo:hi]
        return wall * self.NOMINAL_NS * sum(1 / k for k in near) / len(near)


def setup_all(h: Harness, probe: SpeedProbe) -> float:
    """Median nominal seconds of SETUP_REPEATS set-ups."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter_ns()
        h.setup()
        intervals.append((start, time.perf_counter_ns()))
    time.sleep(1.2 * probe.PERIOD_NS / 1e9)  # a probe after the last set-up
    return statistics.median(probe.nominal(*span) / 1e9 for span in intervals)


def timed_pass(h: Harness, probe: SpeedProbe, indices, tracer: Tracer | None = None
               ) -> tuple[list[float], int]:
    """Run the ops; their nominal latencies in ns and the number verified."""
    intervals = []
    verified = 0
    for i in indices:
        if tracer is not None:
            tracer.op = i
        ok, interval, out = h.run_index(i)
        if tracer is not None:
            tracer.output_bytes += len(out.encode())
        intervals.append(interval)
        verified += ok
    time.sleep(1.2 * probe.PERIOD_NS / 1e9)  # a probe after the last op
    return [probe.nominal(*span) for span in intervals], verified


def window(cycle: int, seconds: float):
    """Op indices in whole cycles until the wall-clock window has closed."""
    start = time.perf_counter()
    i = 0
    while True:
        yield from range(i, i + cycle)
        i += cycle
        if time.perf_counter() - start >= seconds:
            return


def measure(h: Harness, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics over whole cycles of the op pool."""
    with SpeedProbe() as probe:
        setup_s = setup_all(h, probe)
        latencies, verified = timed_pass(h, probe, window(h.workload.cycle, seconds))
    ordered = sorted(latencies)
    n = len(ordered)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": verified / (sum(latencies) / 1e9),
        "op_p50_ms": statistics.median(ordered) / 1e6,
        "peak_rss_mb": rss_kb / 1024,
    }
    rank = math.ceil(0.9 * n)
    extra = {
        "samples": n,
        # a p90 needs at least ten samples beyond it
        "op_p90_ms": ordered[rank - 1] / 1e6 if n - rank >= 10 else None,
    }
    return metrics, extra


def measure_traced(h: Harness) -> tuple[dict, dict]:
    """The traced op prefix, untraced and then traced; per-layer metrics."""
    ops = range(h.workload.traced_ops)
    with SpeedProbe() as probe:
        setup_all(h, probe)
        untraced, _ = timed_pass(h, probe, ops)
        with Tracer() as tracer:
            traced, _ = timed_pass(h, probe, ops, tracer)
    metrics = tracer.metrics()
    metrics["trace_overhead_frac"] = 1 - sum(untraced) / sum(traced)
    return metrics, {"samples": len(ops)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    h = Harness(workload, seed, goldens)
    try:
        metrics, extra = measure_traced(h) if trace else measure(h, seconds)
    finally:
        h.close()
    units = PER_LAYER_UNITS if trace else E2E_UNITS
    print(f"# {workload} seed={seed} trace={int(trace)} samples={extra['samples']}")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{workload} {name} {shown} {units[name]}")
    if not trace:
        p90 = extra["op_p90_ms"]
        print(f"{workload} op_p90_ms " + (f"{p90:.6g} ms" if p90 is not None
              else f"omitted (n={extra['samples']} < 100)"))
        print(f"{workload} failed_ops_frac {h.failed / h.attempted:.6g} "
              f"({h.failed}/{h.attempted})")
    for problem in h.problems[:10]:
        print(f"# FAILED {problem}")
    result = {
        "correct": h.failed == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seeds: list[int], seconds: float, write_baseline: bool) -> int:
    """Every workload, untraced then traced, one process each, in turn."""
    why = {w["name"]: w["why"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    results: dict = {}
    ok = True
    for seed in seeds:
        for workload in WORKLOADS:
            for trace in (0, 1):
                argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
                lines = proc.stdout.splitlines()
                print("\n".join(lines[:-1]), flush=True)
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stderr)
                    return 1
                result = json.loads(lines[-1])
                ok = ok and result["correct"]
                entry = results.setdefault(workload, {"why": why[workload], "seeds": {}})
                seed_entry = entry["seeds"].setdefault(str(seed), {})
                summary = {k: result[k] for k in ("attempted", "failed", "metrics")}
                if not trace:
                    p90 = next(line.split()[2] for line in lines
                               if line.startswith(f"{workload} op_p90_ms "))
                    summary["op_p90_ms"] = None if p90 == "omitted" else float(p90)
                    summary["failed_ops_frac"] = result["failed"] / result["attempted"]
                seed_entry["traced" if trace else "untraced"] = summary
    if write_baseline:
        baseline = {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "seconds": seconds,
            "seeds": seeds,
            "workloads": results,
        }
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 2


def record_goldens() -> int:
    """Digest the stdout of the warm-up op and of each workload's golden prefix."""
    goldens: dict = {}
    for name, workload in WORKLOADS.items():
        for seed in GOLDEN_SEEDS:
            h = Harness(name, seed, {})
            try:
                h.setup()
                digests = {}
                for key, op in [("warmup", h.warmup)] + list(enumerate(h.pool[:workload.golden_ops])):
                    code, out, err, _ = h.execute(op)
                    problem = h.check(op, code, out, err, None)
                    if problem is not None:
                        sys.stderr.write(f"{name} seed {seed} op {key}: {problem}\n")
                        return 2
                    digests[key] = hashlib.sha256(out.encode()).hexdigest()
            finally:
                h.close()
            warmup = digests.pop("warmup")
            goldens.setdefault(name, {})[str(seed)] = {
                "warmup": warmup, "ops": list(digests.values())}
            print(f"{name} seed {seed}: {len(digests)} ops", flush=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--write-baseline", action="store_true",
                        help=f"with --all, write the results to {BASELINE.relative_to(ROOT)}")
    parser.add_argument("--record-goldens", action="store_true",
                        help=f"write {GOLDENS.relative_to(ROOT)} from this commit")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        package = importlib.import_module("su12fiber")
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import su12fiber from {ROOT / 'src'}: {exc}\n")
        return 1
    if Path(package.__file__).resolve().parent != ROOT / "src" / "su12fiber":
        sys.stderr.write(f"error: su12fiber was imported from {package.__file__}, "
                         f"not from {ROOT / 'src'}\n")
        return 1

    if args.record_goldens:
        return record_goldens()
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.all:
        return run_all(args.seed, seconds, args.write_baseline)
    if args.workload is None or len(args.seed) != 1:
        parser.error("give --workload and one --seed, or --all")
    return run_workload(args.workload, args.seed[0], seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
