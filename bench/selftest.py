"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Checks that the metric names and units agree with BENCHMARK.json, that a
tiny run of every workload emits every named metric, that the traced counts
repeat exactly, and that the checker marks an op failed when its output has
one flipped byte or its expectation is wrong.  Faults are injected into the
benchmark's own data, never into the package.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys

import run
from tracing import PER_LAYER_UNITS
from workloads import SEMISTABLE, WORKLOADS

# per-layer metrics that are counts, not times, and must repeat exactly
COUNT_METRICS = [
    name for name in PER_LAYER_UNITS
    if name.endswith(".calls")
    or (name.startswith("git_engine.") and not name.endswith(".self_s"))
]

# one wrong expectation per op kind, each caught by an oracle of its own
WRONG_EXPECTATIONS = {
    "hecke": lambda e: e.update(cases=e["cases"] + 1),
    "git": lambda e: e["classes"].__setitem__(0, SEMISTABLE),
    "census": lambda e: e.update(degree=e["degree"] + 1),
}


def check_benchmark_json(failures: list[str]) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.E2E_UNITS:
        failures.append("BENCHMARK.json end_to_end differs from run.E2E_UNITS")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != PER_LAYER_UNITS:
        failures.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER_UNITS")


def tiny(name: str) -> run.Harness:
    """A harness whose pool is one more op like the workload's warm-up op."""
    w = WORKLOADS[name]

    def pool(rng, workdir):
        # its own directory, so the real warm-up op does not overwrite its input
        (workdir / "tiny").mkdir()
        return [w.warmup(rng, workdir / "tiny")]

    small = dataclasses.replace(w, cycle=1, traced_ops=1, pool=pool)
    h = run.Harness(name, 0, {})
    h.workload = small
    return h


def check_emission(name: str, failures: list[str]) -> None:
    h = tiny(name)
    try:
        metrics, _ = run.measure(h, 0)
        if list(metrics) != list(run.E2E_UNITS):
            failures.append(f"{name}: end-to-end metrics {list(metrics)}")
        first, _ = run.measure_traced(h)
        second, _ = run.measure_traced(h)
    finally:
        h.close()
    if list(first) != list(PER_LAYER_UNITS):
        failures.append(f"{name}: per-layer metrics {sorted(set(PER_LAYER_UNITS) ^ set(first))}")
    for metric in COUNT_METRICS:
        if first[metric] != second[metric]:
            failures.append(f"{name}: {metric} {first[metric]} then {second[metric]}")
    if h.failed:
        failures.append(f"{name}: tiny run had failed ops: {h.problems}")


def check_fault_detection(name: str, goldens: dict, failures: list[str]) -> None:
    h = run.Harness(name, 0, goldens)
    try:
        h.setup()
        op, golden = h.warmup, h.goldens.get("warmup")
        code, out, err, _ = h.execute(op)
        if golden is None:
            failures.append(f"{name}: no golden recorded for the seed-0 warm-up op")
        elif h.check(op, code, out, err, golden) is not None:
            failures.append(f"{name}: the unmodified output was rejected")
        middle = len(out) // 2
        flipped = out[:middle] + chr(ord(out[middle]) ^ 1) + out[middle + 1:]
        if h.check(op, code, flipped, err, golden) is None:
            failures.append(f"{name}: a flipped output byte passed the golden check")

        wrong = copy.deepcopy(op)
        WRONG_EXPECTATIONS[op.kind](wrong.expect)
        if h.check(wrong, code, out, err, None) is None:
            failures.append(f"{name}: a wrong expectation passed the {op.kind} oracle")

        failed_before = h.failed
        h.run(wrong, None)
        if h.failed != failed_before + 1:
            failures.append(f"{name}: a failing op was not counted as failed")
    finally:
        h.close()


def main() -> int:
    failures: list[str] = []
    check_benchmark_json(failures)
    goldens = json.loads(run.GOLDENS.read_text())
    for name in WORKLOADS:
        check_emission(name, failures)
        check_fault_detection(name, goldens, failures)
        print(f"{name}: checked", flush=True)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.path.insert(0, str(run.ROOT / "src"))
    sys.exit(main())
