"""Seeded inputs and output oracles for the four benchmark workloads.

Every op is one ``su12fiber`` command line.  A workload's ops come in
cycles: a timed run measures whole cycles, so each run sees the same mix of
op kinds whatever its seed, and the seed varies only the values inside that
mix.  The oracles here never ask the package for an answer: classes and
census totals are recomputed from the mark counts and from multinomials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from random import Random
from typing import Callable, Optional

STABLE, SEMISTABLE, UNSTABLE = "GitStable", "StrictlySemistable", "GitUnstable"
ZERO_FREE_UNSTABLE = "zero-free unstable"  # a GitUnstable pattern without [0:1] slots

HECKE_CASES = 2  # randomized cases per local-model-verify op
HECKE_POOL = 1024  # distinct --seed values before the pool repeats
CYCLES_IN_POOL = 8  # census and git-classify cycles generated per set-up

# census genera: a fixed grid keeps the work per cycle the same for every
# seed; the seed draws the degrees and the cell queries
CENSUS_GENERA = (2, 3, 5, 8, 12, 17, 23, 30, 38, 47, 60)
# cell queries per genus; at three of five ops the median op is a cell
# query, a cluster of near-equal costs, instead of a census of some size
STABILITY_PER_GENUS = 3

GIT_GENUS = 3
GIT_SLOTS = 4 * GIT_GENUS - 4


@dataclass
class Op:
    argv: list[str]
    kind: str
    expect: dict


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # ops per cycle; runs measure whole cycles
    traced_ops: int  # op prefix run by the traced pass, a whole number of cycles
    golden_ops: int  # op prefix whose stdout digests are recorded
    pool: Callable[[Random, Path], list[Op]]
    warmup: Callable[[Random, Path], Op]


# local-model-verify


def _hecke_op(truncation: int, seed: int, cases: int) -> Op:
    argv = ["local-model-verify", "--truncation", str(truncation),
            "--seed", str(seed), "--cases", str(cases)]
    return Op(argv, "hecke", {"order": truncation, "seed": seed, "cases": cases})


def _hecke_pool(truncation: int) -> Callable[[Random, Path], list[Op]]:
    def pool(rng: Random, workdir: Path) -> list[Op]:
        return [_hecke_op(truncation, rng.randrange(10**9), HECKE_CASES)
                for _ in range(HECKE_POOL)]
    return pool


def _hecke_warmup(truncation: int) -> Callable[[Random, Path], Op]:
    def warmup(rng: Random, workdir: Path) -> Op:
        return _hecke_op(truncation, rng.randrange(10**9), 1)
    return warmup


_HECKE_CHECKS = (
    "smith_randomized", "smith_worked_examples", "smith_rejects_bad_determinant",
    "hecke_round_trip", "normal_form", "contraction_naturality",
)
_COUNTED_CHECKS = ("smith_randomized", "hecke_round_trip", "normal_form",
                   "contraction_naturality")


def check_hecke(op: Op, code: int, out: str, err: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    payload = json.loads(out)
    e = op.expect
    if (payload["order"], payload["seed"], payload["cases"]) != (e["order"], e["seed"], e["cases"]):
        return "order, seed or cases not echoed"
    if payload["all_passed"] is not True:
        return "all_passed is not true"
    checks = payload["checks"]
    if tuple(c["name"] for c in checks) != _HECKE_CHECKS:
        return "unexpected check names"
    for c in checks:
        if c["passed"] is not True:
            return f"check {c['name']} failed: {c['detail']}"
        if c["name"] in _COUNTED_CHECKS and not c["detail"].startswith(f"{e['cases']} "):
            return f"check {c['name']} does not name {e['cases']} cases: {c['detail']}"
    return None


# census and stability


def own_stability(g: int, d: int, d_beta: int, d_gamma: int) -> str:
    gamma_bound, beta_bound = 2 * (g - 1 + d), 2 * (g - 1 - d)
    if d_gamma < gamma_bound and d_beta < beta_bound:
        return "Stable"
    if d_gamma == gamma_bound and d_beta == beta_bound:
        return "StrictlyPolystable"
    if d_gamma <= gamma_bound and d_beta <= beta_bound:
        return "SemistableNotPolystable"
    return "Unstable"


def own_census_totals(g: int, d: int) -> tuple[int, int, int]:
    """(row count, 3^N, stable labeled count) summed from multinomials."""
    N = 4 * g - 4
    stable = sum(
        comb(N, b) * comb(N - b, c)
        for b in range(N + 1)
        for c in range(N + 1 - b)
        if own_stability(g, d, b, c) == "Stable"
    )
    return (N + 1) * (N + 2) // 2, 3**N, stable


def _degree_near_milnor_wood(rng: Random, g: int) -> int:
    # a quarter of the draws sit just outside |d| < g - 1
    if rng.random() < 0.25:
        return rng.choice((-1, 1)) * rng.choice((g - 1, g))
    return rng.randint(-(g - 2), g - 2)


def _census_op(g: int, d: int, fmt: str) -> Op:
    argv = ["census", "--genus", str(g), "--degree", str(d), "--format", fmt]
    return Op(argv, "census", {"genus": g, "degree": d, "format": fmt})


def _stability_op(rng: Random) -> Op:
    g = rng.randint(2, 60)
    d = _degree_near_milnor_wood(rng, g)
    N = 4 * g - 4
    d_beta = rng.randint(0, N)
    d_gamma = rng.randint(0, N - d_beta)
    fmt = rng.choice(("json", "csv"))
    argv = ["stability", "--genus", str(g), "--degree", str(d), "--dbeta", str(d_beta),
            "--dgamma", str(d_gamma), "--format", fmt]
    return Op(argv, "stability", {"genus": g, "degree": d, "d_beta": d_beta,
                                  "d_gamma": d_gamma, "format": fmt})


def census_pool(rng: Random, workdir: Path) -> list[Op]:
    # genera in ascending order: with the op sizes in the same order for
    # every seed, the heap grows alike and the peak RSS does not hang on
    # which large census happened to follow which
    ops = []
    for _ in range(CYCLES_IN_POOL):
        for g in CENSUS_GENERA:
            ops.append(_census_op(g, _degree_near_milnor_wood(rng, g), "json"))
            ops.append(_census_op(g, _degree_near_milnor_wood(rng, g), "csv"))
            ops.extend(_stability_op(rng) for _ in range(STABILITY_PER_GENUS))
    return ops


def census_warmup(rng: Random, workdir: Path) -> Op:
    return _census_op(2, 0, "json")


def _warning_problem(g: int, d: int, err: str) -> Optional[str]:
    warned = "outside the strict Milnor-Wood range" in err
    if warned != (abs(d) >= g - 1):
        return f"Milnor-Wood warning {'present' if warned else 'missing'} at g={g}, d={d}"
    return None


def check_census(op: Op, code: int, out: str, err: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    g, d = op.expect["genus"], op.expect["degree"]
    rows, total, stable = own_census_totals(g, d)
    if op.expect["format"] == "json":
        payload = json.loads(out)
        got = (len(payload["rows"]), payload["totals"]["all"], payload["totals"]["Stable"])
        if sum(r["labeled_count"] for r in payload["rows"]) != total:
            return "row counts do not sum to 3^N"
    else:
        lines = out.splitlines()
        comments = dict(line[len("# total "):].rsplit(" ", 1) for line in lines
                        if line.startswith("# total "))
        body = [line for line in lines[1:] if not line.startswith("#")]
        got = (len(body), int(comments["all"]), int(comments["Stable"]))
    if got != (rows, total, stable):
        return f"(rows, 3^N, stable) = {got}, expected {(rows, total, stable)}"
    return _warning_problem(g, d, err)


def check_stability(op: Op, code: int, out: str, err: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    e = op.expect
    want = own_stability(e["genus"], e["degree"], e["d_beta"], e["d_gamma"])
    if e["format"] == "json":
        got = json.loads(out)["stability"]
    else:
        got = out.splitlines()[1].split(",")[5]
    if got != want:
        return f"stability {got}, expected {want}"
    return _warning_problem(e["genus"], e["degree"], err)


# git-classify


def _scalar_text(rng: Random) -> str:
    """A nonzero element of Q(sqrt2), written as the package prints it."""
    while True:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.5 else 0
        if a or b:
            return str(a) if not b else f"{a}{'-' if b < 0 else '+'}{abs(b)}*sqrt2"


def _marks(rng: Random, kind: str, n: int, N: int) -> list[str]:
    """Slot marks 'z' ([0:1]), 'i' ([1:0]), 'f' (finite) built for a class.

    The brute-force search tests the [0:1] slots of each vector first, so a
    full sweep over a pattern without one costs about 1.3 times as much.
    Only ZERO_FREE_UNSTABLE has none; the other non-stable kinds keep one,
    so each cycle holds the same share of such sweeps whatever the seed.
    """
    if kind == STABLE:
        nz, ni = rng.randint(0, n - 1), rng.randint(0, N - n - 1)
    elif kind == SEMISTABLE:  # one count saturated, a finite slot left
        if rng.random() < 0.5:
            nz, ni = n, rng.randint(0, N - n - 1)
        else:
            nz, ni = rng.randint(1, n - 1), N - n
    elif kind == UNSTABLE:  # one count over its budget, a finite slot left
        if rng.random() < 0.5 or n < 3:  # n < 3: no room for a [0:1] slot on the [1:0] side
            nz = rng.randint(n + 1, N - 1)
            ni = rng.randint(0, N - 1 - nz)
        else:
            ni = rng.randint(N - n + 1, N - 2)
            nz = rng.randint(1, N - 1 - ni)
    elif kind == ZERO_FREE_UNSTABLE:
        nz, ni = 0, rng.randint(N - n + 1, N - 1)
    else:  # torus-fixed: every slot marked, semistable half of the time
        nz = n if rng.random() < 0.5 else rng.choice([k for k in range(1, N + 1) if k != n])
        ni = N - nz
    marks = ["z"] * nz + ["i"] * ni + ["f"] * (N - nz - ni)
    rng.shuffle(marks)
    return marks


def balanced_vector_count(total: int, cap: int, length: int) -> int:
    """Vectors in [0, cap]^length summing to total, by inclusion-exclusion.

    Independent of the package's own counting routine, so the search-space
    figures do not come from the code they describe.
    """
    if total < 0 or total > cap * length:
        return 0
    return sum(
        (-1) ** k * comb(length, k) * comb(total - k * (cap + 1) + length - 1, length - 1)
        for k in range(length + 1)
        if total - k * (cap + 1) >= 0
    )


def own_git_class(marks: list[str], n: int, N: int) -> str:
    nz, ni = marks.count("z"), marks.count("i")
    if nz < n and ni < N - n:
        return STABLE
    if nz <= n and ni <= N - n:
        return SEMISTABLE
    return UNSTABLE


def _config(rng: Random, marks: list[str]) -> dict:
    points = [
        "zero" if m == "z" else "inf" if m == "i" else {"t": _scalar_text(rng)}
        for m in marks
    ]
    return {"base": f"L{rng.randrange(1000)}", "points": points}


def _git_op(workdir: Path, name: str, degree: int, configs: list[dict],
            classes: list[str]) -> Op:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(configs), encoding="utf-8")
    argv = ["git-classify", "--genus", str(GIT_GENUS), "--degree", str(degree),
            "--rmax", "1", "--input", str(path)]
    return Op(argv, "git", {"degree": degree, "configs": configs, "classes": classes})


def _git_file(rng: Random, workdir: Path, name: str, degree: int, kind: str,
              copies: int) -> Op:
    """One mark pattern built for kind, written copies times with fresh coordinates."""
    n, N = 2 * (GIT_GENUS - 1 + degree), GIT_SLOTS
    marks = _marks(rng, kind, n, N)
    configs = [_config(rng, marks) for _ in range(copies)]
    return _git_op(workdir, name, degree, configs, [own_git_class(marks, n, N)] * copies)


def git_pool(rng: Random, workdir: Path) -> list[Op]:
    """Cycles of eleven files, one or two configurations each.

    At degrees -1 and 1 (217,701 balanced vectors): one file each for a
    stable, a semistable, a zero-free unstable and a torus-fixed pattern,
    and one file with one pattern twice (semistable at -1, unstable with a
    [0:1] slot at 1), so 2 of the 13 configurations in a cycle repeat a
    pattern.  At degree 0
    (2,306,025 vectors): one file with one semistable configuration, which
    sweeps them all.  Every cycle holds the same kinds, so a run's mix does
    not hang on how many cycles fit in its window.
    """
    ops = []
    for k in range(CYCLES_IN_POOL):
        cycle = []
        for degree, repeated in ((-1, SEMISTABLE), (1, UNSTABLE)):
            for kind in (STABLE, SEMISTABLE, ZERO_FREE_UNSTABLE, "fixed"):
                cycle.append(_git_file(rng, workdir, f"c{k}d{degree}{kind}", degree, kind, 1))
            cycle.append(_git_file(rng, workdir, f"c{k}d{degree}repeat", degree, repeated, 2))
        cycle.append(_git_file(rng, workdir, f"c{k}d0", 0, SEMISTABLE, 1))
        rng.shuffle(cycle)
        ops.extend(cycle)
    return ops


def git_warmup(rng: Random, workdir: Path) -> Op:
    # all slots finite: a stable witness turns up within a few vectors
    return _git_op(workdir, "warmup", -1, [_config(rng, ["f"] * GIT_SLOTS)], [STABLE])


def check_git(op: Op, code: int, out: str, err: str) -> Optional[str]:
    if code != 0:
        return f"exit code {code}"
    payload = json.loads(out)
    if payload["all_agree"] is not True:
        return "all_agree is not true"
    reports = payload["configurations"]
    e = op.expect
    if len(reports) != len(e["configs"]):
        return f"{len(reports)} reports for {len(e['configs'])} configurations"
    n = 2 * (GIT_GENUS - 1 + e["degree"])
    space = balanced_vector_count(GIT_SLOTS * n, GIT_SLOTS, GIT_SLOTS)
    for k, (r, config, want) in enumerate(zip(reports, e["configs"], e["classes"])):
        if r["input"] != config:
            return f"configuration {k} not echoed"
        if (r["closed_form"], r["brute_force"]) != (want, want):
            return f"configuration {k}: {r['closed_form']}/{r['brute_force']}, built for {want}"
        if r["fixed_point"] != all(isinstance(p, str) for p in config["points"]):
            return f"configuration {k}: wrong fixed_point flag"
        if not 1 <= r["monomials_enumerated"] <= space:
            return f"configuration {k}: {r['monomials_enumerated']} vectors of {space}"
    return None


CHECKS = {
    "hecke": check_hecke,
    "census": check_census,
    "stability": check_stability,
    "git": check_git,
}

CENSUS_CYCLE = (2 + STABILITY_PER_GENUS) * len(CENSUS_GENERA)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("hecke_t8", 1, 16, 256, _hecke_pool(8), _hecke_warmup(8)),
        Workload("hecke_t16", 1, 8, 128, _hecke_pool(16), _hecke_warmup(16)),
        Workload("git_g3", 11, 11, CYCLES_IN_POOL * 11, git_pool, git_warmup),
        Workload("census_sweep", CENSUS_CYCLE, CENSUS_CYCLE, CYCLES_IN_POOL * CENSUS_CYCLE,
                 census_pool, census_warmup),
    )
}
