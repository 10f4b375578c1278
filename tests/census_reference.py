"""Reference census: the per-cell implementation, kept for differential tests.

`census` below is the table builder as it stood before the counts came from
a recurrence along each row: two `math.comb` per cell, one `classify_counts`
call per cell and a frozen dataclass per row.  `emission` reproduces what the
`census` subcommand wrote from such rows: the whole payload through
`json.dumps(indent=2, sort_keys=True)`, or the rows through `csv.writer`,
plus the Milnor-Wood warning on stderr.  `cells` expands the runs of the
package's `census` into such rows, the per-cell view the tests read.
`GENERA` and `degrees` name the grid of (genus, degree) cases the
differential tests cover, and `digest` is the fingerprint of one emission
kept in census_digests.txt.  Nothing in the package imports this module.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass

from su12fiber.stability import (
    ModuliParams,
    StabilityClass,
    classify_counts,
    milnor_wood_admits_stable,
)


# every degree from -g-1 to g+1 for g in 2..30 (inside, at and outside the
# Milnor-Wood range, where gamma_bound runs from below 0 to past N), plus
# the degrees 0, +-(g-1) and +-g at three large genera
SMALL_GENERA = range(2, 31)
LARGE_GENERA = (47, 60, 100)
GENERA = (*SMALL_GENERA, *LARGE_GENERA)


def degrees(g: int) -> tuple[int, ...]:
    if g in LARGE_GENERA:
        return (0, g - 1, 1 - g, g, -g)
    return tuple(range(-g - 1, g + 2))


def digest(out: str, err: str) -> str:
    """sha256 of one emission: stdout and stderr, joined by a NUL byte."""
    return hashlib.sha256(f"{out}\0{err}".encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CensusRow:
    d_beta: int
    d_gamma: int
    d_r: int
    stability: StabilityClass
    labeled_count: int
    stratum_dim: int | None


@dataclass(frozen=True)
class CensusResult:
    params: ModuliParams
    rows: tuple[CensusRow, ...]

    def class_total(self, cls: StabilityClass) -> int:
        return sum(r.labeled_count for r in self.rows if r.stability is cls)

    @property
    def stable_total(self) -> int:
        return self.class_total(StabilityClass.STABLE)

    @property
    def grand_total(self) -> int:
        return sum(r.labeled_count for r in self.rows)


def census(p: ModuliParams) -> CensusResult:
    """Exhaustive classification of all (d_beta, d_gamma) cells.

    Each cell carries the number of labeled partitions realizing it,
    the multinomial N! / (d_beta! d_gamma! d_r!), so the grand total is
    3^N.  Stable cells also carry the stratum dimension g + d_r.
    """
    N = p.N
    rows = []
    for d_beta in range(N + 1):
        for d_gamma in range(N + 1 - d_beta):
            d_r = N - d_beta - d_gamma
            cls = classify_counts(p, d_beta, d_gamma)
            count = math.comb(N, d_beta) * math.comb(N - d_beta, d_gamma)
            dim = p.g + d_r if cls is StabilityClass.STABLE else None
            rows.append(CensusRow(d_beta, d_gamma, d_r, cls, count, dim))
    return CensusResult(p, tuple(rows))


def cells(result) -> tuple[CensusRow, ...]:
    """Each run of the package's `stability.census(p)` expanded into its cells,
    in order of (d_beta, d_gamma); a run whose fields differ in length raises."""
    return tuple(
        CensusRow(run.d_beta, d_gamma, d_r, run.stability, count, dim)
        for run in result.runs
        for d_gamma, d_r, count, dim in zip(
            run.d_gamma, run.d_r, run.labeled_counts,
            run.stratum_dims or [None] * len(run.d_gamma), strict=True,
        )
    )


def emission(result: CensusResult, fmt: str) -> tuple[str, str]:
    """(stdout, stderr) of `su12fiber census` for this table in this format."""
    p = result.params
    err = ""
    if not milnor_wood_admits_stable(p.g, p.d):
        err = (
            f"warning: degree {p.d} is outside the strict Milnor-Wood range "
            f"for genus {p.g}; no stable objects exist there\n"
        )
    totals = {cls.value: result.class_total(cls) for cls in StabilityClass}
    if fmt == "json":
        payload = {
            "command": "census",
            "genus": p.g,
            "degree": p.d,
            "slots": p.N,
            "rows": [
                {
                    "d_beta": r.d_beta,
                    "d_gamma": r.d_gamma,
                    "d_rest": r.d_r,
                    "stability": r.stability.value,
                    "labeled_count": r.labeled_count,
                    "stratum_dimension": r.stratum_dim,
                }
                for r in result.rows
            ],
            "totals": {**totals, "all": result.grand_total},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n", err
    header = ["d_beta", "d_gamma", "d_rest", "stability", "labeled_count", "stratum_dimension"]
    rows = [
        [r.d_beta, r.d_gamma, r.d_r, r.stability.value, r.labeled_count,
         "" if r.stratum_dim is None else r.stratum_dim]
        for r in result.rows
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    for name, count in totals.items():
        buf.write(f"# total {name} {count}\n")
    buf.write(f"# total all {result.grand_total}\n")
    return buf.getvalue(), err
