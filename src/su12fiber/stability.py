"""Numerical stability of vanishing-locus partitions.

Fix a genus g >= 2 and a degree d.  The fiber data lives over N = 4g - 4
marked points, each labeled by which Higgs-field component vanishes there:
the beta component, the gamma component, or neither.  Writing d_beta,
d_gamma, d_r for the three part sizes (d_beta + d_gamma + d_r = N), the
classification is a pair of linear inequalities:

    stable                d_gamma < 2(g-1+d)  and  d_beta < 2(g-1-d)
    strictly polystable   d_gamma = 2(g-1+d)  and  d_beta = 2(g-1-d)
    semistable, not polystable   both weak inequalities hold, neither
                                 of the two cases above applies
    unstable              some weak inequality fails

Stable objects can exist only in the strict Milnor-Wood range |d| < g - 1;
at |d| = g - 1 one of the strict bounds collapses to d_* < 0.
"""

from __future__ import annotations

from enum import Enum
from itertools import chain, groupby, repeat
from operator import attrgetter
from typing import Iterator, NamedTuple

from .errors import InvalidGenusError
from .frozen import Frozen, Value


class StabilityClass(Enum):
    STABLE = "Stable"
    STRICTLY_POLYSTABLE = "StrictlyPolystable"
    SEMISTABLE_NOT_POLYSTABLE = "SemistableNotPolystable"
    UNSTABLE = "Unstable"


class ModuliParams(Value):
    """Genus and degree, with the derived slot count and torus weight.

    N = 4g - 4 marked points; n = 2(g-1+d) is the weight parameter entering
    both the stability inequalities and the torus linearization.  In the
    strict Milnor-Wood range |d| < g - 1 we automatically get 0 < n < N.
    """

    g: int
    d: int

    __slots__ = _fields = ("g", "d")

    def __init__(self, g: int, d: int) -> None:
        # bool is an int subclass, but True is not a genus or a degree
        if not isinstance(g, int) or isinstance(g, bool) or g < 2:
            raise InvalidGenusError(f"genus must be an integer >= 2, got {g!r}")
        if not isinstance(d, int) or isinstance(d, bool):
            raise ValueError(f"degree must be an integer, got {d!r}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "d", d)

    @property
    def N(self) -> int:
        return 4 * self.g - 4

    @property
    def n(self) -> int:
        return 2 * (self.g - 1 + self.d)

    @property
    def gamma_bound(self) -> int:
        """Strict upper bound for d_gamma in the stable range, 2(g-1+d)."""
        return self.n

    @property
    def beta_bound(self) -> int:
        """Strict upper bound for d_beta in the stable range, 2(g-1-d)."""
        return 2 * (self.g - 1 - self.d)

    def stratum_dimension(self, d_r: int) -> int:
        """Dimension g + d_r of the stable stratum with d_r slots labeled neither."""
        return self.g + d_r


def milnor_wood_admits_stable(g: int, d: int) -> bool:
    """Whether stable objects can exist at all: |d| < g - 1.

    Semistable objects survive up to |d| <= g - 1; the strict inequality
    is what every structural statement in this package assumes.  The
    genus and degree are validated as ModuliParams validates them.
    """
    p = ModuliParams(g, d)
    return abs(p.d) < p.g - 1


def classify_counts(p: ModuliParams, d_beta: int, d_gamma: int) -> StabilityClass:
    """Classification from the part sizes alone (labels never matter)."""
    if d_beta < 0 or d_gamma < 0 or d_beta + d_gamma > p.N:
        raise ValueError(
            f"part sizes ({d_beta}, {d_gamma}) do not fit into N = {p.N} slots"
        )
    if d_gamma < p.gamma_bound and d_beta < p.beta_bound:
        return StabilityClass.STABLE
    if d_gamma == p.gamma_bound and d_beta == p.beta_bound:
        return StabilityClass.STRICTLY_POLYSTABLE
    if d_gamma <= p.gamma_bound and d_beta <= p.beta_bound:
        return StabilityClass.SEMISTABLE_NOT_POLYSTABLE
    return StabilityClass.UNSTABLE


def polystable_split_degrees(p: ModuliParams) -> tuple[int, int]:
    """Degrees of the two line summands of a strictly polystable object.

    The polystable locus forces d_beta = 2(g-1-d) and the underlying bundle
    splits into line bundles of degrees d + d_beta - (2g-2) and
    -2d - d_beta + (2g-2); the degrees sum to -d.
    """
    if abs(p.d) > p.g - 1:
        raise ValueError(
            "strictly polystable objects exist only for |d| <= g - 1"
        )
    d_beta = p.beta_bound
    two_g_minus_2 = 2 * p.g - 2
    deg1 = p.d + d_beta - two_g_minus_2
    deg2 = -2 * p.d - d_beta + two_g_minus_2
    return deg1, deg2


class CensusRow(NamedTuple):
    d_beta: int
    d_gamma: int
    d_r: int
    stability: StabilityClass
    labeled_count: int
    stratum_dim: int | None


class CensusRun(NamedTuple):
    """Consecutive cells of row d_beta, all of one class, field by field: cell k
    has d_gamma[k], d_r[k], labeled_counts[k] and, if stable, stratum_dims[k].
    labeled_texts[k] is str(labeled_counts[k]), the count in decimal, so a
    writer converts no count itself."""

    d_beta: int
    d_gamma: range
    d_r: range
    stability: StabilityClass
    labeled_counts: list[int]
    labeled_texts: list[str]
    stratum_dims: range | None


class CensusResult(Frozen):
    params: ModuliParams
    rows: tuple[CensusRow, ...]

    __slots__ = ("params", "rows")

    def __init__(self, params: ModuliParams, rows: tuple[CensusRow, ...]) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "rows", rows)

    def class_totals(self) -> dict[StabilityClass, int]:
        """Labeled count of every class, in one pass over runs of equal class."""
        totals = dict.fromkeys(StabilityClass, 0)
        # groupby for speed: a plain loop over the cells took 6.2 ms, not 2.4, at genus 60
        for cls, cells in groupby(self.rows, attrgetter("stability")):
            totals[cls] += sum(map(attrgetter("labeled_count"), cells))
        return totals

    def class_total(self, cls: StabilityClass) -> int:
        return self.class_totals()[cls]

    @property
    def stable_total(self) -> int:
        return self.class_total(StabilityClass.STABLE)


def census_runs(p: ModuliParams) -> Iterator[CensusRun]:
    """Exhaustive classification of all (d_beta, d_gamma) cells, as runs of
    constant class in order of (d_beta, d_gamma).

    Each cell carries the number of labeled partitions realizing it,
    the multinomial N! / (d_beta! d_gamma! d_r!), so the grand total is
    3^N.  Stable cells also carry the stratum dimension
    (ModuliParams.stratum_dimension).

    The counts come from exact integer recurrences instead of binomials
    per cell.  The first cell of row d_beta holds head = C(N, d_beta), with
    head(d_beta + 1) = head(d_beta) * (N - d_beta) // (d_beta + 1); along the
    row, count(d_gamma + 1) = count(d_gamma) * d_r // (d_gamma + 1), where d_r
    belongs to the cell at d_gamma.  Both divisions are exact.  The row is a
    palindrome, count(d_gamma) = count(N - d_beta - d_gamma), so the
    recurrence runs over its first half only and the second half mirrors it;
    so does each count's decimal text, converted once per half row.

    `classify_counts` sees d_gamma only through comparisons with
    gamma_bound, so a row is at most three runs: its nonempty ranges among
    [0, gamma_bound), {gamma_bound} and (gamma_bound, N - d_beta], each
    holding its slice of the row's counts.  The class is asked once per
    run, at its first cell, and a row is computed only when its first run
    is asked for.
    """
    N = p.N
    head = 1
    for d_beta in range(N + 1):
        width = N + 1 - d_beta
        # the first ceil(width / 2) cells; swapping the gamma and r labels
        # keeps the multinomial, so the rest are these reversed, the middle
        # cell of an odd width left out
        count = head
        half = [count]
        for d_gamma in range(1, (width + 1) // 2):
            count = count * (width - d_gamma) // d_gamma
            half.append(count)
        row = half + half[-1 - width % 2::-1]
        half_texts = list(map(str, half))
        texts = half_texts + half_texts[-1 - width % 2::-1]
        cut, cut_after = (min(max(b, 0), width) for b in (p.gamma_bound, p.gamma_bound + 1))
        for start, stop in ((0, cut), (cut, cut_after), (cut_after, width)):
            if start == stop:
                continue
            cls = classify_counts(p, d_beta, start)
            d_r = range(N - d_beta - start, N - d_beta - stop, -1)
            stable = cls is StabilityClass.STABLE
            # the dimension steps with d_r, so its ends give the whole range
            dims = (range(p.stratum_dimension(d_r.start), p.stratum_dimension(d_r.stop), -1)
                    if stable else None)
            yield CensusRun(d_beta, range(start, stop), d_r, cls, row[start:stop],
                            texts[start:stop], dims)
        head = head * (N - d_beta) // (d_beta + 1)


def census(p: ModuliParams) -> CensusResult:
    """The whole table of `census_runs`, each run expanded into its cells."""
    # map and chain for speed: a comprehension over the runs took 24.3 ms, not 22.2, at genus 60
    cells = (map(CensusRow, repeat(r.d_beta), r.d_gamma, r.d_r, repeat(r.stability),
                 r.labeled_counts, r.stratum_dims or repeat(None)) for r in census_runs(p))
    return CensusResult(p, tuple(chain.from_iterable(cells)))
