"""Test-only paper facts: statements the tests check and no subcommand computes.

The stability/GIT dictionary, the labeled partitions behind the census
cells, the affine charts on the stable locus, orbit equivalence, the
invariant-monomial predicates and a few conveniences on series, matrices
and covectors are facts of the paper that the acceptance gate and the
unit tests check against the package.  The command line never computes
them, so they live here and read the package only through its public
names and accessors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from su12fiber.configuration import Configuration, FiberPoint, mark_data
from su12fiber.errors import LengthMismatchError, NonUnitError
from su12fiber.exact import Mat2, Scalar, TruncatedSeries
from su12fiber.git_engine import GitClass, Linearization, classify_closed_form
from su12fiber.local_model import EvaluationCovector
from su12fiber.stability import ModuliParams, StabilityClass, classify_counts


# labeled partitions (stability)


class Label(Enum):
    """Which Higgs component vanishes at a marked point."""

    BETA = "beta"
    GAMMA = "gamma"
    REST = "rest"


@dataclass(frozen=True)
class LabeledPartition:
    """Per-slot labels of the N marked points."""

    labels: tuple[Label, ...]

    @staticmethod
    def of(labels: Iterable[Label]) -> "LabeledPartition":
        return LabeledPartition(tuple(labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def d_beta(self) -> int:
        return sum(1 for v in self.labels if v is Label.BETA)

    @property
    def d_gamma(self) -> int:
        return sum(1 for v in self.labels if v is Label.GAMMA)

    @property
    def d_r(self) -> int:
        return sum(1 for v in self.labels if v is Label.REST)


def classify_partition(p: ModuliParams, part: LabeledPartition) -> StabilityClass:
    if part.size != p.N:
        raise LengthMismatchError(
            f"partition has {part.size} slots, expected N = {p.N}"
        )
    return classify_counts(p, part.d_beta, part.d_gamma)


def stratum_dimension(p: ModuliParams, part: LabeledPartition) -> int:
    """Dimension g + d_r of the stable stratum containing the partition.

    Only stable partitions lie in a stratum of the fiber; anything else
    is a domain error.
    """
    if classify_partition(p, part) is not StabilityClass.STABLE:
        raise ValueError("stratum dimension is defined for stable partitions only")
    return p.g + part.d_r


# configurations: strata and orbits


def stratum_of(c: Configuration) -> LabeledPartition:
    """Labeled partition recording, slot by slot, which component vanishes:
    gamma at a [0:1] slot, beta at a [1:0] slot."""
    labels = []
    for point in c.points:
        if point.is_zero():
            labels.append(Label.GAMMA)
        elif point.is_infinity():
            labels.append(Label.BETA)
        else:
            labels.append(Label.REST)
    return LabeledPartition.of(labels)


def orbit_equivalent(x: Configuration, y: Configuration) -> Optional[Scalar]:
    """The unique scale c with act(c, x) == y, or None.

    Orbit membership needs the same base label, the same per-slot mark
    pattern, and one common ratio across all finite slots.  Two equal
    fully-marked configurations give c = 1.
    """
    if x.base != y.base or x.size != y.size:
        return None
    ratio: Optional[Scalar] = None
    for px, py in zip(x.points, y.points):
        if px.kind is not py.kind:
            return None
        if px.is_finite():
            r = py.t / px.t
            if ratio is None:
                ratio = r
            elif ratio != r:
                return None
    return ratio if ratio is not None else Scalar.one()


# invariant monomials, the dictionary and charts (git_engine)


def _check_monomial(m: Sequence[int], lin: Linearization) -> None:
    if len(m) != lin.N:
        raise LengthMismatchError(f"exponent vector has {len(m)} slots, expected {lin.N}")
    for j, mj in enumerate(m):
        if not 0 <= mj <= lin.cap:
            raise ValueError(f"exponent m[{j}] = {mj} outside [0, {lin.cap}]")


def is_invariant(m: Sequence[int], lin: Linearization) -> bool:
    """Torus invariance is the balancing condition sum(m) == N*r*n."""
    _check_monomial(m, lin)
    return sum(m) == lin.target


def saturated_slots(m: Sequence[int], lin: Linearization) -> tuple[frozenset[int], frozenset[int]]:
    """Slots at the top exponent N*r and at the bottom exponent 0."""
    _check_monomial(m, lin)
    top = frozenset(j for j, mj in enumerate(m) if mj == lin.cap)
    bottom = frozenset(j for j, mj in enumerate(m) if mj == 0)
    return top, bottom


def monomial_nonvanishing(m: Sequence[int], c: Configuration, lin: Linearization) -> bool:
    """Nonvanishing at c: every [0:1] slot saturated top, every [1:0] slot bottom."""
    _check_monomial(m, lin)
    if c.size != lin.N:
        raise LengthMismatchError(f"configuration has {c.size} slots, expected {lin.N}")
    marks = mark_data(c)
    return all(m[j] == lin.cap for j in marks.zero_slots) and all(
        m[j] == 0 for j in marks.infinity_slots
    )


def git_class_of_stability(s: StabilityClass) -> GitClass:
    """Dictionary between partition stability and torus-quotient classes."""
    if s is StabilityClass.STABLE:
        return GitClass.STABLE
    if s in (StabilityClass.STRICTLY_POLYSTABLE, StabilityClass.SEMISTABLE_NOT_POLYSTABLE):
        return GitClass.STRICTLY_SEMISTABLE
    return GitClass.UNSTABLE


class NoChartError(ValueError):
    """Affine charts exist only over the stable locus."""


def affine_chart(
    c: Configuration, p: ModuliParams
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Deterministic chart partition (I1, I2, I3) around a stable-locus point.

    Sizes are |I1| = n - 1, |I2| = N - n - 1, |I3| = 2 with membership
    constraints: no [1:0] slot in I1, no [0:1] slot in I2, only finite
    slots in I3.  Greedy, lowest indices first: I3 takes the two lowest
    finite slots; I1 takes every [0:1] slot (nothing else can absorb them)
    then fills up with the lowest remaining finite slots; I2 gets the rest.
    A stable-locus point always has enough room in each part.  The stable
    locus is empty when n lies outside [0, N], where no linearization
    exists.
    """
    try:
        lin = Linearization.for_moduli(p)
    except ValueError:
        lin = None
    if lin is None or classify_closed_form(c, lin) is not GitClass.STABLE:
        raise NoChartError("affine charts exist only over the stable locus")
    n, N = p.n, p.N
    finite = [j for j, pt in enumerate(c.points) if pt.is_finite()]
    zeros = [j for j, pt in enumerate(c.points) if pt.is_zero()]

    i3 = finite[:2]
    i1 = list(zeros)
    for j in finite[2:]:
        if len(i1) >= n - 1:
            break
        i1.append(j)
    i1.sort()
    used = set(i3) | set(i1)
    i2 = [j for j in range(N) if j not in used]
    return tuple(i1), tuple(i2), tuple(i3)


# series, matrices and covectors (exact, local_model)


def series_valuation(s: TruncatedSeries) -> int | None:
    """Index of the lowest nonzero coefficient, None for the zero class."""
    return next((k for k, c in enumerate(s.coeffs) if not c.is_zero()), None)


def series_to_strings(s: TruncatedSeries) -> list[str]:
    return [str(c) for c in s.coeffs]


def series_parse(values: Sequence[str], order: int | None = None) -> TruncatedSeries:
    """The series with the given scalar literals as its leading coefficients.

    The order defaults to the number of literals; an explicit order,
    0 included, must hold all of them.
    """
    coeffs = [Scalar.parse(v) for v in values]
    return TruncatedSeries.from_coeffs(coeffs, len(coeffs) if order is None else order)


def matrix_inverse(m: Mat2) -> Mat2:
    """adj(m) / det(m); defined iff the determinant is a unit."""
    d = m.det()
    if not d.is_unit():
        raise NonUnitError("matrix determinant is not a unit")
    dinv = d.inverse()
    (a, b), (c, e) = m.adjugate().entries
    return Mat2(((a * dinv, b * dinv), (c * dinv, e * dinv)))


def covector_from_fiber_point(p: FiberPoint) -> EvaluationCovector:
    """The covector whose homogeneous coordinates are the point's."""
    if p.is_zero():
        return EvaluationCovector(Scalar.zero(), Scalar.one())
    if p.is_infinity():
        return EvaluationCovector(Scalar.one(), Scalar.zero())
    return EvaluationCovector(p.t, Scalar.one())
