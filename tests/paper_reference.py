"""Test-only paper facts: statements the tests check and no subcommand computes.

The stability/GIT dictionary and its derivation from the Hecke transform,
the labeled partitions behind the census cells, the affine charts on the
stable locus, orbit equivalence, the invariant-monomial predicates, the
vanishing counts read through the local model, the torus action on the
Hecke frames and a few conveniences on
series and matrices are facts of the paper that the acceptance gate and
the unit tests check against the package.
The command line never computes them, so they live here and read the
package only through its public names and accessors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import product
from math import gcd
from typing import Iterable, Optional, Sequence

from su12fiber.configuration import Configuration, FiberPoint, act
from su12fiber.errors import LengthMismatchError, NonUnitError
from su12fiber.exact import Mat2, Scalar, ScalarLike, TruncatedSeries
from su12fiber.git_engine import GitClass, Linearization, classify_closed_form
from su12fiber.local_model import hecke_frame, higgs_from_kernel_frame
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


# the dictionary derived from the Hecke transform (stability)


def hecke_subbundle_degrees(g: int, d: int, labels: Sequence[Label]) -> tuple[int, int]:
    """Degrees of F' = ker(beta^vee wedge) and ker(gamma) inside F, read off the
    Hecke transform alone, with no bound of ModuliParams.

    iota = (beta^vee wedge, gamma) maps F into L^-2 K + L K, of degrees
    2g - 2 - 2d and 2g - 2 + d, injectively with a length-one cokernel at
    each of the 4g - 4 zeros of q = gamma beta.  At a zero the image of the
    fibre of F is a line: the L^-2 K axis where gamma vanishes, the L K axis
    where beta vanishes, a line of finite slope otherwise.  A section of one
    summand lies in F exactly where the line is that summand's axis, so
    ker gamma is L^-2 K less the slots off its axis and F' is L K less the
    slots off its own.
    """
    slots = 4 * g - 4  # deg K^2, the zeros of the quadratic differential q
    if len(labels) != slots:
        raise LengthMismatchError(f"{len(labels)} labels for {slots} zeros of q")
    off_gamma_axis = sum(1 for v in labels if v is not Label.GAMMA)
    off_beta_axis = sum(1 for v in labels if v is not Label.BETA)
    return (2 * g - 2 + d) - off_beta_axis, (2 * g - 2 - 2 * d) - off_gamma_axis


def hecke_slope_class(g: int, d: int, labels: Sequence[Label]) -> StabilityClass:
    """Slope stability of L + F, of degree 0, from its two phi-invariant
    subbundles that can destabilize it: L + F' and 0 + ker gamma."""
    f_prime, ker_gamma = hecke_subbundle_degrees(g, d, labels)
    degrees = (d + f_prime, ker_gamma)
    if max(degrees) < 0:
        return StabilityClass.STABLE
    if degrees == (0, 0):
        return StabilityClass.STRICTLY_POLYSTABLE
    if max(degrees) == 0:
        return StabilityClass.SEMISTABLE_NOT_POLYSTABLE
    return StabilityClass.UNSTABLE


# the census as the face lattice of the hypersimplex (stability)


def _rank(rows: list[list[int]]) -> int:
    """The rank of an integer matrix, by fraction-free elimination."""
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        k = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if k is None:
            continue
        rows[rank], rows[k] = rows[k], rows[rank]
        pivot = rows[rank]
        rank += 1
        for k in range(rank, len(rows)):
            r = [x * pivot[col] - y * rows[k][col] for x, y in zip(rows[k], pivot)]
            g = gcd(*r)
            rows[k] = [x // g for x in r] if g else r
    return rank


def hypersimplex_f_vector(N: int, n: int) -> list[int]:
    """f_j, the number of faces of dimension j for j = 0 .. N - 1, of the
    hypersimplex Delta(n, N) = {x in [0, 1]^N : sum x = n}, 0 < n < N.

    Brute force over the 0/1 vertices.  A face of Delta(n, N) fixes some
    coordinates at 1 and some at 0, and the functional in {-1, 0, 1}^N that
    is +1 on the first and -1 on the second is largest exactly on it; so
    the faces are the distinct sets of vertices where one of the 3^N such
    functionals is largest.  A face's dimension is the rank of the vectors
    v - v0 between its vertices.  Neither classify_counts nor the census
    recurrence is read; the torus orbits of the quotient (P^1)^N //_n C^*
    are these faces (Gelfand, Goresky, MacPherson and Serganova 1987;
    Fulton, Introduction to Toric Varieties, section 3.1).
    """
    vertices = [v for v in product((0, 1), repeat=N) if sum(v) == n]
    ones = [[i for i in range(N) if v[i]] for v in vertices]
    faces = set()
    for c in product((-1, 0, 1), repeat=N):
        values = [sum(c[i] for i in s) for s in ones]
        top = max(values)
        faces.add(frozenset(k for k, x in enumerate(values) if x == top))
    f = [0] * N
    for face in faces:
        v0, *rest = (vertices[k] for k in face)
        f[_rank([[x - y for x, y in zip(v, v0)] for v in rest])] += 1
    return f


def e_polynomial(f: Sequence[int]) -> list[int]:
    """The coefficients, constant first, of sum_j f_j (q - 1)^j: the
    E-polynomial of the toric variety whose orbits of dimension j number f_j."""
    coeffs = [0] * len(f)
    power = [1]  # (q - 1)^j
    for f_j in f:
        for i, c in enumerate(power):
            coeffs[i] += f_j * c
        power = [a - b for a, b in zip([0, *power], [*power, 0])]
    return coeffs


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


def mark_slots(c: Configuration) -> tuple[frozenset[int], frozenset[int]]:
    """The [0:1] slots and the [1:0] slots, read point by point;
    configuration.mark_data keeps only their counts."""
    zeros = frozenset(j for j, p in enumerate(c.points) if p.is_zero())
    infs = frozenset(j for j, p in enumerate(c.points) if p.is_infinity())
    return zeros, infs


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


def _check_monomial(m: Sequence[int], lin: Linearization, r: int) -> None:
    if len(m) != lin.N:
        raise LengthMismatchError(f"exponent vector has {len(m)} slots, expected {lin.N}")
    for j, mj in enumerate(m):
        if not 0 <= mj <= lin.N * r:
            raise ValueError(f"exponent m[{j}] = {mj} outside [0, {lin.N * r}]")


def is_invariant(m: Sequence[int], lin: Linearization, r: int = 1) -> bool:
    """Torus invariance is the balancing condition sum(m) == N*r*n."""
    _check_monomial(m, lin, r)
    return sum(m) == lin.N * r * lin.n


def saturated_slots(
    m: Sequence[int], lin: Linearization, r: int = 1
) -> tuple[frozenset[int], frozenset[int]]:
    """Slots at the top exponent N*r and at the bottom exponent 0."""
    _check_monomial(m, lin, r)
    top = frozenset(j for j, mj in enumerate(m) if mj == lin.N * r)
    bottom = frozenset(j for j, mj in enumerate(m) if mj == 0)
    return top, bottom


def monomial_nonvanishing(
    m: Sequence[int], c: Configuration, lin: Linearization, r: int = 1
) -> bool:
    """Nonvanishing at c: every [0:1] slot saturated top, every [1:0] slot bottom."""
    _check_monomial(m, lin, r)
    if c.size != lin.N:
        raise LengthMismatchError(f"configuration has {c.size} slots, expected {lin.N}")
    zeros, infs = mark_slots(c)
    return all(m[j] == lin.N * r for j in zeros) and all(m[j] == 0 for j in infs)


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


# series and matrices (exact)


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
    return series_from_coeffs(coeffs, len(coeffs) if order is None else order)


def series_from_coeffs(values: Iterable[ScalarLike], order: int) -> TruncatedSeries:
    """The series with the given leading coefficients, zero-padded to the
    order, as a sum of monomials.  An order below 1, or one too small to
    hold every coefficient, raises ValueError."""
    coeffs = list(values)
    if len(coeffs) > order:
        raise ValueError(f"{len(coeffs)} coefficients exceed order {order}")
    total = TruncatedSeries.zero(order)
    for k, c in enumerate(coeffs):
        total = total + TruncatedSeries.monomial(k, order, c)
    return total


def matrix_inverse(m: Mat2) -> Mat2:
    """adj(m) / det(m); defined iff the determinant is a unit."""
    d = m.det()
    if not d.is_unit():
        raise NonUnitError("matrix determinant is not a unit")
    dinv = d.inverse()
    (a, b), (c, e) = m.adjugate().entries
    return Mat2(((a * dinv, b * dinv), (c * dinv, e * dinv)))


# the dictionary through the local model (local_model)


def vanishing_counts(c: Configuration) -> tuple[int, int]:
    """(d_beta, d_gamma) read slot by slot through the Hecke data.

    Each slot's point is the Hecke parameter there: its kernel frame gives
    beta and gamma, and a component counts at the slot when both of its
    constant terms vanish.  Order 2 suffices, since only constant terms
    are read.
    """
    d_beta = d_gamma = 0
    for point in c.points:
        h = higgs_from_kernel_frame(hecke_frame(point, 2))
        d_beta += all(s.constant_term.is_zero() for s in h.beta)
        d_gamma += all(s.constant_term.is_zero() for s in h.gamma)
    return d_beta, d_gamma


# the torus action through the local model (configuration, local_model)


def is_zeta_times_unit(m: Mat2) -> bool:
    """Whether m = zeta * U with U invertible: every constant term of m
    vanishes and the zeta^1 coefficients form an invertible matrix."""
    if any(not e.constant_term.is_zero() for row in m.entries for e in row):
        return False
    return Mat2(tuple(tuple(e.div_zeta() for e in row) for row in m.entries)).is_unit()


def torus_acts_as_gauge(point: FiberPoint, scale: ScalarLike, order: int) -> bool:
    """Whether the torus acts on one slot's Hecke data as the gauge D = diag(1, scale).

    Let F = hecke_frame(point) and F' the frame at the point that
    act(scale, .) makes of it.  D carries the kernel at the point onto the
    kernel at the moved point, so adj(F') D F D^-1 is zeta times a unit,
    as F' adj(F') is zeta.  At [t:1] the gauge is exact: D F D^-1 = F'.
    """
    one = TruncatedSeries.one(order)
    s = Scalar.of(scale)
    d = Mat2.diag(one, TruncatedSeries.constant(s, order))
    d_inv = Mat2.diag(one, TruncatedSeries.constant(s.inverse(), order))
    gauged = d @ hecke_frame(point, order) @ d_inv
    moved = hecke_frame(act(s, Configuration.of("L0", [point])).points[0], order)
    if point.is_finite() and gauged != moved:
        return False
    return is_zeta_times_unit(moved.adjugate() @ gauged)
