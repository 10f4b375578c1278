"""Local models of simple Hecke modifications and Higgs normal forms.

Everything here happens over the truncated local ring R = Q(sqrt2)[[zeta]]
mod zeta^T at one marked point.  A covector xi on the rank-2 fiber cuts out
the modified sheaf as the kernel of the evaluation map; the kernel is free,
and hecke_frame writes down a 2x2 frame of it whose determinant is exactly
zeta by construction, with no normalization step.  Its rows are the two
Higgs components:

    eps = [[f2, -f1], [g1, g2]],   beta = (f1, f2),  gamma = (g1, g2),

so gamma . beta = det(eps) = zeta, a simple zero.  The position of the
covector on P^1 is visible in the constant terms: gamma vanishes at the
point iff xi sits at [0:1], beta vanishes iff xi sits at [1:0].

smith_form reduces any 2x2 matrix with determinant exactly zeta to
diag(1, zeta) by unit row/column operations, constructively.  All checks
are exact identities at order T.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Optional

from .configuration import FiberPoint
from .errors import (
    HeckeDatumError,
    InternalInconsistencyError,
    OrderMismatchError,
    SmithPreconditionError,
)
from .exact import DEFAULT_ORDER, Mat2, Scalar, SeriesPair, TruncatedSeries

ScalarMat = tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]
ScalarVec = tuple[Scalar, Scalar]


# evaluation covectors


@dataclass(frozen=True)
class EvaluationCovector:
    """Covector (xi0, xi1) on the rank-2 fiber at the marked point.

    Only the spanned line matters, so the constructor normalizes the first
    nonzero component to 1.  The components double as the homogeneous
    coordinates [xi0 : xi1] of the corresponding fiber point.
    """

    xi0: Scalar
    xi1: Scalar

    def __post_init__(self) -> None:
        xi0, xi1 = Scalar.of(self.xi0), Scalar.of(self.xi1)
        if xi0.is_zero() and xi1.is_zero():
            raise ValueError("the zero covector spans no line")
        scale = xi0.inverse() if not xi0.is_zero() else xi1.inverse()
        object.__setattr__(self, "xi0", scale * xi0)
        object.__setattr__(self, "xi1", scale * xi1)

    def fiber_point(self) -> FiberPoint:
        if self.xi0.is_zero():
            return FiberPoint.zero()
        if self.xi1.is_zero():
            return FiberPoint.infinity()
        return FiberPoint.finite(self.xi0 / self.xi1)


def evaluate(xi: EvaluationCovector, section: SeriesPair) -> Scalar:
    """Value of the covector on a local section pair: xi0 f0(0) + xi1 f1(0)."""
    return xi.xi0 * section[0].constant_term + xi.xi1 * section[1].constant_term


# kernel frames and the Higgs components


def hecke_frame(xi: EvaluationCovector, order: int = DEFAULT_ORDER) -> Mat2:
    """Frame of the kernel of the evaluation map at xi, with determinant zeta.

    The columns are free generators of the kernel.  For xi1 != 0 they are
    (1, -xi0/xi1) and (0, zeta): the frame [[1, 0], [-xi0/xi1, zeta]] is
    lower triangular with diagonal 1, zeta.  For xi1 == 0 they are (0, 1)
    and (-zeta, 0): the frame [[0, -zeta], [1, 0]] has determinant
    0 * 0 - (-zeta) * 1.  Either way the determinant is zeta exactly, a
    simple zero, so the frame needs no normalization.
    """
    if order < 2:
        raise ValueError("truncation order must be >= 2 to represent zeta")
    one = TruncatedSeries.one(order)
    zero = TruncatedSeries.zero(order)
    zeta = TruncatedSeries.zeta(order)
    if xi.xi1.is_zero():
        return Mat2(((zero, -zeta), (one, zero)))
    slope = TruncatedSeries.constant(-(xi.xi0 / xi.xi1), order)
    return Mat2(((one, zero), (slope, zeta)))


@dataclass(frozen=True)
class LocalHiggs:
    """The two Higgs components at the marked point, beta a column and
    gamma a row, with gamma . beta = zeta for a simple modification."""

    beta: SeriesPair
    gamma: SeriesPair

    def __post_init__(self) -> None:
        orders = {s.order for s in (*self.beta, *self.gamma)}
        if len(orders) != 1:
            raise OrderMismatchError(f"mixed truncation orders: {sorted(orders)}")

    @property
    def order(self) -> int:
        return self.beta[0].order

    def gamma_beta(self) -> TruncatedSeries:
        return self.gamma[0] * self.beta[0] + self.gamma[1] * self.beta[1]


def higgs_from_kernel_frame(eps: Mat2) -> LocalHiggs:
    """Read beta and gamma off a det = zeta frame: eps = [[f2, -f1], [g1, g2]]."""
    if eps.det() != TruncatedSeries.zeta(eps.order):
        raise HeckeDatumError("frame determinant must equal zeta exactly")
    beta = (-eps[0][1], eps[0][0])
    gamma = (eps[1][0], eps[1][1])
    return LocalHiggs(beta, gamma)


def kernel_frame_from_higgs(h: LocalHiggs) -> Mat2:
    """Inverse packing of higgs_from_kernel_frame."""
    return Mat2(((h.beta[1], -h.beta[0]), (h.gamma[0], h.gamma[1])))


def higgs_vanishing_matches_point(xi: EvaluationCovector, h: LocalHiggs) -> bool:
    """The component vanishing pattern at zeta = 0 determined by the point:
    gamma(0) = 0 iff the point is [0:1], beta(0) = 0 iff it is [1:0]."""
    point = xi.fiber_point()
    beta_vanishes = h.beta[0].constant_term.is_zero() and h.beta[1].constant_term.is_zero()
    gamma_vanishes = (
        h.gamma[0].constant_term.is_zero() and h.gamma[1].constant_term.is_zero()
    )
    if point.is_zero():
        return gamma_vanishes and not beta_vanishes
    if point.is_infinity():
        return beta_vanishes and not gamma_vanishes
    return not beta_vanishes and not gamma_vanishes


# Smith reduction


def smith_form(phi: Mat2) -> tuple[Mat2, Mat2]:
    """Matrices (P, Q) of determinant exactly 1 with P @ phi @ Q == diag(1, zeta).

    Requires det(phi) == zeta exactly.  Then phi(0) is a nonzero matrix of
    rank one, so some entry has a unit constant term, and at most two
    shears bring one to the top-left: add row 1 to row 0 if row 0 has no
    unit entry, then column 1 to column 0 if the top-left is still not a
    unit.  The top-left constant clears the constant terms of row 1, and Q
    is the adjugate-style completion built from the zeta-quotients of that
    cleared row.  Shears, the clearing step and the completion all have
    determinant one, so P and Q do too.  Truncation loses the top
    coefficient of a zeta-quotient, so one coefficient of the completion
    is corrected.  is_smith_pair checks the result exactly, in adjugate form.
    """
    T = phi.order
    if T < 2:
        raise SmithPreconditionError("truncation order must be >= 2 to represent zeta")
    zeta = TruncatedSeries.zeta(T)
    if phi.det() != zeta:
        raise SmithPreconditionError("determinant must equal zeta exactly")

    (a, b), (c, d) = phi.entries
    row_shear = not (a.is_unit() or b.is_unit())
    if row_shear:  # P gains the factor [[1, 1], [0, 1]]
        a, b = a + c, b + d
    col_shear = not a.is_unit()
    if col_shear:  # Q gains the factor [[1, 0], [1, 1]]
        a, c = a + b, c + d
    if not a.is_unit():
        raise InternalInconsistencyError("det = zeta forces a unit constant term")

    a0 = a.constant_term
    s = TruncatedSeries.constant(-(c.constant_term / a0), T)
    c1 = (c + s * a).div_zeta()  # row 1 plus s times row 0 vanishes at zeta = 0
    c2 = (d + s * b).div_zeta()

    # a*c2 - b*c1 - 1 vanishes below zeta^(T-1); the top coefficient is the
    # truncation defect of the zeta-quotients and is pushed into c2
    one = TruncatedSeries.one(T)
    err = a * c2 - b * c1 - one
    if any(not err[k].is_zero() for k in range(T - 1)):
        raise InternalInconsistencyError("cleared row failed the determinant identity")
    defect = err[T - 1]
    if not defect.is_zero():
        c2 = c2 - TruncatedSeries.monomial(T - 1, T, defect / a0)

    if row_shear:
        p = Mat2(((one, one), (s, s + one)))
    else:
        p = Mat2(((one, TruncatedSeries.zero(T)), (s, one)))
    if col_shear:
        q = Mat2(((c2, -b), (c2 - c1, a - b)))
    else:
        q = Mat2(((c2, -b), (-c1, a)))
    if not is_smith_pair(phi, p, q):
        raise InternalInconsistencyError("Smith reduction lost exactness")
    return p, q


def is_smith_pair(phi: Mat2, p: Mat2, q: Mat2) -> bool:
    """Whether P @ phi @ Q == diag(1, zeta) and det Q == 1, exactly.

    As R is commutative and det Q == 1, Q @ adj(Q) == 1 and the identity
    holds iff P @ phi == diag(1, zeta) @ adj(Q): for a constant P, one dense
    determinant and sparse products instead of two dense products.
    """
    one, zeta = TruncatedSeries.one(phi.order), TruncatedSeries.zeta(phi.order)
    return q.det() == one and p @ phi == Mat2.diag(one, zeta) @ q.adjugate()


# the canonical dual-wedge contraction


def dual_wedge_contraction(ell: ScalarVec, wedge: Scalar) -> ScalarVec:
    """Contraction (ell, s1^s2-coefficient w) -> w*(ell(s2) s1 - ell(s1) s2).

    This is the canonical identification of dual-tensor-determinant data
    with the rank-2 fiber itself; on basis covectors it is the matrix
    [[0, 1], [-1, 0]] up to the wedge factor.
    """
    w = Scalar.of(wedge)
    return (w * Scalar.of(ell[1]), -(w * Scalar.of(ell[0])))


def _scalar_mat_det(mu: ScalarMat) -> Scalar:
    return mu[0][0] * mu[1][1] - mu[0][1] * mu[1][0]


def _scalar_mat_apply(mu: ScalarMat, v: ScalarVec) -> ScalarVec:
    return (mu[0][0] * v[0] + mu[0][1] * v[1], mu[1][0] * v[0] + mu[1][1] * v[1])


def _covector_pullback(ell: ScalarVec, mu: ScalarMat) -> ScalarVec:
    # (ell . mu): value of the pulled-back covector on basis vectors
    return (
        ell[0] * mu[0][0] + ell[1] * mu[1][0],
        ell[0] * mu[0][1] + ell[1] * mu[1][1],
    )


@dataclass(frozen=True)
class ContractionReport:
    image: ScalarVec
    basis_images: tuple[ScalarVec, ScalarVec]
    determinant_identification: Scalar
    naturality_holds: Optional[bool]

    def all_passed(self) -> bool:
        det_ok = self.determinant_identification == Scalar.one()
        return det_ok and self.naturality_holds is not False


def contraction_report(
    ell: ScalarVec, wedge: Scalar, mu: Optional[ScalarMat] = None
) -> ContractionReport:
    """Evaluate the contraction, its determinant identification, and the
    change-of-basis naturality square for an optional invertible mu.

    The images of the two basis covectors assemble to a matrix of
    determinant 1, which is the statement that the induced map on wedge
    squares is the identity.  For mu the square reads: pulling ell back
    through mu, dividing the wedge by det(mu), contracting, and pushing
    forward through mu reproduces the direct contraction.
    """
    image = dual_wedge_contraction(ell, wedge)
    e0 = dual_wedge_contraction((Scalar.one(), Scalar.zero()), Scalar.one())
    e1 = dual_wedge_contraction((Scalar.zero(), Scalar.one()), Scalar.one())
    det_ident = e0[0] * e1[1] - e1[0] * e0[1]

    naturality: Optional[bool] = None
    if mu is not None:
        det_mu = _scalar_mat_det(mu)
        if det_mu.is_zero():
            raise ValueError("naturality requires an invertible change of basis")
        pulled = _covector_pullback(ell, mu)
        routed = _scalar_mat_apply(
            mu, dual_wedge_contraction(pulled, Scalar.of(wedge) / det_mu)
        )
        naturality = routed == image
    return ContractionReport(image, (e0, e1), det_ident, naturality)


# the sigma-frame normal form


@dataclass(frozen=True)
class NormalFormReport:
    frame_cube: Scalar
    order: int
    kernel_frame: Mat2
    higgs: LocalHiggs
    checks: tuple[tuple[str, bool], ...]

    def all_passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def _normal_form_data(order: int) -> tuple[EvaluationCovector, Mat2, LocalHiggs]:
    inv_rt2 = TruncatedSeries.constant(Scalar.sqrt2().inverse(), order)
    zeta = TruncatedSeries.zeta(order)
    eta1 = (zeta * inv_rt2, zeta * inv_rt2)
    eta2 = (-inv_rt2, inv_rt2)
    xi = EvaluationCovector(Scalar.one(), Scalar.one())
    eps = Mat2.from_cols(eta1, eta2)
    return xi, eps, higgs_from_kernel_frame(eps)


def _frame_cube(b) -> Scalar:
    b_scalar = Scalar.of(b)
    if b_scalar.is_zero():
        raise ValueError("the frame normalization s0^3 = b needs b != 0")
    return b_scalar


def normal_form_check(b, order: int = DEFAULT_ORDER) -> NormalFormReport:
    """Exact verification of the sigma-frame normal form at one point.

    In the frames sigma1, sigma2 normalized by s0^3 = b the kernel basis is
    eta1 = (zeta/sqrt2)(sigma1 + sigma2), eta2 = (1/sqrt2)(-sigma1 + sigma2),
    giving the frame (1/sqrt2) [[zeta, -1], [zeta, 1]] with determinant
    zeta, beta = (1/sqrt2)(1, zeta), gamma = (1/sqrt2)(zeta, 1), and
    gamma . beta = zeta.  The normalization scalar b only fixes the frame
    and cancels from every matrix: b enters none of the data checked, so
    one check of the frame at an order covers every admissible b.
    """
    b_scalar = _frame_cube(b)
    if order < 2:
        raise ValueError("truncation order must be >= 2 to represent zeta")

    xi, eps, higgs = _normal_form_data(order)
    zeta = TruncatedSeries.zeta(order)
    inv_rt2 = TruncatedSeries.constant(Scalar.sqrt2().inverse(), order)
    checks = []
    checks.append(
        (
            "kernel_membership",
            evaluate(xi, eps.col(0)).is_zero() and evaluate(xi, eps.col(1)).is_zero(),
        )
    )
    checks.append(("determinant_is_zeta", eps.det() == zeta))
    checks.append(("beta_normal_form", higgs.beta == (inv_rt2, zeta * inv_rt2)))
    checks.append(("gamma_normal_form", higgs.gamma == (zeta * inv_rt2, inv_rt2)))
    checks.append(("gamma_beta_is_zeta", higgs.gamma_beta() == zeta))
    return NormalFormReport(b_scalar, order, eps, higgs, tuple(checks))


# randomized self-verification, shared by the test suite and the CLI


def random_scalar(rng: Random, *, nonzero: bool = False) -> Scalar:
    while True:
        p, q = rng.randint(-9, 9), rng.randint(1, 9)
        r, t = (rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.5 else (0, 1)
        s = Scalar.from_ratios(p, q, r, t)
        if not (nonzero and s.is_zero()):
            return s


def random_series(rng: Random, order: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs([random_scalar(rng) for _ in range(order)], order)


def random_unit_matrix(rng: Random, order: int) -> Mat2:
    while True:
        m = Mat2(
            (
                (random_series(rng, order), random_series(rng, order)),
                (random_series(rng, order), random_series(rng, order)),
            )
        )
        if m.is_unit():
            return m


def random_det_zeta_matrix(rng: Random, order: int) -> Mat2:
    """Random matrix with determinant exactly zeta, via unit-sandwiched diag(1, zeta)."""
    a = random_unit_matrix(rng, order)
    b = random_unit_matrix(rng, order)
    unit = (a.det() * b.det()).inverse()
    b = b.scale_col(1, unit)
    phi = a.scale_col(1, TruncatedSeries.zeta(order)) @ b  # a @ diag(1, zeta) @ b
    if phi.det() != TruncatedSeries.zeta(order):
        raise InternalInconsistencyError("random determinant normalization failed")
    return phi


def random_covector(rng: Random) -> EvaluationCovector:
    shape = rng.choice(["zero", "inf", "finite"])
    if shape == "zero":
        return EvaluationCovector(Scalar.zero(), Scalar.one())
    if shape == "inf":
        return EvaluationCovector(Scalar.one(), Scalar.zero())
    return EvaluationCovector(random_scalar(rng, nonzero=True), Scalar.one())


def _require(ok: bool, detail: str) -> None:
    # an explicit raise, unlike a bare assert, still runs under python -O
    if not ok:
        raise AssertionError(detail)


def _check_smith_randomized(rng: Random, order: int, cases: int) -> str:
    for k in range(cases):
        phi = random_det_zeta_matrix(rng, order)
        p, q = smith_form(phi)
        _require(is_smith_pair(phi, p, q), f"case {k}: P @ phi @ Q != diag(1, zeta)")
        _require(p.is_unit() and q.is_unit(), f"case {k}: P or Q is not a unit")
    return f"{cases} randomized reductions at order {order}"


def _check_smith_worked_examples(rng: Random, order: int, cases: int) -> str:
    one = TruncatedSeries.one(order)
    zeta = TruncatedSeries.zeta(order)
    target = Mat2.diag(one, zeta)

    p, q = smith_form(target)
    _require(
        p == Mat2.identity(order) and q == Mat2.identity(order),
        "the already-diagonal input did not reduce by identities",
    )
    for name, phi in (
        ("swapped-diagonal", Mat2.diag(zeta, one)),
        ("dense", Mat2(((one + zeta, zeta), (zeta, zeta)))),
    ):
        p, q = smith_form(phi)
        _require(is_smith_pair(phi, p, q), f"the {name} input did not reduce to diag(1, zeta)")
    return "already-diagonal, swapped-diagonal, dense"


def _check_smith_rejects_bad_determinant(rng: Random, order: int, cases: int) -> str:
    zeta = TruncatedSeries.zeta(order)
    corrupted = Mat2.diag(zeta, zeta)  # det = zeta^2
    try:
        smith_form(corrupted)
    except SmithPreconditionError:
        return "det = zeta^2 rejected"
    raise AssertionError("corrupted determinant was not rejected")


def _check_hecke_round_trip(rng: Random, order: int, cases: int) -> str:
    zeta = TruncatedSeries.zeta(order)
    for k in range(cases):
        xi = random_covector(rng)
        where = f"case {k}, covector [{xi.xi0}:{xi.xi1}]"
        eps = hecke_frame(xi, order)
        _require(
            evaluate(xi, eps.col(0)).is_zero() and evaluate(xi, eps.col(1)).is_zero(),
            f"{where}: a frame column leaves the kernel",
        )
        _require(eps.det() == zeta, f"{where}: frame determinant != zeta")
        h = higgs_from_kernel_frame(eps)
        _require(h.gamma_beta() == zeta, f"{where}: gamma . beta != zeta")
        _require(
            higgs_vanishing_matches_point(xi, h),
            f"{where}: vanishing pattern does not match the point type",
        )
        _require(kernel_frame_from_higgs(h) == eps, f"{where}: frame does not round-trip")
    return f"{cases} covectors round-tripped at order {order}"


def _check_normal_form(rng: Random, order: int, cases: int) -> str:
    scales = [_frame_cube(random_scalar(rng, nonzero=True)) for _ in range(max(cases, 1))]
    # b enters no checked datum, so one frame check covers every b drawn
    failed = [name for name, ok in normal_form_check(scales[0], order).checks if not ok]
    _require(not failed, f"b = {scales[0]} at order {order}: {', '.join(failed)} failed")
    return f"{max(cases, 1)} frame normalizations at order {order}"


def _check_contraction_naturality(rng: Random, order: int, cases: int) -> str:
    for k in range(cases):
        while True:
            mu = (
                (random_scalar(rng), random_scalar(rng)),
                (random_scalar(rng), random_scalar(rng)),
            )
            if not _scalar_mat_det(mu).is_zero():
                break
        ell = (random_scalar(rng), random_scalar(rng))
        wedge = random_scalar(rng, nonzero=True)
        _require(
            contraction_report(ell, wedge, mu).all_passed(),
            f"case {k}: determinant identification or naturality failed",
        )
    canonical = contraction_report(
        (Scalar.one(), Scalar.zero()),
        Scalar.one(),
        ((Scalar.of(2), Scalar.zero()), (Scalar.zero(), Scalar.one())),
    )
    _require(
        canonical.image == (Scalar.zero(), -Scalar.one()) and canonical.all_passed(),
        "the basis covector (1, 0) under diag(2, 1) contracts wrongly",
    )
    return f"{cases} random changes of basis"


_SUITE: tuple[tuple[str, Callable[[Random, int, int], str]], ...] = (
    ("smith_randomized", _check_smith_randomized),
    ("smith_worked_examples", _check_smith_worked_examples),
    ("smith_rejects_bad_determinant", _check_smith_rejects_bad_determinant),
    ("hecke_round_trip", _check_hecke_round_trip),
    ("normal_form", _check_normal_form),
    ("contraction_naturality", _check_contraction_naturality),
)


def verification_suite(order: int = DEFAULT_ORDER, seed: int = 0, cases: int = 50) -> dict:
    """Run every local-model check deterministically; machine-readable result."""
    if order < 2:
        raise ValueError("truncation order must be >= 2 to represent zeta")
    if cases < 1:
        raise ValueError("cases must be >= 1")
    results = []
    for name, check in _SUITE:
        rng = Random(f"{seed}:{name}")
        try:
            detail = check(rng, order, cases)
            results.append({"name": name, "passed": True, "detail": detail})
        except AssertionError as exc:
            results.append({"name": name, "passed": False, "detail": str(exc)})
        except Exception as exc:  # surfaced precondition violations and the like
            results.append(
                {"name": name, "passed": False, "detail": f"{type(exc).__name__}: {exc}"}
            )
    return {
        "order": order,
        "seed": seed,
        "cases": cases,
        "checks": results,
        "all_passed": all(r["passed"] for r in results),
    }
