"""Local models of simple Hecke modifications and Higgs normal forms.

Everything here happens over the truncated local ring R = Q(sqrt2)[[zeta]]
mod zeta^T at one marked point.  A point [x0:x1] of P^1, the configuration's
FiberPoint, is the Hecke parameter there: the evaluation map
(f0, f1) -> x0 f0(0) + x1 f1(0) on the rank-2 fiber cuts out the modified
sheaf as its kernel.  The kernel is free, and hecke_frame writes down a 2x2
frame of it whose determinant is exactly zeta by construction, with no
normalization step.  Its rows are the two Higgs components:

    eps = [[f2, -f1], [g1, g2]],   beta = (f1, f2),  gamma = (g1, g2),

so gamma . beta = det(eps) = zeta, a simple zero.  The point is visible in
the constant terms: gamma vanishes at the marked point iff the point is
[0:1], beta vanishes iff it is [1:0].

smith_form reduces any 2x2 matrix with determinant exactly zeta to
diag(1, zeta) by unit row/column operations, constructively.  All checks
are exact identities at order T.
"""

from __future__ import annotations

from random import Random
from typing import Callable

from .configuration import FiberPoint
from .errors import (
    HeckeDatumError,
    InternalInconsistencyError,
    SmithPreconditionError,
)
from .exact import DEFAULT_ORDER, Mat2, Scalar, SeriesPair, TruncatedSeries, product_coeff
from .frozen import Frozen

ScalarMat = tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]
ScalarVec = tuple[Scalar, Scalar]


# evaluation at a point of P^1


def evaluate(point: FiberPoint, section: SeriesPair) -> Scalar:
    """Value x0 f0(0) + x1 f1(0) of the evaluation map at [x0:x1] on a local
    section pair, with [x0:x1] = [t:1], [0:1] or [1:0].  The homogeneous
    coordinates fix the value only up to scale, so only its vanishing means
    anything."""
    f0, f1 = section[0].constant_term, section[1].constant_term
    if point.is_zero():
        return f1
    if point.is_infinity():
        return f0
    return point.t * f0 + f1


# kernel frames and the Higgs components


def hecke_frame(point: FiberPoint, order: int = DEFAULT_ORDER) -> Mat2:
    """Frame of the kernel of the evaluation map at [x0:x1], with determinant zeta.

    The columns are free generators of the kernel.  At [t:1] they are
    (1, -t) and (0, zeta): the frame [[1, 0], [-t, zeta]] is lower
    triangular with diagonal 1, zeta, and [0:1] is the case t = 0.  At
    [1:0] they are (0, 1) and (-zeta, 0): the frame [[0, -zeta], [1, 0]]
    has determinant 0 * 0 - (-zeta) * 1.  Either way the determinant is
    zeta exactly, a simple zero, so the frame needs no normalization.
    """
    if order < 2:
        raise ValueError("truncation order must be >= 2 to represent zeta")
    one = TruncatedSeries.one(order)
    zero = TruncatedSeries.zero(order)
    zeta = TruncatedSeries.zeta(order)
    if point.is_infinity():
        return Mat2(((zero, -zeta), (one, zero)))
    slope = zero if point.is_zero() else TruncatedSeries.constant(-point.t, order)
    return Mat2(((one, zero), (slope, zeta)))


class LocalHiggs(Frozen):
    """The two Higgs components at the marked point, beta a column and
    gamma a row, with gamma . beta = zeta for a simple modification."""

    beta: SeriesPair
    gamma: SeriesPair

    __slots__ = ("beta", "gamma")

    def __init__(self, beta: SeriesPair, gamma: SeriesPair) -> None:
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

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


def higgs_vanishing_matches_point(point: FiberPoint, h: LocalHiggs) -> bool:
    """The component vanishing pattern at zeta = 0 determined by the point:
    gamma(0) = 0 iff the point is [0:1], beta(0) = 0 iff it is [1:0]."""
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
    coefficient of a zeta-quotient, so det Q = a*c2 - b*c1 is 1 plus a
    defect at zeta^(T-1), one coefficient that product_coeff reads and c2
    absorbs.  is_smith_pair is the one exactness check: det Q == 1 and
    P @ phi @ Q == diag(1, zeta).
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

    # the zeta^(T-1) coefficient of a*c2 - b*c1 is the truncation defect of
    # the zeta-quotients; pushed into c2, it leaves det Q == 1 to is_smith_pair
    defect = product_coeff(a, c2, T - 1) - product_coeff(b, c1, T - 1)
    if not defect.is_zero():
        c2 = c2 - TruncatedSeries.monomial(T - 1, T, defect / a0)

    one = TruncatedSeries.one(T)
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
    holds iff P @ phi == diag(1, zeta) @ adj(Q), which is adj(Q) with its
    second row times zeta: for a constant P, one dense determinant and sparse
    products instead of two dense products.
    """
    one, zeta = TruncatedSeries.one(phi.order), TruncatedSeries.zeta(phi.order)
    top, (c, d) = q.adjugate().entries
    return q.det() == one and p @ phi == Mat2((top, (c * zeta, d * zeta)))


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


def contraction_is_natural(ell: ScalarVec, wedge: Scalar, mu: ScalarMat) -> bool:
    """Whether the change-of-basis square for an invertible mu commutes.

    The square reads: pulling ell back through mu, dividing the wedge by
    det(mu), contracting, and pushing forward through mu reproduces the
    direct contraction.
    """
    det_mu = _scalar_mat_det(mu)
    if det_mu.is_zero():
        raise ValueError("naturality requires an invertible change of basis")
    pulled = _covector_pullback(ell, mu)
    routed = _scalar_mat_apply(mu, dual_wedge_contraction(pulled, Scalar.of(wedge) / det_mu))
    return routed == dual_wedge_contraction(ell, wedge)


# the sigma-frame normal form


def _normal_form_data(order: int) -> tuple[FiberPoint, Mat2, LocalHiggs]:
    inv_rt2 = TruncatedSeries.constant(Scalar.sqrt2().inverse(), order)
    zeta = TruncatedSeries.zeta(order)
    eta1 = (zeta * inv_rt2, zeta * inv_rt2)
    eta2 = (-inv_rt2, inv_rt2)
    eps = Mat2.from_cols(eta1, eta2)
    return FiberPoint.finite(1), eps, higgs_from_kernel_frame(eps)


def normal_form_check(order: int) -> tuple[tuple[str, bool], ...]:
    """Exact verification of the sigma-frame normal form at one point.

    In the frames sigma1, sigma2 normalized by s0^3 = b the kernel basis is
    eta1 = (zeta/sqrt2)(sigma1 + sigma2), eta2 = (1/sqrt2)(-sigma1 + sigma2),
    giving the frame (1/sqrt2) [[zeta, -1], [zeta, 1]] with determinant
    zeta, beta = (1/sqrt2)(1, zeta), gamma = (1/sqrt2)(zeta, 1), and
    gamma . beta = zeta.  The scale b only fixes the frames and cancels
    from every datum checked, so this one check at an order stands for
    every b != 0.  Returns the named identities with whether each holds.
    """
    if order < 2:
        raise ValueError("truncation order must be >= 2 to represent zeta")

    point, eps, higgs = _normal_form_data(order)
    zeta = TruncatedSeries.zeta(order)
    inv_rt2 = TruncatedSeries.constant(Scalar.sqrt2().inverse(), order)
    return (
        (
            "kernel_membership",
            evaluate(point, eps.col(0)).is_zero() and evaluate(point, eps.col(1)).is_zero(),
        ),
        ("determinant_is_zeta", eps.det() == zeta),
        ("beta_normal_form", higgs.beta == (inv_rt2, zeta * inv_rt2)),
        ("gamma_normal_form", higgs.gamma == (zeta * inv_rt2, inv_rt2)),
        ("gamma_beta_is_zeta", higgs.gamma_beta() == zeta),
    )


# randomized self-verification, shared by the test suite and the CLI


def _random_ratios(rng: Random) -> tuple[int, int, int, int]:
    """(p, q, r, s) for p/q + (r/s)*sqrt2, with an irrational part half the time.

    p, r on -9..9 and q, s on 1..9 are drawn as randint draws them, by
    getrandbits of the range's bit length, redrawn while past the range, so
    the values and the rng state are randint's; tests/draw_reference.py is
    the randint oracle that pins this stream.
    """
    bits = rng.getrandbits
    while (p := bits(5)) >= 19:
        pass
    while (q := bits(4)) >= 9:
        pass
    if rng.random() >= 0.5:
        return p - 9, q + 1, 0, 1
    while (r := bits(5)) >= 19:
        pass
    while (s := bits(4)) >= 9:
        pass
    return p - 9, q + 1, r - 9, s + 1


def random_scalar(rng: Random, *, nonzero: bool = False) -> Scalar:
    while True:
        s = Scalar.from_ratios(*_random_ratios(rng))
        if not (nonzero and s.is_zero()):
            return s


def random_series(rng: Random, order: int) -> TruncatedSeries:
    """order coefficients drawn as random_scalar draws them, from the same rng calls."""
    return TruncatedSeries.from_ratios([_random_ratios(rng) for _ in range(order)])


def random_sl2_matrix(rng: Random, order: int) -> Mat2:
    """Random matrix with determinant exactly 1: the shear product
    L(x) W L(z) U(y) = [[-z, -(zy + 1)], [1 - xz, (1 - xz)y - x]] for drawn
    series x, z, y, with L(x) = [[1, 0], [x, 1]], U(y) = [[1, y], [0, 1]]
    and W = [[0, -1], [1, 0]].  The top-left -z has constant term 0 as
    often as random_scalar draws 0, about 1 in 36, which keeps smith_form's
    row and column shears in the suite's draws; the top-left 1 + yz of
    L(x) U(y) L(z) would vanish at zeta = 0 far more rarely.
    """
    x, z, y = (random_series(rng, order) for _ in range(3))
    one = TruncatedSeries.one(order)
    w = one - x * z
    return Mat2(((-z, -(z * y + one)), (w, w * y - x)))


def random_det_zeta_matrix(rng: Random, order: int) -> Mat2:
    """Random matrix with determinant exactly zeta: S1 diag(1, zeta) S2 with
    S1, S2 drawn by random_sl2_matrix, the Smith form read backwards.  The
    determinant is 1 * zeta * 1 by construction, so nothing is normalized.

    S1 = L(x) W L(z) U(y) is never formed.  Its series x, z, y are drawn
    first, as random_sl2_matrix would draw them, then S2.  Starting from
    diag(1, zeta) S2, which is S2 with row 1 times zeta, the factors of S1
    apply as row operations from the right end: row 0 += y row 1, then
    row 1 += z row 0, then (row 0, row 1) -> (-row 1, row 0), then
    row 1 += x row 0.  That is six dense series products instead of the
    three of S1 and the eight of a matrix product.
    """
    x, z, y = (random_series(rng, order) for _ in range(3))
    (a, b), (c, d) = random_sl2_matrix(rng, order).entries
    zeta = TruncatedSeries.zeta(order)
    c, d = c * zeta, d * zeta
    a, b = a + y * c, b + y * d
    c, d = c + z * a, d + z * b
    a, b, c, d = -c, -d, a, b
    return Mat2(((a, b), (c + x * a, d + x * b)))


def random_point(rng: Random) -> FiberPoint:
    shape = rng.choice(["zero", "inf", "finite"])
    if shape == "zero":
        return FiberPoint.zero()
    if shape == "inf":
        return FiberPoint.infinity()
    return FiberPoint.finite(random_scalar(rng, nonzero=True))


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
        point = random_point(rng)
        where = f"case {k}, point {point}"
        eps = hecke_frame(point, order)
        _require(
            evaluate(point, eps.col(0)).is_zero() and evaluate(point, eps.col(1)).is_zero(),
            f"{where}: a frame column leaves the kernel",
        )
        _require(eps.det() == zeta, f"{where}: frame determinant != zeta")
        h = higgs_from_kernel_frame(eps)
        _require(h.gamma_beta() == zeta, f"{where}: gamma . beta != zeta")
        _require(
            higgs_vanishing_matches_point(point, h),
            f"{where}: vanishing pattern does not match the point type",
        )
        _require(kernel_frame_from_higgs(h) == eps, f"{where}: frame does not round-trip")
    return f"{cases} covectors round-tripped at order {order}"


def _check_normal_form(rng: Random, order: int, cases: int) -> str:
    # b cancels from every checked datum, so one check stands for every scale b
    failed = [name for name, ok in normal_form_check(order) if not ok]
    _require(not failed, f"order {order}: {', '.join(failed)} failed")
    return f"{cases} frame normalizations at order {order}"


def _check_contraction_naturality(rng: Random, order: int, cases: int) -> str:
    # the images of the basis covectors at wedge 1 assemble to a matrix of
    # determinant 1: the induced map on wedge squares is the identity
    one, zero = Scalar.one(), Scalar.zero()
    basis_images = (
        dual_wedge_contraction((one, zero), one),
        dual_wedge_contraction((zero, one), one),
    )
    det = _scalar_mat_det(basis_images)
    _require(det == one, f"determinant identification failed: the basis images have det {det}")
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
        _require(contraction_is_natural(ell, wedge, mu), f"case {k}: naturality failed")
    diag_2_1 = ((Scalar.of(2), zero), (zero, one))
    _require(
        basis_images[0] == (zero, -one)
        and contraction_is_natural((one, zero), one, diag_2_1),
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


def verification_suite(order: int, seed: int, cases: int) -> dict:
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
