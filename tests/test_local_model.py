"""Hecke kernel frames, Smith reduction, contraction, and normal forms."""

from random import Random

import pytest

from su12fiber.configuration import FiberPoint
from su12fiber.errors import HeckeDatumError, SmithPreconditionError
from su12fiber.exact import DEFAULT_ORDER, Mat2, Scalar, TruncatedSeries
from su12fiber import local_model
from su12fiber.local_model import (
    ContractionReport,
    EvaluationCovector,
    contraction_report,
    dual_wedge_contraction,
    evaluate,
    hecke_frame,
    hecke_kernel,
    higgs_from_kernel_frame,
    higgs_vanishing_matches_point,
    kernel_frame_matrix,
    normal_form_check,
    random_covector,
    random_det_zeta_matrix,
    smith_form,
    verification_suite,
)

T = DEFAULT_ORDER
ONE = TruncatedSeries.one(T)
ZERO = TruncatedSeries.zero(T)
ZETA = TruncatedSeries.zeta(T)
TARGET = Mat2.diag(ONE, ZETA)


def sc(x) -> Scalar:
    return Scalar.of(x)


# covectors


def test_covector_normalizes_first_nonzero_component():
    xi = EvaluationCovector(sc(3), sc(6))
    assert xi.xi0 == Scalar.one() and xi.xi1 == sc(2)
    xi = EvaluationCovector(sc(0), sc(-5))
    assert xi.xi0 == Scalar.zero() and xi.xi1 == Scalar.one()


def test_zero_covector_rejected():
    with pytest.raises(ValueError):
        EvaluationCovector(sc(0), sc(0))


def test_covector_fiber_point_round_trip():
    for p in (FiberPoint.zero(), FiberPoint.infinity(), FiberPoint.finite(sc(7))):
        assert EvaluationCovector.from_fiber_point(p).fiber_point() == p
    # scaling the homogeneous coordinates changes nothing
    assert EvaluationCovector(sc(14), sc(2)).fiber_point() == FiberPoint.finite(sc(7))


# kernel generators


def test_kernel_generators_match_construction():
    g1, g2 = hecke_kernel(EvaluationCovector(sc(1), sc(1)), T)
    assert g1 == (ONE, -ONE) and g2 == (ZERO, ZETA)
    g1, g2 = hecke_kernel(EvaluationCovector(sc(0), sc(1)), T)
    assert g1 == (ONE, ZERO) and g2 == (ZERO, ZETA)
    g1, g2 = hecke_kernel(EvaluationCovector(sc(1), sc(0)), T)
    assert g1 == (ZERO, ONE) and g2 == (ZETA, ZERO)


def test_generators_evaluate_to_zero():
    rng = Random(11)
    for _ in range(40):
        xi = random_covector(rng)
        for gen in hecke_kernel(xi, T):
            assert evaluate(xi, gen).is_zero()


def test_frame_normalization_divides_out_the_unit():
    # the [1:0] generators come in with determinant -zeta
    g1, g2 = hecke_kernel(EvaluationCovector(sc(1), sc(0)), T)
    assert Mat2.from_cols(g1, g2).det() == -ZETA
    eps = kernel_frame_matrix(g1, g2)
    assert eps.det() == ZETA


def test_frame_rejects_unit_determinant():
    with pytest.raises(HeckeDatumError):
        kernel_frame_matrix((ONE, ZERO), (ZERO, ONE))


def test_frame_rejects_double_zero():
    with pytest.raises(HeckeDatumError):
        kernel_frame_matrix((ZETA, ZERO), (ZERO, ZETA))  # det = zeta^2


def test_higgs_round_trip_both_ways():
    local_model._check_hecke_round_trip(Random(23), T, 40)


def test_higgs_requires_det_zeta_frame():
    with pytest.raises(HeckeDatumError):
        higgs_from_kernel_frame(Mat2.identity(T))


def test_vanishing_pattern_per_point_type():
    cases = [
        (EvaluationCovector(sc(0), sc(1)), "gamma"),
        (EvaluationCovector(sc(1), sc(0)), "beta"),
        (EvaluationCovector(sc(5), sc(1)), "neither"),
    ]
    for xi, which in cases:
        h = higgs_from_kernel_frame(hecke_frame(xi, T))
        beta0 = (h.beta[0].constant_term, h.beta[1].constant_term)
        gamma0 = (h.gamma[0].constant_term, h.gamma[1].constant_term)
        beta_vanishes = all(c.is_zero() for c in beta0)
        gamma_vanishes = all(c.is_zero() for c in gamma0)
        assert higgs_vanishing_matches_point(xi, h)
        if which == "gamma":
            assert gamma_vanishes and not beta_vanishes
        elif which == "beta":
            assert beta_vanishes and not gamma_vanishes
        else:
            assert not beta_vanishes and not gamma_vanishes


# Smith reduction


def test_smith_already_diagonal_gives_identities():
    p, q = smith_form(TARGET)
    assert p == Mat2.identity(T)
    assert q == Mat2.identity(T)


def test_smith_swapped_diagonal():
    phi = Mat2.diag(ZETA, ONE)
    p, q = smith_form(phi)
    assert p @ phi @ q == TARGET
    # pivot hunt lands on the bottom-right unit, so both transforms are swaps
    assert p == Mat2.swap(T) and q == Mat2.swap(T)


def test_smith_dense_example():
    phi = Mat2(((ONE + ZETA, ZETA), (ZETA, ZETA)))
    p, q = smith_form(phi)
    assert p == Mat2.identity(T)
    assert q == Mat2(((ONE, -ZETA), (-ONE, ONE + ZETA)))
    assert p @ phi @ q == TARGET


def test_smith_column_swap_case():
    # unit only in the top-right corner
    phi = Mat2(((ZETA, ONE), (ZETA * ZETA, ONE + ZETA)))
    assert phi.det() == ZETA
    p, q = smith_form(phi)
    assert p @ phi @ q == TARGET


def test_smith_rejects_wrong_determinant():
    with pytest.raises(SmithPreconditionError):
        smith_form(Mat2.diag(ZETA, ZETA))
    with pytest.raises(SmithPreconditionError):
        smith_form(Mat2.identity(T))
    with pytest.raises(SmithPreconditionError):
        smith_form(Mat2.diag(ONE, ZETA + ONE))


@pytest.mark.parametrize("order", list(range(2, 13)))
def test_smith_randomized_all_orders(order):
    local_model._check_smith_randomized(Random(1000 + order), order, 12)


def test_smith_transforms_are_exact_units():
    rng = Random(77)
    for _ in range(25):
        phi = random_det_zeta_matrix(rng, T)
        p, q = smith_form(phi)
        assert (p.inverse() @ p) == Mat2.identity(T)
        assert (q @ q.inverse()) == Mat2.identity(T)


# contraction


def test_contraction_on_basis_covectors():
    one, zero = Scalar.one(), Scalar.zero()
    assert dual_wedge_contraction((one, zero), one) == (zero, -one)
    assert dual_wedge_contraction((zero, one), one) == (one, zero)
    assert dual_wedge_contraction((sc(3), sc(4)), sc(2)) == (sc(8), sc(-6))


def test_contraction_determinant_identification():
    report = contraction_report((sc(1), sc(2)), sc(1))
    assert report.determinant_identification == Scalar.one()
    assert report.naturality_holds is None
    assert report.all_passed()


def test_contraction_naturality_diag_2_1():
    mu = ((sc(2), sc(0)), (sc(0), sc(1)))
    report = contraction_report((sc(1), sc(0)), sc(1), mu)
    assert report.image == (Scalar.zero(), -Scalar.one())
    assert report.naturality_holds is True


def test_contraction_naturality_random():
    local_model._check_contraction_naturality(Random(5), T, 60)


def test_contraction_rejects_singular_change_of_basis():
    mu = ((sc(1), sc(2)), (sc(2), sc(4)))
    with pytest.raises(ValueError):
        contraction_report((sc(1), sc(0)), sc(1), mu)


# normal form


def test_normal_form_matrices():
    report = normal_form_check(sc(3), T)
    assert report.all_passed()
    inv_rt2 = TruncatedSeries.constant(Scalar.sqrt2().inverse(), T)
    assert report.kernel_frame == Mat2.from_cols(
        (ZETA * inv_rt2, ZETA * inv_rt2), (-inv_rt2, inv_rt2)
    )
    assert report.higgs.beta == (inv_rt2, ZETA * inv_rt2)
    assert report.higgs.gamma == (ZETA * inv_rt2, inv_rt2)
    assert report.higgs.gamma_beta() == ZETA


@pytest.mark.parametrize("order", list(range(2, 13)))
def test_normal_form_every_order(order):
    local_model._check_normal_form(Random(order), order, 4)


def test_normal_form_output_has_no_b_dependence():
    a = normal_form_check(1, T)
    b = normal_form_check(sc(7), T)
    assert a.kernel_frame == b.kernel_frame
    assert a.higgs == b.higgs


def test_normal_form_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        normal_form_check(0, T)
    with pytest.raises(ValueError):
        normal_form_check(1, 1)


# the bundled verification suite


def test_verification_suite_passes_and_is_deterministic():
    first = verification_suite(order=6, seed=42, cases=8)
    second = verification_suite(order=6, seed=42, cases=8)
    assert first["all_passed"] is True
    assert first == second
    names = [c["name"] for c in first["checks"]]
    assert names == [name for name, _ in local_model._SUITE]


def test_verification_suite_reports_failures(monkeypatch):
    def broken(rng, order, cases):
        raise AssertionError("planted failure")

    patched = (("planted", broken),) + local_model._SUITE[1:]
    monkeypatch.setattr(local_model, "_SUITE", patched)
    report = verification_suite(order=4, seed=0, cases=2)
    assert report["all_passed"] is False
    assert report["checks"][0] == {
        "name": "planted",
        "passed": False,
        "detail": "planted failure",
    }


def _q_without_top_coefficient(smith):
    # a truncation off-by-one: only inputs with dense Q notice
    def faulty(phi):
        p, q = smith(phi)
        cut = tuple(
            tuple(TruncatedSeries.from_coeffs(e.coeffs[:-1], e.order) for e in row)
            for row in q.entries
        )
        return p, Mat2(cut)

    return faulty


def _negated_transforms(smith):
    # still a reduction, but no longer the identity on diagonal input
    def faulty(phi):
        p, q = smith(phi)
        minus = Mat2.diag(-TruncatedSeries.one(phi.order), -TruncatedSeries.one(phi.order))
        return minus @ p, q @ minus

    return faulty


def _accepts_any_determinant(smith):
    def faulty(phi):
        if phi.det() != TruncatedSeries.zeta(phi.order):
            return Mat2.identity(phi.order), Mat2.identity(phi.order)
        return smith(phi)

    return faulty


def _frame_of_swapped_covector(frame):
    return lambda xi, order=T: frame(EvaluationCovector(xi.xi1, xi.xi0), order)


def _frame_off_by_a_unit(data):
    # det stays zeta, so only the normal-form comparisons can notice
    def faulty(order):
        xi, eps, _ = data(order)
        u = TruncatedSeries.one(order) + TruncatedSeries.zeta(order)
        eps = eps.scale_col(0, u).scale_col(1, u.inverse())
        return xi, eps, higgs_from_kernel_frame(eps)

    return faulty


def _contraction_ignoring_wedge(contraction):
    return lambda ell, wedge: contraction(ell, Scalar.one())


PLANTED_FAULTS = {
    "smith_randomized": ("smith_form", _q_without_top_coefficient),
    "smith_worked_examples": ("smith_form", _negated_transforms),
    "smith_rejects_bad_determinant": ("smith_form", _accepts_any_determinant),
    "hecke_round_trip": ("hecke_frame", _frame_of_swapped_covector),
    "normal_form": ("_normal_form_data", _frame_off_by_a_unit),
    "contraction_naturality": ("dual_wedge_contraction", _contraction_ignoring_wedge),
}


@pytest.mark.parametrize("check", list(PLANTED_FAULTS))
def test_verification_suite_catches_each_planted_fault(check, monkeypatch):
    target, fault = PLANTED_FAULTS[check]
    monkeypatch.setattr(local_model, target, fault(getattr(local_model, target)))
    report = verification_suite(order=4, seed=0, cases=3)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == [check]
    assert failed[0]["detail"]
    assert report["all_passed"] is False


def test_verification_suite_validates_arguments():
    with pytest.raises(ValueError):
        verification_suite(order=1)
    with pytest.raises(ValueError):
        verification_suite(cases=0)
