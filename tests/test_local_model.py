"""Hecke kernel frames, Smith reduction, contraction, and normal forms."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import draw_reference
from su12fiber.configuration import FiberPoint
from su12fiber.errors import HeckeDatumError, SmithPreconditionError
from su12fiber.exact import DEFAULT_ORDER, Mat2, Scalar, TruncatedSeries
from su12fiber import local_model
from su12fiber.local_model import (
    contraction_is_natural,
    dual_wedge_contraction,
    evaluate,
    hecke_frame,
    higgs_from_kernel_frame,
    higgs_vanishing_matches_point,
    normal_form_check,
    random_point,
    random_det_zeta_matrix,
    smith_form,
    verification_suite,
)

from paper_reference import matrix_inverse, series_from_coeffs

T = DEFAULT_ORDER
ONE = TruncatedSeries.one(T)
ZERO = TruncatedSeries.zero(T)
ZETA = TruncatedSeries.zeta(T)
TARGET = Mat2.diag(ONE, ZETA)


def sc(x) -> Scalar:
    return Scalar.of(x)


# kernel frames


FRAME_ORDERS = [*range(2, 13), 16, 32]


def _frame(order, *rows):
    # each entry is given by its leading coefficients, zero-padded to the order
    return Mat2(
        tuple(
            tuple(series_from_coeffs([sc(c) for c in e], order) for e in row)
            for row in rows
        )
    )


def test_hecke_frame_pins_exact_frames():
    t = Scalar.from_ratios(3, 5, -2, 7)  # the finite point 3/5 - 2/7*sqrt2
    for order in FRAME_ORDERS:
        cases = [
            (FiberPoint.finite(1), _frame(order, ([1], []), ([-1], [0, 1]))),
            (FiberPoint.zero(), _frame(order, ([1], []), ([], [0, 1]))),
            (FiberPoint.infinity(), _frame(order, ([], [0, -1]), ([1], []))),
            (FiberPoint.finite(t), _frame(order, ([1], []), ([-t], [0, 1]))),
        ]
        for point, expected in cases:
            assert hecke_frame(point, order) == expected, (order, str(point))


def test_frame_columns_evaluate_to_zero():
    rng = Random(11)
    for _ in range(40):
        point = random_point(rng)
        eps = hecke_frame(point, T)
        assert evaluate(point, eps.col(0)).is_zero() and evaluate(point, eps.col(1)).is_zero()


def test_frame_determinant_is_exactly_zeta():
    rng = Random(12)
    for order in FRAME_ORDERS:
        for _ in range(4):
            assert hecke_frame(random_point(rng), order).det() == TruncatedSeries.zeta(order)


def test_frame_rejects_order_one():
    with pytest.raises(ValueError):
        hecke_frame(FiberPoint.finite(1), 1)


def test_frame_rejects_unit_determinant():
    with pytest.raises(HeckeDatumError):
        higgs_from_kernel_frame(Mat2.identity(T))


def test_frame_rejects_double_zero():
    with pytest.raises(HeckeDatumError):
        higgs_from_kernel_frame(Mat2.diag(ZETA, ZETA))  # det = zeta^2


def test_higgs_round_trip_both_ways():
    local_model._check_hecke_round_trip(Random(23), T, 40)


def test_higgs_requires_det_zeta_frame():
    frames = [
        Mat2.identity(T),  # det 1: a unit, no modification
        Mat2.diag(ZETA, ZETA),  # det zeta^2: not a simple zero
        Mat2(((ZERO, ZETA), (ONE, ZERO))),  # det -zeta: off by the unit -1
    ]
    for frame in frames:
        with pytest.raises(HeckeDatumError):
            higgs_from_kernel_frame(frame)


def test_vanishing_pattern_per_point_type():
    cases = [
        (FiberPoint.zero(), "gamma"),
        (FiberPoint.infinity(), "beta"),
        (FiberPoint.finite(5), "neither"),
    ]
    for point, which in cases:
        h = higgs_from_kernel_frame(hecke_frame(point, T))
        beta0 = (h.beta[0].constant_term, h.beta[1].constant_term)
        gamma0 = (h.gamma[0].constant_term, h.gamma[1].constant_term)
        beta_vanishes = all(c.is_zero() for c in beta0)
        gamma_vanishes = all(c.is_zero() for c in gamma0)
        assert higgs_vanishing_matches_point(point, h)
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
    # the unit sits bottom-right, so both shears run; neither flips a sign
    assert p.det() == ONE and q.det() == ONE


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
    with pytest.raises(SmithPreconditionError, match="truncation order must be >= 2"):
        smith_form(Mat2.identity(1))
    with pytest.raises(SmithPreconditionError):
        smith_form(Mat2.diag(ZETA, ZETA))
    with pytest.raises(SmithPreconditionError):
        smith_form(Mat2.identity(T))
    with pytest.raises(SmithPreconditionError):
        smith_form(Mat2.diag(ONE, ZETA + ONE))


def _single_unit_input(rng, order, i, j):
    """Random det-zeta matrix whose only unit entry sits at (i, j)."""
    one = TruncatedSeries.one(order)
    zeta = TruncatedSeries.zeta(order)
    u = local_model.random_series(rng, order)
    while not u.is_unit():
        u = local_model.random_series(rng, order)
    x = zeta * local_model.random_series(rng, order)
    y = zeta * local_model.random_series(rng, order)
    # u w - x y = zeta on the diagonal, x y - u w = zeta off it
    sign = one if i == j else -one
    w = (sign * zeta + x * y) * u.inverse()
    entries = [[x, y], [x, y]]
    entries[i][j], entries[1 - i][1 - j] = u, w
    return Mat2(tuple(tuple(row) for row in entries))


@pytest.mark.parametrize("order", [*range(2, 13), 32])
@pytest.mark.parametrize("pivot", [(0, 0), (0, 1), (1, 0), (1, 1)], ids="{0[0]}{0[1]}".format)
def test_smith_single_unit_entry_gives_determinant_one(pivot, order):
    rng = Random(f"{pivot}:{order}")
    one = TruncatedSeries.one(order)
    target = Mat2.diag(one, TruncatedSeries.zeta(order))
    for _ in range(3):
        phi = _single_unit_input(rng, order, *pivot)
        assert phi.det() == TruncatedSeries.zeta(order)
        units = [(i, j) for i in (0, 1) for j in (0, 1) if phi[i][j].is_unit()]
        assert units == [pivot]
        p, q = smith_form(phi)
        assert p @ phi @ q == target
        assert p.det() == one and q.det() == one


@pytest.mark.parametrize("order", FRAME_ORDERS)
def test_random_draws_have_determinant_exactly_one_and_zeta(order):
    rng = Random(f"draws:{order}")
    for _ in range(6):
        assert local_model.random_sl2_matrix(rng, order).det() == TruncatedSeries.one(order)
        assert random_det_zeta_matrix(rng, order).det() == TruncatedSeries.zeta(order)


@pytest.mark.parametrize("order", [*range(2, 13), 16, 32])
def test_smith_randomized_all_orders(order):
    local_model._check_smith_randomized(Random(1000 + order), order, 12)


def test_smith_transforms_are_exact_units():
    rng = Random(77)
    for _ in range(25):
        phi = random_det_zeta_matrix(rng, T)
        p, q = smith_form(phi)
        assert (matrix_inverse(p) @ p) == Mat2.identity(T)
        assert (q @ matrix_inverse(q)) == Mat2.identity(T)


def _dense_smith_identity(phi, p, q):
    # the identity as stated, with two dense products
    one = TruncatedSeries.one(phi.order)
    return p @ phi @ q == Mat2.diag(one, TruncatedSeries.zeta(phi.order)) and q.det() == one


def _cut_top_coefficients(m):
    return Mat2(
        tuple(
            tuple(series_from_coeffs(e.coeffs[:-1], e.order) for e in row)
            for row in m.entries
        )
    )


def _perturbed_entry(rng, m):
    # adds zeta^k below the top order, which P @ phi @ Q always notices
    i, j, k = rng.randrange(2), rng.randrange(2), rng.randrange(m.order - 1)
    entries = [list(row) for row in m.entries]
    entries[i][j] = entries[i][j] + TruncatedSeries.monomial(k, m.order)
    return Mat2(tuple(tuple(row) for row in entries))


@pytest.mark.parametrize("order", [*range(2, 13), 16, 32])
def test_adjugate_form_agrees_with_dense_smith_identity(order):
    rng = Random(f"adjugate:{order}")
    one = TruncatedSeries.one(order)
    u = one + TruncatedSeries.zeta(order)  # a unit with u != 1
    for _ in range(4):
        phi = random_det_zeta_matrix(rng, order)
        p, q = smith_form(phi)
        assert local_model.is_smith_pair(phi, p, q) and _dense_smith_identity(phi, p, q)
        corrupted = [
            ("Q without its top coefficient", p, _cut_top_coefficients(q)),
            ("one entry of P perturbed", _perturbed_entry(rng, p), q),
            ("Q scaled by det u", p, q @ Mat2.diag(u, one)),
            # P @ phi @ Q still equals diag(1, zeta); only det Q == 1 fails
            ("Q scaled by det u, P compensating", Mat2.diag(u.inverse(), one) @ p, q @ Mat2.diag(u, one)),
        ]
        for name, pp, qq in corrupted:
            expected = _dense_smith_identity(phi, pp, qq)
            assert local_model.is_smith_pair(phi, pp, qq) == expected, name
            if name != "Q without its top coefficient":
                assert not expected, name


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=1, max_value=16))
def test_draws_match_the_fraction_reference(seed, order):
    new, old = Random(seed), Random(seed)
    for nonzero in (False, True, False):
        s = local_model.random_scalar(new, nonzero=nonzero)
        r = draw_reference.random_scalar(old, nonzero=nonzero)
        assert s == r
    assert local_model.random_series(new, order) == draw_reference.random_series(old, order)
    assert new.getstate() == old.getstate()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**64), st.integers(min_value=2, max_value=32))
def test_det_zeta_draw_matches_the_dense_reference(seed, order):
    new, old = Random(seed), Random(seed)
    drawn = random_det_zeta_matrix(new, order)
    dense = draw_reference.random_det_zeta_matrix(old, order)
    for row, ref_row in zip(drawn.entries, dense.entries):
        for e, r in zip(row, ref_row):
            assert (e._a, e._b, e._d) == (r._a, r._b, r._d)
    assert new.getstate() == old.getstate()


# contraction


def test_contraction_on_basis_covectors():
    one, zero = Scalar.one(), Scalar.zero()
    assert dual_wedge_contraction((one, zero), one) == (zero, -one)
    assert dual_wedge_contraction((zero, one), one) == (one, zero)
    assert dual_wedge_contraction((sc(3), sc(4)), sc(2)) == (sc(8), sc(-6))


def test_contraction_naturality_diag_2_1():
    mu = ((sc(2), sc(0)), (sc(0), sc(1)))
    assert contraction_is_natural((sc(1), sc(0)), sc(1), mu)


def test_contraction_naturality_random():
    local_model._check_contraction_naturality(Random(5), T, 60)


def test_contraction_rejects_singular_change_of_basis():
    mu = ((sc(1), sc(2)), (sc(2), sc(4)))
    with pytest.raises(ValueError):
        contraction_is_natural((sc(1), sc(0)), sc(1), mu)


# normal form


def test_normal_form_matrices():
    assert all(ok for _, ok in normal_form_check(T))
    _, eps, higgs = local_model._normal_form_data(T)
    inv_rt2 = TruncatedSeries.constant(Scalar.sqrt2().inverse(), T)
    assert eps == Mat2.from_cols((ZETA * inv_rt2, ZETA * inv_rt2), (-inv_rt2, inv_rt2))
    assert higgs.beta == (inv_rt2, ZETA * inv_rt2)
    assert higgs.gamma == (ZETA * inv_rt2, inv_rt2)
    assert higgs.gamma_beta() == ZETA


@pytest.mark.parametrize("order", list(range(2, 13)))
def test_normal_form_every_order(order):
    local_model._check_normal_form(Random(order), order, 4)


def test_normal_form_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        normal_form_check(1)


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
            tuple(series_from_coeffs(e.coeffs[:-1], e.order) for e in row)
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


def _frame_of_swapped_point(frame):
    # [x0:x1] -> [x1:x0]: zero and infinity trade places and t becomes 1/t
    def swapped(point):
        if point.is_zero():
            return FiberPoint.infinity()
        if point.is_infinity():
            return FiberPoint.zero()
        return FiberPoint.finite(point.t.inverse())

    return lambda point, order=T: frame(swapped(point), order)


def _frame_off_by_a_unit(data):
    # det stays zeta, so only the normal-form comparisons can notice
    def faulty(order):
        point, eps, _ = data(order)
        u = TruncatedSeries.one(order) + TruncatedSeries.zeta(order)
        eps = eps @ Mat2.diag(u, u.inverse())
        return point, eps, higgs_from_kernel_frame(eps)

    return faulty


def _contraction_ignoring_wedge(contraction):
    return lambda ell, wedge: contraction(ell, Scalar.one())


PLANTED_FAULTS = {
    "smith_randomized": ("smith_form", _q_without_top_coefficient),
    "smith_worked_examples": ("smith_form", _negated_transforms),
    "smith_rejects_bad_determinant": ("smith_form", _accepts_any_determinant),
    "hecke_round_trip": ("hecke_frame", _frame_of_swapped_point),
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


def test_verification_suite_reports_a_draw_without_zeta(monkeypatch):
    # S1 @ S2 without the zeta column scale has determinant 1: smith_form's
    # precondition check is the only one that sees the draws' determinant
    def det_one(rng, order):
        s1 = local_model.random_sl2_matrix(rng, order)
        return s1 @ local_model.random_sl2_matrix(rng, order)

    monkeypatch.setattr(local_model, "random_det_zeta_matrix", det_one)
    report = verification_suite(order=4, seed=0, cases=3)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["smith_randomized"]
    assert failed[0]["detail"].startswith("SmithPreconditionError: ")


def _basis_image_doubled(contraction):
    # the seeded naturality draws never meet the covector (0, 1) at wedge 1,
    # so only the determinant identification of the basis images notices
    def faulty(ell, wedge):
        image = contraction(ell, wedge)
        if (Scalar.of(ell[0]), Scalar.of(ell[1]), Scalar.of(wedge)) == (sc(0), sc(1), sc(1)):
            return (image[0] + image[0], image[1] + image[1])
        return image

    return faulty


def test_verification_suite_catches_a_fault_only_the_determinant_sees(monkeypatch):
    faulty = _basis_image_doubled(local_model.dual_wedge_contraction)
    monkeypatch.setattr(local_model, "dual_wedge_contraction", faulty)
    report = verification_suite(order=4, seed=0, cases=3)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["contraction_naturality"]
    assert "determinant" in failed[0]["detail"]


def test_verification_suite_validates_arguments():
    with pytest.raises(ValueError):
        verification_suite(order=1, seed=0, cases=1)
    with pytest.raises(ValueError):
        verification_suite(order=4, seed=0, cases=0)
