import dataclasses
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su12fiber.errors import NonUnitError, OrderMismatchError
from su12fiber.exact import Mat2, Scalar, TruncatedSeries

import fraction_reference as ref
from paper_reference import (
    matrix_inverse,
    series_from_coeffs,
    series_parse,
    series_to_strings,
    series_valuation,
)

fractions = st.fractions(min_value=-6, max_value=6, max_denominator=8)
scalars = st.builds(ref.exact_scalar, fractions, fractions)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())

ORDER = 5


def series(order=ORDER):
    return st.builds(
        lambda cs: series_from_coeffs(cs, order),
        st.lists(scalars, min_size=0, max_size=order),
    )


def unit_series(order=ORDER):
    return st.builds(
        lambda c0, cs: series_from_coeffs([c0] + cs, order),
        nonzero_scalars,
        st.lists(scalars, min_size=0, max_size=order - 1),
    )


def mat2(order=ORDER):
    return st.builds(
        lambda a, b, c, d: Mat2(((a, b), (c, d))),
        series(order),
        series(order),
        series(order),
        series(order),
    )


# scalars


nonzero_ints = st.integers(min_value=-99, max_value=99).filter(bool)


@given(st.integers(-99, 99), nonzero_ints, st.integers(-99, 99), nonzero_ints)
def test_scalar_from_ratios_matches_fractions(p, q, r, s):
    x = Scalar.from_ratios(p, q, r, s)
    old = ref.Scalar(Fraction(p, q), Fraction(r, s))
    assert ref.from_exact(x) == old and str(x) == str(old)


@given(st.lists(st.tuples(st.integers(-99, 99), nonzero_ints, st.integers(-99, 99), nonzero_ints),
                min_size=1, max_size=12))
def test_series_from_ratios_is_scalar_from_ratios_per_coefficient(rows):
    x = TruncatedSeries.from_ratios(rows)
    y = series_from_coeffs([Scalar.from_ratios(*row) for row in rows], len(rows))
    assert (x._a, x._b, x._d) == (y._a, y._b, y._d)
    with pytest.raises(ValueError):
        TruncatedSeries.from_ratios([])


def test_sqrt2_squares_to_two():
    assert Scalar.sqrt2() * Scalar.sqrt2() == Scalar.of(2)


def test_conjugate_product():
    x = Scalar(1, 1)  # 1 + sqrt2
    y = Scalar(1, -1)  # 1 - sqrt2
    assert x * y == Scalar.of(-1)


def test_scalar_inverse_example():
    x = Scalar(1, 1)
    assert x.inverse() == Scalar(-1, 1)
    assert x * x.inverse() == Scalar.one()


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inverse()


@given(scalars, scalars, scalars)
def test_scalar_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(nonzero_scalars)
def test_scalar_field_inverse(x):
    assert x * x.inverse() == Scalar.one()


@given(scalars)
def test_scalar_string_round_trip(x):
    assert Scalar.parse(str(x)) == x


def test_scalar_parse_forms():
    assert Scalar.parse("3/4") == Scalar.from_ratios(3, 4, 0, 1)
    assert Scalar.parse("-2") == Scalar(-2)
    assert Scalar.parse("1/2+1/3*sqrt2") == Scalar.from_ratios(1, 2, 1, 3)
    assert Scalar.parse("1/2-1/3*sqrt2") == Scalar.from_ratios(1, 2, -1, 3)
    assert Scalar.parse("-1/3*sqrt2") == Scalar.from_ratios(0, 1, -1, 3)
    with pytest.raises(ValueError):
        Scalar.parse("sqrt3")
    with pytest.raises(ValueError):
        Scalar.parse("")
    with pytest.raises(ValueError):
        Scalar.parse("1/0")
    with pytest.raises(ValueError):
        Scalar.parse("1/2+1/0*sqrt2")
    with pytest.raises(ValueError):
        Scalar.parse(5)
    # only the README grammar: no decimals, exponents or bare sqrt2
    for text in ("1.5", "1e3", "1e5000", "1/2+1e2*sqrt2", "sqrt2", "1/2+-1/3*sqrt2", "nan"):
        with pytest.raises(ValueError):
            Scalar.parse(text)


# values convert where they enter, and arithmetic takes one operand kind

FOREIGN_OPERANDS = (2, Fraction(1, 2), True)


def test_scalar_constructors_take_only_ints():
    # a bool is an int subclass and a Fraction or float a number, but none is
    # an int: each is refused where it enters, not converted
    for bad in (True, False, Fraction(1, 2), Fraction(2), 1.0, 0.5, "1"):
        for make in (Scalar, Scalar.of, lambda x: Scalar(1, x), lambda x: Scalar(x, 1)):
            with pytest.raises(TypeError):
                make(bad)
    assert Scalar.of(2) == Scalar(2, 0) == Scalar.parse("2")
    assert Scalar.of(Scalar(1, 1)) == Scalar(1, 1)


def test_scalar_arithmetic_takes_only_scalars():
    x = Scalar.from_ratios(1, 2, 1, 3)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for other in FOREIGN_OPERANDS:
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)


def test_series_arithmetic_takes_only_series():
    x = series_from_coeffs([Scalar(1, 1), Scalar.of(2)], 3)
    for op in (operator.add, operator.sub, operator.mul):
        for other in (*FOREIGN_OPERANDS, Scalar(1, 1)):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)


# truncated series


def test_series_product_truncates():
    one = TruncatedSeries.one(4)
    zeta = TruncatedSeries.zeta(4)
    lhs = (one + zeta) * (one - zeta)
    assert lhs == series_from_coeffs([1, 0, -1], 4)

    z2 = TruncatedSeries.zeta(2)
    assert (z2 * z2).is_zero()


def test_series_inverse_geometric():
    one = TruncatedSeries.one(4)
    zeta = TruncatedSeries.zeta(4)
    inv = (one - zeta).inverse()
    assert inv == series_from_coeffs([1, 1, 1, 1], 4)


def test_series_inverse_constant():
    two = TruncatedSeries.constant(2, 3)
    assert two.inverse() == TruncatedSeries.constant(Scalar.from_ratios(1, 2, 0, 1), 3)


def test_series_nonunit_inverse_raises():
    with pytest.raises(NonUnitError):
        TruncatedSeries.zeta(4).inverse()


def test_series_unit_detection():
    assert TruncatedSeries.one(3).is_unit()
    assert not TruncatedSeries.zeta(3).is_unit()
    assert not TruncatedSeries.zero(3).is_unit()


def test_order_mismatch_raises():
    x, y = TruncatedSeries.one(3), TruncatedSeries.zeta(4)
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((x, y), (y, x)):
            with pytest.raises(OrderMismatchError):
                op(left, right)


@given(series(), series(), series())
def test_series_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@given(unit_series())
def test_series_inverse_recomposes(u):
    assert u * u.inverse() == TruncatedSeries.one(u.order)


@given(series())
def test_div_zeta_section(x):
    shifted = TruncatedSeries.zeta(x.order) * x
    assert shifted.div_zeta() * TruncatedSeries.zeta(x.order) == shifted


def test_div_zeta_requires_zero_constant_term():
    with pytest.raises(NonUnitError):
        TruncatedSeries.one(3).div_zeta()


def test_series_valuation():
    assert series_valuation(TruncatedSeries.zero(4)) is None
    assert series_valuation(TruncatedSeries.monomial(2, 4)) == 2
    assert series_valuation(TruncatedSeries.one(4)) == 0


def test_series_string_round_trip():
    s = series_from_coeffs(
        [Scalar.from_ratios(1, 2, -1, 3), Scalar.of(0), Scalar.sqrt2()], 4
    )
    assert series_parse(series_to_strings(s)) == s


def test_series_parse_order():
    assert series_parse(["1", "2"]).order == 2
    assert series_parse(["1"], 3) == TruncatedSeries.one(3)
    # an explicit order 0 is an order, not "not given", and admits no coefficient
    for order in (0, 1):
        with pytest.raises(ValueError):
            series_parse(["1", "2"], order)
    with pytest.raises(ValueError):
        series_parse([], 0)


# matrices


def test_det_examples():
    T = 4
    one = TruncatedSeries.one(T)
    zero = TruncatedSeries.zero(T)
    zeta = TruncatedSeries.zeta(T)
    assert Mat2(((one, zeta), (zero, one))).det() == one
    # hand expansion: (1+zeta)*zeta - zeta*zeta = zeta
    m = Mat2(((one + zeta, zeta), (zeta, zeta)))
    assert m.det() == zeta


@settings(max_examples=25)
@given(mat2(), mat2())
def test_det_is_kept_out_of_the_dataclass_surface(m, other):
    fresh = Mat2(m.entries)
    first = m.det()
    assert m.det() == first and m.det() == fresh.det()
    # a matrix whose determinant was computed is the same value as one whose was not
    assert m == fresh and hash(m) == hash(fresh)
    assert repr(m) == repr(fresh) and str(m) == str(fresh)
    # replace builds a new matrix, which computes its own determinant
    replaced = dataclasses.replace(m, entries=other.entries)
    (a, b), (c, d) = other.entries
    assert replaced == other and replaced.det() == a * d - b * c
    assert [f.name for f in dataclasses.fields(Mat2)] == ["entries"]


@given(mat2())
def test_adjugate_identity(m):
    d = m.det()
    prod = m @ m.adjugate()
    assert prod == Mat2.diag(d, d)


@given(mat2(), mat2())
def test_det_multiplicative(x, y):
    assert (x @ y).det() == x.det() * y.det()


def test_matrix_inverse():
    T = 5
    one = TruncatedSeries.one(T)
    zeta = TruncatedSeries.zeta(T)
    m = Mat2(((one + zeta, zeta), (zeta, one)))
    assert m.is_unit()
    assert m @ matrix_inverse(m) == Mat2.identity(T)
    singular = Mat2.diag(zeta, one)
    assert not singular.is_unit()
    with pytest.raises(NonUnitError):
        matrix_inverse(singular)


@st.composite
def rank_one_head_mat2(draw, order=ORDER):
    """Four unit entries whose constant terms form a singular matrix."""
    x0, x1, y0, y1 = (draw(nonzero_scalars) for _ in range(4))
    heads = ((x0 * y0, x0 * y1), (x1 * y0, x1 * y1))
    tails = st.lists(scalars, max_size=order - 1)
    return Mat2(
        tuple(
            tuple(series_from_coeffs([h] + draw(tails), order) for h in row)
            for row in heads
        )
    )


@given(st.one_of(mat2(), mat2(order=1), rank_one_head_mat2()))
def test_matrix_is_unit_reads_the_determinant_constant_term(m):
    assert m.is_unit() == m.det().is_unit()


@given(rank_one_head_mat2())
def test_unit_entries_with_singular_constant_part_are_not_a_unit(m):
    assert all(e.is_unit() for row in m.entries for e in row)
    assert not m.is_unit()


@given(series(), st.integers(min_value=0, max_value=ORDER - 1))
def test_product_with_a_monomial_shifts_either_way(s, k):
    m = TruncatedSeries.monomial(k, ORDER)
    shifted = series_from_coeffs([Scalar.zero()] * k + list(s.coeffs[: ORDER - k]), ORDER)
    assert s * m == shifted and m * s == shifted


def test_matrix_order_mismatch():
    with pytest.raises(OrderMismatchError):
        Mat2(
            (
                (TruncatedSeries.one(3), TruncatedSeries.zero(3)),
                (TruncatedSeries.zero(3), TruncatedSeries.one(4)),
            )
        )


def test_matmul_order_mismatch():
    # the entry products refuse mixed orders, so the matrix product does too
    for left, right in ((3, 4), (4, 3)):
        with pytest.raises(OrderMismatchError) as info:
            Mat2.identity(left) @ Mat2.identity(right)
        assert str(info.value) == f"truncation orders differ: {left} vs {right}"


def test_matrix_column_helpers():
    T = 3
    m = Mat2.from_cols(
        (TruncatedSeries.one(T), TruncatedSeries.zeta(T)),
        (TruncatedSeries.zero(T), TruncatedSeries.one(T)),
    )
    assert m.col(0) == (TruncatedSeries.one(T), TruncatedSeries.zeta(T))
    scaled = m @ Mat2.diag(TruncatedSeries.one(T), TruncatedSeries.constant(2, T))
    assert scaled.col(1) == (TruncatedSeries.zero(T), TruncatedSeries.constant(2, T))
