"""Differential gate for the integer kernel in su12fiber.exact.

Every operation is checked against two independent implementations of the
same arithmetic: fraction_reference (one reduced Fraction pair per
coefficient, the kernel's previous form) at orders 1..16 under hypothesis,
and sympy's QQ<sqrt(2)> with its power-series ring on seeded spot checks.
Agreement is exact: component values, strings, and hashes.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from paper_reference import series_to_strings, series_valuation
from su12fiber import exact
from su12fiber.errors import NonUnitError

MAX_ORDER = 16

components = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-99, max_value=99, max_denominator=12),
    st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**12),
)


@st.composite
def scalar_pairs(draw, nonzero=False):
    a = draw(components)
    b = draw(components)
    if nonzero and not a and not b:
        a = Fraction(1)
    return exact.Scalar(a, b), ref.Scalar(a, b)


def _series_pair(parts, order):
    new = exact.TruncatedSeries.from_coeffs([exact.Scalar(a, b) for a, b in parts], order)
    old = ref.TruncatedSeries.from_coeffs([ref.Scalar(a, b) for a, b in parts], order)
    return new, old


@st.composite
def series_pairs(draw, order, head=None):
    """Equal series in both kernels; head forces the constant term unit/zero."""
    parts = draw(
        st.lists(st.tuples(components, components), min_size=order, max_size=order)
    )
    if head == "zero":
        parts[0] = (Fraction(0), Fraction(0))
    elif head == "unit" and parts[0] == (0, 0):
        parts[0] = (Fraction(1), Fraction(0))
    # sparse series exercise the skipped-zero branches of the product
    mask = draw(st.lists(st.booleans(), min_size=order, max_size=order))
    for k, keep in enumerate(mask):
        if not keep and not (k == 0 and head == "unit"):
            parts[k] = (Fraction(0), Fraction(0))
    return _series_pair(parts, order)


orders = st.integers(min_value=1, max_value=MAX_ORDER)


def assert_same_scalar(new, old):
    assert isinstance(new, exact.Scalar)
    assert (new.a, new.b) == (old.a, old.b)
    assert str(new) == str(old) and repr(new) == repr(old)
    assert hash(new) == hash(old)
    assert new.is_zero() == old.is_zero()


def assert_same_series(new, old):
    assert isinstance(new, exact.TruncatedSeries)
    assert new.order == old.order
    assert [(c.a, c.b) for c in new.coeffs] == [(c.a, c.b) for c in old.coeffs]
    for k in range(new.order):
        assert_same_scalar(new[k], old[k])
    assert series_to_strings(new) == old.to_strings()
    assert str(new) == str(old) and repr(new) == repr(old)
    assert hash(new) == hash(old)
    assert new.is_zero() == old.is_zero() and new.is_unit() == old.is_unit()
    assert series_valuation(new) == old.valuation()


def assert_same_mat(new, old):
    for new_row, old_row in zip(new.entries, old.entries):
        for n, o in zip(new_row, old_row):
            assert_same_series(n, o)


# scalars


@given(scalar_pairs(), scalar_pairs())
def test_scalar_ops_match_reference(x, y):
    (xn, xo), (yn, yo) = x, y
    assert_same_scalar(xn, xo)
    assert_same_scalar(xn + yn, xo + yo)
    assert_same_scalar(xn - yn, xo - yo)
    assert_same_scalar(-xn, -xo)
    assert_same_scalar(xn * yn, xo * yo)
    assert_same_scalar(xn * 3, xo * 3)
    assert_same_scalar(Fraction(2, 7) - xn, Fraction(2, 7) - xo)
    assert (xn == yn) == (xo == yo)
    assert (xn == xn.a) == (xo == xo.a)
    if not yo.is_zero():
        assert_same_scalar(yn.inverse(), yo.inverse())
        assert_same_scalar(xn / yn, xo / yo)
    assert_same_scalar(exact.Scalar.parse(str(xn)), ref.Scalar.parse(str(xo)))


@given(scalar_pairs())
def test_scalar_components_are_read_only(x):
    new, _ = x
    with pytest.raises(AttributeError):
        new.a = Fraction(1)
    with pytest.raises(AttributeError):
        new.b = Fraction(1)


# series


@settings(max_examples=60, deadline=None)
@given(st.data(), orders)
def test_series_ring_ops_match_reference(data, order):
    xn, xo = data.draw(series_pairs(order))
    yn, yo = data.draw(series_pairs(order))
    cn, co = data.draw(scalar_pairs())
    assert_same_series(xn, xo)
    assert_same_series(xn + yn, xo + yo)
    assert_same_series(xn - yn, xo - yo)
    assert_same_series(-xn, -xo)
    assert_same_series(xn * yn, xo * yo)
    assert_same_series(yn * xn, xo * yo)
    assert_same_series(xn * cn, xo * co)
    assert_same_series(Fraction(1, 3) - xn, Fraction(1, 3) - xo)
    assert (xn == yn) == (xo == yo)
    assert xn == xn + exact.TruncatedSeries.zero(order)


@settings(max_examples=60, deadline=None)
@given(st.data(), orders)
def test_scalar_with_series_matches_reference(data, order):
    # a Scalar on the left hands a series operand over to the series; the
    # reference lifts the scalar to a constant series instead
    xn, xo = data.draw(series_pairs(order))
    cn, co = data.draw(scalar_pairs())
    c_old = ref.TruncatedSeries.constant(co, order)
    assert_same_series(cn + xn, c_old + xo)
    assert_same_series(cn - xn, c_old - xo)
    assert_same_series(cn * xn, c_old * xo)


def test_scalar_operators_defer_on_foreign_operands():
    x = exact.Scalar(1, 1)
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert getattr(x, op)("1") is NotImplemented
    with pytest.raises(TypeError):
        x * "1"
    with pytest.raises(TypeError):
        1.5 - x


@settings(max_examples=60, deadline=None)
@given(st.data(), orders)
def test_series_inverse_matches_reference(data, order):
    un, uo = data.draw(series_pairs(order, head="unit"))
    assert_same_series(un.inverse(), uo.inverse())


@settings(max_examples=60, deadline=None)
@given(st.data(), orders)
def test_div_zeta_matches_reference(data, order):
    xn, xo = data.draw(series_pairs(order, head="zero"))
    assert_same_series(xn.div_zeta(), xo.div_zeta())
    with pytest.raises(NonUnitError):
        xn.inverse()


@settings(max_examples=25, deadline=None)
@given(st.data(), orders)
def test_mat2_matches_reference(data, order):
    pairs = [data.draw(series_pairs(order)) for _ in range(8)]
    left = exact.Mat2(((pairs[0][0], pairs[1][0]), (pairs[2][0], pairs[3][0])))
    left_ref = ref.Mat2(((pairs[0][1], pairs[1][1]), (pairs[2][1], pairs[3][1])))
    right = exact.Mat2(((pairs[4][0], pairs[5][0]), (pairs[6][0], pairs[7][0])))
    right_ref = ref.Mat2(((pairs[4][1], pairs[5][1]), (pairs[6][1], pairs[7][1])))
    assert_same_series(left.det(), left_ref.det())
    assert_same_mat(left @ right, left_ref @ right_ref)


# series constants


def _triple(s):
    # the packed representation: numerators and shared denominator, lowest terms
    return s._a, s._b, s._d


@settings(max_examples=60, deadline=None)
@given(st.data(), scalar_pairs(), st.integers(min_value=1, max_value=32))
def test_series_constants_match_reference(data, value, order):
    k = data.draw(st.integers(min_value=0, max_value=order - 1))
    zero = (exact.Scalar(0), ref.Scalar(0))
    for vn, vo in (value, zero):
        cases = [
            (exact.TruncatedSeries.zero(order), ref.TruncatedSeries.zero(order), []),
            (exact.TruncatedSeries.one(order), ref.TruncatedSeries.one(order), [1]),
            (
                exact.TruncatedSeries.constant(vn, order),
                ref.TruncatedSeries.constant(vo, order),
                [vn],
            ),
            (
                exact.TruncatedSeries.monomial(k, order, vn),
                ref.TruncatedSeries.monomial(k, order, vo),
                [0] * k + [vn],
            ),
        ]
        if order >= 2:
            zeta = exact.TruncatedSeries.zeta(order), ref.TruncatedSeries.zeta(order)
            cases.append((*zeta, [0, 1]))
        for new, old, head in cases:
            assert_same_series(new, old)
            padded = exact.TruncatedSeries.from_coeffs(head, order)
            assert _triple(new) == _triple(padded)
        for bad in (-1, order):
            with pytest.raises(ValueError):
                exact.TruncatedSeries.monomial(bad, order, vn)
    for make in (
        exact.TruncatedSeries.zero,
        exact.TruncatedSeries.one,
        exact.TruncatedSeries.zeta,
        lambda n: exact.TruncatedSeries.constant(value[0], n),
        lambda n: exact.TruncatedSeries.monomial(0, n, value[0]),
    ):
        with pytest.raises(ValueError):
            make(0)


# literals

digits = st.integers(min_value=0, max_value=10**30).map(str)
rationals = st.builds(
    lambda sign, p, q: f"{sign}{p}" + (f"/{q}" if q is not None else ""),
    st.sampled_from(["", "-", "+"]),
    digits,
    st.none() | digits,
)
grammar_literals = st.one_of(
    rationals,
    st.builds(lambda a, s, b: f"{a}{s}{b.lstrip('+-')}*sqrt2", rationals,
              st.sampled_from("+-"), rationals),
    st.builds(lambda b: f"{b}*sqrt2", rationals),
)


@given(grammar_literals)
def test_parse_matches_reference_on_the_grammar(text):
    try:
        old = ref.Scalar.parse(text)
    except ValueError:
        with pytest.raises(ValueError):  # only a zero denominator
            exact.Scalar.parse(text)
        return
    assert_same_scalar(exact.Scalar.parse(text), old)


@given(st.text(alphabet="0123456789+-/*.e sqrt_", max_size=14))
def test_parse_accepts_nothing_the_reference_rejects(text):
    try:
        new = exact.Scalar.parse(text)
    except ValueError:
        return
    assert_same_scalar(new, ref.Scalar.parse(text))
    assert not any(c in text for c in ".e_")


# sympy spot checks


def test_spot_check_against_sympy_quadratic_field():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.ring_series import rs_mul, rs_series_inversion
    from sympy.polys.rings import ring

    field = sympy.QQ.algebraic_field(sympy.sqrt(2))
    power_series, z = ring("z", field)

    def to_field(s):
        return field.from_sympy(
            sympy.Rational(s.a.numerator, s.a.denominator)
            + sympy.Rational(s.b.numerator, s.b.denominator) * sympy.sqrt(2)
        )

    def from_field(x):
        b, a = ([0, 0] + list(x.to_list()))[-2:]
        return exact.Scalar(Fraction(int(a.numerator), int(a.denominator)),
                            Fraction(int(b.numerator), int(b.denominator)))

    def to_ring(series):
        return sum((to_field(c) * z**k for k, c in enumerate(series.coeffs)), power_series(0))

    def from_ring(p, order):
        coeffs = [exact.Scalar.zero()] * order
        for (k,), c in p.terms():
            coeffs[k] = from_field(c)
        return exact.TruncatedSeries.from_coeffs(coeffs, order)

    rng = Random(20260)

    def scalar():
        return exact.Scalar(Fraction(rng.randint(-99, 99), rng.randint(1, 40)),
                            Fraction(rng.randint(-99, 99), rng.randint(1, 40)))

    for _ in range(30):
        x, y = scalar(), scalar()
        assert from_field(to_field(x) * to_field(y)) == x * y
        assert from_field(to_field(x) + to_field(y)) == x + y
        if not x.is_zero():
            assert from_field(field.one / to_field(x)) == x.inverse()
    for order in (1, 2, 3, 5, 8, 12, MAX_ORDER):
        u = exact.TruncatedSeries.from_coeffs([scalar() for _ in range(order)], order)
        v = exact.TruncatedSeries.from_coeffs([scalar() for _ in range(order)], order)
        product = rs_mul(to_ring(u), to_ring(v), z, order)
        assert from_ring(product, order) == u * v
        if u.is_unit():
            assert from_ring(rs_series_inversion(to_ring(u), z, order), order) == u.inverse()
