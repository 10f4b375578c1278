"""Differential gate for the integer kernel in su12fiber.exact.

Every operation is checked against two independent implementations of the
same arithmetic: fraction_reference (one reduced Fraction pair per
coefficient, the kernel's previous form) at orders 1..32 under hypothesis,
and sympy's QQ<sqrt(2)> with its power-series ring on seeded spot checks.
Agreement is exact: values and strings.  Values cross between the kernels
through from_ratios and the printed form only, and each result must hash
as the same value reached by another route: parsed back from its text, or
built from the reference's unreduced ratios.
"""

from fractions import Fraction
from math import gcd
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from paper_reference import series_from_coeffs, series_to_strings, series_valuation
from su12fiber import exact
from su12fiber.errors import NonUnitError, OrderMismatchError

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
    return ref.exact_scalar(a, b), ref.Scalar(a, b)


def _series_pair(parts, order):
    new = series_from_coeffs([ref.exact_scalar(a, b) for a, b in parts], order)
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


def assert_same_hash(new, *others):
    """Equal values reached by other routes are equal and hash equally."""
    for other in others:
        assert other == new and hash(other) == hash(new)


def assert_same_scalar(new, old):
    assert isinstance(new, exact.Scalar)
    assert ref.from_exact(new) == old
    text = str(new)
    assert text == str(old) and repr(new) == repr(old)
    assert_same_hash(new, ref.to_exact(old))
    if len(text) <= exact.MAX_LITERAL_LENGTH:  # parse refuses longer literals
        assert_same_hash(new, exact.Scalar.parse(text))
    assert new.is_zero() == old.is_zero()


def assert_same_series(new, old):
    assert isinstance(new, exact.TruncatedSeries)
    assert new.order == old.order
    for k in range(new.order):
        assert_same_scalar(new[k], old[k])
    assert series_to_strings(new) == old.to_strings()
    assert str(new) == str(old) and repr(new) == repr(old)
    assert_same_hash(new, ref.series_to_exact(old), series_from_coeffs(new.coeffs, new.order))
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
    assert str(xn) == str(xo)
    assert_same_scalar(xn, xo)
    assert_same_scalar(xn + yn, xo + yo)
    assert_same_scalar(xn - yn, xo - yo)
    assert_same_scalar(-xn, -xo)
    assert_same_scalar(xn * yn, xo * yo)
    assert_same_scalar(xn * exact.Scalar.of(3), xo * 3)
    assert_same_scalar(exact.Scalar.from_ratios(2, 7, 0, 1) - xn, Fraction(2, 7) - xo)
    assert (xn == yn) == (xo == yo)
    assert (xn == xo.a) == (xo == xo.a)
    if not yo.is_zero():
        assert_same_scalar(yn.inverse(), yo.inverse())
        assert_same_scalar(xn / yn, xo / yo)
    assert_same_scalar(exact.Scalar.parse(str(xn)), ref.Scalar.parse(str(xo)))


def _big_ints():
    # 1 to 5,000 digits, both signs; the top digit is nonzero
    return st.builds(
        lambda n, head, rest, sign: sign * (head * 10 ** (n - 1) + rest % 10 ** (n - 1)),
        st.integers(1, 5000), st.integers(1, 9), st.integers(0, 2**16600), st.sampled_from((1, -1)),
    )


@settings(max_examples=60, deadline=None)
@given(_big_ints(), _big_ints())
def test_scalar_of_an_int_matches_the_fraction_route(n, m):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # str of a 5,000-digit int
    try:
        for new, old in (
            (exact.Scalar.of(n), ref.Scalar(Fraction(n))),
            (exact.Scalar(n, m), ref.Scalar(Fraction(n), Fraction(m))),
        ):
            assert _triple(new) == _triple(ref.to_exact(old))
            assert_same_hash(new, ref.to_exact(old))
            assert str(new) == str(old) and repr(new) == repr(old)
    finally:
        sys.set_int_max_str_digits(limit)


def _text_or_error(x):
    try:
        return str(x)
    except ValueError as exc:  # a part past the int_max_str_digits limit
        return ValueError, str(exc)


@settings(max_examples=60, deadline=None)
@given(_big_ints(), _big_ints(), st.integers(1, 10**6))
def test_scalar_text_matches_reference_on_big_ints(p, r, unit):
    # the first scalar has big denominators too; the second and third hold
    # an integer part over a common denominator that can exceed 1, which
    # prints as "p", not "p/1"
    parts = [
        (Fraction(p, abs(r)), Fraction(r, abs(p))),
        (Fraction(p * unit), Fraction(r, unit)),
        (Fraction(p, unit), Fraction(r)),
    ]
    pairs = [(ref.exact_scalar(a, b), ref.Scalar(a, b)) for a, b in parts]
    for new, old in pairs:
        assert _text_or_error(new) == _text_or_error(old)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for new, old in pairs:
            assert str(new) == str(old) and repr(new) == repr(old)
    finally:
        sys.set_int_max_str_digits(limit)


@given(st.integers(-99, 99), st.integers(1, 99), st.integers(-99, 99), st.integers(1, 99),
       st.integers(1, 10**6), st.integers(1, 10**6))
def test_unreduced_ratios_hash_as_their_lowest_terms(p, q, r, s, k, m):
    # p/q + r/s*sqrt2 from every scaling of its ratios is one value with one hash
    x = exact.Scalar.from_ratios(p, q, r, s)
    assert_same_scalar(x, ref.Scalar(Fraction(p, q), Fraction(r, s)))
    assert_same_hash(x, exact.Scalar.from_ratios(p * k, q * k, r * m, s * m),
                     exact.Scalar.from_ratios(-p * k, -q * k, -r * m, -s * m))
    rows = [(p * k, q * k, 0, 1), (p, q, r * m, s * m), (0, k, r, s)]
    reduced = [(p, q, 0, 1), (p, q, r, s), (0, 1, r, s)]
    assert_same_hash(exact.TruncatedSeries.from_ratios(rows),
                     exact.TruncatedSeries.from_ratios(reduced))


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
    assert_same_series(xn * exact.TruncatedSeries.constant(cn, order), xo * co)
    third = exact.TruncatedSeries.constant(exact.Scalar.from_ratios(1, 3, 0, 1), order)
    assert_same_series(third - xn, Fraction(1, 3) - xo)
    assert (xn == yn) == (xo == yo)
    assert xn == xn + exact.TruncatedSeries.zero(order)


# the kernel returns an operand unchanged, or negated, for a zero summand
# and for a factor 0, 1 or -1, and shifts the other operand for a factor
# zeta^k or -zeta^k; the neighbouring kinds must take the full path
IDENTITY_KINDS = (
    "0", "1", "-1", "1/2", "sqrt2",
    "zeta^k", "-zeta^k", "2*zeta^k", "sqrt2*zeta^k", "monomial", "dense",
)
_CONSTANT_PARTS = {
    "0": (Fraction(0), Fraction(0)),
    "1": (Fraction(1), Fraction(0)),
    "-1": (Fraction(-1), Fraction(0)),
    "1/2": (Fraction(1, 2), Fraction(0)),
    "sqrt2": (Fraction(0), Fraction(1)),
}
# the coefficient of zeta^k, for k drawn over every index of the order
_MONOMIAL_PARTS = {
    "zeta^k": (Fraction(1), Fraction(0)),
    "-zeta^k": (Fraction(-1), Fraction(0)),
    "2*zeta^k": (Fraction(2), Fraction(0)),
    "sqrt2*zeta^k": (Fraction(0), Fraction(1)),
}
nonzero_components = components.map(lambda f: f or Fraction(1, 3))


@st.composite
def identity_operands(draw, kind, order):
    zero = (Fraction(0), Fraction(0))
    if kind == "monomial":
        parts = [zero] * order
        parts[draw(st.integers(0, order - 1))] = (
            draw(nonzero_components), draw(components),
        )
    elif kind in _MONOMIAL_PARTS:
        parts = [zero] * order
        parts[draw(st.integers(0, order - 1))] = _MONOMIAL_PARTS[kind]
    elif kind == "dense":
        parts = draw(
            st.lists(st.tuples(nonzero_components, components), min_size=order, max_size=order)
        )
    else:
        parts = [_CONSTANT_PARTS[kind]] + [zero] * (order - 1)
    return _series_pair(parts, order)


def _triple(s):
    # the packed representation: numerators and shared denominator, lowest terms
    return s._a, s._b, s._d


def assert_lowest_terms(s):
    a, b, d = _triple(s)
    assert d > 0 and gcd(d, *a, *b) == 1


@pytest.mark.parametrize("kind", IDENTITY_KINDS)
@settings(max_examples=12, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=32))
def test_identity_operands_match_reference(kind, data, order):
    xn, xo = data.draw(identity_operands(kind, order))
    others = [data.draw(identity_operands(other, order)) for other in IDENTITY_KINDS]
    for yn, yo in others:
        for new, old in (
            (xn * yn, xo * yo), (yn * xn, yo * xo),
            (xn + yn, xo + yo), (yn + xn, yo + xo),
            (xn - yn, xo - yo), (yn - xn, yo - xo),
        ):
            assert_same_series(new, old)
            assert_lowest_terms(new)


def test_zeta_times_a_series_renormalizes_what_truncation_drops():
    # at T = 2, zeta * (1 + zeta/2) is zeta: the 1/2 that kept (0, 2)/2 in
    # lowest terms falls off the top, and the shift must reduce to (0, 1)/1
    zeta = exact.TruncatedSeries.zeta(2)
    x = series_from_coeffs([1, exact.Scalar.from_ratios(1, 2, 0, 1)], 2)
    for product in (zeta * x, x * zeta):
        assert product == zeta
        assert _triple(product) == ((0, 1), (0, 0), 1)
    assert _triple(-zeta * x) == ((0, -1), (0, 0), 1)


def test_monomial_products_at_every_index():
    # every k at every order 1..32, against an operand whose top coefficient
    # alone carries a denominator, so that every shift by k >= 1 renormalizes
    for order in range(1, 33):
        parts = [(Fraction(j + 1), Fraction(-j)) for j in range(order - 1)]
        xn, xo = _series_pair(parts + [(Fraction(1, 6), Fraction(1, 10))], order)
        for k in range(order):
            for value in (_MONOMIAL_PARTS["zeta^k"], _MONOMIAL_PARTS["-zeta^k"]):
                mn, mo = _series_pair([(0, 0)] * k + [value] + [(0, 0)] * (order - 1 - k), order)
                for new, old in ((mn * xn, mo * xo), (xn * mn, xo * mo)):
                    assert new == ref.series_to_exact(old)
                    assert_lowest_terms(new)


# dense products: Kronecker substitution from exact.KRONECKER_ORDER on


@st.composite
def wide_series_pairs(draw, order):
    """Numerators of 1 to 400 bits, both signs, over a shared denominator,
    with anywhere from none to all of the 2 * order numerators zero."""
    bits = draw(st.integers(1, 400))
    numerators = st.integers(-(2**bits - 1), 2**bits - 1)
    d = draw(st.sampled_from((1, 3, 2**bits + 1)))
    values = draw(st.lists(numerators, min_size=2 * order, max_size=2 * order))
    for k in draw(st.lists(st.integers(0, 2 * order - 1), max_size=2 * order)):
        values[k] = 0
    parts = [(Fraction(values[k], d), Fraction(values[order + k], d)) for k in range(order)]
    return _series_pair(parts, order)


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(min_value=exact.KRONECKER_ORDER - 4, max_value=32))
def test_wide_products_match_reference_on_both_sides_of_the_crossover(data, order):
    (xn, xo), (yn, yo) = data.draw(wide_series_pairs(order)), data.draw(wide_series_pairs(order))
    expected = xo * yo
    for new in (xn * yn, yn * xn, exact._kronecker_product(xn, yn)):
        assert_same_series(new, expected)
        assert_lowest_terms(new)


def test_worst_magnitude_products_fill_their_fields():
    # every numerator +-(2^k - 1), one sign per operand, denominator 1: the
    # top coefficient of the rational part is 3T times the two maxima, as
    # large as the field width bound allows.  k1 + k2 runs over all eight
    # residues mod 8, so a field one bit short overflows at some width
    # rounded up to whole bytes
    for order in (exact.KRONECKER_ORDER, 16, 21, 32):
        for k1 in range(8, 16):
            for k2 in (k1, k1 + 1):
                for sign in (1, -1):
                    m1, m2 = 2**k1 - 1, sign * (2**k2 - 1)
                    xn, xo = _series_pair([(Fraction(m1), Fraction(m1))] * order, order)
                    yn, yo = _series_pair([(Fraction(m2), Fraction(m2))] * order, order)
                    product = xn * yn
                    assert _triple(product) == _triple(exact._kronecker_product(xn, yn))
                    assert_same_series(product, xo * yo)
                    assert product[order - 1] == exact.Scalar(3 * order * m1 * m2, 2 * order * m1 * m2)


# one coefficient of a product: exact.product_coeff, which smith_form reads
# its truncation defect with


@st.composite
def product_coeff_operands(draw, order):
    """The zero series, +-zeta^k, a constant with a sqrt2 part, or a dense
    series of 1- to 400-bit numerators of both signs."""
    kind = draw(st.sampled_from(("0", "zeta^k", "-zeta^k", "constant", "wide")))
    if kind == "wide":
        return draw(wide_series_pairs(order))
    if kind == "constant":
        head = (draw(components), draw(nonzero_components))
        return _series_pair([head] + [(Fraction(0), Fraction(0))] * (order - 1), order)
    return draw(identity_operands(kind, order))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=32))
def test_product_coeff_is_the_coefficient_of_the_product(data, order):
    xn, xo = data.draw(product_coeff_operands(order))
    yn, yo = data.draw(product_coeff_operands(order))
    product, expected = xn * yn, xo * yo
    for k in range(order):
        c = exact.product_coeff(xn, yn, k)
        assert c == product[k]
        assert_same_scalar(c, expected[k])
    for k in (-1, order):
        with pytest.raises(ValueError):
            exact.product_coeff(xn, yn, k)
    with pytest.raises(OrderMismatchError):
        exact.product_coeff(xn, exact.TruncatedSeries.zero(order + 1), 0)


def test_scalar_operators_defer_on_foreign_operands():
    x = exact.Scalar(1, 1)
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
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
            padded = series_from_coeffs(head, order)
            assert _triple(new) == _triple(padded)
        for bad in (-1, order):
            with pytest.raises(ValueError):
                exact.TruncatedSeries.monomial(bad, order, vn)
    # zero, one and zeta are built once per order and shared
    for make in (exact.TruncatedSeries.zero, exact.TruncatedSeries.one, exact.TruncatedSeries.zeta):
        if order >= 2 or make is not exact.TruncatedSeries.zeta:
            assert make(order) is make(order)
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
        r = ref.from_exact(s)
        a, b = r.a, r.b
        return field.from_sympy(
            sympy.Rational(a.numerator, a.denominator)
            + sympy.Rational(b.numerator, b.denominator) * sympy.sqrt(2)
        )

    def from_field(x):
        b, a = ([0, 0] + list(x.to_list()))[-2:]
        return exact.Scalar.from_ratios(int(a.numerator), int(a.denominator),
                                        int(b.numerator), int(b.denominator))

    def to_ring(series):
        return sum((to_field(c) * z**k for k, c in enumerate(series.coeffs)), power_series(0))

    def from_ring(p, order):
        coeffs = [exact.Scalar.zero()] * order
        for (k,), c in p.terms():
            coeffs[k] = from_field(c)
        return series_from_coeffs(coeffs, order)

    rng = Random(20260)

    def scalar():
        return exact.Scalar.from_ratios(rng.randint(-99, 99), rng.randint(1, 40),
                                        rng.randint(-99, 99), rng.randint(1, 40))

    for _ in range(30):
        x, y = scalar(), scalar()
        assert from_field(to_field(x) * to_field(y)) == x * y
        assert from_field(to_field(x) + to_field(y)) == x + y
        if not x.is_zero():
            assert from_field(field.one / to_field(x)) == x.inverse()
    for order in (1, 2, 3, 5, 8, 12, MAX_ORDER):
        u = series_from_coeffs([scalar() for _ in range(order)], order)
        v = series_from_coeffs([scalar() for _ in range(order)], order)
        product = rs_mul(to_ring(u), to_ring(v), z, order)
        assert from_ring(product, order) == u * v
        if u.is_unit():
            assert from_ring(rs_series_inversion(to_ring(u), z, order), order) == u.inverse()
