"""Exact arithmetic: the field Q(sqrt2), truncated power series, 2x2 matrices.

Everything downstream reduces to identities in R = Q(sqrt2)[[zeta]] / zeta^T
for a fixed truncation order T.  Keeping the coefficient field exact turns
every check in the package into a zero-tolerance equality; no floats appear
anywhere.

Scalars and series share one representation: integer numerators for the
rational part and for the sqrt2 part over one positive denominator, in
lowest terms (the gcd of the denominator and every numerator is 1), the
layout of FLINT's fmpq_poly.  A scalar (a + b*sqrt2) / d is the triple
(a, b, d); a series of order T is two length-T tuples of numerators and
one d.  Every operation runs on Python ints and divides out one gcd at
the end, not one per coefficient, and lowest terms make equality a
comparison of triples.  The Fraction components Scalar.a and Scalar.b,
and the Scalar coefficients TruncatedSeries.coeffs and series[k], are
read-only views built on demand.

Series are coefficient vectors of fixed length T; all ring operations stay
at one order and refuse to mix orders.  A series is a unit iff its constant
term is nonzero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from .errors import NonUnitError, OrderMismatchError

ScalarLike = Union["Scalar", int, Fraction]


def _as_fraction(x: Union[int, Fraction]) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _operand(x: object) -> "Scalar | None":
    """x as a Scalar if it is a ScalarLike, else None."""
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return None


def _scalar(a: int, b: int, d: int) -> "Scalar":
    """The scalar (a + b*sqrt2) / d for d != 0, brought to lowest terms."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    s = object.__new__(Scalar)
    if g == 1:
        s._a, s._b, s._d = a, b, d
    else:
        s._a, s._b, s._d = a // g, b // g, d // g
    return s


# the rational part of a literal, and the whole README grammar: "p/q",
# "p/q+r/s*sqrt2", "p/q-r/s*sqrt2" and "r/s*sqrt2", integers allowed
_RATIONAL = r"[+-]?[0-9]+(?:/[0-9]+)?"
_LITERAL = re.compile(
    rf"(?P<a>{_RATIONAL})(?:(?P<sign>[+-])(?P<b>[0-9]+(?:/[0-9]+)?)\*sqrt2)?"
    rf"|(?P<b_alone>{_RATIONAL})\*sqrt2"
)


# Python refuses to print an int of more than 4300 digits (its default
# int_max_str_digits).  Reports print parsed coordinates and ratios t/t0 of
# two of them (the S-equivalence representative).  Write a literal
# p/q + r/s*sqrt2 of at most L characters as (P + R*sqrt2)/Q with P = p*s,
# R = r*q, Q = q*s: the four integers have at most L digits together, so
# P, R, Q < 10^L.  Then
#   t/t0 = Q0 * ((P*P0 - 2*R*R0) + (R*P0 - P*R0)*sqrt2) / (Q * (P0^2 - 2*R0^2))
# has numerators and denominator below 3 * 10^(3L), at most 3L + 1 digits
# before reduction, which only shrinks them; 3L + 1 <= 4300 gives the cap
MAX_LITERAL_LENGTH = (4300 - 1) // 3


class Scalar:
    """Element a + b*sqrt2 of the real quadratic field Q(sqrt2).

    Components are rationals of arbitrary precision.  The field norm
    a^2 - 2*b^2 vanishes only at zero (sqrt2 is irrational), so every
    nonzero element is invertible.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: Union[int, Fraction] = 0, b: Union[int, Fraction] = 0) -> None:
        fa, fb = _as_fraction(a), _as_fraction(b)
        qa, qb = fa.denominator, fb.denominator
        d = qa // gcd(qa, qb) * qb
        # both Fractions are reduced, so (a, b, lcm) is in lowest terms
        self._a = fa.numerator * (d // qa)
        self._b = fb.numerator * (d // qb)
        self._d = d

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt2."""
        return Fraction(self._b, self._d)

    @staticmethod
    def of(x: ScalarLike) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(_as_fraction(x))

    @staticmethod
    def from_ratios(p: int, q: int, r: int, s: int) -> "Scalar":
        """The scalar p/q + (r/s)*sqrt2 from integers, q and s nonzero."""
        return _scalar(p * s, r * q, q * s)

    @staticmethod
    def zero() -> "Scalar":
        return _ZERO

    @staticmethod
    def one() -> "Scalar":
        return _ONE

    @staticmethod
    def sqrt2() -> "Scalar":
        return _SQRT2

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Scalar:
            return NotImplemented
        return self._d == other._d and self._a == other._a and self._b == other._b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    # the binary operations return NotImplemented for an operand that is
    # not a ScalarLike, so that a series on the other side can take over

    def __add__(self, other: ScalarLike) -> "Scalar":
        o = other if other.__class__ is Scalar else _operand(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        return _scalar(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return _scalar(-self._a, -self._b, self._d)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        o = other if other.__class__ is Scalar else _operand(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = other if other.__class__ is Scalar else _operand(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        # (a + b s)(c + e s) = ac + 2be + (ae + bc) s  with s^2 = 2
        return _scalar(a * c + 2 * b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        a, b = self._a, self._b
        norm = a * a - 2 * b * b
        if not norm:
            raise ZeroDivisionError("zero is not invertible in Q(sqrt2)")
        # d / (a + b s) = d (a - b s) / (a^2 - 2 b^2)
        return _scalar(self._d * a, -self._d * b, norm)

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        return self * Scalar.of(other).inverse()

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) * self.inverse()

    def __str__(self) -> str:
        if not self._b:
            return str(self.a)
        b = self.b
        sign = "-" if b < 0 else "+"
        return f"{self.a}{sign}{abs(b)}*sqrt2"

    def __repr__(self) -> str:
        return f"Scalar({str(self)!r})"

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse "p/q" or "p/q+r/s*sqrt2" (also "-r/s*sqrt2", integer parts).

        Spaces are ignored.  Anything else, including a non-string, a
        decimal or exponent literal, a zero denominator, or a literal
        longer than MAX_LITERAL_LENGTH characters, raises ValueError.
        """
        if not isinstance(text, str):
            raise ValueError(f"scalar literal must be a string, got {text!r}")
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar literal")
        if len(s) > MAX_LITERAL_LENGTH:
            raise ValueError(
                f"scalar literal of {len(s)} characters exceeds {MAX_LITERAL_LENGTH}"
            )
        m = _LITERAL.fullmatch(s)
        if m is None:
            raise ValueError(f"malformed scalar literal: {text!r}")
        try:
            if m["b_alone"] is not None:
                return Scalar(0, Fraction(m["b_alone"]))
            b = Fraction(m["b"]) if m["b"] is not None else Fraction(0)
            return Scalar(Fraction(m["a"]), -b if m["sign"] == "-" else b)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar literal: {text!r}") from None


_ZERO = Scalar(0, 0)
_ONE = Scalar(1, 0)
_SQRT2 = Scalar(0, 1)

DEFAULT_ORDER = 8


def _series(a: Sequence[int], b: Sequence[int], d: int) -> "TruncatedSeries":
    """The series (a + b*sqrt2) / d for d != 0, brought to lowest terms."""
    g = gcd(d, *a, *b)
    if d < 0:
        g = -g
    s = object.__new__(TruncatedSeries)
    if g == 1:
        s._a, s._b, s._d = tuple(a), tuple(b), d
    else:
        s._a = tuple([x // g for x in a])
        s._b = tuple([y // g for y in b])
        s._d = d // g
    return s


class TruncatedSeries:
    """Element of Q(sqrt2)[[zeta]] / zeta^T as a coefficient vector of length T.

    coeffs[k] is the zeta^k coefficient.  The truncation order T is the
    vector length and is immutable; operations on mismatched orders raise
    OrderMismatchError rather than silently re-truncate.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, coeffs: Iterable[ScalarLike]) -> None:
        cs = [Scalar.of(c) for c in coeffs]
        if not cs:
            raise ValueError("truncation order must be >= 1")
        d = 1
        for c in cs:
            d = d // gcd(d, c._d) * c._d
        # every coefficient is in lowest terms and d is the lcm of their
        # denominators, so the packed series is in lowest terms as well
        self._a = tuple(c._a * (d // c._d) for c in cs)
        self._b = tuple(c._b * (d // c._d) for c in cs)
        self._d = d

    @property
    def order(self) -> int:
        return len(self._a)

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        d = self._d
        return tuple(_scalar(x, y, d) for x, y in zip(self._a, self._b))

    # constructors

    @staticmethod
    def from_coeffs(values: Iterable[ScalarLike], order: int) -> "TruncatedSeries":
        vals = [Scalar.of(v) for v in values]
        if len(vals) > order:
            raise ValueError(f"{len(vals)} coefficients exceed order {order}")
        vals += [Scalar.zero()] * (order - len(vals))
        return TruncatedSeries(vals)

    @staticmethod
    def constant(value: ScalarLike, order: int) -> "TruncatedSeries":
        return TruncatedSeries.monomial(0, order, value)

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries.monomial(0, order, 0)

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries.monomial(0, order)

    @staticmethod
    def zeta(order: int) -> "TruncatedSeries":
        return TruncatedSeries.monomial(1, order)

    @staticmethod
    def monomial(k: int, order: int, value: ScalarLike = 1) -> "TruncatedSeries":
        """value * zeta^k: the numerators of value at index k, zeros elsewhere."""
        if not 0 <= k < order:
            raise ValueError(f"exponent {k} out of range for order {order}")
        v = Scalar.of(value)
        a, b = [0] * order, [0] * order
        a[k], b[k] = v._a, v._b
        return _series(a, b, v._d)

    # inspection

    def __getitem__(self, k: int) -> Scalar:
        return _scalar(self._a[k], self._b[k], self._d)

    @property
    def constant_term(self) -> Scalar:
        return self[0]

    def is_zero(self) -> bool:
        return not any(self._a) and not any(self._b)

    def is_unit(self) -> bool:
        return bool(self._a[0] or self._b[0])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TruncatedSeries:
            return NotImplemented
        return self._d == other._d and self._a == other._a and self._b == other._b

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    # ring operations

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )

    def _coerce(self, other: Union["TruncatedSeries", ScalarLike]) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            self._check_order(other)
            return other
        return TruncatedSeries.constant(Scalar.of(other), self.order)

    def _plus(self, o: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign * o over the least common denominator."""
        g = gcd(self._d, o._d)
        f, h = o._d // g, sign * (self._d // g)
        return _series(
            [x * f + u * h for x, u in zip(self._a, o._a)],
            [y * f + v * h for y, v in zip(self._b, o._b)],
            self._d * f,
        )

    def __add__(self, other) -> "TruncatedSeries":
        return self._plus(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return _series([-x for x in self._a], [-y for y in self._b], self._d)

    def __sub__(self, other) -> "TruncatedSeries":
        return self._plus(self._coerce(other), -1)

    def __rsub__(self, other) -> "TruncatedSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "TruncatedSeries":
        s, o = self, self._coerce(other)
        # the loop skips zeros of its outer operand: make that the sparser one
        if o._a.count(0) + o._b.count(0) > s._a.count(0) + s._b.count(0):
            s, o = o, s
        u, v = o._a, o._b
        T = len(u)
        A = [0] * T
        B = [0] * T
        # schoolbook convolution truncated at T, with s^2 = 2:
        # (x + y s)(p + q s) = xp + 2yq + (xq + yp) s
        for i, (x, y) in enumerate(zip(s._a, s._b)):
            if y:
                y2 = 2 * y
                for k, p, q in zip(range(i, T), u, v):
                    A[k] += x * p + y2 * q
                    B[k] += x * q + y * p
            elif x:
                for k, p, q in zip(range(i, T), u, v):
                    A[k] += x * p
                    B[k] += x * q
        return _series(A, B, s._d * o._d)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; defined iff the constant term is nonzero."""
        a, b, d = self._a, self._b, self._d
        if not (a[0] or b[0]):
            raise NonUnitError("series with vanishing constant term is not a unit")
        T = len(a)
        # s = (a + b s2)/d times its conjugate (a - b s2)/d is n/d^2 with n
        # rational, so 1/s = d (a - b s2) (1/n)
        n = [0] * T
        for i in range(T):
            x, y = a[i], 2 * b[i]
            for j in range(T - i):
                n[i + j] += x * a[j] - y * b[j]
        # 1/n = w / n0^T in integers: n0 w_0 = n0^T, and the coefficients of
        # n * w past the constant vanish, n0 w_k = -(n_1 w_(k-1) + ... + n_k w_0),
        # a division that is exact since each w_k is n0^(T-1-k) times an integer
        n0 = n[0]
        w = [n0 ** (T - 1)]
        for k in range(1, T):
            w.append(-sum(n[i] * w[k - i] for i in range(1, k + 1)) // n0)
        A = [0] * T
        B = [0] * T
        for i in range(T):
            x, y = d * a[i], -d * b[i]
            for j in range(T - i):
                A[i + j] += x * w[j]
                B[i + j] += y * w[j]
        return _series(A, B, n0**T)

    def div_zeta(self) -> "TruncatedSeries":
        """Exact division by zeta for series with vanishing constant term.

        The result r keeps the same order, with r[T-1] set to zero: that
        coefficient is genuinely lost by truncation, but zeta * r == self
        holds exactly at order T again regardless of the choice.
        """
        if self._a[0] or self._b[0]:
            raise NonUnitError("constant term must vanish for exact zeta division")
        return _series(self._a[1:] + (0,), self._b[1:] + (0,), self._d)

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"({c})*zeta")
            else:
                parts.append(f"({c})*zeta^{k}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TruncatedSeries[{self.order}]({str(self)})"


SeriesPair = tuple[TruncatedSeries, TruncatedSeries]


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over one truncation order of Q(sqrt2)[[zeta]]/zeta^T."""

    entries: tuple[SeriesPair, SeriesPair]

    def __post_init__(self) -> None:
        orders = {e.order for row in self.entries for e in row}
        if len(orders) != 1:
            raise OrderMismatchError(f"mixed truncation orders in matrix: {sorted(orders)}")

    @property
    def order(self) -> int:
        return self.entries[0][0].order

    @staticmethod
    def from_cols(col0: SeriesPair, col1: SeriesPair) -> "Mat2":
        return Mat2(((col0[0], col1[0]), (col0[1], col1[1])))

    @staticmethod
    def identity(order: int) -> "Mat2":
        one = TruncatedSeries.one(order)
        zero = TruncatedSeries.zero(order)
        return Mat2(((one, zero), (zero, one)))

    @staticmethod
    def diag(d0: TruncatedSeries, d1: TruncatedSeries) -> "Mat2":
        zero = TruncatedSeries.zero(d0.order)
        return Mat2(((d0, zero), (zero, d1)))

    def __getitem__(self, i: int) -> SeriesPair:
        return self.entries[i]

    def col(self, j: int) -> SeriesPair:
        return (self.entries[0][j], self.entries[1][j])

    def with_col(self, j: int, column: SeriesPair) -> "Mat2":
        cols = [self.col(0), self.col(1)]
        cols[j] = column
        return Mat2.from_cols(cols[0], cols[1])

    def scale_col(self, j: int, factor: TruncatedSeries) -> "Mat2":
        c = self.col(j)
        return self.with_col(j, (c[0] * factor, c[1] * factor))

    def __matmul__(self, other: "Mat2") -> "Mat2":
        (a, b), (c, d) = self.entries
        (e, f), (g, h) = other.entries
        return Mat2(
            (
                (a * e + b * g, a * f + b * h),
                (c * e + d * g, c * f + d * h),
            )
        )

    def det(self) -> TruncatedSeries:
        (a, b), (c, d) = self.entries
        return a * d - b * c

    def adjugate(self) -> "Mat2":
        (a, b), (c, d) = self.entries
        return Mat2(((d, -b), (-c, a)))

    def is_unit(self) -> bool:
        """Invertible over the local ring iff det(0) = a0*d0 - b0*c0 is nonzero."""
        (a, b), (c, d) = self.entries
        return not (a[0] * d[0] - b[0] * c[0]).is_zero()

    def __str__(self) -> str:
        (a, b), (c, d) = self.entries
        return f"[[{a}, {b}], [{c}, {d}]]"
