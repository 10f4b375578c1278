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
comparison of triples and hashing a hash of the triple.  The Scalar
coefficients TruncatedSeries.coeffs and series[k] are read-only views
built on demand.

Series are coefficient vectors of fixed length T.  A series is a unit iff
its constant term is nonzero.

Values convert where they enter: Scalar(a, b) and Scalar.of make scalars
of ints, from_ratios of integer ratios and parse of literals, and
TruncatedSeries.constant, monomial and from_ratios make series.  A bool,
a float or any other non-int raises TypeError there.
Arithmetic then takes one operand kind: a Scalar operator takes a Scalar,
and a series operator a series of its own order.  Any other operand raises
TypeError, and a series of another order OrderMismatchError.

Values are immutable and in lowest terms, so an operation whose result is
one of its operands may return that operand: a sum with the zero series,
and a product with the constant 1 or -1, return the other operand or its
negation without arithmetic, and a product with the zero series returns
the zero series.  A product with zeta^k or -zeta^k for k >= 1 shifts the
other operand's numerators up by k, negated for -zeta^k, without a
convolution; it still divides out their gcd, since the coefficients that
truncation drops may be the ones that kept them in lowest terms.  The
zero, one and zeta series of an order are built once and shared.

Any other product takes one of two paths, chosen from the operands.  The
schoolbook convolution loops over the nonzero coefficients of the sparser
operand.  When the order is at least KRONECKER_ORDER (12) and at most half
the numerators of either operand are zero, Kronecker substitution packs
each numerator vector into one int of W-bit fields and convolves by three
big-int products; it is exact because W - 1 >= bitlen(max |numerator of
s|) + bitlen(max |numerator of o|) + bitlen(3T) for the operands s and o.
Per dense product of the local-model suite, the packed product is about
1.2x faster at order 12, 1.5x at 16 and 1.8x to 2x at 32; at orders 8
to 10 the two are within 5 % of each other.

product_coeff(s, o, k) is the zeta^k coefficient of s * o alone: one
integer dot product per pair of numerator vectors, then one reduction,
without the other T - 1 coefficients of the product.

Mat2 is frozen as well, and det() computes a*d - b*c once per matrix and
keeps it on the instance, outside the dataclass fields, so equality,
hashing, repr and dataclasses.replace never see it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import NonUnitError, OrderMismatchError

ScalarLike = Union["Scalar", int]


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


def _ratio_text(n: int, d: int) -> str:
    """The ratio n/d for d > 0 as "p" or "p/q" in lowest terms; like
    str(int), it raises ValueError past the int_max_str_digits limit."""
    g = gcd(n, d)
    if g == d:
        return str(n // d)
    return f"{n // g}/{d // g}"


# the README grammar, "p/q", "p/q+r/s*sqrt2", "p/q-r/s*sqrt2" and
# "r/s*sqrt2", integers allowed, one group per integer; r carries the sign
# between the two parts, which it must have when p is there
_LITERAL = re.compile(
    r"(?:(?P<p>[+-]?[0-9]+)(?:/(?P<q>[0-9]+))?)?"
    r"(?:(?P<r>(?(p)[+-]|[+-]?)[0-9]+)(?:/(?P<s>[0-9]+))?\*sqrt2)?"
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

    def __init__(self, a: int = 0, b: int = 0) -> None:
        """The scalar a + b*sqrt2 for two ints; a bool is not one."""
        if a.__class__ is not int or b.__class__ is not int:
            raise TypeError(
                f"Scalar(a, b) takes two ints, got {type(a).__name__} and {type(b).__name__}"
            )
        self._a, self._b, self._d = a, b, 1

    @staticmethod
    def of(x: ScalarLike) -> "Scalar":
        return x if isinstance(x, Scalar) else Scalar(x)

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
        return hash((self._a, self._b, self._d))

    def __add__(self, o: "Scalar") -> "Scalar":
        if o.__class__ is not Scalar:
            return NotImplemented
        d, e = self._d, o._d
        return _scalar(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    def __neg__(self) -> "Scalar":
        return _scalar(-self._a, -self._b, self._d)

    def __sub__(self, o: "Scalar") -> "Scalar":
        if o.__class__ is not Scalar:
            return NotImplemented
        return self + (-o)

    def __mul__(self, o: "Scalar") -> "Scalar":
        if o.__class__ is not Scalar:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        # (a + b s)(c + e s) = ac + 2be + (ae + bc) s  with s^2 = 2
        return _scalar(a * c + 2 * b * e, a * e + b * c, self._d * o._d)

    def inverse(self) -> "Scalar":
        a, b = self._a, self._b
        norm = a * a - 2 * b * b
        if not norm:
            raise ZeroDivisionError("zero is not invertible in Q(sqrt2)")
        # d / (a + b s) = d (a - b s) / (a^2 - 2 b^2)
        return _scalar(self._d * a, -self._d * b, norm)

    def __truediv__(self, o: "Scalar") -> "Scalar":
        if o.__class__ is not Scalar:
            return NotImplemented
        return self * o.inverse()

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return _ratio_text(a, d)
        sign = "-" if b < 0 else "+"
        return f"{_ratio_text(a, d)}{sign}{_ratio_text(abs(b), d)}*sqrt2"

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
        literal = text.strip().replace(" ", "")
        if not literal:
            raise ValueError("empty scalar literal")
        if len(literal) > MAX_LITERAL_LENGTH:
            raise ValueError(
                f"scalar literal of {len(literal)} characters exceeds {MAX_LITERAL_LENGTH}"
            )
        m = _LITERAL.fullmatch(literal)
        if m is None:
            raise ValueError(f"malformed scalar literal: {text!r}")
        # an absent numerator reads 0 and an absent denominator 1
        p, q, r, s = m.group("p", "q", "r", "s")
        p, q, r, s = int(p or 0), int(q or 1), int(r or 0), int(s or 1)
        if not q or not s:
            raise ValueError(f"zero denominator in scalar literal: {text!r}")
        return Scalar.from_ratios(p, q, r, s)


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


# a product of two dense series (at most half the numerators of either
# zero) goes through _kronecker_product from this order on; below it the
# schoolbook loop is as fast, per dense product of the self-check suite
KRONECKER_ORDER = 12


def _pack(c: Sequence[int], W: int) -> int:
    """The int sum of c[k] * 2^(W*k): c(X) at X = 2^W, signs and all."""
    x = 0
    for t in reversed(c):
        x = (x << W) + t
    return x


def _kronecker_product(s: "TruncatedSeries", o: "TruncatedSeries") -> "TruncatedSeries":
    """s * o by Kronecker substitution, in three big-int products.

    Packed ints multiply as their vectors convolve.  For s = (a + b*sqrt2)/d
    and o = (u + v*sqrt2)/e the product is (A + B*sqrt2)/(d*e) with
    A = au + 2bv and B = (a + b)(u + v) - au - bv, of which the low T
    coefficients are kept.
    """
    a, b, u, v = s._a, s._b, o._a, o._b
    T = len(a)
    # each A_k and B_k sums at most T terms, each at most 3*max|s|*max|o|
    # in size, so |A_k|, |B_k| < 2^(W-1) by the bound
    #   W - 1 >= bitlen(max|s|) + bitlen(max|o|) + bitlen(3T).
    # Adding half a field to each of the low T fields puts field k at
    # A_k + 2^(W-1) in [0, 2^W): no field borrows from the next, and the
    # low T fields unpack exactly.  W is rounded up to whole bytes
    bits = (
        max(map(abs, a + b)).bit_length()
        + max(map(abs, u + v)).bit_length()
        + (3 * T).bit_length()
        + 1
    )
    n = (bits + 7) // 8  # bytes per field
    W = 8 * n
    pa, pb, pu, pv = _pack(a, W), _pack(b, W), _pack(u, W), _pack(v, W)
    au, bv = pa * pu, pb * pv
    mid = (pa + pb) * (pu + pv)
    half = 1 << (W - 1)
    offset = int.from_bytes(half.to_bytes(n, "little") * T, "little")
    low = (1 << (W * T)) - 1  # the T fields below zeta^T
    parts = []
    for x in (au + 2 * bv, mid - au - bv):
        buf = ((x + offset) & low).to_bytes(n * T, "little")
        parts.append([int.from_bytes(buf[i : i + n], "little") - half for i in range(0, n * T, n)])
    return _series(parts[0], parts[1], s._d * o._d)


def _order_mismatch(s: "TruncatedSeries", o: "TruncatedSeries") -> OrderMismatchError:
    return OrderMismatchError(f"truncation orders differ: {s.order} vs {o.order}")


class TruncatedSeries:
    """Element of Q(sqrt2)[[zeta]] / zeta^T as a coefficient vector of length T.

    coeffs[k] is the zeta^k coefficient.  The truncation order T is the
    vector length and is immutable; operations on mismatched orders raise
    OrderMismatchError rather than silently re-truncate.  Series come from
    from_ratios, monomial, constant, zero, one and zeta, and from arithmetic.
    """

    __slots__ = ("_a", "_b", "_d")

    @property
    def order(self) -> int:
        return len(self._a)

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        d = self._d
        return tuple(_scalar(x, y, d) for x, y in zip(self._a, self._b))

    # constructors

    @staticmethod
    def constant(value: ScalarLike, order: int) -> "TruncatedSeries":
        return TruncatedSeries.monomial(0, order, value)

    @staticmethod
    def from_ratios(rows: Iterable[tuple[int, int, int, int]]) -> "TruncatedSeries":
        """The series whose zeta^k coefficient is p/q + (r/s)*sqrt2 for the
        k-th row (p, q, r, s) of integers, q and s nonzero: Scalar.from_ratios
        for every coefficient, over one common denominator."""
        rows = list(rows)
        if not rows:
            raise ValueError("truncation order must be >= 1")
        d = lcm(*[q * s for _, q, _, s in rows])
        scales = [d // (q * s) for _, q, _, s in rows]
        return _series(
            [p * s * m for (p, _, _, s), m in zip(rows, scales)],
            [r * q * m for (_, q, r, _), m in zip(rows, scales)],
            d,
        )

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return _memo_monomial(0, order, 0)

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return _memo_monomial(0, order, 1)

    @staticmethod
    def zeta(order: int) -> "TruncatedSeries":
        return _memo_monomial(1, order, 1)

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
        return hash((self._a, self._b, self._d))

    # ring operations

    def _plus(self, o: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign * o over the least common denominator."""
        # the zero series has d == 1, which rules most operands out at once
        if o._d == 1 and o.is_zero():
            return self
        if self._d == 1 and self.is_zero():
            return o if sign == 1 else -o
        g = gcd(self._d, o._d)
        f, h = o._d // g, sign * (self._d // g)
        return _series(
            [x * f + u * h for x, u in zip(self._a, o._a)],
            [y * f + v * h for y, v in zip(self._b, o._b)],
            self._d * f,
        )

    def __add__(self, o: "TruncatedSeries") -> "TruncatedSeries":
        if o.__class__ is not TruncatedSeries:
            return NotImplemented
        if len(o._a) != len(self._a):
            raise _order_mismatch(self, o)
        return self._plus(o, 1)

    def __neg__(self) -> "TruncatedSeries":
        return _series([-x for x in self._a], [-y for y in self._b], self._d)

    def __sub__(self, o: "TruncatedSeries") -> "TruncatedSeries":
        if o.__class__ is not TruncatedSeries:
            return NotImplemented
        if len(o._a) != len(self._a):
            raise _order_mismatch(self, o)
        return self._plus(o, -1)

    def __mul__(self, o: "TruncatedSeries") -> "TruncatedSeries":
        if o.__class__ is not TruncatedSeries:
            return NotImplemented
        s = self
        if len(o._a) != len(s._a):
            raise _order_mismatch(s, o)
        # the loop skips zeros of its outer operand: make that the sparser one
        zeros, zo = s._a.count(0) + s._b.count(0), o._a.count(0) + o._b.count(0)
        if zo > zeros:
            s, o, zeros = o, s, zo
        u, v = o._a, o._b
        T = len(u)
        if zeros == 2 * T:
            return s
        # the monomials +-zeta^k: a single numerator +-1 at index k, d == 1.
        # The product shifts the numerators of o up by k, and truncation can
        # drop the coefficient that kept them in lowest terms: renormalize
        if zeros == 2 * T - 1 and s._d == 1:
            a = s._a
            sign = 1 if 1 in a else -1 if -1 in a else 0
            if sign:
                k = a.index(sign)
                if not k:
                    return o if sign == 1 else -o
                pad, n = [0] * k, T - k
                return _series(
                    pad + [sign * p for p in u[:n]], pad + [sign * q for q in v[:n]], o._d
                )
        if T >= KRONECKER_ORDER and zeros <= T:
            return _kronecker_product(s, o)
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


def product_coeff(s: TruncatedSeries, o: TruncatedSeries, k: int) -> Scalar:
    """(s * o)[k] for series of one order, from the first k + 1 coefficients of
    each: with s = (a + b*sqrt2)/d and o = (u + v*sqrt2)/e, the dot products
    of a[k::-1] and b[k::-1] with u and v, over d*e."""
    if len(o._a) != len(s._a):
        raise _order_mismatch(s, o)
    if not 0 <= k < len(s._a):
        raise ValueError(f"exponent {k} out of range for order {len(s._a)}")
    a, b, u, v = s._a[k::-1], s._b[k::-1], o._a, o._b
    return _scalar(
        sum(map(mul, a, u)) + 2 * sum(map(mul, b, v)),
        sum(map(mul, a, v)) + sum(map(mul, b, u)),
        s._d * o._d,
    )


@lru_cache(maxsize=128)
def _memo_monomial(k: int, order: int, value: int) -> TruncatedSeries:
    # zero, one and zeta, built once per order: the values are immutable
    return TruncatedSeries.monomial(k, order, value)


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
        # computed once per matrix and kept beside the frozen fields, so it
        # stays out of ==, hash, repr and dataclasses.replace
        det = self.__dict__.get("_det")
        if det is None:
            (a, b), (c, d) = self.entries
            det = a * d - b * c
            object.__setattr__(self, "_det", det)
        return det

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
