"""Exact arithmetic: the field Q(sqrt2), truncated power series, 2x2 matrices.

Everything downstream reduces to identities in R = Q(sqrt2)[[zeta]] / zeta^T
for a fixed truncation order T.  Keeping the coefficient field exact turns
every check in the package into a zero-tolerance equality; no floats appear
anywhere.

Scalars are a + b*sqrt2 with Fraction components.  Series are coefficient
vectors of fixed length T; all ring operations stay at one order and refuse
to mix orders.  A series is a unit iff its constant term is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import NonUnitError, OrderMismatchError

ScalarLike = Union["Scalar", int, Fraction]


def _as_fraction(x: Union[int, Fraction]) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class Scalar:
    """Element a + b*sqrt2 of the real quadratic field Q(sqrt2).

    Components are reduced rationals of arbitrary precision.  The field
    norm a^2 - 2*b^2 vanishes only at zero (sqrt2 is irrational), so
    every nonzero element is invertible.
    """

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))

    @staticmethod
    def of(x: ScalarLike) -> "Scalar":
        if isinstance(x, Scalar):
            return x
        return Scalar(_as_fraction(x))

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
        return not self.a and not self.b

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __add__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar(-self.a, -self.b)

    def __sub__(self, other: ScalarLike) -> "Scalar":
        return self + (-Scalar.of(other))

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) + (-self)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        # (a + b s)(c + d s) = ac + 2bd + (ad + bc) s  with s^2 = 2
        return Scalar(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        norm = self.a * self.a - 2 * self.b * self.b
        if not norm:
            raise ZeroDivisionError("zero is not invertible in Q(sqrt2)")
        return Scalar(self.a / norm, -self.b / norm)

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        return self * Scalar.of(other).inverse()

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) * self.inverse()

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        sign = "-" if self.b < 0 else "+"
        return f"{self.a}{sign}{abs(self.b)}*sqrt2"

    def __repr__(self) -> str:
        return f"Scalar({str(self)!r})"

    @staticmethod
    def parse(text: str) -> "Scalar":
        """Parse "p/q" or "p/q+r/s*sqrt2" (also "-r/s*sqrt2", integer parts).

        Anything else, including a non-string or a zero denominator, raises
        ValueError.
        """
        if not isinstance(text, str):
            raise ValueError(f"scalar literal must be a string, got {text!r}")
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty scalar literal")
        try:
            if not s.endswith("*sqrt2"):
                if "sqrt2" in s:
                    raise ValueError(f"malformed scalar literal: {text!r}")
                return Scalar(Fraction(s))
            body = s[: -len("*sqrt2")]
            # split the rational part from the sqrt2 coefficient; the separator
            # sign is the last +/- not in leading position
            cut = max(body.rfind("+", 1), body.rfind("-", 1))
            if cut <= 0:
                return Scalar(Fraction(0), Fraction(body))
            a_part, sign, b_part = body[:cut], body[cut], body[cut + 1 :]
            b = Fraction(b_part)
            return Scalar(Fraction(a_part), -b if sign == "-" else b)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar literal: {text!r}") from None


_ZERO = Scalar(Fraction(0), Fraction(0))
_ONE = Scalar(Fraction(1), Fraction(0))
_SQRT2 = Scalar(Fraction(0), Fraction(1))

DEFAULT_ORDER = 8


@dataclass(frozen=True)
class TruncatedSeries:
    """Element of Q(sqrt2)[[zeta]] / zeta^T as a coefficient vector of length T.

    coeffs[k] is the zeta^k coefficient.  The truncation order T is the
    vector length and is immutable; operations on mismatched orders raise
    OrderMismatchError rather than silently re-truncate.
    """

    coeffs: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("truncation order must be >= 1")
        if not all(isinstance(c, Scalar) for c in self.coeffs):
            object.__setattr__(
                self, "coeffs", tuple(Scalar.of(c) for c in self.coeffs)
            )

    @property
    def order(self) -> int:
        return len(self.coeffs)

    # constructors

    @staticmethod
    def from_coeffs(values: Iterable[ScalarLike], order: int) -> "TruncatedSeries":
        vals = [Scalar.of(v) for v in values]
        if len(vals) > order:
            raise ValueError(f"{len(vals)} coefficients exceed order {order}")
        vals += [Scalar.zero()] * (order - len(vals))
        return TruncatedSeries(tuple(vals))

    @staticmethod
    def constant(value: ScalarLike, order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs([Scalar.of(value)], order)

    @staticmethod
    def zero(order: int) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs([], order)

    @staticmethod
    def one(order: int) -> "TruncatedSeries":
        return TruncatedSeries.constant(1, order)

    @staticmethod
    def zeta(order: int) -> "TruncatedSeries":
        return TruncatedSeries.monomial(1, order)

    @staticmethod
    def monomial(k: int, order: int, value: ScalarLike = 1) -> "TruncatedSeries":
        if not 0 <= k < order:
            raise ValueError(f"exponent {k} out of range for order {order}")
        coeffs = [Scalar.zero()] * order
        coeffs[k] = Scalar.of(value)
        return TruncatedSeries(tuple(coeffs))

    # inspection

    def __getitem__(self, k: int) -> Scalar:
        return self.coeffs[k]

    @property
    def constant_term(self) -> Scalar:
        return self.coeffs[0]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_unit(self) -> bool:
        return not self.coeffs[0].is_zero()

    def valuation(self) -> int | None:
        """Index of the lowest nonzero coefficient, None for the zero class."""
        for k, c in enumerate(self.coeffs):
            if not c.is_zero():
                return k
        return None

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

    def __add__(self, other) -> "TruncatedSeries":
        o = self._coerce(other)
        return TruncatedSeries(tuple(x + y for x, y in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "TruncatedSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "TruncatedSeries":
        return self._coerce(other) - self

    def __mul__(self, other) -> "TruncatedSeries":
        o = self._coerce(other)
        T = self.order
        out = [Scalar.zero()] * T
        for i, x in enumerate(self.coeffs):
            if x.is_zero():
                continue
            for j in range(T - i):
                y = o.coeffs[j]
                if not y.is_zero():
                    out[i + j] = out[i + j] + x * y
        return TruncatedSeries(tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; defined iff the constant term is nonzero."""
        c0 = self.coeffs[0]
        if c0.is_zero():
            raise NonUnitError("series with vanishing constant term is not a unit")
        inv0 = c0.inverse()
        out = [inv0]
        for k in range(1, self.order):
            acc = Scalar.zero()
            for i in range(1, k + 1):
                if not self.coeffs[i].is_zero():
                    acc = acc + self.coeffs[i] * out[k - i]
            out.append(-acc * inv0)
        return TruncatedSeries(tuple(out))

    def div_zeta(self) -> "TruncatedSeries":
        """Exact division by zeta for series with vanishing constant term.

        The result r keeps the same order, with r[T-1] set to zero: that
        coefficient is genuinely lost by truncation, but zeta * r == self
        holds exactly at order T again regardless of the choice.
        """
        if not self.coeffs[0].is_zero():
            raise NonUnitError("constant term must vanish for exact zeta division")
        return TruncatedSeries(self.coeffs[1:] + (Scalar.zero(),))

    # serialization

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @staticmethod
    def parse(values: Sequence[str], order: int | None = None) -> "TruncatedSeries":
        coeffs = [Scalar.parse(v) for v in values]
        return TruncatedSeries.from_coeffs(coeffs, order or len(coeffs))

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

    @staticmethod
    def swap(order: int) -> "Mat2":
        one = TruncatedSeries.one(order)
        zero = TruncatedSeries.zero(order)
        return Mat2(((zero, one), (one, zero)))

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
        if self.order != other.order:
            raise OrderMismatchError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )
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
        """Invertible over the local ring iff det has nonzero constant term."""
        return self.det().is_unit()

    def inverse(self) -> "Mat2":
        d = self.det()
        if not d.is_unit():
            raise NonUnitError("matrix determinant is not a unit")
        dinv = d.inverse()
        adj = self.adjugate()
        return Mat2(
            (
                (adj[0][0] * dinv, adj[0][1] * dinv),
                (adj[1][0] * dinv, adj[1][1] * dinv),
            )
        )

    def __str__(self) -> str:
        (a, b), (c, d) = self.entries
        return f"[[{a}, {b}], [{c}, {d}]]"
