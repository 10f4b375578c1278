"""Point configurations on (P^1)^N over a fixed determinant line.

A configuration is a base-line label (which line bundle of degree d the
fiber sits over; the toolkit treats it as opaque) together with one point
of P^1 per marked slot.  The three point shapes are [0:1], [1:0], and a
finite point [t:1] with t != 0, stored by its affine coordinate t.

The multiplicative torus acts slotwise by [x0:x1] -> [c*x0:x1], so finite
coordinates scale by c while [0:1] and [1:0] stay put.  Slots at [0:1] and
[1:0] are the marks; their counts (n_zero, n_inf) drive every stability
question, and the correspondence with vanishing loci is

    slot at [0:1]   the gamma component vanishes there
    slot at [1:0]   the beta component vanishes there

so n_zero and n_inf are the part sizes d_gamma and d_beta of the
stability classification.
All slot indices are 0-based.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from enum import Enum
from typing import Optional, Union

from .errors import InvalidScaleError, LengthMismatchError, NotOnBoundaryError
from .exact import Scalar
from .frozen import Value


class PointKind(Enum):
    ZERO = "zero"  # [0:1]
    INFINITY = "inf"  # [1:0]
    FINITE = "finite"  # [t:1], t != 0


class FiberPoint(Value):
    kind: PointKind
    t: Optional[Scalar]

    __slots__ = _fields = ("kind", "t")

    def __init__(self, kind: PointKind, t: Optional[Scalar] = None) -> None:
        if kind is PointKind.FINITE:
            if t is None or t.is_zero():
                raise ValueError("finite points carry a nonzero affine coordinate")
        elif t is not None:
            raise ValueError(f"{kind.value} points carry no coordinate")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "t", t)

    @staticmethod
    def zero() -> "FiberPoint":
        return _ZERO_POINT

    @staticmethod
    def infinity() -> "FiberPoint":
        return _INF_POINT

    @staticmethod
    def finite(t) -> "FiberPoint":
        return FiberPoint(PointKind.FINITE, Scalar.of(t))

    def is_zero(self) -> bool:
        return self.kind is PointKind.ZERO

    def is_infinity(self) -> bool:
        return self.kind is PointKind.INFINITY

    def is_finite(self) -> bool:
        return self.kind is PointKind.FINITE

    def __str__(self) -> str:
        if self.kind is PointKind.ZERO:
            return "[0:1]"
        if self.kind is PointKind.INFINITY:
            return "[1:0]"
        return f"[{self.t}:1]"


_ZERO_POINT = FiberPoint(PointKind.ZERO)
_INF_POINT = FiberPoint(PointKind.INFINITY)


class Configuration(Value):
    """Base-line label plus one fiber point per marked slot."""

    base: str
    points: tuple[FiberPoint, ...]

    __slots__ = _fields = ("base", "points")

    def __init__(self, base: str, points: tuple[FiberPoint, ...]) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "points", points)

    @staticmethod
    def of(base: str, points: Iterable[FiberPoint]) -> "Configuration":
        return Configuration(base, tuple(points))

    @property
    def size(self) -> int:
        return len(self.points)

    def __str__(self) -> str:
        return f"{self.base}: ({', '.join(str(p) for p in self.points)})"


class MarkData(Value):
    """Counts of the fully degenerate slots: [0:1] and [1:0]."""

    n_zero: int
    n_inf: int

    __slots__ = _fields = ("n_zero", "n_inf")

    def __init__(self, n_zero: int, n_inf: int) -> None:
        object.__setattr__(self, "n_zero", n_zero)
        object.__setattr__(self, "n_inf", n_inf)


def mark_data(c: Configuration) -> MarkData:
    kinds = [p.kind for p in c.points]
    return MarkData(kinds.count(PointKind.ZERO), kinds.count(PointKind.INFINITY))


def act(scale, c: Configuration) -> Configuration:
    """Torus action: every finite coordinate is multiplied by scale."""
    s = Scalar.of(scale)
    if s.is_zero():
        raise InvalidScaleError("the torus acts by nonzero scalars")
    points = tuple(
        FiberPoint.finite(s * p.t) if p.is_finite() else p for p in c.points
    )
    return Configuration(c.base, points)


def saturate_limit(c: Configuration, n: int, N: int) -> Configuration:
    """Fixed-point limit of a boundary configuration for given bounds (n, N).

    With n_zero = n every non-[0:1] slot flows to [1:0] (the scale going
    to infinity sends finite coordinates there); with n_inf = N - n every
    non-[1:0] slot flows to [0:1].  Slots keep their positions.  A fully
    marked boundary point is its own limit.
    """
    if c.size != N:
        raise LengthMismatchError(f"configuration has {c.size} slots, expected {N}")
    marks = mark_data(c)
    if marks.n_zero == n:
        points = tuple(
            p if p.is_zero() else FiberPoint.infinity() for p in c.points
        )
        return Configuration(c.base, points)
    if marks.n_inf == N - n:
        points = tuple(
            p if p.is_infinity() else FiberPoint.zero() for p in c.points
        )
        return Configuration(c.base, points)
    raise NotOnBoundaryError(
        "fixed-point limits exist only when a mark count saturates its bound"
    )


# serialization

PointJson = Union[str, Mapping[str, str]]


def point_to_json(p: FiberPoint) -> PointJson:
    if p.is_zero():
        return "zero"
    if p.is_infinity():
        return "inf"
    return {"t": str(p.t)}


def point_from_json(data: PointJson) -> FiberPoint:
    if data == "zero":
        return _ZERO_POINT
    if data == "inf":
        return _INF_POINT
    if isinstance(data, Mapping) and len(data) == 1 and "t" in data:
        return FiberPoint.finite(Scalar.parse(data["t"]))
    raise ValueError(f"malformed fiber point: {data!r}")


def config_to_json(c: Configuration) -> dict:
    return {"base": c.base, "points": [point_to_json(p) for p in c.points]}


def config_from_json(data: Mapping) -> Configuration:
    if not (isinstance(data, Mapping) and len(data) == 2 and "base" in data
            and "points" in data):
        raise ValueError(f"malformed configuration: {data!r}")
    base = data["base"]
    if not isinstance(base, str):
        raise ValueError("configuration base label must be a string")
    points = data["points"]
    if not isinstance(points, (list, tuple)):
        raise ValueError("configuration points must be a list")
    return Configuration(base, tuple(point_from_json(q) for q in points))
