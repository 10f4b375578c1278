"""Test-only reference: the self-check suite's draws as they were written
with Fraction, before they passed integer numerators to Scalar.from_ratios.

local_model.random_scalar and local_model.random_series must give the same
values from the same rng calls; test_local_model.py compares them.
"""

from fractions import Fraction
from random import Random

from su12fiber.exact import Scalar, TruncatedSeries


def random_scalar(rng: Random, *, nonzero: bool = False) -> Scalar:
    while True:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.5 else 0
        s = Scalar(a, b)
        if not (nonzero and s.is_zero()):
            return s


def random_series(rng: Random, order: int) -> TruncatedSeries:
    return TruncatedSeries.from_coeffs([random_scalar(rng) for _ in range(order)], order)
