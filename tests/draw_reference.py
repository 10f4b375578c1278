"""Test-only reference: the self-check suite's draws in their earlier forms.

random_scalar and random_series draw each part as a Fraction, as they did
before they passed integer numerators to Scalar.from_ratios; the scalar
is then built from the reduced parts with Scalar.from_ratios.
random_det_zeta_matrix forms S1 and S2 and multiplies S1 diag(1, zeta) by
S2 as matrices, as it was before it applied S1 as row operations.

The local_model functions of the same names must give the same values from
the same rng calls; test_local_model.py compares them.
"""

from fractions import Fraction
from random import Random

from su12fiber.exact import Mat2, Scalar, TruncatedSeries
from su12fiber.local_model import random_sl2_matrix

from paper_reference import series_from_coeffs


def random_scalar(rng: Random, *, nonzero: bool = False) -> Scalar:
    while True:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.5 else 0
        s = Scalar.from_ratios(a.numerator, a.denominator, b.numerator, b.denominator)
        if not (nonzero and s.is_zero()):
            return s


def random_series(rng: Random, order: int) -> TruncatedSeries:
    return series_from_coeffs([random_scalar(rng) for _ in range(order)], order)


def random_det_zeta_matrix(rng: Random, order: int) -> Mat2:
    s1 = random_sl2_matrix(rng, order)
    s2 = random_sl2_matrix(rng, order)
    return s1 @ Mat2.diag(TruncatedSeries.one(order), TruncatedSeries.zeta(order)) @ s2
