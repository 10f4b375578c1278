"""The package's value types: immutable after __init__, validated there, and
the four public ones compared, hashed and shown by their fields."""

import pytest

from su12fiber.configuration import Configuration, FiberPoint, PointKind, mark_data
from su12fiber.errors import InvalidGenusError, OrderMismatchError
from su12fiber.exact import Mat2, Scalar, TruncatedSeries
from su12fiber.git_engine import Linearization, bruteforce_search
from su12fiber.local_model import hecke_frame, higgs_from_kernel_frame
from su12fiber.stability import ModuliParams, census

CONFIG = Configuration.of("L0", [FiberPoint.zero(), FiberPoint.finite(2),
                                 FiberPoint.finite(3), FiberPoint.infinity()])
LIN = Linearization(2, 4)

# class name -> (an instance, built anew on each call; its field names)
VALUE_TYPES = {
    "FiberPoint": (lambda: FiberPoint.finite(3), ("kind", "t")),
    "Configuration": (lambda: Configuration.of("L0", CONFIG.points), ("base", "points")),
    "MarkData": (lambda: mark_data(CONFIG), ("n_zero", "n_inf")),
    "Mat2": (lambda: Mat2.identity(3), ("entries",)),
    "Linearization": (lambda: Linearization(2, 4), ("n", "N")),
    "BruteForceOutcome": (
        lambda: bruteforce_search(CONFIG, LIN),
        ("git_class", "semistable_witness", "stable_witness", "monomials_enumerated",
         "fixed_point"),
    ),
    "LocalHiggs": (lambda: higgs_from_kernel_frame(hecke_frame(FiberPoint.zero(), 3)),
                   ("beta", "gamma")),
    "ModuliParams": (lambda: ModuliParams(2, 0), ("g", "d")),
    "CensusResult": (lambda: census(ModuliParams(2, 0)), ("params", "rows")),
}


@pytest.mark.parametrize("name", list(VALUE_TYPES))
def test_value_types_refuse_assignment(name):
    build, fields = VALUE_TYPES[name]
    value = build()
    assert type(value).__name__ == name
    for field in fields:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1  # no __dict__ to hold a new attribute either


# public type -> (two constructions of one value, one of another)
PUBLIC_VALUES = {
    "Configuration": (lambda: Configuration("L0", CONFIG.points),
                      lambda: Configuration("L1", CONFIG.points)),
    "FiberPoint": (lambda: FiberPoint(PointKind.FINITE, t=Scalar(3)),
                   lambda: FiberPoint(PointKind.FINITE, Scalar(-3))),
    "Linearization": (lambda: Linearization(n=2, N=4), lambda: Linearization(1, 4)),
    "ModuliParams": (lambda: ModuliParams(g=2, d=0), lambda: ModuliParams(2, 1)),
}


@pytest.mark.parametrize("name", list(PUBLIC_VALUES))
def test_public_value_types_compare_hash_and_show_their_fields(name):
    build, build_other = PUBLIC_VALUES[name]
    _, fields = VALUE_TYPES[name]
    a, b, other = build(), build(), build_other()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and a != tuple(getattr(a, f) for f in fields)
    shown = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
    assert repr(a) == f"{name}({shown})"


def test_moduli_params_take_keywords_and_positions_alike():
    assert ModuliParams(g=2, d=0) == ModuliParams(2, 0)
    assert hash(ModuliParams(g=2, d=0)) == hash(ModuliParams(2, 0))
    assert FiberPoint(PointKind.ZERO) == FiberPoint(PointKind.ZERO, t=None) == FiberPoint.zero()


def test_linearization_count_memo_stays_out_of_equality_hash_and_repr():
    used, fresh = Linearization(2, 4), Linearization(2, 4)
    assert used.balanced_count(1) == 85  # vectors in [0, 4]^4 summing to 8
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


def _mixed_orders():
    one, zeta = TruncatedSeries.one(2), TruncatedSeries.zeta(3)
    return Mat2(((one, zeta), (zeta, one)))


VALIDATION = {
    "finite-without-t": (lambda: FiberPoint(PointKind.FINITE), ValueError,
                         "finite points carry a nonzero affine coordinate"),
    "finite-at-zero": (lambda: FiberPoint(PointKind.FINITE, Scalar(0)), ValueError,
                       "finite points carry a nonzero affine coordinate"),
    "zero-with-t": (lambda: FiberPoint(PointKind.ZERO, Scalar(1)), ValueError,
                    "zero points carry no coordinate"),
    "mat2-orders": (_mixed_orders, OrderMismatchError, "mixed truncation orders in matrix: [2, 3]"),
    "no-slot": (lambda: Linearization(0, 0), ValueError, "need at least one slot, got N = 0"),
    "weight": (lambda: Linearization(5, 4), ValueError, "weight parameter n = 5 outside [0, 4]"),
    "genus": (lambda: ModuliParams(1, 0), InvalidGenusError,
              "genus must be an integer >= 2, got 1"),
    "degree": (lambda: ModuliParams(2, True), ValueError, "degree must be an integer, got True"),
}


@pytest.mark.parametrize("build, error, message", list(VALIDATION.values()), ids=list(VALIDATION))
def test_validation_messages(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message
