import itertools
import json
import random

import pytest

from su12fiber.configuration import (
    Configuration,
    FiberPoint,
    act,
    config_from_json,
    config_to_json,
    mark_data,
    point_from_json,
    saturate_limit,
)
from su12fiber.errors import InvalidScaleError, LengthMismatchError, NotOnBoundaryError
from su12fiber.exact import Scalar
from su12fiber.git_engine import GitClass, Linearization, classify_closed_form
from su12fiber.stability import ModuliParams

from paper_reference import Label, NoChartError, affine_chart, orbit_equivalent, stratum_of

G2D0 = ModuliParams(2, 0)
LIN = Linearization.for_moduli(G2D0)

Z = FiberPoint.zero()
I = FiberPoint.infinity()


def F(t):
    return FiberPoint.finite(t)


def cfg(*points, base="L0"):
    return Configuration.of(base, points)


def all_g2d0_patterns(rng):
    """All 81 mark patterns at N=4, finite slots filled with random coords."""
    out = []
    for kinds in itertools.product("zif", repeat=4):
        points = []
        for k in kinds:
            if k == "z":
                points.append(Z)
            elif k == "i":
                points.append(I)
            else:
                points.append(F(rng.randint(1, 40)))
        out.append(cfg(*points))
    return out


def test_fiber_point_validation():
    with pytest.raises(ValueError):
        FiberPoint.finite(0)
    with pytest.raises(ValueError):
        FiberPoint(Z.kind, Scalar.of(1))
    assert str(F(3)) == "[3:1]"
    assert str(Z) == "[0:1]"
    assert str(I) == "[1:0]"


def test_mark_data():
    marks = mark_data(cfg(Z, Z, I, F(3)))
    assert marks.zero_slots == frozenset({0, 1})
    assert marks.infinity_slots == frozenset({2})
    assert marks.n_zero == 2
    assert marks.n_inf == 1


def test_stratum_of():
    part = stratum_of(cfg(Z, I, F(1), F(2)))
    assert part.labels == (Label.GAMMA, Label.BETA, Label.REST, Label.REST)


def test_act():
    moved = act(2, cfg(Z, F(1), F(3), I))
    assert moved == cfg(Z, F(2), F(6), I)
    assert act(1, moved) == moved
    with pytest.raises(InvalidScaleError):
        act(0, moved)


def test_act_is_group_action():
    x = cfg(Z, F(1), F(3), I)
    a, b = Scalar.of(3), Scalar(2, 1)
    assert act(a, act(b, x)) == act(a * b, x)
    assert act(a.inverse(), act(a, x)) == x


def test_orbit_equivalent_recovers_scale():
    x = cfg(Z, F(1), F(2), I)
    y = act(3, x)
    assert orbit_equivalent(x, y) == Scalar.of(3)


def test_orbit_equivalent_negative_cases():
    x = cfg(Z, F(1), F(2), I)
    assert orbit_equivalent(x, cfg(Z, F(2), F(2), I)) is None  # ratios differ
    assert orbit_equivalent(x, cfg(I, F(1), F(2), Z)) is None  # marks differ
    assert orbit_equivalent(x, cfg(Z, F(1), F(2), I, base="L1")) is None
    fully = cfg(Z, Z, I, I)
    assert orbit_equivalent(fully, fully) == Scalar.one()
    assert orbit_equivalent(fully, cfg(Z, I, Z, I)) is None


def test_limit_point_zero_saturated():
    c = cfg(Z, Z, F(5), I)
    assert saturate_limit(c, G2D0.n, G2D0.N) == cfg(Z, Z, I, I)


def test_limit_point_infinity_saturated():
    # positions are preserved: the two finite slots collapse to [0:1]
    c = cfg(I, I, F(1), F(2))
    assert saturate_limit(c, G2D0.n, G2D0.N) == cfg(I, I, Z, Z)


def test_limit_point_fixed_configuration():
    c = cfg(Z, Z, I, I)
    assert saturate_limit(c, G2D0.n, G2D0.N) == c


def test_limit_point_is_fixed_by_action():
    c = cfg(Z, F(2), F(7), Z)
    lim = saturate_limit(c, G2D0.n, G2D0.N)
    assert act(5, lim) == lim
    assert all(not p.is_finite() for p in lim.points)


def test_limit_point_requires_boundary():
    with pytest.raises(NotOnBoundaryError):
        saturate_limit(cfg(Z, F(1), F(2), I), G2D0.n, G2D0.N)
    with pytest.raises(LengthMismatchError):
        saturate_limit(cfg(Z, Z), 2, 4)


def test_affine_chart_examples():
    i1, i2, i3 = affine_chart(cfg(Z, I, F(1), F(2)), G2D0)
    assert (i1, i2, i3) == ((0,), (1,), (2, 3))
    i1, i2, i3 = affine_chart(cfg(F(1), F(2), F(3), F(4)), G2D0)
    assert (i1, i2, i3) == ((2,), (3,), (0, 1))
    # outside the Milnor-Wood range n leaves [0, N] and no chart exists
    for degree in (-5, 5):
        with pytest.raises(NoChartError):
            affine_chart(cfg(F(1), F(2), F(3), F(4)), ModuliParams(2, degree))


def test_affine_chart_zero_slot_never_lands_in_i2():
    # the [0:1] slot sits above the two lowest finite slots and must be
    # routed into I1 even though a finite slot has a lower index
    i1, i2, i3 = affine_chart(cfg(F(1), F(2), F(3), Z), G2D0)
    assert i1 == (3,)
    assert i2 == (2,)
    assert i3 == (0, 1)


def test_affine_chart_exhaustive_validity():
    rng = random.Random(11)
    p = G2D0
    for c in all_g2d0_patterns(rng):
        if classify_closed_form(c, LIN) is not GitClass.STABLE:
            with pytest.raises(NoChartError):
                affine_chart(c, p)
            continue
        i1, i2, i3 = affine_chart(c, p)
        assert len(i1) == p.n - 1
        assert len(i2) == p.N - p.n - 1
        assert len(i3) == 2
        assert sorted(i1 + i2 + i3) == list(range(p.N))
        assert all(not c.points[j].is_infinity() for j in i1)
        assert all(not c.points[j].is_zero() for j in i2)
        assert all(c.points[j].is_finite() for j in i3)


def test_affine_chart_larger_genus():
    p = ModuliParams(3, 1)  # N = 8, n = 6
    points = [Z, Z, F(1), F(2), F(3), I, F(4), Z]
    c = cfg(*points)
    assert classify_closed_form(c, Linearization.for_moduli(p)) is GitClass.STABLE
    i1, i2, i3 = affine_chart(c, p)
    assert len(i1) == 5 and len(i2) == 1 and len(i3) == 2
    assert set(i1) >= {0, 1, 7}  # every [0:1] slot is absorbed by I1
    assert all(c.points[j].is_finite() for j in i3)
    assert all(not c.points[j].is_zero() for j in i2)


def test_classifiers_invariant_under_action():
    rng = random.Random(23)
    for c in all_g2d0_patterns(rng):
        for s in (2, Scalar(1, 1), Scalar.of(-3)):
            moved = act(s, c)
            assert mark_data(moved) == mark_data(c)
            assert stratum_of(moved) == stratum_of(c)
            assert classify_closed_form(moved, LIN) is classify_closed_form(c, LIN)


def test_json_round_trip():
    c = cfg(Z, F(Scalar(1, 1) / 3), I, F(-2))
    data = config_to_json(c)
    assert json.loads(json.dumps(data)) == data
    assert config_from_json(data) == c
    assert data["points"][0] == "zero"
    assert data["points"][2] == "inf"
    assert data["points"][1] == {"t": "1/3+1/3*sqrt2"}


def test_json_malformed():
    with pytest.raises(ValueError):
        point_from_json("infty")
    with pytest.raises(ValueError):
        point_from_json({"t": "0"})
    with pytest.raises(ValueError):
        point_from_json({"t": "1/0"})
    with pytest.raises(ValueError):
        point_from_json({"t": 5})
    with pytest.raises(ValueError):
        config_from_json({"points": ["zero"]})
    with pytest.raises(ValueError):
        config_from_json({"base": 3, "points": []})
