import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su12fiber import git_engine
from su12fiber.configuration import Configuration, FiberPoint, act
from su12fiber.errors import InternalInconsistencyError, LengthMismatchError
from su12fiber.git_engine import (
    GitClass,
    Linearization,
    _lex_rank,
    bounded_compositions,
    bruteforce_search,
    classify_bruteforce,
    classify_closed_form,
    composition_count,
    s_equivalence_representative,
)
from su12fiber.stability import ModuliParams, StabilityClass
from su12fiber.exact import Scalar

from bruteforce_reference import bruteforce_search as full_sweep
from bruteforce_reference import composition_count as table_count
from bruteforce_reference import lex_rank as unit_rank
from paper_reference import (
    classify_partition,
    git_class_of_stability,
    is_invariant,
    monomial_nonvanishing,
    saturated_slots,
    stratum_of,
)

G2D0 = ModuliParams(2, 0)
LIN = Linearization.for_moduli(G2D0)

Z = FiberPoint.zero()
I = FiberPoint.infinity()


def F(t):
    return FiberPoint.finite(t)


def cfg(*points, base="L0"):
    return Configuration.of(base, points)


def patterns_n4(rng):
    out = []
    for kinds in itertools.product("zif", repeat=4):
        points = [
            Z if k == "z" else I if k == "i" else F(rng.randint(1, 30)) for k in kinds
        ]
        out.append(cfg(*points))
    return out


def test_linearization_validation():
    assert LIN.n == 2 and LIN.N == 4
    with pytest.raises(ValueError):
        Linearization(5, 4)
    with pytest.raises(ValueError):
        Linearization(-1, 4)


def test_is_invariant():
    assert is_invariant((4, 2, 2, 0), LIN)
    assert is_invariant((2, 2, 2, 2), LIN)
    assert not is_invariant((4, 4, 1, 0), LIN)
    with pytest.raises(ValueError):
        is_invariant((5, 1, 1, 1), LIN)
    with pytest.raises(LengthMismatchError):
        is_invariant((4, 4), LIN)


def test_saturated_slots():
    top, bottom = saturated_slots((4, 2, 0, 0), LIN)
    assert top == frozenset({0})
    assert bottom == frozenset({2, 3})


def test_monomial_nonvanishing():
    c = cfg(Z, F(1), F(2), I)
    assert monomial_nonvanishing((4, 2, 2, 0), c, LIN)
    assert not monomial_nonvanishing((3, 3, 2, 0), c, LIN)  # [0:1] slot not at cap
    assert not monomial_nonvanishing((4, 2, 1, 1), c, LIN)  # [1:0] slot not at 0
    free = cfg(F(1), F(2), F(3), F(4))
    assert monomial_nonvanishing((1, 3, 3, 1), free, LIN)


def test_classify_closed_form():
    assert classify_closed_form(cfg(Z, F(1), F(2), I), LIN) is GitClass.STABLE
    assert classify_closed_form(cfg(F(1), F(2), F(3), F(4)), LIN) is GitClass.STABLE
    assert classify_closed_form(cfg(Z, Z, F(1), F(2)), LIN) is GitClass.STRICTLY_SEMISTABLE
    assert classify_closed_form(cfg(Z, Z, I, I), LIN) is GitClass.STRICTLY_SEMISTABLE
    assert classify_closed_form(cfg(Z, Z, Z, F(1)), LIN) is GitClass.UNSTABLE
    assert classify_closed_form(cfg(I, I, I, F(1)), LIN) is GitClass.UNSTABLE
    assert classify_closed_form(cfg(F(1), F(2), I, I), LIN) is GitClass.STRICTLY_SEMISTABLE
    with pytest.raises(LengthMismatchError):
        classify_closed_form(cfg(Z, Z), LIN)
    with pytest.raises(LengthMismatchError):
        bruteforce_search(cfg(Z, Z), LIN, r_max=1)
    with pytest.raises(ValueError, match=r"^r_max must be >= 1, got 0$"):
        bruteforce_search(cfg(Z, F(1), F(2), I), LIN, r_max=0)


def test_composition_count_matches_enumeration():
    cases = [(8, 4, 4), (5, 2, 4), (0, 3, 3), (7, 7, 2), (10, 4, 3)]
    cases += [(0, 3, 0), (1, 3, 0), (-1, 3, 0), (0, 0, 4), (1, 0, 4), (0, 0, 0)]
    for total, cap, length in cases:
        assert composition_count(total, cap, length) == sum(
            1 for _ in bounded_compositions(total, cap, length)
        )
    assert composition_count(9, 2, 3) == 0


@given(st.integers(0, 12), st.integers(0, 12), st.data())
@settings(max_examples=200, deadline=None)
def test_composition_count_matches_table(length, cap, data):
    # the closed form against the dynamic-programming table it replaced,
    # including totals just outside [0, cap * length]
    total = data.draw(st.integers(-2, cap * length + 2))
    assert composition_count(total, cap, length) == table_count(total, cap, length)


def test_lex_rank_is_the_position_in_the_sweep():
    # every vector of every small sweep, including length 0 and cap 0
    cases = 0
    for length in range(5):
        for cap in range(4):
            for total in range(cap * length + 1):
                for k, m in enumerate(bounded_compositions(total, cap, length)):
                    assert _lex_rank(m, cap) == k, (m, cap)
                    cases += 1
    assert cases == 498  # sum of (cap + 1)^length


@given(st.integers(0, 10), st.integers(0, 10), st.data())
@settings(max_examples=200, deadline=None)
def test_lex_rank_matches_unit_sum(length, cap, data):
    # the closed form against the rank that adds one count per unit of
    # each exponent, itself counting with the table
    m = data.draw(st.lists(st.integers(0, cap), min_size=length, max_size=length))
    assert _lex_rank(m, cap) == unit_rank(m, cap)


def test_bounded_compositions_bounds():
    for m in bounded_compositions(8, 4, 4):
        assert sum(m) == 8
        assert all(0 <= v <= 4 for v in m)


def test_bruteforce_examples():
    c = cfg(Z, F(1), F(2), I)
    outcome = bruteforce_search(c, LIN, r_max=1)
    assert outcome.git_class is GitClass.STABLE
    assert not outcome.fixed_point
    # the documented witness is valid even if the search returned another
    assert is_invariant((4, 2, 2, 0), LIN)
    assert monomial_nonvanishing((4, 2, 2, 0), c, LIN)
    top, bottom = saturated_slots((4, 2, 2, 0), LIN)
    assert LIN.N - len(top) - len(bottom) > 0
    r, m = outcome.stable_witness
    assert r == 1 and is_invariant(m, LIN) and monomial_nonvanishing(m, c, LIN)


def test_bruteforce_boundary_has_unique_monomial():
    c = cfg(Z, Z, I, I)
    witnesses = [
        m
        for m in bounded_compositions(LIN.N * LIN.n, LIN.N, LIN.N)
        if monomial_nonvanishing(m, c, LIN)
    ]
    assert witnesses == [(4, 4, 0, 0)]
    outcome = bruteforce_search(c, LIN, r_max=1)
    assert outcome.git_class is GitClass.STRICTLY_SEMISTABLE
    assert outcome.fixed_point
    assert outcome.stable_witness is None
    assert outcome.semistable_witness == (1, (4, 4, 0, 0))


def test_bruteforce_weight_budget_zero():
    lin = Linearization(0, 4)
    assert classify_bruteforce(cfg(Z, F(1), F(2), F(3)), lin) is GitClass.UNSTABLE
    assert (
        classify_bruteforce(cfg(F(1), F(2), F(3), F(4)), lin)
        is GitClass.STRICTLY_SEMISTABLE
    )


def test_bruteforce_agrees_exhaustively_n4():
    rng = random.Random(5)
    for c in patterns_n4(rng):
        for n in range(5):
            lin = Linearization(n, 4)
            assert bruteforce_search(c, lin, r_max=1).git_class is classify_closed_form(c, lin)


def test_bruteforce_agrees_rmax2_spot():
    rng = random.Random(9)
    configs = [
        cfg(Z, F(1), F(2), I),
        cfg(Z, Z, F(3), F(4)),
        cfg(Z, Z, Z, F(1)),
        cfg(F(5), F(6), F(7), F(8)),
        cfg(Z, Z, I, I),
    ]
    for c in configs:
        for n in (0, 2, 3):
            lin = Linearization(n, 4)
            assert bruteforce_search(c, lin, r_max=2).git_class is classify_closed_form(c, lin)


def test_bruteforce_n6_all_classes():
    rng = random.Random(31)
    lin = Linearization(3, 6)
    for kinds in ["zzfffi", "zzzfff", "zzzzff", "ffffff", "zzziii", "iiiiff", "zfifzi"]:
        points = [
            Z if k == "z" else I if k == "i" else F(rng.randint(1, 30)) for k in kinds
        ]
        c = cfg(*points)
        for r_max in (1, 2):
            assert bruteforce_search(c, lin, r_max=r_max).git_class is classify_closed_form(c, lin)


def test_bruteforce_n8_spot():
    # genus 3 at middle weight: stable, strictly semistable and unstable
    rng = random.Random(37)
    p = ModuliParams(3, 0)  # N = 8, n = 4
    lin = Linearization.for_moduli(p)
    for kinds in ["zzffffii", "zzzzffff", "zzzzzfff"]:
        points = [
            Z if k == "z" else I if k == "i" else F(rng.randint(1, 30)) for k in kinds
        ]
        c = cfg(*points)
        assert bruteforce_search(c, lin, r_max=1).git_class is classify_closed_form(c, lin)


def pattern_config(kinds):
    return cfg(*[Z if k == "z" else I if k == "i" else F(j + 1) for j, k in enumerate(kinds)])


def test_face_search_matches_full_sweep_small():
    # every mark pattern on N <= 5 slots, every weight n, powers up to 2,
    # and up to 3 on N <= 4, so a witness the sweep met only above power 1
    # would show: same class, witnesses, fixed flag and sweep position
    cases = 0
    for N in range(1, 6):
        for kinds in itertools.product("zif", repeat=N):
            c = pattern_config(kinds)
            for n in range(N + 1):
                lin = Linearization(n, N)
                for r_max in (1, 2, 3) if N <= 4 else (1, 2):
                    expected = full_sweep(c, lin, r_max)
                    assert bruteforce_search(c, lin, r_max) == expected, (kinds, n, r_max)
                    cases += 1
    assert cases == 4554


@pytest.mark.parametrize("kinds", ["zzffffii", "zzzzffff", "zzzzzfff"])
def test_face_search_matches_full_sweep_n8(kinds):
    lin = Linearization.for_moduli(ModuliParams(3, 0))  # N = 8, n = 4
    c = pattern_config(kinds)
    assert bruteforce_search(c, lin, r_max=1) == full_sweep(c, lin, r_max=1)


def test_representative_of_stable_orbit():
    c = cfg(Z, F(3), F(6), I)
    rep = s_equivalence_representative(c, LIN)
    assert rep == cfg(Z, F(1), F(2), I)
    # constant along the orbit
    for s in (2, Scalar(0, 1), Scalar.of(-5)):
        assert s_equivalence_representative(act(s, c), LIN) == rep


def test_representative_of_boundary_orbit():
    c = cfg(Z, Z, F(5), I)
    rep = s_equivalence_representative(c, LIN)
    assert rep == cfg(Z, Z, I, I)
    assert act(7, rep) == rep
    assert classify_closed_form(rep, LIN) is GitClass.STRICTLY_SEMISTABLE


def test_representative_rejects_unstable():
    with pytest.raises(ValueError):
        s_equivalence_representative(cfg(Z, Z, Z, F(1)), LIN)


def test_representative_of_stable_without_finite_slot_is_an_inconsistency(monkeypatch):
    # a torus-fixed configuration is never stable; a classifier that says it
    # is breaks the invariant the representative rests on, a finite slot
    monkeypatch.setattr(git_engine, "classify_closed_form", lambda c, lin: GitClass.STABLE)
    with pytest.raises(InternalInconsistencyError, match="finite slot"):
        s_equivalence_representative(cfg(Z, Z, I, I), LIN)


def test_dictionary_with_partition_stability():
    rng = random.Random(17)
    for c in patterns_n4(rng):
        part_class = classify_partition(G2D0, stratum_of(c))
        assert git_class_of_stability(part_class) is classify_closed_form(c, LIN)


def test_dictionary_values():
    assert git_class_of_stability(StabilityClass.STABLE) is GitClass.STABLE
    assert (
        git_class_of_stability(StabilityClass.STRICTLY_POLYSTABLE)
        is GitClass.STRICTLY_SEMISTABLE
    )
    assert (
        git_class_of_stability(StabilityClass.SEMISTABLE_NOT_POLYSTABLE)
        is GitClass.STRICTLY_SEMISTABLE
    )
    assert git_class_of_stability(StabilityClass.UNSTABLE) is GitClass.UNSTABLE


def test_classification_invariant_under_action():
    rng = random.Random(29)
    for c in patterns_n4(rng):
        base = classify_closed_form(c, LIN)
        for s in (3, Scalar(1, 1)):
            assert classify_closed_form(act(s, c), LIN) is base


@given(st.integers(0, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_bruteforce_agreement_property(n, data):
    rng_vals = data.draw(
        st.lists(st.integers(1, 20), min_size=4, max_size=4)
    )
    kinds = data.draw(st.lists(st.sampled_from("zif"), min_size=4, max_size=4))
    points = [
        Z if k == "z" else I if k == "i" else F(v) for k, v in zip(kinds, rng_vals)
    ]
    c = cfg(*points)
    lin = Linearization(n, 4)
    assert bruteforce_search(c, lin, r_max=2).git_class is classify_closed_form(c, lin)
