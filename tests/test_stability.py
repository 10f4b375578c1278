import random
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su12fiber.errors import InvalidGenusError, LengthMismatchError
from su12fiber.stability import (
    CensusResult,
    ModuliParams,
    StabilityClass,
    census,
    classify_counts,
    milnor_wood_admits_stable,
    polystable_split_degrees,
)

from paper_reference import (
    Label,
    LabeledPartition,
    classify_partition,
    e_polynomial,
    hypersimplex_f_vector,
    stratum_dimension,
)

G2D0 = ModuliParams(2, 0)


def partition_of(d_beta, d_gamma, N):
    labels = (
        [Label.BETA] * d_beta
        + [Label.GAMMA] * d_gamma
        + [Label.REST] * (N - d_beta - d_gamma)
    )
    return LabeledPartition.of(labels)


def test_milnor_wood_range():
    assert milnor_wood_admits_stable(2, 0)
    assert not milnor_wood_admits_stable(2, 1)
    assert not milnor_wood_admits_stable(2, -1)
    assert milnor_wood_admits_stable(3, 1)
    assert milnor_wood_admits_stable(3, -1)
    assert not milnor_wood_admits_stable(3, 2)


def test_invalid_genus():
    with pytest.raises(InvalidGenusError):
        milnor_wood_admits_stable(1, 0)
    with pytest.raises(InvalidGenusError):
        ModuliParams(0, 0)


@pytest.mark.parametrize("g, d", [(True, 0), (False, 0), (2, True), (2, False)])
def test_bool_is_neither_genus_nor_degree(g, d):
    error = InvalidGenusError if isinstance(g, bool) else ValueError
    with pytest.raises(error, match="must be an integer"):
        ModuliParams(g, d)


@pytest.mark.parametrize("d", [True, 0.5, "x"])
def test_milnor_wood_validates_degree_like_moduli_params(d):
    with pytest.raises(ValueError, match="degree must be an integer"):
        milnor_wood_admits_stable(3, d)


def test_derived_parameters():
    assert G2D0.N == 4
    assert G2D0.n == 2
    assert G2D0.beta_bound == 2
    assert G2D0.gamma_bound == 2
    p = ModuliParams(3, 1)
    assert p.N == 8
    assert p.n == 6
    assert p.beta_bound == 2


def test_classify_g2d0_cells():
    assert classify_counts(G2D0, 1, 1) is StabilityClass.STABLE
    assert classify_counts(G2D0, 0, 0) is StabilityClass.STABLE
    assert classify_counts(G2D0, 2, 2) is StabilityClass.STRICTLY_POLYSTABLE
    assert classify_counts(G2D0, 2, 1) is StabilityClass.SEMISTABLE_NOT_POLYSTABLE
    assert classify_counts(G2D0, 0, 2) is StabilityClass.SEMISTABLE_NOT_POLYSTABLE
    assert classify_counts(G2D0, 3, 0) is StabilityClass.UNSTABLE
    assert classify_counts(G2D0, 0, 3) is StabilityClass.UNSTABLE


def test_classify_partition_matches_counts():
    part = partition_of(2, 1, 4)
    assert classify_partition(G2D0, part) is StabilityClass.SEMISTABLE_NOT_POLYSTABLE


def test_partition_length_checked():
    with pytest.raises(LengthMismatchError):
        classify_partition(G2D0, partition_of(1, 1, 6))


def test_counts_out_of_range():
    with pytest.raises(ValueError):
        classify_counts(G2D0, 3, 3)
    with pytest.raises(ValueError):
        classify_counts(G2D0, -1, 0)


def test_permutation_invariance():
    rng = random.Random(7)
    part = partition_of(2, 1, 4)
    for _ in range(20):
        shuffled = list(part.labels)
        rng.shuffle(shuffled)
        assert classify_partition(G2D0, LabeledPartition.of(shuffled)) is classify_partition(
            G2D0, part
        )


@given(st.integers(2, 5), st.integers(-3, 3), st.data())
def test_degree_negation_swaps_roles(g, d, data):
    p = ModuliParams(g, d)
    q = ModuliParams(g, -d)
    d_beta = data.draw(st.integers(0, p.N))
    d_gamma = data.draw(st.integers(0, p.N - d_beta))
    assert classify_counts(p, d_beta, d_gamma) is classify_counts(q, d_gamma, d_beta)


def test_census_g2_d0():
    result = census(G2D0)
    assert result.stable_total == 21
    assert result.class_total(StabilityClass.STRICTLY_POLYSTABLE) == 6
    assert sum(r.labeled_count for r in result.rows) == 81
    stable_cells = {
        (r.d_beta, r.d_gamma): r.labeled_count
        for r in result.rows
        if r.stability is StabilityClass.STABLE
    }
    assert stable_cells == {(0, 0): 1, (0, 1): 4, (1, 0): 4, (1, 1): 12}
    poly_rows = [r for r in result.rows if r.stability is StabilityClass.STRICTLY_POLYSTABLE]
    assert len(poly_rows) == 1
    assert (poly_rows[0].d_beta, poly_rows[0].d_gamma, poly_rows[0].d_r) == (2, 2, 0)


def test_census_g2_d1_no_stable():
    result = census(ModuliParams(2, 1))
    assert result.stable_total == 0
    assert sum(r.labeled_count for r in result.rows) == 81


@given(st.integers(2, 4), st.integers(-2, 2))
def test_census_totals(g, d):
    result = census(ModuliParams(g, d))
    N = 4 * g - 4
    assert sum(r.labeled_count for r in result.rows) == 3**N
    assert len(result.rows) == (N + 1) * (N + 2) // 2


def test_census_stratum_dims():
    result = census(G2D0)
    for row in result.rows:
        if row.stability is StabilityClass.STABLE:
            assert row.stratum_dim == 2 + row.d_r
        else:
            assert row.stratum_dim is None


def test_stratum_dimension():
    part = partition_of(0, 0, 4)
    assert stratum_dimension(G2D0, part) == 6
    part = partition_of(1, 1, 4)
    assert stratum_dimension(G2D0, part) == 4
    with pytest.raises(ValueError):
        stratum_dimension(G2D0, partition_of(2, 2, 4))


def test_polystable_split_degrees():
    assert polystable_split_degrees(G2D0) == (0, 0)
    assert polystable_split_degrees(ModuliParams(3, 1)) == (-1, 0)
    with pytest.raises(ValueError):
        polystable_split_degrees(ModuliParams(2, 2))


@given(st.integers(2, 6), st.integers(-5, 5))
def test_split_degrees_sum(g, d):
    if abs(d) > g - 1:
        return
    deg1, deg2 = polystable_split_degrees(ModuliParams(g, d))
    assert deg1 + deg2 == -d


def test_strictly_polystable_cell_is_unique():
    # in the strict Milnor-Wood range exactly one cell is strictly polystable
    for g, d in [(2, 0), (3, 0), (3, 1), (3, -1), (4, 2)]:
        result = census(ModuliParams(g, d))
        poly = [r for r in result.rows if r.stability is StabilityClass.STRICTLY_POLYSTABLE]
        assert len(poly) == 1
        row = poly[0]
        p = ModuliParams(g, d)
        assert (row.d_beta, row.d_gamma, row.d_r) == (p.beta_bound, p.gamma_bound, 0)


def test_census_is_deterministic():
    a: CensusResult = census(G2D0)
    b: CensusResult = census(G2D0)
    assert a.rows == b.rows


@pytest.mark.parametrize("g, d", [(2, 0), (3, -1), (3, 0), (3, 1)])
def test_census_is_the_face_lattice_of_the_hypersimplex(g, d):
    # the quotient (P^1)^N //_n C^* is the toric variety of the hypersimplex
    # Delta(n, N); its faces, counted by brute force, are the census's cells
    p = ModuliParams(g, d)
    f = hypersimplex_f_vector(p.N, p.n)
    result = census(p)
    stable = [0] * (p.N + 1)  # labeled stable count by d_r
    for row in result.rows:
        if row.stability is StabilityClass.STABLE:
            stable[row.d_r] += row.labeled_count
    # the faces of dimension j >= 1 are the stable cells with d_r = j + 1,
    # and no stable cell has d_r < 2
    assert f[1:] == stable[2:] and stable[:2] == [0, 0]
    # the vertices are the strictly polystable cells; f_0 is also the
    # Euler characteristic of the quotient
    assert f[0] == comb(p.N, p.n) == result.class_total(StabilityClass.STRICTLY_POLYSTABLE)
    # the E-polynomial has the degree N - 1 = 4g - 5 of the quotient, monic
    e = e_polynomial(f)
    assert len(e) == p.N and e[-1] == 1
    if (g, d) == (2, 0):
        assert e == [1, -1, 5, 1]  # q^3 + 5q^2 - q + 1
    if (g, d) == (3, 0):
        assert f == [70, 560, 1120, 980, 448, 112, 16, 1]
