"""The census against its per-cell reference, row by row and byte by byte.

`census` gets its counts from recurrences along each row and asks
`classify_counts` once per range of constant class; `cli` writes the JSON
and CSV rows from fixed templates.  `tests/census_reference.py` keeps the
per-cell table and the `json.dumps`/`csv.writer` emission they replaced.
Every cell is also checked against a per-cell oracle written here: the
multinomial from `math.comb`, the class from `classify_counts` and the
stratum dimension g + d_r of stable cells.

The grid is every degree from -g-1 to g+1 for g in 2..30 (inside, at and
outside the Milnor-Wood range, where gamma_bound runs from below 0 to past
N), plus the degrees 0, +-(g-1) and +-g at g = 47, 60 and 100.  The CLI
bytes are compared with digests of the reference emission kept in
census_digests.txt (written by make_census_digests.py), since emitting the
reference through json.dumps is what dominates the cost; at the genera in
LIVE_GENERA the reference is also emitted, and compared with both the CLI
and the digest file, so a stale digest file fails.
"""

import contextlib
import functools
import io
import math
import os
from pathlib import Path

import pytest

import census_reference as reference
from census_reference import GENERA, degrees
from su12fiber import cli
from su12fiber.stability import ModuliParams, StabilityClass, census, classify_counts

LIVE_GENERA = (2, 17, 100)


@functools.lru_cache(maxsize=1)
def digests():
    text = Path(__file__).with_name("census_digests.txt").read_text(encoding="utf-8")
    return {tuple(fields[:3]): fields[3] for fields in map(str.split, text.splitlines())}


@pytest.fixture(scope="module", params=GENERA, ids=str)
def tables(request):
    """Reference table per degree at one genus, shared by both grid tests.

    A module-scoped parametrized fixture makes pytest run both tests for one
    genus before it builds the tables of the next.
    """
    g = request.param
    return g, {d: reference.census(ModuliParams(g, d)) for d in degrees(g)}


@functools.lru_cache(maxsize=1)
def binomials(N):
    return [[math.comb(n, k) for k in range(n + 1)] for n in range(N + 1)]


def check_against_oracle(p, rows):
    N = p.N
    comb = binomials(N)
    cells = [(b, c) for b in range(N + 1) for c in range(N + 1 - b)]
    assert len(rows) == len(cells)
    for (b, c), row in zip(cells, rows):
        d_beta, d_gamma, d_r, cls, count, dim = row
        assert (d_beta, d_gamma, d_r) == (b, c, N - b - c)
        assert count == comb[N][b] * comb[N - b][c], row
        assert cls is classify_counts(p, b, c), row
        assert dim == (p.g + d_r if cls is StabilityClass.STABLE else None), row


def run_census(g, d, fmt, *extra):
    out, err = io.StringIO(), io.StringIO()
    argv = ["census", "--genus", str(g), "--degree", str(d), "--format", fmt, *extra]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_census_rows_match_reference_and_oracle(tables):
    g, by_degree = tables
    for d, expected in by_degree.items():
        p = ModuliParams(g, d)
        rows = census(p).rows
        assert [tuple(r) for r in rows] == [
            (r.d_beta, r.d_gamma, r.d_r, r.stability, r.labeled_count, r.stratum_dim)
            for r in expected.rows
        ], (g, d)
        check_against_oracle(p, rows)


def test_census_cli_is_byte_identical_to_reference(tables):
    g, by_degree = tables
    for d, expected in by_degree.items():
        for fmt in ("json", "csv"):
            code, out, err = run_census(g, d, fmt)
            assert code == 0
            recorded = digests()[str(g), str(d), fmt]
            assert reference.digest(out, err) == recorded, (g, d, fmt)
            if g in LIVE_GENERA:
                live = reference.emission(expected, fmt)
                assert (out, err) == live, (g, d, fmt)
                assert reference.digest(*live) == recorded, (g, d, fmt)


@pytest.mark.parametrize("g, d", [(2, 0), (2, 1), (3, -4), (30, 29), (100, 0)])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_census_output_file_is_byte_identical_to_reference(tmp_path, g, d, fmt):
    path = tmp_path / f"census.{fmt}"
    code, out, err = run_census(g, d, fmt, "--output", os.fspath(path))
    assert code == 0 and out == ""
    expected_out, expected_err = reference.emission(reference.census(ModuliParams(g, d)), fmt)
    assert err == expected_err
    assert path.read_bytes() == expected_out.encode("utf-8")
