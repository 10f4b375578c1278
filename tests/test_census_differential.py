"""The census against its per-cell reference, cell by cell and byte by byte.

`census_runs` gets its counts from a recurrence over the first half of each
row of d_beta, mirrors it for the second half, and asks `classify_counts`
once per run of constant class, with each count's decimal text made once
per row; `cli` writes each JSON or CSV cell as one f-string over those
texts.  `tests/census_reference.py` keeps the per-cell table and the
`json.dumps`/`csv.writer` emission they replaced.  Every
cell of every (genus, degree) in the grid is checked against a per-cell
oracle written here: its position in (d_beta, d_gamma) order with
d_r = N - d_beta - d_gamma, the multinomial from `math.comb`, the class
from `classify_counts` and the stratum dimension g + d_r of stable cells.
The reference table, which checks the same four facts, is built only at
the genera in LIVE_GENERA, where its emission is compared too.

The grid is every degree from -g-1 to g+1 for g in 2..30 (inside, at and
outside the Milnor-Wood range, where gamma_bound runs from below 0 to past
N), plus the degrees 0, +-(g-1) and +-g at g = 47, 60 and 100.  The CLI
bytes are compared with digests of the reference emission kept in
census_digests.txt (written by make_census_digests.py), since emitting the
reference through json.dumps is what dominates the cost; at the genera in
LIVE_GENERA the reference is also emitted, and compared with both the CLI
and the digest file, so a stale digest file fails.

The CLI writes the census one run at a time, as `census_runs` yields it.
The last tests pin what that buys and what it must keep: a bounded
allocation peak at genus 100, runs that partition each row of d_beta and
come out before the rest of the table is built, and one `error:` line
with exit 1 when the reader of the output goes away.
"""

import contextlib
import errno
import functools
import io
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import pytest

import census_reference as reference
from census_reference import GENERA, degrees
from su12fiber import cli, stability
from su12fiber.stability import (
    ModuliParams,
    StabilityClass,
    census,
    census_runs,
    classify_counts,
)

LIVE_GENERA = (2, 17)


@functools.lru_cache(maxsize=1)
def digests():
    text = Path(__file__).with_name("census_digests.txt").read_text(encoding="utf-8")
    return {tuple(fields[:3]): fields[3] for fields in map(str.split, text.splitlines())}


@pytest.fixture(scope="module", params=GENERA, ids=str)
def tables(request):
    """Reference table per degree at one genus, shared by both grid tests;
    None for every degree of a genus outside LIVE_GENERA.

    A module-scoped parametrized fixture makes pytest run both tests for one
    genus before it builds the tables of the next.
    """
    g = request.param
    build = reference.census if g in LIVE_GENERA else lambda p: None
    return g, {d: build(ModuliParams(g, d)) for d in degrees(g)}


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
        check_against_oracle(p, rows)
        if expected is not None:
            assert [tuple(r) for r in rows] == [
                (r.d_beta, r.d_gamma, r.d_r, r.stability, r.labeled_count, r.stratum_dim)
                for r in expected.rows
            ], (g, d)


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
    # against the digest of the reference emission, as the grid is, and at
    # the genera in LIVE_GENERA against the live reference too
    path = tmp_path / f"census.{fmt}"
    code, out, err = run_census(g, d, fmt, "--output", os.fspath(path))
    assert code == 0 and out == ""
    written = path.read_bytes()
    assert reference.digest(written.decode("utf-8"), err) == digests()[str(g), str(d), fmt]
    if g in LIVE_GENERA:
        expected_out, expected_err = reference.emission(reference.census(ModuliParams(g, d)), fmt)
        assert err == expected_err
        assert written == expected_out.encode("utf-8")


# streaming


class Discard(io.TextIOBase):
    """A text stream that keeps nothing of what it is given."""

    def write(self, text):
        return len(text)


class BreaksAfterFirstWrite(io.TextIOBase):
    """A text stream whose reader goes away after the first write."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        if self.writes > 1:
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
        return len(text)


# tracemalloc peak of one genus-100 census sent to Discard; the whole text
# is 24 MB of JSON or 13 MB of CSV, and one row of it at most about 0.2 MB
CENSUS_PEAK_BOUND = 4 * 2**20


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_census_cli_memory_is_bounded_by_a_row(fmt):
    argv = ["census", "--genus", "100", "--format", fmt]
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Discard()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and err.getvalue() == ""
    assert peak < CENSUS_PEAK_BOUND, (fmt, peak)


@pytest.mark.parametrize("g", [2, 17, 100])
def test_census_rows_are_the_rows_of_d_beta_in_order(g):
    """The runs partition the cells in (d_beta, d_gamma) order: at most three
    to a row of d_beta, neighbours of different class, and every field of a
    run as long as its range of d_gamma."""
    N = 4 * g - 4
    # gamma_bound = 2(g - 1 + d): below 0, inside [0, N], at N and past N
    for d in (-g, 0, g - 1, g):
        p = ModuliParams(g, d)
        runs = list(census_runs(p))
        assert [(run.d_beta, c) for run in runs for c in run.d_gamma] == [
            (b, c) for b in range(N + 1) for c in range(N + 1 - b)
        ], (g, d)
        for d_beta, row in groupby(runs, attrgetter("d_beta")):
            row = list(row)
            assert len(row) <= 3, (g, d, d_beta)
            for before, after in zip(row, row[1:]):
                assert before.stability is not after.stability, (g, d, d_beta)
        for run in runs:
            start, stop = N - run.d_beta - run.d_gamma.start, N - run.d_beta - run.d_gamma.stop
            assert run.d_r == range(start, stop, -1), (g, d, run)
            assert len(run.labeled_counts) == len(run.d_gamma), (g, d, run)
            stable = run.stability is StabilityClass.STABLE
            dims = range(g + start, g + stop, -1) if stable else None
            assert run.stratum_dims == dims, (g, d, run)


def test_census_run_texts_are_the_decimal_counts():
    """Each run carries its counts' decimal texts, mirrored along the row as
    the counts are: checked on rows of odd and even width, in all four
    classes, by converting every count afresh."""
    seen = set()
    for g in range(2, 9):
        for d in range(-g - 1, g + 2):
            for run in census_runs(ModuliParams(g, d)):
                assert run.labeled_texts == list(map(str, run.labeled_counts)), (g, d, run)
                seen.add(run.stability)
    assert seen == set(StabilityClass)


def test_census_first_row_comes_before_the_rest_is_built(monkeypatch):
    calls = []

    def counted(p, d_beta, d_gamma):
        calls.append(d_beta)
        return classify_counts(p, d_beta, d_gamma)

    monkeypatch.setattr(stability, "classify_counts", counted)
    p = ModuliParams(100, 7)
    first = next(census_runs(p))
    assert (first.d_beta, first.d_gamma) == (0, range(p.gamma_bound))
    assert first.stability is StabilityClass.STABLE
    # the class of the first run only, none from a later run or row
    assert calls == [0]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_census_write_failure_is_one_line(fmt):
    stdout, err = BreaksAfterFirstWrite(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        code = cli.main(["census", "--genus", "100", "--format", fmt])
    assert code == cli.USAGE_ERROR and stdout.writes == 2
    assert err.getvalue() == "error: [Errno 32] Broken pipe\n"


def census_process(g, fmt, stdout, unbuffered):
    """`python -m su12fiber census` in a fresh interpreter, writing to stdout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "su12fiber", "census", "--genus", str(g), "--format", fmt],
        stdout=stdout, stderr=subprocess.PIPE, env=env,
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_census_reader_gone_after_100_bytes_is_one_line(fmt, unbuffered):
    proc = census_process(100, fmt, subprocess.PIPE, unbuffered)
    try:
        assert len(proc.stdout.read(100)) == 100
    finally:
        proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == cli.USAGE_ERROR
    assert err == b"error: [Errno 32] Broken pipe\n"


# genus 2 fits in the stdout buffer, so its only write is the final flush
@pytest.mark.parametrize("g", [2, 100])
def test_census_reader_gone_before_the_start_is_one_line(g):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = census_process(g, "csv", write_end, unbuffered=False)
    finally:
        os.close(write_end)
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == cli.USAGE_ERROR
    assert err == b"error: [Errno 32] Broken pipe\n"
