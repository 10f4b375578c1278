"""Write or check cli_surface_digests.txt: one digest of what the command line
prints for each argv of a fixed grid, keyed by Python version.

Each case runs ``cli.main(argv)`` in process, in a temporary working directory
that holds the input file ``configs.json``, with ``COLUMNS=80``.  Its digest
is the sha256 of (exit code, stdout, stderr).  argparse wraps help and usage
text differently across minor versions, so each minor has its own digests.
Patch releases change argparse text as well (3.13.13 no longer quotes the
choices in an invalid-choice error, and reads a leading ``--`` differently),
so a release whose text differs from its minor's set gets a set of its own,
keyed by the exact release.  An interpreter is checked against its exact
release's set when there is one and against its minor's set otherwise.  The
minor sets were recorded under CPython 3.10.13, 3.11.7, 3.12.1 and 3.13.0;
the one release set under CPython 3.13.13.

    PYTHONPATH=src python3 tests/make_cli_digests.py            # record the set --check reads
    PYTHONPATH=src python3 tests/make_cli_digests.py --release  # record this exact release
    PYTHONPATH=src python3 tests/make_cli_digests.py --check    # compare, exit 1 on a difference

Record after a deliberate change to the command-line surface, under every
Python that has a set.  Uses the standard library and the package only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

from su12fiber import cli

DIGESTS = Path(__file__).with_name("cli_surface_digests.txt")
MINOR = "%d.%d" % sys.version_info[:2]
RELEASE = "%d.%d.%d" % sys.version_info[:3]

# two genus-2 configurations, one GIT-stable and one unstable
CONFIGS = (
    '[{"base": "L0", "points": ["zero", {"t": "1"}, {"t": "2"}, "inf"]}, '
    '{"base": "L0", "points": ["zero", "zero", "zero", "inf"]}]'
)

GRID = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "census"],
    ["no-such-command"],
    ["stabilit", "--genus", "2", "--dbeta", "1", "--dgamma", "1"],
    ["--", "census", "--genus", "2", "--format", "csv"],
    ["stability", "-h"],
    ["census", "-h"],
    ["git-classify", "-h"],
    ["local-model-verify", "-h"],
    ["stability", "--genus", "3", "--degree", "1", "--dbeta", "2", "--dgamma", "1"],
    ["census", "--genus", "3", "--format", "csv"],
    ["git-classify", "--genus", "2", "--input", "configs.json"],
    ["local-model-verify", "--truncation", "3", "--cases", "2", "--format", "csv"],
    ["stability", "--genus", "2", "--dbeta", "1"],
    ["census"],
    ["census", "--genus", "2", "--format", "xml"],
    ["census", "--genus", "two"],
    ["local-model-verify", "--seed", "1.5"],
    ["census", "--genus", "2", "--colour"],
    ["census", "--genus", "2", "extra"],
    ["census", "--genus", "2", "stability"],
    ["git-classify", "--genus", "2", "--input", "census"],
    ["git-classify", "--input", "census", "--genus", "2", "-h"],
    ["git-classify", "--genus=2", "--input=configs.json", "--format=csv", "--rmax", "2"],
    ["census", "--gen", "2", "--form", "csv"],
    ["--genus", "2", "census"],
    ["census", "--genus", "2", "--", "stability"],
]


def case_id(argv: list[str]) -> str:
    return shlex.join(argv) if argv else "''"


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's -h
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def surface() -> dict[str, str]:
    """Case id -> digest for this interpreter, from a throwaway directory."""
    os.environ["COLUMNS"] = "80"
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path("configs.json").write_text(CONFIGS, encoding="utf-8")
            return {
                case_id(argv): hashlib.sha256(repr(run(argv)).encode("utf-8")).hexdigest()
                for argv in GRID
            }
        finally:
            os.chdir(here)


def recorded() -> dict[str, dict[str, str]]:
    """Minor version or exact release -> case id -> digest, as committed."""
    table: dict[str, dict[str, str]] = {}
    if DIGESTS.exists():
        for line in DIGESTS.read_text(encoding="utf-8").splitlines():
            minor, digest, case = line.split(" ", 2)
            table.setdefault(minor, {})[case] = digest
    return table


def version_key(table: dict[str, dict[str, str]]) -> str:
    """The set this interpreter is checked against: its release's, else its minor's."""
    return RELEASE if RELEASE in table else MINOR


def main(args: list[str]) -> int:
    table = recorded()
    key = version_key(table)
    if args == ["--check"]:
        if key not in table:
            print(f"no digests recorded for Python {RELEASE} or {MINOR}")
            return 1
        expected, actual = table[key], surface()
        cases = expected.keys() | actual.keys()
        bad = sorted(case for case in cases if expected.get(case) != actual.get(case))
        for case in bad:
            print(f"differs on Python {key}: {case}")
        print(f"{len(cases) - len(bad)} of {len(cases)} cases match on Python {key}")
        return 1 if bad else 0
    if args == ["--release"]:
        key = RELEASE
    elif args:
        print(__doc__)
        return 1
    table[key] = surface()
    DIGESTS.write_text(
        "".join(
            f"{version} {digest} {case}\n"
            for version in sorted(table, key=lambda v: tuple(map(int, v.split("."))))
            for case, digest in table[version].items()
        ),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
