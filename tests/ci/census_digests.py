"""Every census of tests/census_digests.txt matches its recorded digest.

The census is written from decimal texts, one f-string per cell, and
tier-1 compares those bytes with the digests under two releases only.  This
script checks the whole grid under any release, stdlib and the package
source alone: for each line "genus degree format digest" it runs
cli.main(["census", ...]) in process and compares the digest, sha256 of
stdout, a NUL byte and stderr.  Prints the count checked and each mismatch;
exits 1 if any.

    PYTHONPATH=src python tests/ci/census_digests.py
"""

import contextlib
import hashlib
import io
import pathlib
import sys

from su12fiber import cli

DIGESTS = pathlib.Path(__file__).resolve().parents[1] / "census_digests.txt"


def main() -> int:
    lines = DIGESTS.read_text(encoding="utf-8").splitlines()
    mismatches = 0
    for line in lines:
        genus, degree, fmt, recorded = line.split()
        out, err = io.StringIO(), io.StringIO()
        argv = ["census", "--genus", genus, "--degree", degree, "--format", fmt]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = f"{out.getvalue()}\0{err.getvalue()}".encode("utf-8")
        if code != 0 or hashlib.sha256(text).hexdigest() != recorded:
            mismatches += 1
            print(f"census {' '.join(argv[1:])}: exit {code}, digest differs from {DIGESTS.name}")
    print(f"{len(lines) - mismatches} of {len(lines)} census digests match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
