"""census --genus 100 matches its recorded digest within a peak-RSS bound.

The census is written one run at a time: 24 MB of JSON or 13 MB of CSV from
a process whose peak RSS stays near the interpreter's own.  Run one checking
process per format, so that each reads the peak RSS of its own child alone:

    PYTHONPATH=src python tests/ci/census_genus100.py json
    PYTHONPATH=src python tests/ci/census_genus100.py csv
"""

import resource
import subprocess
import sys

BOUND_MB = 40


def main() -> None:
    fmt = sys.argv[1]
    argv = ["census", "--genus", "100", "--format", fmt]
    run = subprocess.run([sys.executable, "-m", "su12fiber", *argv],
                         capture_output=True, check=True)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    # imported only once the child has exited: a forked child's peak RSS
    # starts at its parent's, so a larger parent would hide a smaller child
    import hashlib
    import pathlib

    # a digest line is sha256 of stdout, a NUL byte and stderr
    digest = hashlib.sha256(run.stdout + b"\0" + run.stderr).hexdigest()
    lines = pathlib.Path("tests/census_digests.txt").read_text().splitlines()
    recorded = dict((tuple(f[:3]), f[3]) for f in map(str.split, lines))
    print(f"{fmt}: {len(run.stdout)} bytes, child peak RSS {rss_mb:.1f} MB")
    if digest != recorded["100", "0", fmt]:
        sys.exit(f"census --genus 100 --format {fmt} digest {digest} "
                 "differs from census_digests.txt")
    if rss_mb >= BOUND_MB:
        sys.exit(f"census --genus 100 --format {fmt} peak RSS {rss_mb:.1f} MB, "
                 f"bound {BOUND_MB} MB")


if __name__ == "__main__":
    main()
