"""git-classify answers its slowest genus-100 inputs within 60 s each.

MAX_GENUS admits genus 100 because git-classify answers its slowest inputs
there in seconds: a stable configuration with all [0:1] slots first at
degree 7 (the rank of its witness, about 3 s) and a non-stable one at the
--rmax bound (its 1,620-digit count, about 1 s).  Each call must exit 0
within 60 s with "all_agree": true.  Run from the checkout:

    PYTHONPATH=src python tests/ci/git_classify_genus100.py
"""

import json
import subprocess
import sys
import tempfile

N = 396  # genus 100


def write(path, marks):
    points = ["zero" if k == "z" else "inf" if k == "i" else {"t": str(j + 1)}
              for j, k in enumerate(marks)]
    with open(path, "w") as f:
        json.dump([{"base": "L0", "points": points}], f)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        n = 2 * (99 + 7)  # degree 7: n - 1 [0:1] slots, then finite ones
        write(f"{tmp}/stable.json", "z" * (n - 1) + "f" * (N - n + 1))
        n = 2 * 99  # degree 0: one [0:1] slot more than n
        write(f"{tmp}/unstable.json", "z" * (n + 1) + "f" * (N - n - 1))
        for args in (["--degree", "7", "--input", f"{tmp}/stable.json"],
                     ["--rmax", "32", "--input", f"{tmp}/unstable.json"]):
            argv = ["git-classify", "--genus", "100", *args]
            run = subprocess.run([sys.executable, "-m", "su12fiber", *argv],
                                 capture_output=True, text=True, check=True, timeout=60)
            if json.loads(run.stdout)["all_agree"] is not True:
                sys.exit(f"{' '.join(argv)}: the two routes disagree")


if __name__ == "__main__":
    main()
