"""Write census_digests.txt: one digest of the reference census emission per
(genus, degree, format) of the differential grid.

The byte-identity test compares the CLI against these digests on the whole
grid and against the live reference on a few genera, where it also checks
that the digests still match the reference.  Rerun after a deliberate change
to the reference emission or to the grid:

    PYTHONPATH=src python3 tests/make_census_digests.py
"""

from __future__ import annotations

from pathlib import Path

import census_reference as reference
from su12fiber.stability import ModuliParams

DIGESTS = Path(__file__).with_name("census_digests.txt")


def main() -> None:
    lines = []
    for g in reference.GENERA:
        for d in reference.degrees(g):
            table = reference.census(ModuliParams(g, d))
            for fmt in ("json", "csv"):
                out, err = reference.emission(table, fmt)
                lines.append(f"{g} {d} {fmt} {reference.digest(out, err)}\n")
    DIGESTS.write_text("".join(lines), encoding="utf-8")


if __name__ == "__main__":
    main()
