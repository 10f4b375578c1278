"""Importing the command line loads none of a few heavy stdlib modules.

The value types are plain __slots__ classes and field elements are integer
triples, so `import su12fiber.cli` needs neither dataclasses (with inspect,
which it imports) nor fractions (with decimal).  Each of them costs start-up
time on every run of the CLI.  Modules the interpreter loaded before the
import, such as those site or a .pth file pulls in, are not counted.
Exits 1, naming the modules, if the import loads any of the four.  Run from
the checkout:

    PYTHONPATH=src python tests/ci/import_set.py
"""

import sys

NOT_LOADED = ("dataclasses", "decimal", "fractions", "inspect")


def main() -> None:
    before = set(sys.modules)
    import su12fiber.cli  # noqa: F401

    loaded = sorted(set(NOT_LOADED) & (set(sys.modules) - before))
    if loaded:
        sys.exit(f"import su12fiber.cli loads {', '.join(loaded)}")
    print(f"import su12fiber.cli loads none of {', '.join(NOT_LOADED)}")


if __name__ == "__main__":
    main()
