"""The su12fiber that Python imports is the installed package, not src/.

Run from the checkout after `pip install .`, without PYTHONPATH:

    python tests/ci/readme_served.py

so that the README test that follows reads the README the package serves.
"""

import pathlib
import sys

import su12fiber


def main() -> None:
    path = pathlib.Path(su12fiber.__file__).resolve()
    if pathlib.Path("src").resolve() in path.parents:
        sys.exit(f"su12fiber was imported from the checkout: {path}")


if __name__ == "__main__":
    main()
