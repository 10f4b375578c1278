"""git-classify's file reading against the text-mode json.load route.

cli._load_configurations reads its file in one binary read, decodes it as
strict UTF-8 and reads "\\r\\n" and a lone "\\r" as "\\n" before json.loads.
Its error line must equal the one the route it replaced gives, which opened
the file in text mode with encoding="utf-8" and called json.load.  That is
checked on the files of input_reference.reading_cases: CRLF and CR line
breaks, a byte-order mark, bytes that are not UTF-8 past the first 8 KiB,
an empty file, trailing garbage, a top-level object, deep nesting, a
directory and a missing path.  Codec and json messages can change between
releases, so every release checks it.  Run from the checkout:

    PYTHONPATH=src:tests python tests/ci/input_reading.py
"""

import sys
import tempfile
from pathlib import Path

from input_reference import reading_cases, text_mode_error
from su12fiber import cli

SLOTS = 4  # the reading cases' valid configurations have four slots


def load_error(path):
    try:
        cli._load_configurations(path, SLOTS)
    except cli._UsageError as exc:
        return f"error: {exc}\n"
    return None


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        paths = reading_cases(Path(directory))
        for path in paths:
            got, want = load_error(path), text_mode_error(path)
            if got != want:
                sys.exit(f"{Path(path).name}: the CLI reads {got!r}, text mode {want!r}")
    print(f"{len(paths)} inputs read with the text-mode route's result and error text")


if __name__ == "__main__":
    main()
