"""Oracles for how git-classify reads its input file.

* ``text_mode_error`` is the reading route the CLI had before it read the
  file in one binary read: ``open(path, encoding="utf-8")`` and
  ``json.load``, with the CLI's own error lines.  ``reading_cases`` writes
  the files both routes are compared on.
* ``point_from_json`` and ``config_from_json`` are verbatim copies of the
  set-based parsers the package had before it tested keys by length and
  membership.

Stdlib and the package only, so the CI script tests/ci/input_reading.py
can import it as well as the tests.
"""

import json
from collections.abc import Mapping
from pathlib import Path
from typing import Optional, Union

from su12fiber.configuration import Configuration, FiberPoint
from su12fiber.exact import Scalar

_CONFIG = '{"base": "L0", "points": ["zero", {"t": "1"}, {"t": "2"}, "inf"]}'


def reading_cases(directory: Path) -> list[str]:
    """Write the compared inputs under directory; return their paths, a
    directory and a missing path among them."""
    files = {
        # a syntax error on the third line: with "\r\n" read as "\n", the
        # error's character offset counts one per line break
        "crlf.json": b'[\r\n  ' + _CONFIG.encode() + b',\r\n  {"base" "L1"}\r\n]\r\n',
        "cr.json": b'[\r  ' + _CONFIG.encode() + b',\r  {"base" "L1"}\r]\r',
        "cr_valid.json": b'[\r\n' + _CONFIG.encode() + b'\r]',
        "cr_in_string.json": b'[{"base": "L\r0", "points": []}]',
        "bom.json": b"\xef\xbb\xbf[" + _CONFIG.encode() + b"]",
        # past the first 8192 bytes, where a reader in chunks would count
        # the byte's position from its chunk
        "late_bad_byte.json": b"[" + b" " * 9000 + b'"\xff"]',
        "truncated_utf8.json": b'["\xe2\x82',
        "surrogate_utf8.json": b'["\xed\xa0\x80"]',
        "empty.json": b"",
        "garbage.json": b"[" + _CONFIG.encode() + b"] x",
        "object.json": b'{"configurations": []}',
        "deep.json": b"[" * 100000,
    }
    paths = []
    for name, data in files.items():
        path = directory / name
        path.write_bytes(data)
        paths.append(str(path))
    (directory / "a_directory").mkdir()
    paths.append(str(directory / "a_directory"))
    paths.append(str(directory / "missing.json"))
    return paths


def text_mode_error(path: str) -> Optional[str]:
    """The error line the text-mode route gives for path, or None if it
    reads a JSON array."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        return f"error: cannot read {path}: {exc}\n"
    except ValueError as exc:
        return f"error: {path} is not valid JSON: {exc}\n"
    except RecursionError:
        return f"error: {path} nests JSON too deeply to read\n"
    if not isinstance(data, list):
        return f"error: {path} must hold a JSON array of configurations\n"
    return None


# the set-based parsers, verbatim

PointJson = Union[str, Mapping[str, str]]


def point_from_json(data: PointJson) -> FiberPoint:
    if data == "zero":
        return FiberPoint.zero()
    if data == "inf":
        return FiberPoint.infinity()
    if isinstance(data, Mapping) and set(data) == {"t"}:
        return FiberPoint.finite(Scalar.parse(data["t"]))
    raise ValueError(f"malformed fiber point: {data!r}")


def config_from_json(data: Mapping) -> Configuration:
    if not isinstance(data, Mapping) or set(data) != {"base", "points"}:
        raise ValueError(f"malformed configuration: {data!r}")
    base = data["base"]
    if not isinstance(base, str):
        raise ValueError("configuration base label must be a string")
    points = data["points"]
    if not isinstance(points, (list, tuple)):
        raise ValueError("configuration points must be a list")
    return Configuration(base, tuple(point_from_json(q) for q in points))
