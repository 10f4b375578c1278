"""The README's Library snippet runs, and it imports exactly su12fiber.__all__."""

import ast
import re
from pathlib import Path

import su12fiber

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_snippet() -> str:
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_runs_and_matches_exports():
    snippet = _library_snippet()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(snippet))
        if isinstance(node, ast.ImportFrom) and node.module == "su12fiber"
        for alias in node.names
    }
    assert imported == set(su12fiber.__all__)
    exec(compile(snippet, str(README), "exec"), {})
