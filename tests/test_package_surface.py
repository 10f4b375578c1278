"""The package holds what the command line and the README use.

Both guards read src/su12fiber with ast and import nothing:

* each module's imports from inside the package are pinned, so a new
  dependency between modules, such as configuration on stability, is an
  edit of PINNED_IMPORTS in review;
* every public top-level function and class is reachable from a root:
  a name in su12fiber.__all__, a console script of pyproject.toml, or a
  statement that runs on import (the body of ``python -m su12fiber``).
  A definition reaches every package name its statement mentions.  Code
  that only tests call belongs in tests/, next to paper_reference.py.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "su12fiber"

# module -> {package module it imports from ("" is the package): names}
PINNED_IMPORTS = {
    "__init__": {
        "configuration": "Configuration FiberPoint",
        "exact": "Scalar",
        "git_engine": "Linearization classify_bruteforce classify_closed_form",
        "local_model": "EvaluationCovector hecke_frame higgs_from_kernel_frame smith_form",
        "stability": "ModuliParams census",
    },
    "__main__": {"cli": "entry"},
    "cli": {
        "": "local_model",
        "configuration": "Configuration config_from_json config_to_json",
        "errors": "InvalidGenusError LengthMismatchError",
        "git_engine": "GitClass Linearization bruteforce_search classify_closed_form "
        "s_equivalence_representative",
        "stability": "ModuliParams StabilityClass census classify_counts "
        "milnor_wood_admits_stable polystable_split_degrees",
    },
    # no stability: the labeled-partition view of a configuration is test-only
    "configuration": {
        "errors": "InvalidScaleError LengthMismatchError NotOnBoundaryError",
        "exact": "Scalar",
    },
    "errors": {},
    "exact": {"errors": "NonUnitError OrderMismatchError"},
    "git_engine": {
        "configuration": "Configuration act mark_data saturate_limit",
        "errors": "LengthMismatchError",
        "stability": "ModuliParams",
    },
    "local_model": {
        "configuration": "FiberPoint",
        "errors": "HeckeDatumError InternalInconsistencyError OrderMismatchError "
        "SmithPreconditionError",
        "exact": "DEFAULT_ORDER Mat2 Scalar SeriesPair TruncatedSeries",
    },
    "stability": {"errors": "InvalidGenusError"},
}

# (module, name) -> why it stays in the package with no caller in it
UNREACHED_ALLOWED = {
    ("git_engine", "bounded_compositions"): "bench/tracing.py wraps it to count "
    "the full sweep; it moves to tests/bruteforce_reference.py once the "
    "benchmark stops binding it",
}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _package_source(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from, "" for the package itself."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "su12fiber":
        return node.module.partition(".")[2]
    return None


def _package_imports(tree: ast.Module) -> dict[str, set[str]]:
    imports: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "su12fiber" for a in node.names), (
                "import the package's modules with from-imports"
            )
        elif isinstance(node, ast.ImportFrom):
            source = _package_source(node)
            if source is not None:
                imports.setdefault(source, set()).update(a.name for a in node.names)
    return imports


def test_intra_package_imports_are_pinned():
    actual = {name: _package_imports(tree) for name, tree in _modules().items()}
    expected = {
        module: {source: set(names.split()) for source, names in sources.items()}
        for module, sources in PINNED_IMPORTS.items()
    }
    assert actual == expected


# reachability


def _bound_names(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


class _Module:
    """Top-level definitions of one module and the names they mention."""

    def __init__(self, name: str, tree: ast.Module, module_names: set[str]) -> None:
        self.name = name
        self.definitions: dict[str, ast.stmt] = {}
        self.imported: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
        self.module_aliases: dict[str, str] = {}
        self.on_import: list[ast.stmt] = []
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and _package_source(stmt) is not None:
                source = _package_source(stmt) or "__init__"
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    if source == "__init__" and alias.name in module_names:
                        self.module_aliases[local] = alias.name
                    else:
                        self.imported[local] = (source, alias.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            elif _bound_names(stmt):
                for bound in _bound_names(stmt):
                    self.definitions[bound] = stmt
            elif not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)):
                self.on_import.append(stmt)  # runs on import, docstrings aside

    def resolve(self, name: str) -> tuple[str, str] | None:
        if name in self.definitions:
            return (self.name, name)
        return self.imported.get(name)

    def mentions(self, stmt: ast.stmt) -> set[tuple[str, str]]:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                target = self.resolve(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module = self.module_aliases.get(node.value.id)
                target = (module, node.attr) if module else None
            else:
                continue
            if target is not None:
                found.add(target)
        return found


def _scripts() -> list[tuple[str, str]]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return re.findall(r'=\s*"su12fiber\.(\w+):(\w+)"', section)


def _reachable() -> tuple[set[tuple[str, str]], dict[str, _Module]]:
    trees = _modules()
    modules = {name: _Module(name, tree, set(trees)) for name, tree in trees.items()}
    init = modules["__init__"]
    exported = next(
        ast.literal_eval(stmt.value)
        for stmt in trees["__init__"].body
        if isinstance(stmt, ast.Assign) and _bound_names(stmt) == ["__all__"]
    )
    scripts = _scripts()
    assert exported and scripts
    todo = [init.resolve(name) for name in exported] + scripts
    for module in modules.values():
        for stmt in module.on_import:
            todo.extend(module.mentions(stmt))
    seen: set[tuple[str, str]] = set()
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        module_name, name = key
        owner = modules[module_name]
        target = owner.resolve(name)
        assert target is not None, f"{name} is not defined in {module_name}"
        if target != key:  # a re-export: follow it to the definition
            todo.append(target)
        else:
            todo.extend(owner.mentions(owner.definitions[name]))
    return seen, modules


def test_every_public_definition_is_reachable_from_the_cli_or_the_exports():
    seen, modules = _reachable()
    unreached = {
        (module.name, name)
        for module in modules.values()
        for name, stmt in module.definitions.items()
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not name.startswith("_")
        and (module.name, name) not in seen
    }
    assert unreached == set(UNREACHED_ALLOWED), (
        "public names no root reaches (move test-only code to tests/): "
        f"{sorted(unreached - set(UNREACHED_ALLOWED))}; "
        f"allowed but now reached or gone: {sorted(set(UNREACHED_ALLOWED) - unreached)}"
    )
