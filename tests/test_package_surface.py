"""The package holds what the command line and the README use.

The guards read the source with ast and import nothing, but for one that
imports the command line in a child interpreter:

* each module's imports from inside the package are pinned, so a new
  dependency between modules, such as configuration on stability, is an
  edit of PINNED_IMPORTS in review;
* every public top-level function and class is reachable from a root:
  a name in su12fiber.__all__, a console script of pyproject.toml, or a
  statement that runs on import (the body of ``python -m su12fiber``).
  A definition reaches every package name its statement mentions.  Code
  that only tests call belongs in tests/, next to paper_reference.py;
* every name a module of src/su12fiber or tests/ imports is read in it,
  or listed in its __all__ (``from __future__`` imports aside);
* every method and property of a package class has its name read by some
  attribute access in the package outside its own definition;
* the ``test`` extra of pyproject.toml names every module outside the
  stdlib, the package and tests/ that a file under tests/ imports, and
  each name in it is imported there;
* no package class defines a reflected operator (``__radd__`` and the
  like) or binds a dunder to another of its names (``__radd__ = __add__``):
  values convert where they enter, so each operator takes one operand kind;
* exact.py keeps one representation of field elements, integer numerators
  over one denominator, and the value types are written-out __slots__
  classes: no module imports ``dataclasses``, ``inspect``, ``fractions`` or
  ``decimal``, no Scalar method builds a Fraction component, and importing
  su12fiber.cli in a fresh interpreter loads none of the four
  (tests/ci/import_set.py, which CI also runs under every release).
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "su12fiber"

# module -> {package module it imports from ("" is the package): names}
PINNED_IMPORTS = {
    "__init__": {
        "configuration": "Configuration FiberPoint",
        "exact": "Scalar",
        "git_engine": "Linearization classify_bruteforce classify_closed_form",
        "local_model": "hecke_frame higgs_from_kernel_frame smith_form",
        "stability": "ModuliParams census",
    },
    "__main__": {"cli": "entry"},
    "cli": {
        "": "local_model",
        "configuration": "Configuration config_from_json config_to_json",
        "errors": "InvalidGenusError LengthMismatchError",
        "exact": "DEFAULT_ORDER",
        "git_engine": "GitClass Linearization bruteforce_search classify_closed_form "
        "s_equivalence_representative",
        "stability": "CensusRun ModuliParams StabilityClass census_runs "
        "classify_counts milnor_wood_admits_stable polystable_split_degrees",
    },
    # no stability: the labeled-partition view of a configuration is test-only
    "configuration": {
        "errors": "InvalidScaleError LengthMismatchError NotOnBoundaryError",
        "exact": "Scalar",
        "frozen": "Value",
    },
    "errors": {},
    "exact": {"errors": "NonUnitError OrderMismatchError", "frozen": "Value"},
    # the base classes of the value types; they import nothing
    "frozen": {},
    "git_engine": {
        "configuration": "Configuration PointKind act mark_data saturate_limit",
        "errors": "InternalInconsistencyError LengthMismatchError",
        "frozen": "Value",
        "stability": "ModuliParams",
    },
    "local_model": {
        "configuration": "FiberPoint",
        "errors": "HeckeDatumError InternalInconsistencyError SmithPreconditionError",
        "exact": "DEFAULT_ORDER Mat2 Scalar SeriesPair TruncatedSeries product_coeff",
        "frozen": "Frozen",
    },
    "stability": {"errors": "InvalidGenusError", "frozen": "Frozen Value"},
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


# unused imports


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _read_names(tree: ast.Module) -> set[str]:
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _bound_names(stmt) == ["__all__"]:
            read.update(ast.literal_eval(stmt.value))
    return read


def test_every_import_is_read():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names = _imported_names(tree) - _read_names(tree)
        if names:
            unused[str(path.relative_to(ROOT))] = sorted(names)
    assert unused == {}


# the test extra


def _test_extra() -> set[str]:
    """Names in the ``test`` extra, read by splitting the text as _scripts
    does (tomllib is 3.11+), with any version or marker cut off."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[project.optional-dependencies]", 1)[1].split("\n[", 1)[0]
    listed = re.search(r"^test\s*=\s*\[(.*?)\]", section, re.M | re.S).group(1)
    return {re.split(r"[^\w.-]", name, 1)[0] for name in re.findall(r'"([^"]+)"', listed)}


def _modules_the_tests_import() -> set[str]:
    """Top-level modules imported under tests/, pytest.importorskip included,
    less the stdlib, the package and the modules of tests/ itself."""
    paths = sorted((ROOT / "tests").rglob("*.py"))
    found = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                found.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "importorskip"):
                found.add(ast.literal_eval(node.args[0]).split(".")[0])
    own = {path.stem for path in paths}
    return found - set(sys.stdlib_module_names) - own - {"su12fiber"}


def test_test_extra_names_what_the_tests_import():
    # each distribution here is imported under its own name
    extra = _test_extra()
    imported = _modules_the_tests_import()
    assert extra and imported
    assert imported - extra == set(), "imported by tests/ but missing from the test extra"
    assert extra - imported == set(), "in the test extra but imported nowhere under tests/"


# methods

# (module, class.method) -> why it stays with no attribute access in the
# package that reads its name
UNREAD_METHODS_ALLOWED = {
    ("cli", "_Parser.error"): "argparse calls it on a usage error",
    ("stability", "CensusResult.stable_total"): "the README Library snippet reads it",
}


def _attribute_reads(tree: ast.AST) -> Counter:
    return Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def test_every_method_is_read_by_name():
    """The gate reads names, not types: a method counts as read when any
    ``x.name`` in the package reads its name, whatever x is.  So a method
    can escape it through another class's method of the same name, as
    TruncatedSeries.inverse does through Scalar.inverse; that one stays
    until bench/tracing.py stops binding it (exact.series_inverse.*).
    Dunder methods are called by the language, not by name, and are not
    listed."""
    trees = _modules()
    reads = sum(map(_attribute_reads, trees.values()), Counter())
    unread = {
        (module, f"{cls.name}.{method.name}")
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and reads[method.name] == _attribute_reads(method)[method.name]
    }
    assert unread == set(UNREAD_METHODS_ALLOWED), (
        "methods no attribute access in the package reads (move test-only "
        f"code to tests/): {sorted(unread - set(UNREAD_METHODS_ALLOWED))}; "
        f"allowed but now read or gone: {sorted(set(UNREAD_METHODS_ALLOWED) - unread)}"
    )


# reflected operators and operator aliases

# the reflected form of each binary operator: __radd__, __rsub__, ...
REFLECTED_OPERATORS = {
    f"__r{name}__"
    for name in "add sub mul matmul truediv floordiv mod divmod pow lshift rshift and xor or".split()
}

# (module, class.name) -> why the class keeps a reflected operator or an alias
OPERATOR_ROUTES_ALLOWED: dict[tuple[str, str], str] = {}


def _operator_routes(cls: ast.ClassDef) -> list[str]:
    """Reflected operators a class body defines, and dunders it binds to
    another name of the class, such as ``__radd__ = __add__``."""
    names = []
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            bound, alias = [stmt.name], False
        elif isinstance(stmt, ast.Assign):
            bound = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            alias = isinstance(stmt.value, ast.Name)
        else:
            continue
        for name in bound:
            dunder = name.startswith("__") and name.endswith("__")
            if name in REFLECTED_OPERATORS or (dunder and alias):
                names.append(name)
    return names


def test_no_reflected_operator_or_operator_alias():
    """Values convert where they enter the package, so each operator takes
    one operand kind and needs no reflected twin.  The method gate above
    skips dunders, so this one names them."""
    found = {
        (module, f"{cls.name}.{name}")
        for module, tree in _modules().items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for name in _operator_routes(cls)
    }
    assert found == set(OPERATOR_ROUTES_ALLOWED), (
        "reflected operators or operator aliases (convert operands where they "
        f"enter instead): {sorted(found - set(OPERATOR_ROUTES_ALLOWED))}; "
        f"allowed but now gone: {sorted(set(OPERATOR_ROUTES_ALLOWED) - found)}"
    )


# one representation of field elements, and value types without generated code

NO_IMPORT = {"dataclasses", "decimal", "fractions", "inspect"}


def _absolute_imports(tree: ast.Module) -> set[str]:
    """Top-level names of the modules a tree imports by absolute name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_dataclasses_inspect_fractions_or_decimal():
    trees = _modules()
    found = {name: _absolute_imports(tree) & NO_IMPORT for name, tree in trees.items()}
    assert {name: names for name, names in found.items() if names} == {}
    scalar = next(
        node for node in trees["exact"].body
        if isinstance(node, ast.ClassDef) and node.name == "Scalar"
    )
    methods = {stmt.name for stmt in scalar.body if isinstance(stmt, ast.FunctionDef)}
    assert methods and not methods & {"a", "b"}, "Scalar.a and Scalar.b are gone"


def test_importing_the_cli_loads_none_of_dataclasses_inspect_fractions_decimal():
    # a child interpreter: this one imported them all long before the test
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ROOT / "tests" / "ci" / "import_set.py"
    out = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True
    )
    # the script checks the same four modules this file's AST pin names
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == f"import su12fiber.cli loads none of {', '.join(sorted(NO_IMPORT))}\n"
