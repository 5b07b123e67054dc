"""Every module under ``src/repro`` is reached from an entry point.

Imports are read with :mod:`ast` — nothing is executed.  The roots are
what somebody actually runs: the four ``python -m`` mains and every
``repro.*`` import under ``benchmarks/`` (the end-to-end load generator
drives ``repro.service.client``, which no main imports — that is why
the benchmarks are roots).  A module outside the import closure of
those roots is a door nobody walks through: delete it, or give it a
caller.  An example documents the system; it does not keep a module
alive, so the examples are checked against the closure, not added to it.

One level down, every top-level function and class under ``src/``
whose name is public must be named somewhere outside ``tests/``: in
its own module, elsewhere under ``src/``, or under ``benchmarks/`` or
``examples/``.  A definition only the tests call is a door too; a
helper the tests need lives under ``tests/``.

For the two measurement packages: a name exported in
``repro.obs.__all__`` or ``repro.metrics.__all__`` must be used by code
outside that package — under ``src/``, ``benchmarks/`` or ``examples/``.
An export only its own package and its tests touch is the same unused
door at a smaller scale.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

MAINS = ("repro.bench.__main__", "repro.check.__main__",
         "repro.service.__main__", "repro.obs.selfcheck")


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(path): path for path in (SRC / "repro").rglob("*.py")}


def _repro_imports(path: Path) -> set[str]:
    """The ``repro`` modules one file imports, at any nesting depth.

    ``from repro.a import b`` names ``repro.a.b`` when that is a module
    and ``repro.a`` otherwise.  The package uses absolute imports only;
    a relative one under ``src/`` would be invisible here, so refuse it.
    """
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert not (node.level and SRC in path.parents), (
                f"{path}:{node.lineno}: relative import")
            found.add(node.module or "")
            found.update(f"{node.module}.{alias.name}"
                         for alias in node.names)
    return found & MODULES.keys()


@functools.cache
def _reachable() -> frozenset[str]:
    """The import closure of the mains and of what ``benchmarks/`` imports."""
    pending = list(MAINS)
    for path in (REPO / "benchmarks").rglob("*.py"):
        pending.extend(_repro_imports(path))
    reached: set[str] = set()
    while pending:
        module = pending.pop()
        if module in reached:
            continue
        reached.add(module)
        if "." in module:  # importing a.b.c imports a and a.b first
            pending.append(module.rpartition(".")[0])
        pending.extend(_repro_imports(MODULES[module]))
    return frozenset(reached)


def test_every_module_is_reachable_from_an_entry_point():
    assert set(MAINS) <= set(MODULES)
    unreachable = sorted(set(MODULES) - _reachable())
    assert not unreachable, (
        f"no entry point imports {unreachable}: delete the module or "
        f"give it a caller")


def test_examples_import_only_reachable_modules():
    examples = sorted((REPO / "examples").glob("*.py"))
    assert examples
    kept_alive = {
        path.name: sorted(unreached) for path in examples
        if (unreached := _repro_imports(path) - _reachable())}
    assert not kept_alive, (
        f"an example is the only importer of {kept_alive}")


def _names_used(path: Path) -> set[str]:
    """Every identifier, attribute and imported name in one file."""
    used: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            used.update(alias.name.rpartition(".")[2]
                        for alias in node.names)
    return used


@pytest.mark.parametrize("package", ["repro.obs", "repro.metrics"])
def test_every_export_is_used_outside_its_package(package):
    own = SRC.joinpath(*package.split("."))
    used: set[str] = set()
    for root in (SRC, REPO / "benchmarks", REPO / "examples"):
        for path in root.rglob("*.py"):
            if own not in path.parents:
                used |= _names_used(path)
    exports = importlib.import_module(package).__all__
    assert exports
    unused = sorted(set(exports) - used)
    assert not unused, (
        f"{package}.__all__ exports {unused}, which nothing outside "
        f"{package} uses: drop the export (or the code behind it)")


def test_every_top_level_name_has_a_caller():
    used: set[str] = set()
    for root in (SRC, REPO / "benchmarks", REPO / "examples"):
        for path in root.rglob("*.py"):
            used |= _names_used(path)
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = sorted(
        f"{module}.{node.name}"
        for module, path in MODULES.items()
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, definitions) and not node.name.startswith("_")
        and node.name not in used)
    assert not unused, (
        f"nothing outside tests/ names {unused}: delete them, give them "
        f"a caller, or move a test helper under tests/")
