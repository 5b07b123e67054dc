"""Every module under ``src/repro`` is reached from an entry point.

Imports are read with :mod:`ast` — nothing is executed.  The roots are
what somebody actually runs: the five ``python -m`` mains and every
``repro.*`` import under ``benchmarks/`` (the end-to-end load generator
drives ``repro.service.client``, which no main imports — that is why
the benchmarks are roots).  A module outside the import closure of
those roots is a door nobody walks through: delete it, or give it a
caller.  An example documents the system; it does not keep a module
alive, so the examples are checked against the closure, not added to it.
"""

import ast
import functools
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

MAINS = ("repro.bench.__main__", "repro.check.__main__",
         "repro.service.__main__", "repro.obs.selfcheck",
         "repro.parallel.selfcheck")


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
