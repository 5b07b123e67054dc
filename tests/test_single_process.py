"""Everything under ``src/`` runs in one process.

Campaigns, differentials, service fuzzing and bench sweeps are plain
ordered loops: serial was faster than a process pool on every command
CI runs (docs/PERFORMANCE.md §7).  This pin keeps a pool from coming
back by the side door: no module under ``src/`` imports a process or
executor package, and no command line grows a worker-count flag.
Imports and ``add_argument`` calls are read with :mod:`ast`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
FORBIDDEN = ("multiprocessing", "concurrent.futures")


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _forbidden(module: str) -> bool:
    return any(module == name or module.startswith(name + ".")
               for name in FORBIDDEN)


def test_no_module_imports_a_process_pool():
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                if node.module == "concurrent":
                    names += [f"concurrent.{alias.name}"
                              for alias in node.names]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno}: {name}"
                      for name in names if _forbidden(name)]
    assert not found, found


def test_no_parser_defines_a_worker_count_flag():
    found = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                flags = [arg.value for arg in node.args
                         if isinstance(arg, ast.Constant)
                         and isinstance(arg.value, str)]
                found += [f"{path.relative_to(SRC)}:{node.lineno}: {flag}"
                          for flag in flags if flag.lstrip("-") == "jobs"]
    assert not found, found
