"""RP300 — pickle deserialisation trust boundary.

``pickle.loads``/``pickle.load`` executes arbitrary code from its input,
so call sites are confined to an explicit allowlist (empty today) and to
developer-run code under ``tests/``/``benchmarks/``/``examples/``.
Everything the service reads
from a socket or from its state directory is a ``/v1`` wire document
(``wire.py``), so no other module needs pickle; a call anywhere else is a
finding.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath

from .annotations import Annotations
from .diagnostics import Diagnostic

__all__ = ["check_pickles", "ALLOWLIST"]

#: path suffixes (or leading directories) where pickle deserialisation is
#: an accepted, documented trust boundary
ALLOWLIST: tuple[str, ...] = ()

#: directory prefixes treated as developer-run (never service-reachable)
DEV_DIRS: tuple[str, ...] = ("tests", "benchmarks", "examples")


def _allowed(path: str) -> bool:
    """True when ``path`` is allowlisted or developer-run code."""
    posix = PurePosixPath(path.replace("\\", "/"))
    if any(part in DEV_DIRS for part in posix.parts):
        return True
    return any(str(posix).endswith(suffix) for suffix in ALLOWLIST)


def _pickle_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(module aliases of ``pickle``, directly imported load/loads names)."""
    modules: set[str] = set()
    functions: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "pickle":
                    modules.add(alias.asname or "pickle")
        elif isinstance(node, ast.ImportFrom) and node.module == "pickle":
            for alias in node.names:
                if alias.name in ("load", "loads"):
                    functions.add(alias.asname or alias.name)
    return modules, functions


def _is_pickle_load(
    call: ast.Call, modules: set[str], functions: set[str]
) -> bool:
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and func.attr in ("load", "loads")
        and isinstance(func.value, ast.Name)
        and func.value.id in modules
    ):
        return True
    return isinstance(func, ast.Name) and func.id in functions


def check_pickles(
    tree: ast.Module, ann: Annotations, path: str
) -> list[Diagnostic]:
    if _allowed(path):
        return []
    modules, functions = _pickle_aliases(tree)
    if not modules and not functions:
        return []
    return [
        Diagnostic(
            path,
            node.lineno,
            node.col_offset + 1,
            "RP300",
            "pickle deserialisation outside the allowlisted trust "
            "boundary (see --explain RP300)",
        )
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _is_pickle_load(node, modules, functions)
    ]
