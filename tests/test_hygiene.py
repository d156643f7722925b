"""Source hygiene: every name a module of the package imports is used, no
module reaches into a sibling's private names, and every private module-level
name is read by its own module."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wallx"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement that the module never reads.

    A name counts as read when it appears as a ``Name`` anywhere, as the
    root of an attribute chain, or in ``__all__``.  ``from __future__``
    imports bind nothing and are skipped.
    """
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {
                elt.value
                for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def _private_imports(tree: ast.Module) -> list[str]:
    """Underscore names imported from a module of the package."""
    return [
        f"{'.' * node.level}{node.module or ''}.{alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "wallx")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def _unread_private_names(tree: ast.Module) -> list[str]:
    """Module-level underscore functions, classes and constants that the
    module never reads; dunders are exempt.  A read inside the name's own
    definition (a recursive call) does not count."""
    defined: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for elt in ast.walk(target):
                    if isinstance(elt, ast.Name):
                        defined[elt.id] = node
    out = []
    for name, node in defined.items():
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        own = {id(n) for n in ast.walk(node)}
        if not any(
            isinstance(n, ast.Name) and n.id == name and id(n) not in own
            for n in ast.walk(tree)
        ):
            out.append(f"{name} (line {node.lineno})")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path: Path) -> None:
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unused_imports(tree) == []


def test_scan_sees_an_unused_import() -> None:
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import Callable, Mapping\n"
        "def f(m: Mapping) -> None:\n"
        "    os.getcwd()\n"
    )
    assert _unused_imports(tree) == ["Callable (line 3)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path: Path) -> None:
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _private_imports(tree) == []


def test_scan_sees_a_private_import() -> None:
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from .ring import LaurentElement, _coef\n"
        "from wallx.freelie import _expand_lyndon\n"
        "from os import _exit\n"
    )
    assert _private_imports(tree) == [
        ".ring._coef (line 2)",
        "wallx.freelie._expand_lyndon (line 3)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_read(path: Path) -> None:
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _unread_private_names(tree) == []


def test_scan_sees_an_unread_private_name() -> None:
    tree = ast.parse(
        "__version__ = '1'\n"
        "_LIMIT = 3\n"
        "_SCALE = 2\n"
        "class _Box:\n"
        "    pass\n"
        "def _walk(n):\n"
        "    return _walk(n - 1) if n else _Box()\n"
        "def _half(n):\n"
        "    return n // _SCALE\n"
        "def run():\n"
        "    return _half(4)\n"
    )
    assert _unread_private_names(tree) == ["_LIMIT (line 2)", "_walk (line 6)"]
