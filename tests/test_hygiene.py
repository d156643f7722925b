"""Source hygiene: every name a module of the package imports is used, no
module reaches into a sibling's private names, every private module-level
name is read by its own module, every public function and class is read
or imported by name outside its own definition and every public method is
read as an attribute there (or either is named in a README code span; a
string keeps no name), only ``ring`` and its own tests know how a Laurent
element stores its terms, and nothing outside the standard library is
imported, and every dotted reference the README and the docstrings make
into a module of the package names something that exists."""

from __future__ import annotations

import ast
import functools
import importlib
import re
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wallx"
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


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


def _public_definitions(tree: ast.Module) -> list[tuple[ast.stmt, bool]]:
    """Module-level public functions and classes, and the public methods of
    module-level classes, each with whether it is a method; dunders are not
    public here."""
    out = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            out.append((node, False))
        if isinstance(node, ast.ClassDef):
            out += [
                (item, True)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
            ]
    return out


# A Markdown code span: `as_fraction()`, `LaurentElement.monomials()`.
_CODE_SPAN = re.compile(r"`([^`\n]+)`")


def _attribute_names(node: ast.AST) -> list[str]:
    return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]


def _identifiers(node: ast.AST) -> list[str]:
    """The identifiers Python code reads or imports: names, attributes and
    the parts of import aliases; strings and docstrings hold none."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
        elif isinstance(n, ast.alias):
            out += n.name.split(".") + ([n.asname] if n.asname else [])
    return out


def _unreferenced_public_names(package: dict, others: dict) -> list[str]:
    """Public definitions of the ``package`` sources (file name -> text)
    that nothing references outside their own definition.  A function or a
    class is referenced where Python source of ``package`` or ``others``
    reads or imports its name (``_identifiers``), or where a code span of a
    Markdown text (a name ending in ``.md``) names it; a string or a
    docstring keeps no name.  A method is referenced only where Python
    source reads it as an attribute (``.name``), or where such a code span
    names it: a method named with a common word is not kept by that word
    alone."""
    identifiers, attributes = Counter(), Counter()
    for name, text in (*package.items(), *others.items()):
        if name.endswith(".md"):
            spans = [w for span in _CODE_SPAN.findall(text) for w in _IDENTIFIER.findall(span)]
            identifiers.update(spans)
            attributes.update(spans)
        else:
            tree = ast.parse(text, filename=name)
            identifiers.update(_identifiers(tree))
            attributes.update(_attribute_names(tree))
    out = []
    for name, text in sorted(package.items()):
        for node, method in _public_definitions(ast.parse(text, filename=name)):
            if method:
                reads, own = attributes, _attribute_names(node)
            else:
                reads, own = identifiers, _identifiers(node)
            if reads[node.name] == own.count(node.name):
                out.append(f"{name}: {node.name} (line {node.lineno})")
    return out


def test_every_public_name_is_referenced() -> None:
    """The package, the benchmark and the README are the readers that
    count; a public name that only the tests call is not kept for them."""
    package = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    others = {
        str(path.relative_to(ROOT)): path.read_text()
        for path in sorted((ROOT / "perfbench").rglob("*.py"))
    }
    others["README.md"] = (ROOT / "README.md").read_text()
    assert _unreferenced_public_names(package, others) == []


def test_scan_sees_an_unreferenced_public_name() -> None:
    package = {
        "shapes.py": (
            "class Box:\n"
            "    def width(self):\n"
            "        return self.width()\n"
            "    def height(self):\n"
            "        return 1\n"
            "    def size(self):\n"
            "        return 2\n"
            "    def depth(self):\n"
            "        return 3\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "def area(box):\n"
            '    """The area of a box."""\n'
            "    return box.height()\n"
            "def _hidden():\n"
            "    return 0\n"
            "def volume(box):\n"
            "    return volume(box)\n"
        ),
    }
    # ``size`` and ``depth`` occur as plain words, which keep no method;
    # the README's code span keeps ``depth``.
    others = {
        "test_shapes.py": "from shapes import Box, area\n",
        "tools.py": "def fit(size, depth):\n    return size < depth\n",
        "README.md": "A box's size is `Box.depth()` deep.\n",
    }
    assert _unreferenced_public_names(package, others) == [
        "shapes.py: width (line 2)",
        "shapes.py: size (line 6)",
        "shapes.py: volume (line 17)",
    ]


def test_scan_keeps_no_name_that_only_a_string_holds() -> None:
    package = {
        "shapes.py": (
            "def area():\n"
            "    return 1\n"
            "def volume():\n"
            '    """Unlike ``area``, this is 3-dimensional."""\n'
            "    return 2\n"
            "def perimeter():\n"
            "    return 3\n"
            "def diagonal():\n"
            "    return 4\n"
            "def girth():\n"
            "    return 5\n"
        ),
    }
    others = {
        "cli.py": (
            "import shapes as s\n"
            "from shapes import volume as v\n"
            "HELP = 'area/perimeter table'\n"
            "ROW = {'girth': s.perimeter()}\n"
        ),
        "README.md": "The diagonal is `shapes.diagonal()`; the girth is not.\n",
    }
    assert _unreferenced_public_names(package, others) == [
        "shapes.py: area (line 1)",
        "shapes.py: girth (line 10)",
    ]


# Modules that work with Laurent elements; ``freelie``, ``selftest`` and
# ``cli`` read ``.terms`` of free Lie elements, which are not ring elements.
_LAURENT_USERS = ("kclasses.py", "descendent.py", "wallcross.py", "ucoeff.py")


def _ring_format_uses(tree: ast.Module, *, terms: bool) -> list[str]:
    """Places that depend on how ``wallx.ring`` stores an element: a call of
    the ``LaurentElement`` constructor under any name bound to it and, with
    ``terms``, a read of ``.terms``."""
    constructors = {"LaurentElement"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            constructors |= {a.asname or a.name for a in node.names if a.name == "LaurentElement"}
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            if node.value.id in constructors:
                constructors |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if terms and isinstance(node, ast.Attribute) and node.attr == "terms":
            found.append((node.lineno, "uses .terms"))
        elif isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id in constructors)
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "LaurentElement")
        ):
            found.append((node.lineno, "calls the LaurentElement constructor"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


@pytest.mark.parametrize(
    "path",
    [
        path
        for folder in (SRC, ROOT / "tests")
        for path in sorted(folder.glob("*.py"))
        if path.name not in ("ring.py", "test_ring.py")
    ],
    ids=lambda p: p.name,
)
def test_only_ring_knows_the_monomial_format(path: Path) -> None:
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _ring_format_uses(tree, terms=path.name in _LAURENT_USERS) == []


def test_scan_sees_the_monomial_format() -> None:
    tree = ast.parse(
        "from .ring import LaurentElement as L\n"
        "from wallx import ring\n"
        "E = L\n"
        "def f(el):\n"
        "    a = E({(): 1})\n"
        "    b = ring.LaurentElement({})\n"
        "    return el.terms, L.gen('x'), list(el.monomials()), a, b\n"
    )
    found = [
        "calls the LaurentElement constructor (line 5)",
        "calls the LaurentElement constructor (line 6)",
    ]
    assert _ring_format_uses(tree, terms=False) == found
    assert _ring_format_uses(tree, terms=True) == found + ["uses .terms (line 7)"]


def _outside_imports(tree: ast.Module) -> list[str]:
    """Imported modules that are neither in the standard library nor this
    package; a relative import is this package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "wallx" and top not in sys.stdlib_module_names:
                found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_standard_library_is_imported(path: Path) -> None:
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _outside_imports(tree) == []


def test_scan_sees_an_import_outside_the_standard_library() -> None:
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from sympy.core import Symbol\n"
        "from . import ring\n"
        "from .ring import KAPPA\n"
        "from wallx.ring import LaurentElement\n"
        "from fractions import Fraction\n"
        "def f():\n"
        "    import hypothesis\n"
    )
    assert _outside_imports(tree) == [
        "numpy (line 2)",
        "sympy.core (line 3)",
        "hypothesis (line 9)",
    ]


# A code span holding a dotted name, with an optional call suffix:
# ``ring.KAPPA`` in a docstring, `wallx.ring.slope_entry` in the README.
_DOTTED_SPAN = re.compile(r"`{1,2}([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`{1,2}")


def _docstrings(tree: ast.Module) -> str:
    """The module, class and function docstrings of a module, joined."""
    return "\n".join(
        ast.get_docstring(node, clean=False) or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    )


def _stale_references(texts: dict, modules: dict) -> list[str]:
    """Dotted code spans in ``texts`` (place -> text) whose first part is a
    name of ``modules`` (name -> module) but whose attribute chain does not
    resolve from it by ``getattr``; spans into other modules are skipped."""
    out = []
    for where, text in texts.items():
        for match in _DOTTED_SPAN.finditer(text):
            head, *chain = match.group(1).split(".")
            if head not in modules:
                continue
            try:
                functools.reduce(getattr, chain, modules[head])
            except AttributeError:
                out.append(f"{where}: {match.group(1)}")
    return out


def test_docs_name_only_existing_symbols() -> None:
    modules = {"wallx": importlib.import_module("wallx")}
    texts = {"README.md": (ROOT / "README.md").read_text()}
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            modules[path.stem] = importlib.import_module(f"wallx.{path.stem}")
        texts[path.name] = _docstrings(ast.parse(path.read_text(), filename=str(path)))
    assert _stale_references(texts, modules) == []


def test_scan_sees_a_stale_doc_reference() -> None:
    ring = SimpleNamespace(KAPPA="k", LaurentElement=SimpleNamespace(gen=None))
    modules = {"wallx": SimpleNamespace(ring=ring), "ring": ring}
    readme = (
        "| `wallx.ring` | `wallx.ring.KAPPA`, `wallx.ring.expand_around_one` |\n"
        "```python\nfrom wallx.ring import KAPPA\n```\n"
        "`wallx.oracles` and `fractions.Fraction`\n"
    )
    tree = ast.parse(
        '"""Uses ``ring.LaurentElement.gen()`` and ``kclasses.AUG_Z``."""\n'
        "def f():\n"
        '    """Reads ``ring.LaurentElement.shift``."""\n'
        "    return '``ring.missing``'\n"
    )
    texts = {"README.md": readme, "mod.py": _docstrings(tree)}
    assert _stale_references(texts, modules) == [
        "README.md: wallx.ring.expand_around_one",
        "README.md: wallx.oracles",
        "mod.py: ring.LaurentElement.shift",
    ]
