"""Every name a module of fdalg imports is used in that module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fdalg"


def unused_imports(source: str) -> list:
    """(line, name) for each imported binding that the module never reads.  A name
    counts as read when it is loaded, or listed in ``__all__``, or appears in a quoted
    annotation; a line marked ``# noqa`` is skipped, as a re-export kept on purpose."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, name))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "EndData", and the entries of __all__
            used.update(n.id for n in _names_in(node.value))
    return [(line, name) for line, name in imported if name not in used]


def _names_in(text: str):
    try:
        expr = ast.parse(text, mode="eval")
    except SyntaxError:
        return []
    return [n for n in ast.walk(expr) if isinstance(n, ast.Name)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from typing import Optional, Sequence\n"
              "import os  # noqa: F401\n"
              "from .linalg import (\n    vcombine,\n    vec,\n)\n"
              "__all__ = ['vec']\n"
              "def f(x: Sequence) -> 'Optional[int]':\n    return None\n")
    assert unused_imports(source) == [(4, "vcombine")]


def orphaned_helpers(sources: dict) -> list:
    """(file, name) for each module-level private function or class of ``sources``
    (file -> text) that no code in them references outside its own definition.  A
    reference is a name, an attribute (``_alg._quotient``) or a quoted annotation."""
    defined, used = [], set()
    for path, source in sources.items():
        for top in ast.parse(source).body:
            own = getattr(top, "name", None)
            if own is not None and own.startswith("_") and not own.startswith("__"):
                defined.append((path, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names = [n.id for n in _names_in(node.value)]
                else:
                    continue
                used.update(n for n in names if n != own)
    return [(path, name) for path, name in defined if name not in used]


def test_every_private_helper_is_used():
    assert orphaned_helpers({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def test_the_check_sees_an_orphaned_helper():
    sources = {
        "a.py": ("def _used():\n    return 1\n"
                 "def _orphan(n):\n    return _orphan(n - 1) if n else _used()\n"
                 "class _Quoted:\n    pass\n"
                 "def __getattr__(name):\n    return None\n"),
        "b.py": ("from . import a\n"
                 "def f() -> '_Quoted':\n    return a._used()\n"),
    }
    assert orphaned_helpers(sources) == [("a.py", "_orphan")]
