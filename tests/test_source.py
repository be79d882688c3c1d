"""Source hygiene: no library module imports a name it never uses, and
no module-level private function or class goes unreferenced.

A stdlib stand-in for a linter's unused-import and dead-code rules.  The
package __init__ is skipped by the import check: its imports are the
public re-exports.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "superleibniz"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [a.annotation for a in ast.walk(node.args)
                     if isinstance(a, ast.arg)] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        else:
            continue
        # a quoted annotation such as -> "Cochain" names what it uses
        for note in notes:
            for c in ast.walk(note) if note is not None else ():
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                                if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                            key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = ("from fractions import Fraction\nimport itertools\n"
              "def f() -> 'Fraction':\n    pass\n")
    assert unused_imports(source) == ["line 2: itertools"]


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """The module-level private functions and classes, as 'file: name',
    that no source in sources names (a definition is not a reference)."""
    defined, used = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        defined += [f"{name}: {node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                         ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [d for d in defined if d.split(": ")[1] not in used]


def test_no_unreferenced_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_unreferenced_private_helper_is_reported():
    sources = {"a.py": ("def _used():\n    pass\n\n"
                        "def _left_behind():\n    pass\n\n"
                        "class _Gone:\n    pass\n"),
               "b.py": "from a import _used\nx = _used()\n"}
    assert unreferenced_privates(sources) == ["a.py: _left_behind", "a.py: _Gone"]
