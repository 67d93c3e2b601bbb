"""No unused import, no dead local assignment and no dead definition in
``src/stratakit``.

A stdlib-``ast`` stand-in for a linter: it flags

* an imported name that its module never reads,
* a plain ``name = ...`` inside a function that the function (nested
  functions and lambdas included) never reads, and
* a function, class or method whose name appears nowhere in ``src/``,
  ``tests/`` or ``perfbench/`` except where it is defined.

Tuple targets (``_, b = ...``), augmented and annotated assignments are not
checked; neither is the name ``_``; dunder names count as used.
"""

import ast
import re
from collections import Counter
from pathlib import Path
from typing import Sequence

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "stratakit"
MODULES = sorted(SRC.rglob("*.py"))
OTHERS = sorted(p for d in ("tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def _reads(tree: ast.AST) -> set[str]:
    """Names loaded anywhere in ``tree``, nested functions included."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
    return out


def unused_imports(tree: ast.Module) -> list[str]:
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= {elt.value for elt in node.value.elts}
    read = _reads(tree) | exported
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read:
                    out.append(f"line {node.lineno}: {name}")
    return out


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_assigns(fn: ast.AST) -> list[ast.Assign]:
    """The assignments of ``fn`` itself, not of the scopes nested in it."""
    out, stack = [], list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign):
            out.append(node)
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    return sorted(out, key=lambda node: node.lineno)


def dead_locals(tree: ast.Module) -> list[str]:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = _reads(fn)
        declared = {n for node in ast.walk(fn) if isinstance(node, (ast.Global, ast.Nonlocal))
                    for n in node.names}
        for node in _own_assigns(fn):
            for target in node.targets:
                if (isinstance(target, ast.Name) and target.id != "_"
                        and target.id not in read and target.id not in declared):
                    out.append(f"{fn.name}, line {node.lineno}: {target.id}")
    return out


def defined_names(tree: ast.AST) -> list[str]:
    """Functions, classes and methods defined anywhere in ``tree``, dunders excepted."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def unreferenced(checked: dict[str, str], others: Sequence[str]) -> list[str]:
    """``path: name`` for each name defined in a ``checked`` source (path ->
    text) that no source, checked or other, names outside its definitions."""
    texts = list(checked.values()) + list(others)
    words = Counter(w for text in texts for w in re.findall(r"\w+", text))
    defs = Counter(name for text in texts for name in defined_names(ast.parse(text)))
    return sorted(f"{path}: {name}" for path, text in checked.items()
                  for name in set(defined_names(ast.parse(text))) if words[name] <= defs[name])


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_dead_locals(path):
    assert dead_locals(ast.parse(path.read_text())) == []


def test_checker_flags_what_it_should():
    tree = ast.parse(
        "import os\n"
        "from typing import Sequence\n"
        "def f(x):\n"
        "    unused = x + 1\n"
        "    used = x\n"
        "    _, pair = x, x\n"
        "    def g():\n"
        "        inner = 1\n"
        "        return used\n"
        "    return g\n"
    )
    assert unused_imports(tree) == ["line 1: os", "line 2: Sequence"]
    assert dead_locals(tree) == ["f, line 4: unused", "g, line 8: inner"]


def test_no_unreferenced_definitions():
    checked = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert unreferenced(checked, [p.read_text() for p in OTHERS]) == []


def test_reference_checker_flags_what_it_should():
    src = (
        "class Used:\n"
        "    def method(self):\n"
        "        return helper()\n"
        "    def dead_method(self):\n"
        "        pass\n"
        "    def __eq__(self, other):\n"
        "        return True\n"
        "def helper():\n"
        "    return Used\n"
    )
    test = "def test_it():\n    Used().method()\n"
    assert unreferenced({"m.py": src}, [test]) == ["m.py: dead_method"]
