"""No unused import and no dead local assignment in ``src/stratakit``.

A stdlib-``ast`` stand-in for a linter: it flags

* an imported name that its module never reads, and
* a plain ``name = ...`` inside a function that the function (nested
  functions and lambdas included) never reads.

Tuple targets (``_, b = ...``), augmented and annotated assignments are not
checked; neither is the name ``_``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stratakit"
MODULES = sorted(SRC.rglob("*.py"))


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
