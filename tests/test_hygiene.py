"""No unused import, no dead local assignment and no dead definition in
``src/stratakit``.

A stdlib-``ast`` stand-in for a linter: it flags

* an imported name that its module never reads,
* a plain ``name = ...`` inside a function that the function (nested
  functions and lambdas included) never reads, and
* a function, class or method whose name appears nowhere in ``src/``,
  ``tests/`` or ``perfbench/`` except where it is defined, and
* a defaulted parameter that no call there (to any function of that name)
  passes, by keyword or by position (a class statement's keywords are a
  call of ``__init_subclass__``), and
* an attribute that a ``self.<name> = ...`` sets, or a field of a
  ``linalg.Value`` subclass, a dataclass or a ``NamedTuple``, that no
  source there ever reads as an attribute
  (``self.<name> += ...`` counts as a read; reads match by name alone, so
  a field named like an attribute read on another object counts as read,
  unless that object is visibly a ``pathlib.Path``: a ``Path(...)`` call, a
  name assigned only from one, or a ``.parent``/``.resolve()`` chain of
  those), and
* a name assigned from a ``solve_left`` or ``solve_in_hom`` call and then
  compared with ``None`` in an ``if``, a conditional expression or an
  ``assert``: these raise ``InconsistentSystem`` instead of returning
  ``None``, so a caller with a real yes/no question catches that, and
* a module-level name bound to an empty container, or a module-level
  function or method made a ``functools`` cache: state that would outlive
  every input, and
* an ``assert`` in ``recollement.py`` or ``analyze.py``, which raise
  ``InvariantError`` instead, because ``python -O`` strips an ``assert``,
  and
* a call of, or other reference to, ``corner_algebra`` or
  ``quotient_by_idempotent_ideal`` anywhere but in
  ``recollement.idempotent_recollement_data``: a stratification's derived
  algebras are the sides of its layer recollements, built there once, and
* a read of ``.kind``, ``.p`` or ``.is_finite`` in ``Matrix``,
  ``Subspace``, ``intertwiner_basis`` or ``Algebra``, and a per-entry
  ``Field`` arithmetic method (``add``, ``sub``, ``mul``, ``neg``) called
  on a field or defined on ``Field``: the kernel has one arithmetic path
  for both fields, and only ``Field.norm`` tells them apart, and
* a bare ``except``, a handler of ``Exception``, ``BaseException`` or
  ``ValueError``, or of a tuple, outside ``cli._guarded``,
  ``cli._seed_default`` and ``specfile``, and a class that subclasses
  ``ValueError``: every raise is a verdict (``linalg.InputError``) or a
  fault, by type.

Apart from these, every function, class and method in ``src/stratakit``
must be reachable from the command line: ``unreachable`` follows a
name-based call graph from ``cli.main`` (see its docstring), so a
definition that only tests use is flagged even though a test names it.

For dead locals, tuple targets (``_, b = ...``), augmented and annotated
assignments are not checked; neither is the name ``_``; dunder names count
as used.  A default
that captures the same name from the enclosing scope (``def f(x=x)``) is not
a setting and is not checked.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
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


def _own_nodes(fn: ast.AST, kinds) -> list:
    """The nodes of type ``kinds`` in ``fn`` itself, not in the scopes nested in it."""
    out, stack = [], list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, kinds):
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
        for node in _own_nodes(fn, ast.Assign):
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


def _called_name(call: ast.Call) -> str | None:
    """``f`` for a call ``f(...)`` or ``x.f(...)``."""
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, position among the arguments a call passes) of each defaulted
    parameter of ``fn``; keyword-only parameters have no position."""
    positional = fn.args.posonlyargs + fn.args.args
    shift = 1 if method else 0
    pairs = list(zip(positional[len(positional) - len(fn.args.defaults):], fn.args.defaults))
    out = [(arg.arg, positional.index(arg) - shift, default) for arg, default in pairs]
    out += [(arg.arg, None, default)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
    return [(name, pos) for name, pos, default in out
            if not (isinstance(default, ast.Name) and default.id == name)]


def _functions(tree: ast.AST):
    """(names a call uses, function, is a method) for every function in ``tree``."""
    methods = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in node.decorator_list)
                    names = {cls.name, node.name} if node.name == "__init__" else {node.name}
                    methods[node] = (names, not static)
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names, method = methods.get(fn, ({fn.name}, False))
            yield names, fn, method


def unpassed_parameters(checked: dict[str, str], others: Sequence[str]) -> list[str]:
    """``path: function(parameter)`` for each defaulted parameter of a
    function in a ``checked`` source that no call in any source passes."""
    passed: dict[str, list[tuple[int, set[str]]]] = {}
    for text in list(checked.values()) + list(others):
        for call in ast.walk(ast.parse(text)):
            if isinstance(call, ast.ClassDef):
                passed.setdefault("__init_subclass__", []).append((0, {k.arg for k in call.keywords}))
            if not isinstance(call, ast.Call):
                continue
            name = _called_name(call)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                npos, kws = float("inf"), set()  # *args or **kwargs may pass anything
            else:
                npos, kws = len(call.args), {k.arg for k in call.keywords}
            passed.setdefault(name, []).append((npos, kws))
    out = []
    for path, text in checked.items():
        for names, fn, method in _functions(ast.parse(text)):
            calls = [c for n in names for c in passed.get(n, [])]
            for param, pos in _defaulted(fn, method):
                if not any(param in kws or (pos is not None and npos > pos) for npos, kws in calls):
                    out.append(f"{path}: {fn.name}({param})")
    return sorted(out)


def _record_fields(tree: ast.AST):
    """(class name, field name) for each annotated field of a ``Value``
    subclass, a dataclass or a ``NamedTuple`` in ``tree``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        marks = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list] + cls.bases
        if any(getattr(m, "id", getattr(m, "attr", None)) in ("Value", "dataclass", "NamedTuple") for m in marks):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield cls.name, node.target.id


def _is_path(node: ast.AST, names: set[str]) -> bool:
    """Whether ``node`` is visibly a ``pathlib.Path``: a ``Path(...)`` call,
    one of ``names``, or ``.parent`` or ``.resolve()`` of such a node."""
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name) and f.id == "Path" or isinstance(f, ast.Attribute) and f.attr == "Path":
            return True
        return isinstance(f, ast.Attribute) and f.attr == "resolve" and _is_path(f.value, names)
    if isinstance(node, ast.Name):
        return node.id in names
    return isinstance(node, ast.Attribute) and node.attr == "parent" and _is_path(node.value, names)


def _path_names(tree: ast.AST) -> set[str]:
    """Names that every plain assignment in ``tree`` binds to a path."""
    values: dict[str, list[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    values.setdefault(t.id, []).append(node.value)
                else:  # tuple targets and the like bind names to anything
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            values.setdefault(n.id, []).append(t)
    names: set[str] = set()
    while True:
        more = {n for n, vs in values.items() if all(_is_path(v, names) for v in vs)}
        if more == names:
            return names
        names = more


def write_only_attributes(checked: dict[str, str], others: Sequence[str]) -> list[str]:
    """``path: name`` for each attribute that a ``checked`` source sets on
    ``self``, and ``path: Class.field`` for each ``Value``, dataclass or
    ``NamedTuple`` field it declares, that no source, checked or other,
    reads.  A read on a visible ``pathlib.Path`` (see ``_is_path``) is not a
    read of a field."""
    trees = {path: ast.parse(text) for path, text in checked.items()}
    read: set[str] = set()
    for tree in list(trees.values()) + [ast.parse(t) for t in others]:
        paths = _path_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
            elif (isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store)
                    and not _is_path(node.value, paths)):
                read.add(node.attr)
    fields = {f"{path}: {cls}.{name}" for path, tree in trees.items()
              for cls, name in _record_fields(tree) if name not in read}
    return sorted(fields | {f"{path}: {node.attr}" for path, tree in trees.items() for node in ast.walk(tree)
                            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name) and node.value.id == "self"
                            and node.attr not in read})


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _loads(nodes) -> tuple[set[str], set[str]]:
    """Names that ``nodes`` load plainly, and names they load as an
    attribute, outside the bodies of the definitions among them.  A
    definition's decorators, defaults and bases count: they run where it is
    defined."""
    plain, attrs, stack = set(), set(), list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            plain.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attrs.add(node.attr)
        if isinstance(node, ast.ClassDef):
            stack.extend(node.decorator_list + node.bases + node.keywords)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list + node.args.defaults
                         + [d for d in node.args.kw_defaults if d is not None])
        else:
            stack.extend(ast.iter_child_nodes(node))
    return plain, attrs


def _definitions(node: ast.AST, prefix: str = ""):
    """(qualified name, node, is a method) of every function, class and
    method under ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFS):
            yield prefix + child.name, child, isinstance(node, ast.ClassDef)
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def unreachable(sources: dict[str, str], roots: dict[str, set[str]]) -> list[str]:
    """``path: qualified name`` of each definition in ``sources`` (path ->
    text) that a name-based call graph does not reach.

    The graph starts from the definitions named in ``roots`` (path ->
    qualified names), from module-level and class-body statements, which run
    on import, and from dunder methods, which Python calls by protocol.  A
    reached body reaches every definition whose name it loads, in any
    module: a function or class by a plain or an attribute load, a method
    only by an attribute load (``x.span``, ``Subspace.span``), since a plain
    ``span`` is a variable, never a method.  Matching by name
    over-approximates: a call ``x.direct_sum(...)`` reaches every
    ``direct_sum``, whichever object ``x`` is, so a definition this passes
    may still be dead, but one it flags is one that nothing reached from the
    roots names.
    """
    defs, plain, attrs = [], set(), set()

    def load(nodes):
        p, a = _loads(nodes)
        plain.update(p)
        attrs.update(a)

    for path, text in sources.items():
        tree = ast.parse(text)
        load(tree.body)
        for qual, node, method in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                load(node.body)
            defs.append((path, qual, node, method))
    reached = set()

    def reach(path, qual, node):
        reached.add((path, qual))
        if not isinstance(node, ast.ClassDef):
            load(node.body)

    for path, qual, node, _ in defs:
        name = node.name
        if qual in roots.get(path, ()) or (name.startswith("__") and name.endswith("__")):
            reach(path, qual, node)
    grown = True
    while grown:
        grown = False
        for path, qual, node, method in defs:
            if (path, qual) not in reached and (node.name in attrs or not method and node.name in plain):
                reach(path, qual, node)
                grown = True
    return sorted(f"{path}: {qual}" for path, qual, _, _ in defs if (path, qual) not in reached)


SOLVES = {"solve_left", "solve_in_hom"}


def none_checked_solves(tree: ast.Module) -> list[str]:
    """``function, line n: name`` for each ``is None``/``is not None`` test,
    in an ``if``, a conditional expression or an ``assert``, of a name that
    the same function assigns from a solve."""
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        solved = {target.id for node in _own_nodes(fn, ast.Assign)
                  if isinstance(node.value, ast.Call) and _called_name(node.value) in SOLVES
                  for target in node.targets if isinstance(target, ast.Name)}
        for node in _own_nodes(fn, (ast.If, ast.IfExp, ast.Assert)):
            for cmp in ast.walk(node.test):
                if (isinstance(cmp, ast.Compare) and isinstance(cmp.ops[0], (ast.Is, ast.IsNot))
                        and isinstance(cmp.left, ast.Name) and cmp.left.id in solved
                        and isinstance(cmp.comparators[0], ast.Constant)
                        and cmp.comparators[0].value is None):
                    out.append(f"{fn.name}, line {cmp.lineno}: {cmp.left.id}")
    return sorted(out)


CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
              "WeakValueDictionary", "WeakKeyDictionary"}
CACHES = {"cache", "lru_cache"}


def process_caches(tree: ast.Module) -> list[str]:
    """``line n: name`` for each module-level name bound to an empty
    container (``{}``, ``[]``, ``set()``, ``defaultdict(list)``, ...) and
    each function or method at module level that is, or is made by,
    ``functools.cache``/``lru_cache``: state that would outlive every input."""
    out = []

    def is_cache(node):  # cache, functools.cache, lru_cache(...), lru_cache(...)(f)
        while isinstance(node, ast.Call):
            node = node.func
        return getattr(node, "id", getattr(node, "attr", None)) in CACHES

    def is_empty(value):
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return not getattr(value, "keys", getattr(value, "elts", None))
        return (isinstance(value, ast.Call) and _called_name(value) in CONTAINERS
                and (not value.args or _called_name(value) == "defaultdict"))

    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            names = [n.id for t in getattr(node, "targets", [getattr(node, "target", None)])
                     for n in ast.walk(t) if isinstance(n, ast.Name)]
            if is_empty(node.value) or is_cache(node.value):
                out += [f"line {node.lineno}: {n}" for n in names]
        defs = [node] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else (
            [d for d in node.body if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef))]
            if isinstance(node, ast.ClassDef) else [])
        out += [f"line {d.lineno}: {d.name}" for d in defs if any(is_cache(dec) for dec in d.decorator_list)]
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_nothing_is_cached_per_process(path):
    """Every memo lives on the object its question is about (an algebra's
    ``cache``, a stratification, a recollement, one call), never in the
    module, where it would outlive its input."""
    assert process_caches(ast.parse(path.read_text())) == []


def test_process_cache_checker_flags_what_it_should():
    tree = ast.parse(
        "import functools\n"
        "from functools import lru_cache\n"
        "from collections import defaultdict\n"
        "SEEN = {}\n"
        "ORDER: list = []\n"
        "TABLE = {'a': 1}\n"
        "PAIRS = defaultdict(list)\n"
        "NAMES = set()\n"
        "KINDS = set('ab')\n"
        "EMPTY = ()\n"
        "@functools.cache\n"
        "def f(x):\n"
        "    local = {}\n"
        "    return local\n"
        "@lru_cache(maxsize=None)\n"
        "def g(x):\n"
        "    @functools.cache\n"
        "    def inner(y):\n"
        "        return y\n"
        "    return inner\n"
        "h = functools.lru_cache(maxsize=8)(g)\n"
        "class C:\n"
        "    @functools.cache\n"
        "    def m(self):\n"
        "        return 0\n"
    )
    assert process_caches(tree) == [
        "line 12: f", "line 16: g", "line 21: h", "line 24: m",
        "line 4: SEEN", "line 5: ORDER", "line 7: PAIRS", "line 8: NAMES"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_assert_statements(path):
    """``src/`` raises ``InvariantError`` instead: an ``assert`` vanishes
    under ``python -O``."""
    tree = ast.parse(path.read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


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


def test_no_unpassed_parameters():
    checked = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert unpassed_parameters(checked, [p.read_text() for p in OTHERS]) == []


def test_parameter_checker_flags_what_it_should():
    src = (
        "def f(x, y=1, *, z=2, unused=3):\n"
        "    return x\n"
        "def never(a=1):\n"
        "    return [lambda a=a: a]\n"
        "class C:\n"
        "    def __init__(self, size=0):\n"
        "        self.size = size\n"
        "    def m(self, k=0):\n"
        "        return k\n"
        "    def n(self, a, k=0):\n"
        "        return k\n"
        "def outer(xs):\n"
        "    return [g for x in xs for g in [lambda: x]] + [h for x in xs for h in (inner(x),)]\n"
        "def inner(x, cap=None):\n"
        "    def seq(x=x):\n"
        "        return x\n"
        "    return seq\n"
        "class Base:\n"
        "    def __init_subclass__(cls, frozen=True, slots=False):\n"
        "        pass\n"
        "class Open(Base, frozen=False):\n"
        "    pass\n"
    )
    test = "f(0, 1, z=2)\nnever()\nC(4).m(1)\nC().n(1)\ninner(*[1, 2])\n"
    assert unpassed_parameters({"m.py": src}, [test]) == [
        "m.py: __init_subclass__(slots)", "m.py: f(unused)", "m.py: n(k)", "m.py: never(a)"]


def test_no_write_only_attributes():
    checked = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert write_only_attributes(checked, [p.read_text() for p in OTHERS]) == []


def test_attribute_checker_flags_what_it_should():
    src = (
        "class C:\n"
        "    def __init__(self):\n"
        "        self.used = 1\n"
        "        self.dead = 2\n"
        "        self.seen_in_test, self.pair_dead = 3, 4\n"
        "        self.count = 0\n"
        "    def bump(self):\n"
        "        self.count += 1\n"
        "        self.dead = 5\n"
        "        return self.used\n"
    )
    test = "def test_it():\n    assert C().seen_in_test == 3\n"
    assert write_only_attributes({"m.py": src}, [test]) == ["m.py: dead", "m.py: pair_dead"]


def test_record_field_checker_flags_what_it_should():
    src = (
        "from dataclasses import dataclass\n"
        "from typing import NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class Result:\n"
        "    value: int\n"
        "    kept_for_nothing: int\n"
        "    seen_in_test: int = 0\n"
        "class Pair(NamedTuple):\n"
        "    first: int\n"
        "    second: int\n"
        "class Plain:\n"
        "    annotated: int = 0\n"
        "@dataclass\n"
        "class Node:\n"
        "    parent: int\n"
        "class Span(Value, frozen=False):\n"
        "    low: int\n"
        "    unread_high: int\n"
        "def use(r, p, s):\n"
        "    return r.value + p.first + s.low\n"
    )
    test = ("from pathlib import Path\n"
            "HERE = Path(__file__).resolve().parent\n"
            "ROOT = HERE.parent\n"
            "def test_it():\n"
            "    assert Path(__file__).parent.parent == ROOT.parent.parent\n"
            "    assert Result(1, 2, 3).seen_in_test == 3\n")
    assert write_only_attributes({"m.py": src}, [test]) == [
        "m.py: Node.parent", "m.py: Pair.second", "m.py: Result.kept_for_nothing",
        "m.py: Span.unread_high"]


def test_every_definition_is_reachable_from_the_cli():
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    # argparse calls ``error`` on a malformed command line; cli overrides
    # it to exit 1 instead of 2, and nothing in the package names it
    assert unreachable(sources, {"cli.py": {"main", "_Parser.error"}}) == []


def test_reachability_checker_flags_what_it_should():
    cli = (
        "import argparse\n"
        "class _Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n"
        "        raise Usage(message)\n"
        "def main():\n"
        "    _Parser()\n"
        "    return run(helper)\n"
        "if __name__ == '__main__':\n"
        "    main()\n"
    )
    lib = (
        "def run(f):\n"
        "    span = f\n"
        "    def inner():\n"
        "        return span().label\n"
        "    def never():\n"
        "        return 0\n"
        "    return inner()\n"
        "def helper(x=default()):\n"
        "    return x\n"
        "def default():\n"
        "    return 0\n"
        "class Usage(Exception):\n"
        "    kind = tag()\n"
        "    def __str__(self):\n"
        "        return fmt()\n"
        "    def unused(self):\n"
        "        return orphan()\n"
        "    def span(self):\n"
        "        return 0\n"
        "    def label(self):\n"
        "        return ''\n"
        "def tag():\n"
        "    return 'usage'\n"
        "def fmt():\n"
        "    return ''\n"
        "def orphan():\n"
        "    return run(orphan)\n"
        "class Planted:\n"
        "    pass\n"
    )
    sources = {"cli.py": cli, "lib.py": lib}
    # the local variable ``span`` is no load of the method ``Usage.span``;
    # ``span().label`` is one of ``Usage.label``
    assert unreachable(sources, {"cli.py": {"main", "_Parser.error"}}) == [
        "lib.py: Planted", "lib.py: Usage.span", "lib.py: Usage.unused", "lib.py: orphan",
        "lib.py: run.never"]
    assert unreachable(sources, {"cli.py": {"main"}}) == [
        "cli.py: _Parser.error", "lib.py: Planted", "lib.py: Usage", "lib.py: Usage.span",
        "lib.py: Usage.unused", "lib.py: orphan", "lib.py: run.never"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_none_checked_solves(path):
    assert none_checked_solves(ast.parse(path.read_text())) == []


def test_solve_checker_flags_what_it_should():
    tree = ast.parse(
        "def f(a, b, cat):\n"
        "    x = a.solve_left(b)\n"
        "    assert x is not None, 'no solution'\n"
        "    y = b.solve_left(a)\n"
        "    if y is None or y.rank() == 0:\n"
        "        return None\n"
        "    z = b.transpose()\n"
        "    assert z is not None\n"
        "    def g():\n"
        "        h = solve_in_hom(cat, a, b, None, b)\n"
        "        return None if h is None else h\n"
        "    try:\n"
        "        w = a.solve_left(b)\n"
        "    except ArithmeticError:\n"
        "        return None\n"
        "    return x, y, w, g\n"
    )
    assert none_checked_solves(tree) == ["f, line 3: x", "f, line 5: y", "g, line 11: h"]


VALUE_TYPES = {
    "linalg": ("Field", "Matrix", "Subspace"),
    "algebra": ("Quiver", "Presentation", "Algebra", "ValidationReport", "CornerData", "QuotientData"),
    "modules": ("RightModule", "ModuleMap", "Bimodule", "TensorFunctor", "HomFunctor", "Cover", "Envelope"),
    "category": ("Functor", "ShortExactSequence", "IsoResult"),
    "homological": ("Resolution", "ExtClass", "ExtSpace", "UniversalExtension"),
    "recollement": ("Recollement", "IdempotentRecollementData", "CheckResult", "RecollementReport",
                    "IntermediateExtension"),
    "strat": ("Poset", "LayerWitness", "FiltrationCertificate", "LowerAlgebra", "StandardObjects",
              "SynthesisAudit", "SynthesisResult", "PorismResult"),
    "analyze": ("ExactnessVerdict", "ExtComparison", "HomologicalVerdict", "RouteVerdict", "Decision"),
    "mv": ("MVData", "MVObject", "MVMorphism"),
    "specfile": ("PosetSpec", "StratSpec", "BimoduleSpec", "MVSpec", "AlgebraSpec"),
    "report": ("Check", "Report"),
    "corpus": ("CorpusEntry",),
    "cli": ("Session",),
}


def test_no_module_imports_dataclasses():
    """Records and value types alike subclass ``linalg.Value``:
    ``dataclasses`` would cost every start of the command line its import
    (with ``inspect``) and each class its generated, ``exec``'d methods."""
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.stem}: {n}" for n in names if n and n.split(".")[0] == "dataclasses"]
    assert found == []


def imported_names(tree: ast.Module) -> set[str]:
    """Every module ``tree`` imports and every name it imports from one."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
    return out


def test_the_isomorphism_test_searches_no_combinations():
    """``category`` decides isomorphism by one pass over a hom basis: it
    draws no pseudorandom coefficients and enumerates no combinations."""
    assert {"random", "hom_combinations"} & imported_names(ast.parse((SRC / "category.py").read_text())) == set()


NAMED_TUPLES = {"NamedTuple", "namedtuple"}


def named_tuple_uses(tree: ast.Module) -> list[str]:
    """``line n: name`` for each import of, and each other reference to,
    ``typing.NamedTuple`` or ``collections.namedtuple`` in ``tree``: a base,
    a call or an attribute of ``typing`` or ``collections``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.rpartition(".")[2] for a in node.names]
        else:
            names = [getattr(node, "id", None) or getattr(node, "attr", None)]
        out += [(node.lineno, n) for n in names if n in NAMED_TUPLES]
    return [f"line {line}: {n}" for line, n in sorted(out)]


def test_no_record_is_a_named_tuple():
    """A ``NamedTuple`` class ``exec``s its ``__new__`` and compiles each
    string annotation into a ``ForwardRef`` when it is created, about ten
    times what a ``Value`` subclass costs; every record is a ``Value``."""
    found = [f"{path.stem}: {use}" for path in MODULES for use in named_tuple_uses(ast.parse(path.read_text()))]
    assert found == []


def test_named_tuple_checker_flags_what_it_should():
    tree = ast.parse(
        "import typing\n"
        "from typing import NamedTuple, Sequence\n"
        "from collections import namedtuple\n"
        "class Pair(NamedTuple):\n"
        "    first: int\n"
        "class Span(typing.NamedTuple):\n"
        "    low: int\n"
        "Point = namedtuple('Point', 'x y')\n"
        "class Fine(Value):\n"
        "    named: Sequence\n"
    )
    assert named_tuple_uses(tree) == [
        "line 2: NamedTuple", "line 3: namedtuple", "line 4: NamedTuple", "line 6: NamedTuple",
        "line 8: namedtuple"]


DERIVED_ALGEBRAS = {"corner_algebra", "quotient_by_idempotent_ideal"}
LAYER_DATA = ("recollement.py", "idempotent_recollement_data")


def _owners(tree: ast.AST) -> dict[int, str]:
    """``id(node)`` -> qualified name of the innermost definition around it."""
    # _definitions yields a definition before those nested in it, so the innermost wins
    return {id(node): qual for qual, fn, _ in _definitions(tree) for node in ast.walk(fn)}


def uses_outside(sources: dict[str, str], names: set[str], allowed: tuple[str, str]) -> list[str]:
    """``path: function, line n: name`` for each load (a call or any other
    reference) of one of ``names`` in ``sources`` (path -> text) outside
    the function ``allowed`` (path, qualified name); the function is the
    innermost definition around the load, ``<module>`` for none."""
    out = []
    for path, text in sources.items():
        tree = ast.parse(text)
        owner = _owners(tree)
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in names and isinstance(getattr(node, "ctx", None), ast.Load):
                where = owner.get(id(node), "<module>")
                if (path, where) != allowed:
                    out.append(f"{path}: {where}, line {node.lineno}: {name}")
    return sorted(out)


def test_only_the_layer_recollement_builds_corners_and_quotients():
    """Each lower-set algebra is the closed side of a layer recollement and
    each stratum its open side; a second construction beside the layer
    would build and certify the same algebra again."""
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert uses_outside(sources, DERIVED_ALGEBRAS, LAYER_DATA) == []


def test_only_the_input_builder_validates_an_algebra():
    """``validate_algebra`` runs once per input, on the algebra its builder
    made; every corner and quotient is certified against the algebra it
    comes from (``algebra._derived_algebra``), not validated afresh."""
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert uses_outside(sources, {"validate_algebra"}, ("algebra.py", "build_bound_quiver_algebra")) == []


def test_derived_algebra_checker_flags_what_it_should():
    recollement = (
        "from .algebra import corner_algebra, quotient_by_idempotent_ideal\n"
        "def idempotent_recollement_data(a, vs):\n"
        "    return corner_algebra(a, vs), quotient_by_idempotent_ideal(a, vs)\n"
        "def make(a, vs):\n"
        "    def inner():\n"
        "        return corner_algebra(a, vs)\n"
        "    return inner\n"
    )
    strat = (
        "from . import algebra\n"
        "from .algebra import corner_algebra\n"
        "build = corner_algebra\n"
        "class S:\n"
        "    def lower(self, vs):\n"
        "        return algebra.quotient_by_idempotent_ideal(self.a, vs)\n"
        "    def corner_algebra(self):\n"
        "        return 0\n"
    )
    algebra = "def corner_algebra(a, vs):\n    return a\n"
    sources = {"recollement.py": recollement, "strat.py": strat, "algebra.py": algebra}
    assert uses_outside(sources, DERIVED_ALGEBRAS, LAYER_DATA) == [
        "recollement.py: make.inner, line 6: corner_algebra",
        "strat.py: <module>, line 3: corner_algebra",
        "strat.py: S.lower, line 6: quotient_by_idempotent_ideal"]


def test_commands_load_neither_dataclasses_nor_inspect():
    """A fresh interpreter, since this one has loaded both: the command line,
    then the layers of ``check --mode hw``, then the gluing and the corpus."""
    steps = ["stratakit.cli", "stratakit.strat", "stratakit.analyze", "stratakit.mv", "stratakit.corpus"]
    script = ("import importlib, sys\n"
              f"for name in {steps!r}:\n"
              "    importlib.import_module(name)\n"
              "    print(name, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == [f"{name} []" for name in steps]


def test_write_only_check_examines_every_field_of_the_value_types():
    """The value types and records are exactly the listed ``Value``
    subclasses, and the write-only check sees each of their fields."""
    from stratakit.linalg import Value

    modules = {mod: importlib.import_module(f"stratakit.{mod}") for mod in VALUE_TYPES}
    assert {(c.__module__, c.__name__) for c in Value.__subclasses__() if c.__module__.startswith("stratakit.")} \
        == {(f"stratakit.{mod}", cls) for mod, names in VALUE_TYPES.items() for cls in names}
    fields = {(cls, name) for mod, names in VALUE_TYPES.items() for cls in names
              for name in getattr(modules[mod], cls)._fields}
    examined = {pair for mod in VALUE_TYPES for pair in _record_fields(ast.parse((SRC / f"{mod}.py").read_text()))}
    assert len(fields) == 206 and fields <= examined


def test_perfbench_selftest_passes():
    """The traced benchmark runs on this tree: ``python3
    perfbench/selftest.py`` from the repo root traces tiny inputs twice and
    exits 0 only when every work counter repeats, so a change to ``src/``
    that breaks the traced run fails here."""
    res = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True)
    assert res.returncode == 0, res.stdout + res.stderr


FIELD_KIND = {"kind", "p", "is_finite"}
FIELD_ARITHMETIC = {"add", "sub", "mul", "neg"}
FIELD_NAMES = {"F", "field", "GF2", "GF3", "QQ"}


def field_branches(tree: ast.Module, owners: set[str]) -> list[str]:
    """``owner, line n: attr`` for each read of an attribute in
    ``FIELD_KIND`` inside the module-level definitions of ``tree`` named in
    ``owners``, their methods and nested functions included."""
    return sorted(f"{node.name}, line {sub.lineno}: {sub.attr}" for node in tree.body
                  if isinstance(node, DEFS) and node.name in owners for sub in ast.walk(node)
                  if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
                  and sub.attr in FIELD_KIND)


def per_entry_field_calls(tree: ast.Module) -> list[str]:
    """``line n: call`` for each call of a ``FIELD_ARITHMETIC`` method on a
    field (a name in ``FIELD_NAMES`` or any ``.field`` attribute), and
    ``line n: Field.name`` for each such method that a class ``Field``
    defines."""
    out = [f"line {fn.lineno}: Field.{fn.name}" for cls in ast.walk(tree)
           if isinstance(cls, ast.ClassDef) and cls.name == "Field" for fn in cls.body
           if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name in FIELD_ARITHMETIC]
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) \
                and call.func.attr in FIELD_ARITHMETIC:
            owner = call.func.value
            if getattr(owner, "id", None) in FIELD_NAMES or getattr(owner, "attr", None) == "field":
                out.append(f"line {call.lineno}: {ast.unparse(call.func)}")
    return sorted(out)


def test_the_kernel_has_one_arithmetic_path():
    """No kernel loop asks which field it runs over, and no code adds,
    subtracts, multiplies or negates through a ``Field`` method: entries are
    combined as plain ints and Fractions and brought back by ``norm``.  Nor
    does the isomorphism test: one pass over a hom basis decides over any
    field."""
    linalg, algebra, category = (ast.parse((SRC / name).read_text())
                                 for name in ("linalg.py", "algebra.py", "category.py"))
    assert field_branches(linalg, {"Matrix", "Subspace", "intertwiner_basis"}) == []
    assert field_branches(algebra, {"Algebra"}) == []
    assert field_branches(category, {"is_isomorphic"}) == []
    assert {str(p.relative_to(SRC)): per_entry_field_calls(ast.parse(p.read_text())) for p in MODULES} \
        == {str(p.relative_to(SRC)): [] for p in MODULES}


def test_arithmetic_path_checkers_flag_what_they_should():
    tree = ast.parse(
        "class Matrix:\n"
        "    def rank(self):\n"
        "        if self.field.kind == 'GF':\n"
        "            return self.field.p\n"
        "        return 0\n"
        "class Field:\n"
        "    def of(self, x):\n"
        "        return x % self.p\n"
        "    def mul(self, a, b):\n"
        "        return a * b\n"
        "class Algebra:\n"
        "    def mul_vec(self, x):\n"
        "        F = self.field\n"
        "        return [c for c in x if F.is_finite]\n"
        "def f(F, m, report, seen):\n"
        "    report.add(F.of(1))\n"
        "    seen.add(m)\n"
        "    x = F.add(1, 2)\n"
        "    return m.field.neg(x), QQ.sub(x, x), F.norm(x * x), F.kind\n"
    )
    assert field_branches(tree, {"Matrix", "Algebra"}) == [
        "Algebra, line 14: is_finite", "Matrix, line 3: kind", "Matrix, line 4: p"]
    assert per_entry_field_calls(tree) == [
        "line 18: F.add", "line 19: QQ.sub", "line 19: m.field.neg", "line 9: Field.mul"]


BROAD_EXCEPTIONS = {"Exception", "BaseException", "ValueError"}
# the one boundary the commands share, the seed's parse, and the parsing of raw JSON values
BROAD_HANDLERS_ALLOWED = {"cli.py: _guarded", "cli.py: _seed_default", "specfile.py"}


def broad_handlers(sources: dict[str, str], allowed: set[str]) -> list[str]:
    """``path: function, line n: handler`` for each bare ``except``, each
    handler of ``Exception``, ``BaseException`` or ``ValueError`` and each
    exception tuple in ``sources`` (path -> text), except in a path or a
    ``path: function`` (the innermost definition) named in ``allowed``."""
    out = []
    for path, text in sources.items():
        tree = ast.parse(text)
        owner = _owners(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            kind = node.type
            where = f"{path}: {owner.get(id(node), '<module>')}"
            if (kind is None or isinstance(kind, ast.Tuple)
                    or getattr(kind, "id", getattr(kind, "attr", None)) in BROAD_EXCEPTIONS) \
                    and path not in allowed and where not in allowed:
                out.append(f"{where}, line {node.lineno}: {'bare' if kind is None else ast.unparse(kind)}")
    return sorted(out)


def value_error_classes(sources: dict[str, str]) -> list[str]:
    """``path: name`` for each class in ``sources`` (path -> text) that has
    ``ValueError`` among its bases, directly or through classes of
    ``sources`` (bases matched by name)."""
    bases = {}
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = (path, [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases])

    def is_value_error(name: str) -> bool:
        return name == "ValueError" or (name in bases and any(map(is_value_error, bases[name][1])))

    return sorted(f"{path}: {name}" for name, (path, names) in bases.items() if any(map(is_value_error, names)))


def test_every_raise_is_a_verdict_or_a_fault_by_type():
    """A verdict on the input subclasses ``linalg.InputError``, which is no
    ``ValueError``, and the check that asks its question catches it by that
    class; any other exception reaches the one boundary the commands share
    (``cli._guarded``) and is an INTERNAL-ERROR there.  So no handler in
    ``src/`` catches by a class so broad that a program fault could read as
    a verdict, or by a tuple, outside that boundary, the parse of
    ``STRATAKIT_SEED`` and ``specfile``'s parsing of raw JSON values."""
    sources = {str(p.relative_to(SRC)): p.read_text() for p in MODULES}
    assert broad_handlers(sources, BROAD_HANDLERS_ALLOWED) == []
    assert value_error_classes(sources) == []
    from stratakit.linalg import InputError

    for mod in ("cli", "mv", "strat"):
        importlib.import_module(f"stratakit.{mod}")
    assert {c.__name__ for c in InputError.__subclasses__()} == {
        "SpecError", "AlgebraError", "NonAdmissibleError", "PossiblyInfiniteError", "BimoduleError",
        "MVDataError", "PosetError", "StratificationError"}


def test_raise_checkers_flag_what_they_should():
    cli = (
        "def _guarded(run):\n"
        "    try:\n"
        "        return run()\n"
        "    except Exception as e:\n"
        "        return e\n"
        "def battery(s):\n"
        "    try:\n"
        "        return s.check()\n"
        "    except (KeyError, StratificationError):\n"
        "        return None\n"
        "    except InputError:\n"
        "        return None\n"
        "    except:\n"
        "        raise\n"
    )
    strat = (
        "class Base(ValueError):\n"
        "    pass\n"
        "class StratificationError(Base):\n"
        "    pass\n"
        "class PosetError(InputError):\n"
        "    pass\n"
        "def record(check):\n"
        "    def inner():\n"
        "        try:\n"
        "            return check()\n"
        "        except builtins.BaseException:\n"
        "            return False\n"
        "    try:\n"
        "        return inner()\n"
        "    except ValueError:\n"
        "        return False\n"
    )
    specfile = "def _number(x):\n    try:\n        return int(x)\n    except (TypeError, ValueError):\n        raise\n"
    sources = {"cli.py": cli, "strat.py": strat, "specfile.py": specfile}
    assert broad_handlers(sources, BROAD_HANDLERS_ALLOWED) == [
        "cli.py: battery, line 13: bare",
        "cli.py: battery, line 9: (KeyError, StratificationError)",
        "strat.py: record, line 15: ValueError",
        "strat.py: record.inner, line 11: builtins.BaseException"]
    assert value_error_classes(sources) == ["strat.py: Base", "strat.py: StratificationError"]
