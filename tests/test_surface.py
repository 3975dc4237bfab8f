"""Every public name in ``qmf`` is reached from outside the unit tests.

A public module-level function, class or constant, or a public method,
must be named somewhere in ``src/``, ``perfbench/`` or the acceptance
suite other than in its own definition.  A name counts when code uses
it, or when a string literal is exactly the name (as in
``perfbench/launcher.TRACED``).  Comments and docstrings do not count,
so no code survives on a mention alone.  Code that only unit tests
reach is deleted together with those tests.

Every module of ``qmf`` also imports a lazy layer by one rule, checked
on its syntax tree: as a module, at the top.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
REFERRERS = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py")),
             ROOT / "tests" / "test_acceptance.py"]


def public_definitions(tree: ast.Module):
    """(name, node) of each public function, class, constant and method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, ast.Assign):
            found += [(t.id, node) for t in node.targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                      if isinstance(sub, ast.FunctionDef)]
    return [(name, node) for name, node in found
            if not name.rpartition(".")[2].startswith("_")]


def names_in(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names that the code under ``tree``, leaving out ``skip``, refers to."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_public_name_is_reached():
    trees = {path: ast.parse(path.read_text()) for path in REFERRERS}
    named = {path: names_in(tree) for path, tree in trees.items()}
    unreached = []
    for path in sorted((ROOT / "src" / "qmf").glob("*.py")):
        for name, node in public_definitions(trees[path]):
            short = name.rpartition(".")[2]
            if short in names_in(trees[path], skip=node):
                continue
            if not any(short in names for p, names in named.items() if p != path):
                unreached.append(f"{path.stem}.{name}")
    assert not unreached, f"reached only by unit tests: {', '.join(unreached)}"



# The layers that ``qmf/__init__.py`` registers as lazy modules.
LAZY_LAYERS = {"amplify", "bank", "cw", "dsp", "pipeline", "qsim"}


def loading_faults(tree: ast.Module) -> list[str]:
    """Each import that bypasses the one loading rule, as ``line: what``.

    A layer is imported as a module at the top of a module (``from . import
    bank``): never inside a function, never under ``TYPE_CHECKING``, and
    never by member (``from .bank import BankSpec``), which would run the
    layer's body as soon as the importer loads.
    """
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            faults += [f"{sub.lineno}: import inside {getattr(node, 'name', 'a lambda')}"
                       for sub in ast.walk(node) if isinstance(sub, (ast.Import, ast.ImportFrom))]
        elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            faults.append(f"{node.lineno}: TYPE_CHECKING block")
        elif isinstance(node, ast.ImportFrom):
            module = f"{'.' * node.level}{node.module or ''}"
            if module.rpartition(".")[2] in LAZY_LAYERS:
                faults.append(f"{node.lineno}: from {module} import by member")
        elif isinstance(node, ast.Import):
            faults += [f"{node.lineno}: import {alias.name}" for alias in node.names
                       if alias.name.partition(".")[2] in LAZY_LAYERS]
    return faults


def test_every_layer_is_imported_as_a_module_at_the_top():
    faults = [f"{path.name}:{fault}" for path in sorted((ROOT / "src" / "qmf").glob("*.py"))
              for fault in loading_faults(ast.parse(path.read_text()))]
    assert not faults, "; ".join(faults)


@pytest.mark.parametrize("source", [
    "def f():\n    import json\n",
    "def f():\n    from . import bank\n",
    "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    pass\n",
    "from .bank import BankSpec\n",
    "from qmf.dsp import TimeSeries\n",
    "import qmf.pipeline\n",
])
def test_a_fault_of_the_loading_rule_is_found(source):
    assert len(loading_faults(ast.parse(source))) == 1
