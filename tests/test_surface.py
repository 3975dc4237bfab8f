"""Every public name in ``qmf`` is reached from outside the unit tests.

A public module-level function, class or constant, or a public method,
must be named somewhere in ``src/``, ``perfbench/`` or the acceptance
suite other than in its own definition.  A name counts when code uses
it, when a string literal is exactly the name (as in
``perfbench/launcher.TRACED``), or when a docstring refers to it in
double backquotes.  Comments do not count.  Code that only unit tests
reach is deleted together with those tests.
"""

import ast
import re
from pathlib import Path

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
            for ref in re.findall(r"``([\w.]+)``", node.value):
                names.update(ref.split("."))
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

