"""Every public name in ``qmf`` is reached from outside the unit tests.

A public module-level function, class or constant, or a public method,
must be named somewhere in ``src/``, ``perfbench/`` or the acceptance
suite other than in its own definition.  A name counts when code uses
it, or when a string literal is exactly the name (as in
``perfbench/launcher.TRACED``).  Comments and docstrings do not count,
so no code survives on a mention alone.  Code that only unit tests
reach is deleted together with those tests.

Every module of ``qmf`` also imports a lazy layer by one rule, checked
on its syntax tree: as a module, at the top; and the modules import
each other without a cycle.  And no module calls BLAS,
whose sums change their last bits with OpenBLAS's thread count.  A
resource cap is refused in one of three places: ``errors.check_bytes``
for every memory cap, and the two work caps.

Every name that the benchmark harness reads from a layer resolves there,
checked on the harness's syntax tree, so that a rename fails here.
"""

import ast
import importlib
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


def traced_names(tree: ast.Module) -> list[tuple[str, str]]:
    """(layer, name) of each function in the module's ``TRACED`` table."""
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets))
    return [(layer, name) for layer, names in ast.literal_eval(table).items() for name in names]


def layer_attributes(tree: ast.Module) -> list[tuple[str, str]]:
    """(layer, attribute) of each ``layer.attribute`` read, for layers ``from qmf import``-ed."""
    layers = {alias.asname or alias.name: alias.name for node in tree.body
              if isinstance(node, ast.ImportFrom) and node.module == "qmf" for alias in node.names}
    return sorted({(layers[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in layers})


def unresolved(names: list[tuple[str, str]]) -> list[str]:
    """``layer.name`` of each pair whose layer has no such attribute."""
    return [f"{layer}.{name}" for layer, name in names
            if not hasattr(importlib.import_module(f"qmf.{layer}"), name)]


def test_every_name_the_benchmark_reads_resolves_in_its_layer():
    perfbench = ROOT / "perfbench"
    traced = traced_names(ast.parse((perfbench / "launcher.py").read_text()))
    read = layer_attributes(ast.parse((perfbench / "workloads.py").read_text()))
    assert ("pipeline", "classical_search") in traced and ("pipeline", "oracle_eval") in read
    missing = unresolved(traced + read)
    assert not missing, f"read by perfbench but not in qmf: {', '.join(missing)}"


def test_a_name_missing_from_its_layer_is_found():
    traced = traced_names(ast.parse('TRACED = {"dsp": ("band", "no_such_kernel")}'))
    read = layer_attributes(ast.parse("from qmf import pipeline as pl\npl.gone(pl.oracle_eval)"))
    assert unresolved(traced + read) == ["dsp.no_such_kernel", "pipeline.gone"]


# The layers that ``qmf/__init__.py`` registers as lazy modules.
LAZY_LAYERS = {"amplify", "bank", "cw", "dsp", "pipeline", "qsim", "seeding"}


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


def import_cycles(sources: dict[str, str]) -> list[str]:
    """Each cycle among the modules of one package, as ``a -> b -> a``, given their sources.

    A module imports another by ``from . import b`` or ``from .b import
    name``; a cycle is reported once, from its least module.
    """
    edges = {}
    for name, source in sources.items():
        edges[name] = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                targets = [node.module] if node.module else [a.name for a in node.names]
                edges[name].update(t for t in targets if t in sources)
    cycles = []

    def walk(path: list[str]) -> None:
        for nxt in sorted(edges[path[-1]]):
            if nxt == path[0]:
                cycles.append(" -> ".join([*path, nxt]))
            elif nxt > path[0] and nxt not in path:
                walk([*path, nxt])

    for name in sorted(sources):
        walk([name])
    return cycles


def test_the_modules_import_each_other_without_a_cycle():
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "qmf").glob("*.py")}
    cycles = import_cycles(sources)
    assert not cycles, "; ".join(cycles)


@pytest.mark.parametrize("sources,cycle", [
    ({"bank": "from . import dsp\n", "dsp": "from . import bank\n"}, "bank -> dsp -> bank"),
    ({"bank": "from .dsp import band\n", "dsp": "from .bank import chirps\n"},
     "bank -> dsp -> bank"),
    ({"bank": "from .io import read_config\n", "dsp": "from . import bank\n",
      "io": "from . import __version__, dsp\n"}, "bank -> io -> dsp -> bank"),
    ({"a": "from . import a\n"}, "a -> a"),
    ({"a": "from . import b\n", "b": "from .errors import E\nfrom . import a\n",
      "errors": ""}, "a -> b -> a"),
], ids=["by-module", "by-member", "three-modules", "itself", "beside-an-edge"])
def test_an_import_cycle_is_found(sources, cycle):
    assert import_cycles(sources) == [cycle]


# numpy's ways into BLAS (``@`` is checked as an operator).
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "einsum", "tensordot", "linalg"}


def blas_calls(tree: ast.Module) -> list[str]:
    """Each use of a BLAS routine in ``tree``, as ``line: what``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{node.lineno}: @")
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append(f"{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append(f"{node.lineno}: {node.id}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            names = {part for name in [*modules, *(a.name for a in node.names)]
                     for part in name.split(".")}
            found += [f"{node.lineno}: import {name}" for name in sorted(names & BLAS_NAMES)]
    return found


def test_no_module_calls_blas():
    calls = [f"{path.name}:{call}" for path in sorted((ROOT / "src" / "qmf").glob("*.py"))
             for call in blas_calls(ast.parse(path.read_text()))]
    assert not calls, "; ".join(calls)


@pytest.mark.parametrize("source", [
    "np.dot(a, b)",
    "a.dot(b)",
    "a @ b",
    "a @= b",
    "np.matmul(a, b)",
    "np.inner(a, b)",
    "np.vdot(a, b)",
    "np.einsum('i,i', a, b)",
    "np.tensordot(a, b, 1)",
    "np.linalg.norm(a)",
    "from numpy import dot",
    "from numpy.linalg import norm",
])
def test_a_blas_call_is_found(source):
    assert len(blas_calls(ast.parse(source))) == 1


# The functions that construct CapExceededError: the byte budget, then the
# outcomes that a draw scans and fail-bound's --r-max, which bound time.
CAP_RAISERS = {"errors.check_bytes", "amplify.check_register", "cli.cmd_fail_bound"}


def cap_raisers(tree: ast.AST, where: str) -> list[str]:
    """The scope of each ``CapExceededError(...)``: ``where``, then its functions and classes."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "CapExceededError":
                found.append(where)
        scope = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        found += cap_raisers(node, f"{where}.{node.name}" if scope else where)
    return found


def test_every_cap_raises_in_its_one_place():
    found = {raiser for path in sorted((ROOT / "src" / "qmf").glob("*.py"))
             for raiser in cap_raisers(ast.parse(path.read_text()), path.stem)}
    assert found == CAP_RAISERS


@pytest.mark.parametrize("source", [
    "def f():\n    raise CapExceededError('x')\n",
    "raise errors.CapExceededError('x')\n",
    "class A:\n    def f(self):\n        error = CapExceededError('x')\n",
    "def check_bytes():\n    def inner():\n        raise CapExceededError('x')\n",
])
def test_a_stray_cap_error_is_found(source):
    found = cap_raisers(ast.parse(source), "errors")
    assert len(found) == 1 and found[0] not in CAP_RAISERS
