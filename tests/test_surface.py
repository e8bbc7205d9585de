"""The library surface carries no public function, class or module-level
constant that only tests use: each one must be named by the package's own
code or by the benchmark in perfbench/, or stand on KEPT with its reason.
Every module-level array is read-only."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import aptsim
from aptsim.propagator import AptParams, hamiltonian

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aptsim"
# __init__.py only re-exports, so it names every public name and is left out
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# public names that no module calls, each kept for a reason
KEPT = {
    "analytic_concurrence_identical": "closed form the acceptance tests check against",
    "concurrence_minimum_identical": "closed form the acceptance tests check against",
    "concurrence_period": "closed form the acceptance tests check against",
    "ep_concurrence": "closed form the acceptance tests check against",
    "classify": "the regime of each qubit, for a run manifest",
}


def _public_definitions(path):
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_constants(path):
    """The public names a module assigns at its top level."""
    targets = [target for node in ast.parse(path.read_text()).body
               for target in (node.targets if isinstance(node, ast.Assign) else
                              [node.target] if isinstance(node, ast.AnnAssign) else [])]
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and not node.id.startswith("_")]


def _named(path):
    """Every identifier a file uses: loaded names, imports, and the attributes
    of aptsim modules (`aptsim.cli.main`, or `propagator.propagators` after
    `from . import propagator`). An attribute of any other object is not a
    use: `np.linalg.eigh` names no aptsim function, whatever its name.
    A definition's own name, or an assignment to a name, is not a use of it,
    and docstrings are not read."""
    tree = ast.parse(path.read_text())
    stems = {p.stem for p in MODULES}
    # names that an import binds to an aptsim module, in any scope
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.split(".")[0] == "aptsim"}
    modules |= {alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.level or node.module.split(".")[0] == "aptsim")
                for alias in node.names if alias.name in stems}

    def is_module(node):
        if isinstance(node, ast.Attribute):
            return node.attr in stems and is_module(node.value)
        return isinstance(node, ast.Name) and node.id in modules

    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and is_module(node.value):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def _unused(public):
    """The `public(path)` names of the package's modules that neither the
    package nor perfbench/ uses and KEPT does not hold."""
    users = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
    named = set().union(*(_named(path) for path in users))
    return [f"{path.name}: {name}" for path in MODULES
            for name in public(path) if name not in named and name not in KEPT]


def test_every_public_name_has_a_caller():
    unused = _unused(_public_definitions)
    assert not unused, f"public names that only tests use: {unused}"


def test_every_public_constant_has_a_reader():
    unused = _unused(_public_constants)
    assert not unused, f"public constants that only tests read: {unused}"


def test_kept_names_exist():
    defined = {name for path in PACKAGE.glob("*.py") for name in _public_definitions(path)}
    assert not set(KEPT) - defined


def test_kept_names_have_no_caller_in_the_package():
    # a name the package's own code uses needs no reason to stay
    named = set().union(*(_named(path) for path in MODULES)) & set(KEPT)
    assert not named, f"KEPT names the package itself uses: {sorted(named)}"


def test_module_arrays_are_read_only():
    # the kernels read these tables at call time, so an in-place write by a
    # caller would silently change every later result
    arrays = {f"{path.stem}.{name}": value for path in MODULES if path.stem != "__main__"
              for name, value in vars(importlib.import_module(f"aptsim.{path.stem}")).items()
              if isinstance(value, np.ndarray)}
    assert {"linalg.SIGMA_Z", "tomography._KETS", "cli._POW10", "optics._QWP45"} <= set(arrays)
    assert [name for name, value in arrays.items() if value.flags.writeable] == []
    h = hamiltonian(AptParams(a=1.2))
    with pytest.raises(ValueError, match="read-only"):
        aptsim.SIGMA_Z *= -1
    assert np.array_equal(hamiltonian(AptParams(a=1.2)), h)
