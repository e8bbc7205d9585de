"""The library surface carries no public function, class or module-level
constant that only tests use: each one must be named by the package's own
code or by the benchmark in perfbench/, or stand on KEPT with its reason."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aptsim"

# public names that no module calls, each kept for a reason
KEPT = {
    "concurrence": "the acceptance tests' reference for one state",
    "analytic_concurrence_identical": "closed form the acceptance tests check against",
    "concurrence_minimum_identical": "closed form the acceptance tests check against",
    "concurrence_period": "closed form the acceptance tests check against",
    "ep_concurrence": "closed form the acceptance tests check against",
    "classify": "the regime of each qubit, for a run manifest",
    "Regime": "the regime of each qubit, for a run manifest",
    "reconstruct": "the paper's plate string, which the decomposition realizes",
    "bd_circuit": "the paper's beam-displacer loss element",
    "BeamPaths": "the paper's beam-displacer loss element",
    "basis_set": "the wave-plate settings of the 16 projections",
    "ProjectionBasis": "the wave-plate settings of the 16 projections",
    "maximally_mixed": "the I/4 state, the other end of the Werner family",
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
    """Every identifier a file uses: loaded names, attributes and imports. A
    definition's own name, or an assignment to a name, is not a use of it,
    and docstrings are not read."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def _unused(public):
    """The `public(path)` names of the package's modules that neither the
    package nor perfbench/ uses and KEPT does not hold."""
    # __init__.py only re-exports, so it names every public name and is left out
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    users = modules + sorted((ROOT / "perfbench").glob("*.py"))
    named = set().union(*(_named(path) for path in users))
    return [f"{path.name}: {name}" for path in modules
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
