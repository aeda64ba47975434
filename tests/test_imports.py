"""Every name a `socalm` module imports is used by that module's own code,
so no import is kept only for a test or another module to import from
there; and the critical-cone case split is read in `variational` alone."""

import ast
import pathlib

import pytest

import socalm

MODULES = sorted(path for path in pathlib.Path(socalm.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")
# perfbench/tracer.py wraps these two names in diagnostics' namespace
KEPT = {"diagnostics": {"inner_solve", "check_sosc"}}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == KEPT.get(path.stem, set())


# the case split and the pair-level forms built on it; `__init__` re-exports the enum
CASE_SPLIT = {"CriticalConeCase", "_growth_pair", "_kkt_data"}


@pytest.mark.parametrize("path", [path for path in MODULES if path.stem != "variational"],
                         ids=lambda path: path.stem)
def test_only_variational_names_the_case_split(path):
    """Every second-order modulus at a pair is decided in `variational`:
    no other module branches on the critical-cone case or builds a pair's
    Hessian and cone itself."""
    named = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            named.update(alias.name for alias in node.names)
    assert named & CASE_SPLIT == set()
