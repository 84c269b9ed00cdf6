"""The benchmark's driver scripts (claimbench/child.py, gate.py, gen.py)
import sftkit names from outside the package. A rename or a moved name
inside sftkit would break every benchmark pass, so each name they import,
and each attribute they read off an sftkit module they import, must still
resolve here.

The scripts are read, never imported or changed: the names come from their
syntax trees.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

CLAIMBENCH = Path(__file__).resolve().parents[1] / "claimbench"
SCRIPTS = ("child.py", "gate.py", "gen.py")


def _resolves(path: str) -> bool:
    """The dotted path is a chain of attributes off a module, each one an
    attribute or a submodule of the one before."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def _names(script: str) -> list[str]:
    """The dotted path of each `from sftkit... import name` in the script,
    and of each `alias.attr` read off a name such an import (or `import
    sftkit`) binds, as in `budget.ENV_PROFILE`."""
    tree = ast.parse((CLAIMBENCH / script).read_text())
    out, bound = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sftkit":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                out.add(f"{node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "sftkit":
                    bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            out.add(f"{bound[node.value.id]}.{node.attr}")
    return sorted(out)


NAMES = [(script, path) for script in SCRIPTS for path in _names(script)]


def test_the_scripts_import_sftkit_names():
    # the parse finds what the scripts read, so the check below is not vacuous
    found = {path for _, path in NAMES}
    assert {"sftkit.budget.ENV_PROFILE", "sftkit.exponents.ENGINE_NAME",
            "sftkit.budget.Budgets", "sftkit.files.dumps_doc"} <= found


@pytest.mark.parametrize("script,path", NAMES, ids=[f"{s}:{p}" for s, p in NAMES])
def test_every_imported_name_resolves(script, path):
    assert _resolves(path), f"{script} reads {path}, which is gone"
