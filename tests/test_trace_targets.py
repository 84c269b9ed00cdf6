"""The benchmark's tracer wraps sftkit functions by name from outside the
package (claimbench/spans.py). A rename inside sftkit would leave a span
that never fires, so every name it wraps must still resolve here.

The file is read, never imported or changed: its two name tables are plain
literals, taken from its syntax tree.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "claimbench" / "spans.py"


def _literal(name: str):
    for node in ast.parse(SPANS.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not a literal assignment in {SPANS}")


def _targets() -> dict:
    out = dict(_literal("TARGETS"))
    for entry in _literal("SFTCHECK_ENTRIES"):
        out[f"sftcheck.{entry}"] = ("sftkit.sftcheck", entry)
    return out


TARGETS = _targets()


@pytest.mark.parametrize("span", sorted(TARGETS))
def test_every_traced_name_resolves(span):
    modname, attr = TARGETS[span]
    owner = importlib.import_module(modname)
    if "." in attr:
        # the tracer patches the class attribute itself
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__.get(meth))
    else:
        assert callable(getattr(owner, attr, None))
