"""No dead names: everything the package defines is used somewhere."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _defined_names(source):
    """Names of every def, class and ``self.<attr> =`` target in ``source``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            names.add(node.attr)
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def test_every_defined_name_is_used():
    # a name that appears once as a word is only its own definition
    words = collections.Counter(
        w for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))
        for w in re.findall(r"\w+", p.read_text()))
    dead = sorted(f"{p.name}: {n}" for p in sorted((ROOT / "src" / "emtrace").glob("*.py"))
                  for n in _defined_names(p.read_text()) if words[n] < 2)
    assert dead == []

