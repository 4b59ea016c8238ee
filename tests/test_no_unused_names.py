"""Every function, class and method of the package is used by the package."""

import ast
import pathlib

import effdom

SOURCES = sorted(pathlib.Path(effdom.__file__).parent.glob("*.py"))


def defined_names(tree):
    """Names of every function, class and method, nested ones included,
    that is not a dunder."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def referenced_names(tree):
    """Every name the source reads: as a name, as an attribute, or as a
    string, since ``getattr`` reaches ``to_json`` and ``sort_hint`` only
    by their names.  Imports do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_defined_name_is_used_or_exported():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    assert {"__init__.py", "lattice.py", "render.py"} <= {p.name for p in SOURCES}
    defined = set().union(*map(defined_names, trees))
    referenced = set().union(*map(referenced_names, trees))
    assert defined - referenced - set(effdom.__all__) == set()
