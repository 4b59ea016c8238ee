"""The package imports nothing outside the Python standard library."""

import ast
import pathlib
import sys

import effdom

SOURCES = sorted(pathlib.Path(effdom.__file__).parent.glob("*.py"))


def absolute_imports(path):
    """Top-level module names of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    assert {"__init__.py", "cli.py", "constructions.py", "solver.py"} <= {p.name for p in SOURCES}
    foreign = {
        (path.name, name)
        for path in SOURCES
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert foreign == set()
