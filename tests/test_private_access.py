"""No module of the package reaches into another object's private names."""

import ast
import pathlib

import effdom

SOURCES = sorted(pathlib.Path(effdom.__file__).parent.glob("*.py"))


def private_accesses(tree):
    """Line and source of every ``owner._name`` whose owner is not the
    name ``self`` or ``cls``.  Dunders such as ``__name__`` or
    ``__getitem__`` are public protocol and do not count."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr.startswith("_")
            and not (node.attr.startswith("__") and node.attr.endswith("__"))
            and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
        ):
            yield node.lineno, ast.unparse(node)


def test_private_names_are_read_only_through_self_or_cls():
    assert {"__init__.py", "cli.py", "lattice.py", "render.py", "periodic.py"} <= {p.name for p in SOURCES}
    found = {
        (path.name, line, text)
        for path in SOURCES
        for line, text in private_accesses(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == set()


def test_private_access_check_sees_other_owners():
    tree = ast.parse("lattice._row_width(1)\nself._sides(row)\ncls._x\nf()._y\nval.__getitem__\n")
    assert sorted(private_accesses(tree)) == [(1, "lattice._row_width"), (4, "f()._y")]
