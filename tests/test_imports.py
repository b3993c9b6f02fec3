"""Every name a library module imports is read in that module.

The check reads each module's syntax tree with ``ast`` alone: a name bound
by ``import`` or ``from ... import`` must appear as a loaded name somewhere
in the module.  ``__future__`` imports bind no name that code reads, and
the package's ``__init__`` imports only to re-export, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "metric_forge"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import gcd, lcm\n"
    source += "np.zeros(gcd(1, 2))\n"
    assert unused_imports(source) == ["os", "lcm"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> list[str]:
    """Private functions, classes and constants bound at a module's top level."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def names_read(source: str) -> set[str]:
    """Names a module loads, or reads as an attribute of another object."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_the_check_sees_an_unread_helper():
    source = "_CAP = 3\n_UNUSED: int = 4\ndef _helper():\n    return _CAP\n"
    source += "def _left():\n    pass\nclass _Base:\n    pass\nclass Kept(_Base):\n"
    source += "    def method(self):\n        return _helper()\n"
    assert private_definitions(source) == ["_CAP", "_UNUSED", "_helper", "_left", "_Base"]
    unread = set(private_definitions(source)) - names_read(source)
    assert unread == {"_UNUSED", "_left"}


def test_every_private_helper_is_read():
    # a module-level private name that no library module reads is a
    # helper left behind: dead code the tests alone keep alive
    sources = [path.read_text() for path in MODULES]
    read = set().union(*map(names_read, sources))
    defined = [name for source in sources for name in private_definitions(source)]
    assert len(defined) > 50
    assert sorted(set(defined) - read) == []
