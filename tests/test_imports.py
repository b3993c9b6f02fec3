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
