"""The traced benchmark run (perfbench/spans.py) binds library names by path.

Every dotted name in ``TRACED`` must stay resolvable, or ``--trace 1``
breaks the moment a function is renamed or deleted.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = load_traced()
    assert traced
    for dotted in traced:
        layer, *path = dotted.split(".")
        owner = importlib.import_module(f"metric_forge.{layer}")
        if len(path) == 2:
            cls = getattr(owner, path[0])
            assert path[1] in cls.__dict__, dotted
            target = cls.__dict__[path[1]]
            target = getattr(target, "__func__", target)
        else:
            assert len(path) == 1, dotted
            target = getattr(owner, path[0], None)
        assert callable(target), dotted
