"""The traced benchmark run (perfbench/spans.py) binds library names by path.

Every dotted name in ``TRACED`` must stay resolvable, or ``--trace 1``
breaks the moment a function is renamed or deleted.  Every traced ``jsonio``
builder must be one that the CLI calls, or its span reads 0 calls.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from metric_forge import cli, jsonio

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



EQUILATERAL = {
    "points": ["a", "b", "c"],
    "dist": [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
}

# a command, SPACE and VALUES standing for its input files, and the traced
# builders one cli.main run of it calls
REACHED = [
    (["validate", "SPACE"], {"validation_to_obj"}),
    (["approximate", "SPACE", "--epsilon", "1/2"], {"approximation_to_obj", "space_to_obj"}),
    (["universal", "funiv", "--n", "1", "--delta", "1/2"], {"space_to_obj"}),
    (["fragility", "--values", "1/8,1/4", "--epsilon", "1/2"],
     {"fragility_to_obj", "space_to_obj"}),
    (["nebula", "cover", "VALUES", "--q", "1"], {"nebula_to_obj"}),
]


def traced_builders() -> list[str]:
    return [
        dotted.split(".")[1]
        for dotted in load_traced()
        if dotted.startswith("jsonio.") and dotted.endswith("_to_obj")
    ]


def test_every_traced_builder_is_reached():
    assert set().union(*(names for _, names in REACHED)) == set(traced_builders())


@pytest.mark.parametrize(
    "argv, names", REACHED, ids=["validate", "approximate", "funiv", "fragility", "cover"]
)
def test_the_cli_calls_the_traced_builders(tmp_path, capsys, monkeypatch, argv, names):
    # the traced run wraps these names; a command that wrote through a twin
    # of its builder would leave the builder's span at 0 calls
    files = {"SPACE": tmp_path / "space.json", "VALUES": tmp_path / "values.json"}
    files["SPACE"].write_text(json.dumps(EQUILATERAL), encoding="utf-8")
    files["VALUES"].write_text(json.dumps(["0", "1/2", "3"]), encoding="utf-8")
    called = set()
    for name in traced_builders():
        builder = getattr(jsonio, name)

        def spy(*args, name=name, builder=builder):
            called.add(name)
            return builder(*args)

        monkeypatch.setattr(jsonio, name, spy)
    assert cli.main([str(files.get(a, a)) for a in argv]) == 0
    assert capsys.readouterr().err == ""
    assert called == names
