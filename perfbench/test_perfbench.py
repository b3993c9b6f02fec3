"""Self-tests of the benchmark: seeded inputs and the exact output checks.

    python -m pytest perfbench

Each check is run on a real op's output and on copies with one certificate,
one D entry or one nebula interval corrupted; every corruption must be
rejected.
"""

from __future__ import annotations

import json
import sys

import pytest

import gen
import pipelines
import run
import verify

sys.path.insert(0, str(pipelines.SRC))


def _run_once(workload, cases, tmp_path, k=0):
    from metric_forge import cli

    w = pipelines.WORKLOADS[workload]
    dirs = pipelines.prepare(tmp_path, cases)
    return pipelines.run_op(w, cli, dirs[k], cases[k]), w


def _rejected(w, res, case, name, edit) -> bool:
    obj = json.loads(res.outputs[name])
    edit(obj)
    outputs = dict(res.outputs)
    outputs[name] = json.dumps(obj).encode()
    bad, _ = w.check(outputs, res.codes, case)
    return bool(bad)


@pytest.fixture(scope="module")
def fine(tmp_path_factory):
    cases = gen.generate("approx-fine", 3)[:1]
    res, w = _run_once("approx-fine", cases, tmp_path_factory.mktemp("fine"))
    return res, w, cases[0]


def test_reference_op_passes(fine):
    res, w, case = fine
    bad, counts = pipelines.check_op(w, res, case)
    assert bad == []
    assert counts["pairs"] == counts["clusters"] * (counts["clusters"] - 1) // 2


def test_corrupt_certificate_rejected(fine):
    res, w, case = fine

    def bump(obj):
        obj["certificates"][17]["l"] += 1

    def drop(obj):
        del obj["certificates"][5]

    assert _rejected(w, res, case, "result.json", bump)
    assert _rejected(w, res, case, "result.json", drop)


def test_corrupt_d_entry_rejected(fine):
    res, w, case = fine

    def edit(obj):
        row = obj["D"]["dist"]
        row[3][9] = row[9][3] = "21/2"

    assert _rejected(w, res, case, "result.json", edit)


def test_corrupt_nebula_interval_rejected(fine):
    res, w, case = fine

    def widen(obj):
        obj["bounded"][0][1] = "1"

    def shift(obj):
        obj["fattened"]["bounded"][0][0] = "1/1024"

    assert _rejected(w, res, case, "cover.json", widen)
    assert _rejected(w, res, case, "margin.json", shift)


def test_clustered_certificates_checked(tmp_path):
    cases = gen.generate("approx-clustered", 4)[:1]
    res, w = _run_once("approx-clustered", cases, tmp_path)
    bad, counts = pipelines.check_op(w, res, cases[0])
    assert bad == [] and counts["clusters"] == gen.CLUSTER_K
    assert counts["max_cert_exponent"] > 0

    def deepen(obj):
        cert = next(c for c in obj["certificates"] if c["n"] is not None)
        cert["n"] += 1

    assert _rejected(w, res, cases[0], "result.json", deepen)


def test_validate_report_checked(tmp_path):
    cases = gen.generate("inspect-wide", 5)
    res, w = _run_once("inspect-wide", cases, tmp_path, k=3)
    bad, counts = pipelines.check_op(w, res, cases[3])
    assert bad == [] and counts["violations"] > 60_000
    report = json.loads(res.outputs["stdout"])
    del report["violations"][1000]
    outputs = dict(res.outputs, stdout=json.dumps(report).encode())
    assert w.check(outputs, res.codes, cases[3])[0]
    assert w.check(res.outputs, [0], cases[3])[0]


def test_same_seed_same_bytes_other_seed_other_bytes():
    for workload in gen.GENERATORS:
        a = [c.files for c in gen.generate(workload, 11)]
        b = [c.files for c in gen.generate(workload, 11)]
        c = [c.files for c in gen.generate(workload, 12)]
        assert a == b, workload
        assert a != c, workload


def test_generator_properties_hold():
    fine = gen.generate("approx-fine", 1)[0].meta["space"][1]
    _, r = verify.approx_params(gen.FINE_EPS)
    assert len(verify.greedy_clusters(fine, r)) == gen.FINE_N
    wide = gen.generate("inspect-wide", 1)
    assert [c.meta["is_metric"] for c in wide] == [True, True, True, False]
    assert all(verify.takes_object_path(c.meta["space"][1]) for c in wide[:3])


def test_benchmark_json_lists_what_runs_print():
    doc = json.loads((pipelines.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert sorted(run.WORKLOADS) == sorted(pipelines.WORKLOADS) == sorted(gen.GENERATORS)
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert e2e == run.E2E_UNITS
    assert [m["name"] for m in doc["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in doc["per_layer"])


def test_tail_has_ten_samples_beyond():
    walls = [float(v) for v in range(40)]
    value, pct = run.tail(walls)
    assert value == 29.0 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
