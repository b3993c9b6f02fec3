"""The four workloads: each op is a user pipeline driven through cli.main.

An op runs its CLI steps in-process, in a directory holding one input's
files.  Between two steps the benchmark may do its own "glue" work, such
as pulling D out of a result file into a space file for the next step.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import gen
import verify

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Runner:
    """Runs CLI steps for one op and keeps their exit codes and stdout."""

    def __init__(self, cli):
        self.cli_module = cli
        self.codes: list[int] = []
        self.stdout: list[str] = []
        self.stderr: list[str] = []

    def cli(self, *argv) -> int:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            # looked up per call, so the traced run sees the wrapped main
            code = self.cli_module.main([str(a) for a in argv])
        self.codes.append(code)
        self.stdout.append(out.getvalue())
        self.stderr.append(err.getvalue())
        return code


# --- glue -------------------------------------------------------------------


def split_result(d: Path) -> None:
    """result.json -> D.json (a space file) and values.json (D's values)."""
    res = json.loads((d / "result.json").read_bytes())
    space = res["D"]
    (d / "D.json").write_bytes(gen.dumps(space))
    values = sorted({v for row in space["dist"] for v in row})
    (d / "values.json").write_bytes(gen.dumps(values))


def extract_host(d: Path) -> None:
    """funiv.json -> host.json, the glued space the searches run against."""
    res = json.loads((d / "funiv.json").read_bytes())
    (d / "host.json").write_bytes(gen.dumps(res["space"]))


# --- ops ----------------------------------------------------------------------


def _cover_margin_plot(run: Runner, f, space: str, q) -> None:
    """nebula cover on values.json, its margin over ``space``, then the plot."""
    if run.cli("nebula", "cover", f("values.json"), "--q", q, "-o", f("cover.json")):
        return
    if run.cli("nebula", "margin", f(space), f("cover.json"), "-o", f("margin.json")):
        return
    run.cli("plot", "range", f(space), "--nebula", f("cover.json"), "-o", f("plot.svg"))


def _approx_op(eps, q):
    def op(run: Runner, d: Path, case: gen.Case) -> None:
        f = d.joinpath
        if run.cli("approximate", f("space.json"), "--epsilon", eps, "-o", f("result.json")):
            return
        split_result(d)
        _cover_margin_plot(run, f, "D.json", q)

    return op


def _inspect_op(run: Runner, d: Path, case: gen.Case) -> None:
    f = d.joinpath
    # exit 1 is the expected verdict for the raw weight matrix
    if run.cli("validate", f("space.json")) == 0:
        _cover_margin_plot(run, f, "space.json", gen.INSPECT_Q)


def _funiv_op(run: Runner, d: Path, case: gen.Case) -> None:
    f = d.joinpath
    dim, delta = gen.FUNIV_DIM, gen.FUNIV_DELTA
    if run.cli("universal", "funiv", "--n", dim, "--delta", delta, "-o", f("funiv.json")):
        return
    extract_host(d)
    for k, (_, _, distortion, _) in enumerate(case.meta["patterns"]):
        extra = ("--distortion", distortion) if distortion else ()
        pattern, found = f(f"pattern{k}.json"), f(f"found{k}.json")
        if run.cli("embed", "search", pattern, f("host.json"), *extra, "-o", found):
            return
    values = ",".join(str(v) for v in case.meta["fragility_values"])
    eps = gen.FUNIV_EPS
    run.cli("fragility", "--values", values, "--epsilon", eps, "-o", f("fragility.json"))


# --- expectations and checks --------------------------------------------------


def _approx_check(eps, q):
    def check(out, codes, case):
        if codes != [0, 0, 0, 0]:
            return [f"exit codes {codes}"], None
        return verify.approx_problems(out, case.meta["space"], eps, q)

    return check


def _inspect_check(out, codes, case):
    want = [0, 0, 0, 0] if case.meta["is_metric"] else [1]
    if codes != want:
        return [f"exit codes {codes}, expected {want}"], None
    return verify.inspect_problems(out, codes, case.meta["space"], gen.INSPECT_Q)


def _funiv_check(out, codes, case):
    want = [0] * (2 + len(case.meta["patterns"]))
    if codes != want:
        return [f"exit codes {codes}, expected {want}"], None
    return verify.funiv_problems(out, case.meta)


@dataclass(frozen=True)
class Workload:
    op: Callable
    check: Callable
    outputs: tuple[str, ...]


_PIPELINE_OUT = ("cover.json", "margin.json", "plot.svg")
WORKLOADS = {
    "approx-fine": Workload(
        _approx_op(gen.FINE_EPS, gen.APPROX_Q),
        _approx_check(gen.FINE_EPS, gen.APPROX_Q),
        ("result.json", "D.json", "values.json", *_PIPELINE_OUT),
    ),
    "approx-clustered": Workload(
        _approx_op(gen.CLUSTER_EPS, gen.APPROX_Q),
        _approx_check(gen.CLUSTER_EPS, gen.APPROX_Q),
        ("result.json", "D.json", "values.json", *_PIPELINE_OUT),
    ),
    "inspect-wide": Workload(_inspect_op, _inspect_check, _PIPELINE_OUT),
    "funiv": Workload(
        _funiv_op,
        _funiv_check,
        (
            "funiv.json",
            "host.json",
            "fragility.json",
            *(f"found{k}.json" for k in range(gen.FUNIV_SEARCHES)),
        ),
    ),
}


# --- running one op -----------------------------------------------------------


@dataclass
class OpResult:
    wall_s: float
    codes: list[int]
    outputs: dict  # name -> bytes, "stdout" included
    digest: str
    error: str | None


def prepare(workdir: Path, cases) -> list[Path]:
    dirs = []
    for case in cases:
        d = workdir / case.name
        d.mkdir(parents=True, exist_ok=True)
        for name, data in case.files.items():
            (d / name).write_bytes(data)
        dirs.append(d)
    return dirs


def run_op(workload: Workload, cli, d: Path, case) -> OpResult:
    """One timed op; output files are cleared first and read back after."""
    for name in workload.outputs:
        (d / name).unlink(missing_ok=True)
    run = Runner(cli)
    error = None
    t0 = perf_counter()
    try:
        workload.op(run, d, case)
    except Exception as exc:  # an op that raises counts as failed
        error = f"{type(exc).__name__}: {exc}"
    wall = perf_counter() - t0
    outputs = {"stdout": "".join(run.stdout).encode("utf-8")}
    for name in workload.outputs:
        p = d / name
        if p.exists():
            outputs[name] = p.read_bytes()
    h = hashlib.sha256(repr(run.codes).encode())
    for name in sorted(outputs):
        h.update(name.encode() + b"\0" + outputs[name] + b"\0")
    if error is None and any(run.stderr):
        error = "".join(run.stderr).strip()[:500]
    return OpResult(wall, run.codes, outputs, h.hexdigest(), error)


def check_op(workload: Workload, result: OpResult, case) -> tuple[list[str], dict | None]:
    """Exact verification of one op's outputs; never timed."""
    if result.error:
        return [result.error], None
    try:
        return workload.check(result.outputs, result.codes, case)
    except (KeyError, ValueError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"], None
