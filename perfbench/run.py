"""metric-forge benchmark: one workload, one seed, a closed loop with one client.

    python3 perfbench/run.py --workload approx-fine --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh child
process (child.py) that drives full CLI pipelines in-process through
``metric_forge.cli.main`` and checks every output exactly, outside the
timed interval.  Set-up is repeated in separate children and its median
reported.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a traced child (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import LAYERS, TRACED
from verify import COUNT_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("approx-fine", "approx-clustered", "inspect-wide", "funiv")
E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_REPS = 3
COLD_START_REPS = 5
RUN_TIMEOUT_S = 170
COLD_START_EXPECTED = (
    b'{\n  "dist": [\n    [\n      "0",\n      "1/2"\n    ],\n    [\n'
    b'      "1/2",\n      "0"\n    ]\n  ],\n  "points": [\n    "0",\n    "1"\n  ]\n}\n'
)


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    # fixed string hashing keeps set and dict layouts, and so timings, steady
    env["PYTHONHASHSEED"] = "0"
    # a fixed mmap threshold returns every large freed array to the system,
    # so peak RSS follows live memory instead of how glibc reused its heap
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def _readline(proc, sel, deadline: float, buf: bytearray) -> bytes:
    while b"\n" not in buf:
        left = deadline - perf_counter()
        if left <= 0 or not sel.select(timeout=left):
            raise BenchError("child timed out")
        chunk = os.read(proc.stdout.fileno(), 65536)
        if not chunk:
            raise BenchError(f"child exited early with code {proc.wait()}")
        buf.extend(chunk)
    line, _, rest = bytes(buf).partition(b"\n")
    buf[:] = rest
    return line


def run_child(args, mode: str, workdir: Path, spans_path: Path | None, deadline: float):
    """Start child.py; returns (set-up seconds, its final JSON line)."""
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--workdir", str(workdir),
    ]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=ROOT, env=_child_env()
    )
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            buf = bytearray()
            if _readline(proc, sel, deadline, buf) != b"READY":
                raise BenchError("child did not report READY")
            setup_s = perf_counter() - t0
            result = json.loads(_readline(proc, sel, deadline, buf))
        code = proc.wait(timeout=max(1.0, deadline - perf_counter()))
        if code != 0:
            raise BenchError(f"child exited with code {code}")
        return setup_s, result
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def cold_start_s(deadline: float) -> float:
    """Median fresh-process wall time of ``gen cantor --k 1``."""
    env = _child_env()
    env["PYTHONPATH"] = str(ROOT / "src")
    times = []
    for _ in range(COLD_START_REPS):
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "metric_forge.cli", "gen", "cantor", "--k", "1"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            timeout=max(1.0, deadline - perf_counter()),
            stdin=subprocess.DEVNULL,
        )
        times.append(perf_counter() - t0)
        if done.returncode != 0 or done.stdout != COLD_START_EXPECTED:
            raise BenchError("gen cantor --k 1 printed an unexpected result")
    return statistics.median(times)


def tail(walls) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond.

    With 10 samples or fewer no percentile qualifies; the maximum is
    reported with percentile 100.
    """
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    if not (ROOT / "src" / "metric_forge" / "cli.py").is_file():
        print(f"error: no metric_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + RUN_TIMEOUT_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
    try:
        setups, raw_setups = [], []
        for k in range(SETUP_REPS):
            mode = "setup" if k < SETUP_REPS - 1 else ("trace" if args.trace else "measure")
            setup_s, res = run_child(args, mode, workdir / f"c{k}", spans_path, deadline)
            raw_setups.append(setup_s)
            setups.append(setup_s * res["setup_scale"])
        cold = cold_start_s(deadline) if args.trace else None
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = res["scaled"]
    attempted = len(walls) + len(res.get("walls_traced", ()))
    failed = res["failed"] + res.get("failed_traced", 0)
    for p in res["problems"]:
        print(f"problem: {p}", file=sys.stderr)

    p50 = statistics.median(walls)
    tail_s, tail_pct = tail(walls)
    e2e = {
        "ops_per_s": (len(walls) - res["failed"]) / sum(walls),
        "op_p50_s": p50,
        "op_tail_s": tail_s,
        "peak_rss_mb": res["rss_kb"] / 1024,
        "setup_s": statistics.median(setups),
    }
    raw = {
        "ops_per_s": len(walls) / sum(res["walls"]),
        "op_p50_s": statistics.median(res["walls"]),
        "op_tail_s": tail(res["walls"])[0],
        "setup_s": statistics.median(raw_setups),
    }
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client")
    print("  times are seconds at reference host speed (README.md); raw wall in brackets")
    for name, value in e2e.items():
        unit = E2E_UNITS[name]
        note = f"  [{raw[name]:.6g}]" if name in raw else ""
        if name == "op_tail_s":
            note += f"  (p{tail_pct:.1f} of {len(walls)} samples)"
        elif name == "setup_s":
            note += f"  (median of {len(setups)})"
        print(f"  {name:<12} {value:12.6g} {unit}{note}")
    print(f"  {'fail_ratio':<12} {failed / attempted:12.6g} ratio  ({failed}/{attempted})")

    if args.trace:
        layer = dict(res["trace"])
        layer["cli.cold_start_s"] = cold
        for name, value in res["counts"].items():
            layer[f"count.{name}"] = value
        metrics = {k: {"value": layer[k], "unit": unit_of(k)} for k in per_layer_names()}
        attributed = sum(layer[f"{lay}.self_s"] for lay in LAYERS) + layer["bench.glue_s"]
        print(
            f"  traced op {layer['bench.traced_op_s']:.6g} s = layer self "
            f"+ glue {attributed:.6g} s; overhead x{layer['trace_overhead']:.4g}; "
            f"spans in {spans_path.relative_to(ROOT)}"
        )
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    print(
        json.dumps(
            {
                "correct": failed == 0 and not res["problems"],
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def per_layer_names() -> list[str]:
    """Every metric a traced run prints, in order (BENCHMARK.json's per_layer)."""
    names = [f"{fn}.{part}" for fn in TRACED for part in ("calls", "busy_s", "self_s")]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["bench.glue_s", "bench.traced_op_s", "trace_overhead", "bench.kernel_s"]
    names += ["cli.cold_start_s"] + [f"count.{c}" for c in COUNT_NAMES]
    return names


def unit_of(name: str) -> str:
    if name.startswith("count.") or name.endswith(".calls"):
        return "count"
    if name == "trace_overhead":
        return "ratio"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
