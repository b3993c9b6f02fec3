"""One workload in a fresh process: set up, verify, then a closed timed loop.

The parent (run.py) starts this script and reads two lines from its
stdout: ``READY`` once set-up (import, input generation, one warm-up op)
is done, then one JSON object with the measurements.  Everything the CLI
prints is captured in-process, so stdout carries only those two lines.

Modes: ``setup`` stops after READY and the set-up speed line; ``measure`` runs the
timed loop for the given seconds; ``trace`` runs half of them untraced and
half with spans installed.

Host speed: the host this runs on changes speed by up to 2x within
seconds (other tenants), which moves every wall time with it.  A timer
signal runs a tiny fixed integer kernel every 10 ms and records how long
it took.  If the host runs at 1/s(t) of reference speed, the kernel takes
KERNEL_REF_S * s(t), and an op's work in reference seconds is the
integral of dt / s(t): its wall time times KERNEL_REF_S times the mean of
1 / (kernel time) over the ticks during the op.  Each op's wall time is
also reported rescaled that way.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import gen
import pipelines
import spans
import verify


# about the kernel's time on the 2-CPU host the benchmark was tuned on
KERNEL_REF_S = 25e-6
TICK_S = 0.01


class HostSpeed:
    """Times a fixed integer kernel on every SIGALRM tick, in the main thread.

    The kernel shares no code with metric_forge and allocates almost
    nothing, so it measures the host's current speed, not the library's.
    """

    def __init__(self):
        self.kernel_s: list[float] = []

    def _tick(self, signum, frame):
        t0 = perf_counter()
        x = 0
        for i in range(300):
            x += i * i % 7
        self.kernel_s.append(perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> int:
        return len(self.kernel_s)

    def scale_since(self, mark: int) -> float:
        """Reference seconds per wall second since ``mark`` (see module doc).

        An op shorter than one tick uses the last few ticks before it.
        """
        seen = self.kernel_s[mark:] or self.kernel_s[-5:]
        return KERNEL_REF_S * sum(1 / k for k in seen) / len(seen)


class References:
    """The first op on each input is checked exactly; later ops must match it.

    Matching means the same output digest (files, stdout, exit codes),
    which is ROADMAP acceptance criterion 9.  The check itself runs after
    the op's timer has stopped.
    """

    def __init__(self, workload):
        self.workload = workload
        self.digest: dict[str, str | None] = {}
        self.counts: dict[str, dict] = {}
        self.problems: list[str] = []

    def judge(self, res, case) -> bool:
        if case.name not in self.digest:
            bad, counts = pipelines.check_op(self.workload, res, case)
            self.digest[case.name] = None if bad else res.digest
            self.counts[case.name] = counts or verify.new_counts()
            self.problems += [f"{case.name}: {p}" for p in bad]
            return not bad
        if res.error or res.digest != self.digest[case.name]:
            self.problems.append(
                f"{case.name}: {res.error or 'output differs from the reference op'}"
            )
            return False
        return True

    def mean_counts(self) -> dict:
        per_case = list(self.counts.values())
        return {n: sum(c[n] for c in per_case) / len(per_case) for n in verify.COUNT_NAMES}


def _loop(workload, cli, dirs, cases, refs, seconds, speed, tracer=None):
    """Run whole cycles over the inputs until ``seconds`` have passed.

    Returns raw walls, walls rescaled to the reference host speed and the
    number of failed ops.  An op fails if it raises, exits
    unexpectedly, or fails its exact check or its input's reference.
    """
    walls, scaled, failed = [], [], 0
    t_start = perf_counter()
    while perf_counter() - t_start < seconds:
        for d, case in zip(dirs, cases):
            if tracer is not None:
                tracer.op = len(walls)
            mark = speed.mark()
            res = pipelines.run_op(workload, cli, d, case)
            walls.append(res.wall_s)
            scaled.append(res.wall_s * speed.scale_since(mark))
            failed += not refs.judge(res, case)
    return walls, scaled, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(pipelines.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    speed = HostSpeed()
    speed.start()
    sys.path.insert(0, str(pipelines.SRC))
    from metric_forge import cli

    workload = pipelines.WORKLOADS[args.workload]
    cases = gen.generate(args.workload, args.seed)
    dirs = pipelines.prepare(args.workdir, cases)
    warm = pipelines.run_op(workload, cli, dirs[0], cases[0])
    print("READY", flush=True)
    setup_scale = speed.scale_since(0)
    if args.mode == "setup":
        speed.stop()
        print(json.dumps({"setup_scale": setup_scale}), flush=True)
        return 0

    refs = References(workload)
    refs.judge(warm, cases[0])
    seconds = args.seconds / 2 if args.mode == "trace" else args.seconds
    walls, scaled, failed = _loop(workload, cli, dirs, cases, refs, seconds, speed)
    out = {
        "setup_scale": setup_scale,
        "walls": walls,
        "scaled": scaled,
        "failed": failed,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counts": refs.mean_counts(),
    }
    if args.mode == "trace":
        tracer = spans.Tracer()
        tracer.install()
        t_walls, t_scaled, t_failed = _loop(
            workload, cli, dirs, cases, refs, seconds, speed, tracer
        )
        ops = len(t_walls)
        layer = tracer.summary(ops)
        # time between CLI steps: op time outside every outermost span
        layer["bench.glue_s"] = (sum(t_walls) - tracer.root_busy()) / ops
        layer["bench.traced_op_s"] = sum(t_walls) / ops
        layer["trace_overhead"] = statistics.median(t_scaled) / statistics.median(scaled)
        # the speed kernel's median time: raw seconds above are at this speed
        layer["bench.kernel_s"] = statistics.median(speed.kernel_s)
        out["trace"] = layer
        out["failed_traced"] = t_failed
        out["walls_traced"] = t_walls
        if args.spans:
            tracer.dump(args.spans)
    speed.stop()
    out["problems"] = refs.problems[:10]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
