"""contact-tensor benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

The load is a closed loop with a single client: each CLI command of a
round (see workloads.py) runs in process through
``contact_tensor.cli.main`` once the previous one has returned, and rounds
repeat until ``--seconds`` have passed (at least one round).  Every output
is checked; a command that raises, exits non-zero, reports a false
``self_check`` or prints anything but the reference output counts as
failed and is listed by input name.

``--trace 0`` prints the end-to-end metrics:

- ``round_ref.p50``: median round wall time, in units of the host-speed
  kernel sampled while the round ran (speed.py);
- ``peak_rss_mb``: peak resident memory of the process;
- ``setup_s``: median of SETUP_REPEATS set-ups, each a fresh import of
  contact_tensor plus writing the workload's inputs, each scaled by the
  host-speed kernel timed around it to seconds on the reference box
  (speed.REF_UNIT_S).

The raw set-up, wall and CPU medians, the round-time tail and the
reports per second go on ``raw:`` lines before the result.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
rounds (tracer.py); its spans go to ``.bench_out/``.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import speed
import tracer
import workloads

ROOT = workloads.ROOT
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 7
# a run, set-up included, is stopped after this many seconds even when a
# command hangs
HARD_LIMIT_S = 150.0


class OperationTimeout(BaseException):
    """Raised by the alarm when the run overstays HARD_LIMIT_S."""


def _on_alarm(signum, frame):
    raise OperationTimeout()


def setup(workload: str, seed: int, workdir: Path):
    """Import contact_tensor afresh and write the workload's inputs."""
    for name in [n for n in sys.modules
                 if n == "contact_tensor" or n.startswith("contact_tensor.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("contact_tensor.cli")
    expr = importlib.import_module("contact_tensor.expr")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"contact_tensor was imported from {cli.__file__},"
                          f" not from {SRC}")
    shutil.rmtree(workdir, ignore_errors=True)
    ops = workloads.build_round(workload, seed, workdir, cli.main,
                                workloads.load_reference())
    return cli, expr, ops


def run_operation(cli, op) -> tuple[int | None, str, str | None, float, float]:
    """Run one command; returns (exit code, stdout, error, wall s, cpu s)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed operation
        error = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return code, out.getvalue(), error, wall, cpu


class Run:
    """Rounds of one workload and their outcome."""

    def __init__(self, cli, ops, checker):
        self.cli, self.ops, self.checker = cli, ops, checker
        self.attempted = 0
        self.failed = 0
        self.reports = 0
        self.misses: list[str] = []

    def round(self, tracer_=None, round_no: int = 0,
              sampler=None) -> tuple[float, float]:
        """One pass over the round's commands, traced when a Tracer is
        given; returns (wall s, cpu s) net of the sampler's kernel time."""
        wall = cpu = 0.0
        for op in self.ops:
            self.attempted += 1
            busy = sampler.busy_s if sampler else 0.0
            if tracer_ is None:
                code, out, error, w, c = run_operation(self.cli, op)
            else:
                # traced around the command only, not around its check
                tracer_.op_id = f"{round_no}:{op.name}"
                with tracer_:
                    code, out, error, w, c = run_operation(self.cli, op)
            if sampler:
                busy = sampler.busy_s - busy
                w -= busy
                c -= busy
            wall += w
            cpu += c
            reason = error or self.checker.check(op, code, out)
            if reason is None:
                self.reports += op.reports
            else:
                self.failed += 1
                self.misses.append(f"{op.name}: {reason}")
        return wall, cpu


def _tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    ordered = sorted(values)
    for pct in (99, 95, 90, 75):
        rank = int(n * pct / 100)
        if n - rank - 1 >= 10:
            return pct, ordered[rank]
    return None


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure_end_to_end(run: Run, seconds: float) -> dict:
    walls, cpus, units = [], [], []
    start = time.perf_counter()
    with speed.SpeedSampler() as sampler:
        while True:
            first = len(sampler.samples)
            w, c = run.round(sampler=sampler)
            walls.append(w)
            cpus.append(c)
            units.append(sampler.unit_s(first))
            if run.failed or time.perf_counter() - start >= seconds:
                break
    elapsed = time.perf_counter() - start
    tail = _tail(walls)
    tail_text = f"p{tail[0]} {tail[1]:.4f} s" if tail else "omitted"
    print(f"raw: rounds={len(walls)} round_s.p50={statistics.median(walls):.4f}"
          f" round_s.tail={tail_text} cpu_s.p50={statistics.median(cpus):.4f}"
          f" reports_per_s={run.reports / elapsed:.4f}"
          f" unit_s={sampler.unit_s():.6f} samples={len(sampler.samples)}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # each round in the time unit sampled while it ran
    return {
        "round_ref.p50": _metric(statistics.median(
            w / u for w, u in zip(walls, units)), "ref"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def measure_per_layer(run: Run, seconds: float, workload: str,
                      seed: int) -> dict:
    walls, traced_walls, layer_rounds, counts_rounds = [], [], [], []
    tr = tracer.Tracer()
    start = time.perf_counter()
    round_no = 0
    while True:
        walls.append(run.round()[0])
        first_span = len(tr.spans)
        tr.counts.clear()
        traced_walls.append(run.round(tr, round_no)[0])
        round_no += 1
        counts_rounds.append(dict(tr.counts))
        layer_rounds.append(tr.layer_metrics(first_span))
        if run.failed or time.perf_counter() - start >= seconds:
            break
    if any(c != counts_rounds[0] for c in counts_rounds):
        run.failed += 1
        run.misses.append("trace: counters differ between traced rounds")
    OUT_DIR.mkdir(exist_ok=True)
    tr.write_spans(OUT_DIR / f"spans-{workload}-{seed}.jsonl")
    metrics = {}
    for name in tracer.SELF_TIME_METRICS:
        metrics[name] = _metric(
            statistics.median(r[name] for r in layer_rounds), "s")
    for name in tracer.COUNT_METRICS:
        metrics[name] = _metric(layer_rounds[0][name], "count")
    for name in tracer.SHARE_METRICS:
        metrics[name] = _metric(layer_rounds[0][name], "ratio")
    # each traced round against the untraced round just before it
    metrics["trace.overhead_share"] = _metric(statistics.median(
        t / u for t, u in zip(traced_walls, walls)) - 1, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S)
    sys.path.insert(0, str(SRC))
    workdir = WORK_DIR / f"{args.workload}-{args.seed}"
    try:
        setup_times, setup_scaled = [], []
        for _ in range(SETUP_REPEATS):
            # drop the previous import's garbage, so that each set-up
            # starts from the heap of a fresh process
            gc.collect()
            before = speed.unit_now()
            t0 = time.perf_counter()
            cli, expr, ops = setup(args.workload, args.seed, workdir)
            wall = time.perf_counter() - t0
            unit = (before + speed.unit_now()) / 2
            setup_times.append(wall)
            setup_scaled.append(wall / unit * speed.REF_UNIT_S)
        checker = workloads.Checker(expr, workloads.load_oracles())
    except (ImportError, OSError, RuntimeError, ValueError,
            OperationTimeout) as exc:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        print(f"bench: set-up failed: {exc!r}", file=sys.stderr)
        return 1

    run = Run(cli, ops, checker)
    try:
        if args.trace:
            metrics = measure_per_layer(run, args.seconds, args.workload,
                                        args.seed)
        else:
            print(f"raw: setup_s={statistics.median(setup_times):.4f}")
            metrics = measure_end_to_end(run, args.seconds)
            metrics["setup_s"] = _metric(statistics.median(setup_scaled),
                                         "s")
    except OperationTimeout:
        print(f"bench: stopped after {HARD_LIMIT_S:.0f} s", file=sys.stderr)
        run.failed += 1
        run.misses.append("run: hard time limit reached")
        metrics = {}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()          # only when no other run uses it
    for miss in run.misses:
        print(f"miss: {miss}")
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": max(run.attempted, 1),
                      "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
