"""Benchmark of the scakit CLI, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are defined in ``workloads.py``.  The load is a closed loop:
one client runs one operation at a time, each command in a fresh
``python -m scakit.cli`` process built from ``src/`` of this checkout,
with BLAS pinned to one thread (see ``BLAS_THREADS``).  One untimed
warm-up operation precedes the timed ones, which run until the next one
would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics, and the median and tail
operation times as context.  ``--trace 1`` replays the same operations in
this process through ``scakit.cli.main``, alternating untraced replays
with replays whose layer entry points are wrapped by ``spans.instrument``,
and reports per-layer self times, work counts and the tracing overhead.

Every operation's outputs are checked (see ``workloads.py``) and must be
byte-identical to the digest in ``digests.json`` for the seed or, for a
seed with none recorded, to the warm-up's.  The environment goes to
stdout as one JSON line, then one line per metric with its unit; the last
line is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread keeps an operation on one core, so load on the other cores
# of a shared machine moves its time little.  On a 2-core x86-64 VM with one
# core kept busy, keyrec-s1 slowed by about 1% at one thread, 12% at two.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0   # a run, with set-up and warm-up, must end within 180 s

END_TO_END = {"traces_per_s": "1/s", "op_p10_s": "s", "peak_rss_mb": "MiB",
              "success_rate": "ratio", "setup_s": "s"}
# Printed with the end-to-end metrics but left out of the result line, so
# no bound applies to them: on a shared host they follow the host's load.
CONTEXT = {"op_p50_s": "s", "op_tail_s": "s"}


@dataclass
class Op:
    """One operation: its commands' wall time, their peak RSS, what failed."""
    seconds: float = 0.0
    rss_kib: int = 0
    problems: list = field(default_factory=list)
    digest: str | None = None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    return env


def run_child(args, cwd, env, timeout):
    """Run ``python *args`` and reap it with ``os.wait4``.

    Returns ``(seconds, exit code, peak RSS in KiB, stderr text)``; a child
    still running after ``timeout`` seconds is killed.
    """
    with tempfile.TemporaryFile(dir=cwd) as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return seconds, proc.returncode, usage.ru_maxrss, err.read().decode(errors="replace")


def _error_message(stderr):
    """The CLI reports a failure as one JSON object with an ``error`` key."""
    for line in stderr.splitlines():
        try:
            message = json.loads(line)
        except ValueError:
            continue
        if isinstance(message, dict) and "error" in message:
            return message["error"]
    return None


def _clear(workload, work):
    for name in workload.outputs:
        (work / name).unlink(missing_ok=True)


def _check(workload, work, op):
    """Add the workload's output checks and the outputs' digest to ``op``."""
    from workloads import output_digest

    if op.problems:
        return op
    missing = [name for name in workload.outputs if not (work / name).is_file()]
    if missing:
        op.problems.append(f"missing outputs: {missing}")
        return op
    op.problems.extend(workload.check(work))
    op.digest = output_digest(work, workload.outputs)
    return op


def run_op_child(workload, seed, work, env, deadline):
    """One operation, each command in its own ``scakit`` process."""
    _clear(workload, work)
    op = Op()
    for argv in workload.commands(seed):
        timeout = max(1.0, deadline - perf_counter())
        seconds, code, rss_kib, stderr = run_child(["-m", "scakit.cli", *argv], work, env, timeout)
        op.seconds += seconds
        op.rss_kib = max(op.rss_kib, rss_kib)
        error = _error_message(stderr)
        if code != 0 or error is not None:
            op.problems.append(f"{argv[0]} exited {code}: {error or stderr.strip()[-400:]}")
            break
    return _check(workload, work, op)


def run_op_inprocess(workload, seed, work, tracer=None):
    """One operation replayed through ``scakit.cli.main`` in this process,
    inside a ``cli`` span per command when ``tracer`` is given."""
    from scakit.cli import main

    _clear(workload, work)
    op = Op()
    previous = os.getcwd()
    os.chdir(work)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            start = perf_counter()
            for argv in workload.commands(seed):
                code = main(argv) if tracer is None else tracer.call("cli", main, argv)
                if code != 0:
                    op.problems.append(f"{argv[0]} returned {code}: {err.getvalue().strip()}")
                    break
            op.seconds = perf_counter() - start
    except (Exception, SystemExit):   # keep measuring; the failure is reported
        op.problems.append(traceback.format_exc(limit=-3))
    finally:
        os.chdir(previous)
    return _check(workload, work, op)


def low(times):
    """p10 interpolated between order statistics: the time of an operation
    the host leaves alone.  On a 2-core x86-64 VM whose host slowed all work
    by up to 1.5x for tens of seconds at a time, the p10 of ten consecutive
    38-second windows ranged over 6-11% of its median, the median over
    16-21%."""
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[0]


def tail(times):
    """Highest nearest-rank percentile, p90 or above, that still has ten
    samples beyond it.  A run of fewer than 100 operations has none; then
    the p90 interpolated between order statistics stands in, which one slow
    operation moves less than the maximum.  Returns the value and a label
    with the sample count."""
    ordered = sorted(times)
    n = len(ordered)
    if n >= 100:
        return ordered[n - 11], f"p{100 * (n - 10) // n} of {n} ops"
    if n == 1:
        return ordered[0], "1 op"
    return statistics.quantiles(ordered, n=10, method="inclusive")[-1], f"p90 of {n} ops"


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def environment(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": NPROC, "seed": seed, "src_lines": src_lines()}


class Run:
    """Operations of one benchmark run and their checks against one reference
    digest: the recorded one for the seed, else the first operation's."""

    def __init__(self, name, seed):
        self.seed = seed
        self.reference = _recorded_digest(name, seed)
        self.attempted = 0
        self.problems = []

    def record(self, op):
        self.attempted += 1
        if op.digest is not None:
            if self.reference is None:
                self.reference = op.digest
            elif op.digest != self.reference:
                op.problems.append(f"outputs differ from the digest for seed {self.seed}")
        if op.problems:
            self.problems.append(op.problems)
        return op

    def result(self, metrics):
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": len(self.problems), "metrics": metrics}


def _recorded_digest(name, seed):
    with open(BENCH / "digests.json") as fh:
        return json.load(fh).get(name, {}).get(str(seed))


def _more(times, start, seconds, deadline):
    """Start another operation only if it should end inside the window."""
    if not times:
        return True
    expected = statistics.median(times)
    now = perf_counter()
    return now - start + expected <= seconds and now + expected < deadline


def measure(workload, seed, seconds, work, deadline):
    """End-to-end metrics of child-process operations; returns (run, metrics, notes)."""
    env = child_env()
    setup = []

    def set_up():
        setup.append(run_child(["-c", "import scakit.cli"], work, env, 60)[0])

    # Set-up is timed a few times first and again after every operation, so
    # that its median spans the whole run, like the operations'.
    for _ in range(SETUP_REPEATS):
        set_up()
    workload.prepare(work, seed)
    run = Run(workload.name, seed)
    run.record(run_op_child(workload, seed, work, env, deadline))   # warm-up, untimed
    ops = []
    start = perf_counter()
    while _more([op.seconds for op in ops], start, seconds, deadline):
        ops.append(run.record(run_op_child(workload, seed, work, env, deadline)))
        set_up()
    times = [op.seconds for op in ops]
    p10 = low(times)
    op_tail, tail_label = tail(times)
    metrics = {
        "traces_per_s": workload.traces_per_op / p10,
        "op_p10_s": p10,
        "op_p50_s": statistics.median(times),
        "op_tail_s": op_tail,
        "peak_rss_mb": max(op.rss_kib for op in ops) / 1024,
        "success_rate": (run.attempted - len(run.problems)) / run.attempted,
        "setup_s": statistics.median(setup),
    }
    notes = {"op_p10_s": f"p10 of {len(times)} ops",
             "op_p50_s": f"median of {len(times)} ops, context",
             "op_tail_s": f"{tail_label}, context",
             "traces_per_s": f"{workload.traces_per_op} traces per op at op_p10_s",
             "success_rate": f"{run.attempted} ops incl. warm-up, "
                             f"error_rate {len(run.problems) / run.attempted:g}",
             "setup_s": f"median of {len(setup)} fresh 'import scakit.cli'"}
    units = END_TO_END | CONTEXT
    return run, {name: (metrics[name], units[name]) for name in units}, notes


def measure_layers(workload, seed, seconds, work, deadline):
    """Per-layer metrics of in-process replays; returns (run, metrics, notes)."""
    from spans import COUNT_UNITS, LAYER_NAMES, Tracer, instrument

    workload.prepare(work, seed)
    run = Run(workload.name, seed)
    run.record(run_op_inprocess(workload, seed, work))   # warm-up, untimed
    plain, traced, tracers = [], [], []
    start = perf_counter()
    while _more([p.seconds + t.seconds for p, t in zip(plain, traced)], start, seconds, deadline):
        plain.append(run.record(run_op_inprocess(workload, seed, work)))
        tracers.append(Tracer())
        with instrument(tracers[-1]):
            traced.append(run.record(run_op_inprocess(workload, seed, work, tracers[-1])))

    metrics = {}
    self_times = [tracer.self_times() for tracer in tracers]
    for layer in LAYER_NAMES + ("cli",):
        metrics[f"{layer}.self_s"] = (statistics.median(t.get(layer, 0.0) for t in self_times), "s")
    # Counts follow from array shapes alone, so every replay has the same.
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (tracers[-1].counts.get(name, 0), unit)
    metrics["trace.overhead_s"] = (statistics.median(op.seconds for op in traced)
                                   - statistics.median(op.seconds for op in plain), "s")
    notes = {name: "per op, from call counts and array shapes" for name in COUNT_UNITS}
    notes["trace.overhead_s"] = (f"median of {len(traced)} traced minus "
                                 f"{len(plain)} untraced replays")
    return run, metrics, notes


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None):
    if not (SRC / "scakit" / "cli.py").is_file():
        print(f"bench: no scakit sources under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM raises KeyboardInterrupt, which the in-process replays do not
    # catch, so the running child is killed and reaped (see run_child) and
    # the work directory removed on the way out.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    # Pin BLAS threads here too, before numpy is first imported, for the
    # in-process replays of --trace 1.
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    deadline = perf_counter() + TIME_LIMIT_S
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        measure_fn = measure_layers if args.trace else measure
        run, metrics, notes = measure_fn(workload, args.seed, args.seconds, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"env": environment(args.seed)}))
    for problems in run.problems:
        print(f"FAILED: {'; '.join(problems)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{workload.name} {name} = {value:.6g} {unit}{note}")
    print(json.dumps(run.result(
        {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
         if name not in CONTEXT})))
    return 0


if __name__ == "__main__":
    sys.exit(main())
