"""One workload in one fresh process; prints its result as a JSON line.

Started by ``run.py``, never by hand. ``--spawned`` is the parent's
``time.monotonic()`` just before it started this process; on Linux that
clock is shared by all processes, so set-up time counts the interpreter
start and every import.

Modes:
  setup   build the workload and stop; reports only the set-up time
  timed   untraced operations k = 0, 1, ... for about ``--seconds``, each
          also relative to the reference kernel of ``reference.py``
  trace   rounds of the first operation group, untraced then traced, for
          about ``--seconds``; reports the per-layer metrics
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import biharm
import numpy
import reference
import scipy
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
MIN_TIMED_OPS = 3
# Stop starting operations past this point whatever --seconds says, so a
# run ends well within its 180 s limit even if operations slow down.
HARD_LIMIT_S = 120.0
# Share of an operation's time spent on reference passes after it.
REFERENCE_SHARE = 0.2


def attempt(workload, k: int, tracer=None):
    """Run and check operation k; returns (wall_s, cpu_s, problems).

    An operation fails if it raises or its gate reports a problem. Only the
    computation is timed, not the gate.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        if tracer is None:
            out = workload.compute(k)
        else:
            with tracer.span("op"):
                out = workload.compute(k)
    except Exception as exc:  # a failed operation is counted, not fatal
        return time.perf_counter() - wall, time.process_time() - cpu, [f"raised {exc!r}"]
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    try:
        problems = workload.check(k, out)
    except Exception as exc:  # a gate that cannot read the output fails the op
        problems = [f"gate raised {exc!r}"]
    return wall, cpu, problems


def _report(k, problems):
    for problem in problems:
        print(f"op {k} failed: {problem}", file=sys.stderr)
    return bool(problems)


def timed_ops(workload, seconds: float) -> dict:
    """Untraced operations until the next one would end past ``seconds``.

    Passes of the reference kernel run before the first operation and after
    each one, about REFERENCE_SHARE of the operation's time. Each operation's
    wall and CPU time is also divided by the mean of the reference times just
    before and just after it, which cancels the host's drift in speed.
    """
    reference.measure(1)  # first-call costs of the kernel
    start = time.perf_counter()
    samples, ok = [], []  # per op: wall, CPU, relative wall, relative CPU
    before, passes = reference.measure(1), 1
    while True:
        k = len(samples)
        wall, cpu, problems = attempt(workload, k)
        after = reference.measure(passes)
        ref_wall, ref_cpu = (before[0] + after[0]) / 2, (before[1] + after[1]) / 2
        samples.append((wall, cpu, wall / ref_wall, cpu / ref_cpu))
        if not _report(k, problems):
            ok.append(samples[-1])
        before, passes = after, max(1, round(REFERENCE_SHARE * wall / after[0]))
        next_end = time.perf_counter() - start + statistics.median(s[0] for s in samples)
        if next_end > HARD_LIMIT_S or (len(samples) >= MIN_TIMED_OPS and next_end > seconds):
            break
    columns = list(zip(*(ok or samples)))
    return {
        "attempted": len(samples),
        "failed": len(samples) - len(ok),
        **dict(zip(("op_wall_s", "op_cpu_s", "op_wall_rel", "op_cpu_rel"), map(list, columns))),
    }


def traced_rounds(workload, seconds: float) -> dict:
    """Rounds of the workload's first operation group, untraced then traced,
    after one untraced warm-up pass so that first-call costs do not land on
    either side of the tracing overhead.

    Counts come from the first traced round; times are medians over rounds.
    """
    start = time.perf_counter()
    rounds, overheads = [], []
    failed = 0
    for k in workload.group:
        failed += _report(k, attempt(workload, k)[2])
    attempted = len(workload.group)
    while True:
        round_start = time.perf_counter()
        plain = traced = 0.0
        for k in workload.group:
            wall, _, problems = attempt(workload, k)
            plain += wall
            failed += _report(k, problems)
        with tracing.Tracer() as tracer:
            for k in workload.group:
                wall, _, problems = attempt(workload, k, tracer)
                traced += wall
                failed += _report(k, problems)
        attempted += 2 * len(workload.group)
        rounds.append(tracing.layer_metrics(tracer.spans, len(workload.group)))
        overheads.append((traced - plain) / len(workload.group))
        now = time.perf_counter()
        if now - start + (now - round_start) > min(seconds, HARD_LIMIT_S):
            break
    metrics = tracing.median_metrics(rounds)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return {"attempted": attempted, "failed": failed, "per_layer": metrics, "rounds": len(rounds)}


def blas_info() -> dict:
    def blas(config):
        info = config["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    source = Path(biharm.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"biharm imported from {source}, not from this checkout", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir)
        result = {"setup_s": time.monotonic() - args.spawned}
        if args.mode == "timed":
            result.update(timed_ops(workload, args.seconds))
        elif args.mode == "trace":
            result.update(traced_rounds(workload, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another workload process still uses it
            pass
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = blas_info()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
