"""Benchmark of biharm: refinement ladder, same-space data sweep, disk triage.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload converge-p1-square --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in fresh worker processes (``worker.py``) with one BLAS
thread, importing biharm from this checkout's ``src``. With ``--trace 0`` the
run reports the end-to-end metrics: median wall and CPU time of one
operation, each divided by the time of a reference kernel run next to it
(``reference.py``) so that the shared host's drift in speed cancels, set-up
time (median over several fresh processes) and peak RSS of the timed
process. The report also gives the operation's median times in seconds.
With ``--trace 1`` it reports the per-layer metrics of ``tracing.py``
instead. The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("converge-p1-square", "sweep-p2-square", "triage-disk")
# setup_s is the median over this many fresh processes; the timed one is the last.
SETUP_PROCESSES = 5
# A run must end within 180 s; workers are killed past this point.
RUN_LIMIT_S = 170.0
# BLAS threads of a worker. A second OpenBLAS thread buys nothing here (a P2
# sweep op took 2.4 s wall and 3.5 s CPU with two threads, 2.2 s and 2.2 s with
# one, on a 2-vCPU host) and its spin-waits tie every op to whatever else runs
# on the other CPU.
BLAS_THREADS = 1
# "ref": multiples of the time of one pass of the reference kernel
# (reference.py) measured next to the operation.
END_TO_END_UNITS = {
    "op_wall_rel_p50": "ref",
    "op_cpu_rel_p50": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A worker process failed; the run has no result."""


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    """Machine facts for the record, read from /proc and /sys."""
    env = {"nproc": usable_cpus(), "blas_threads": BLAS_THREADS, "cpu_model": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    env["caches"] = caches
    return env


def spawn(workload: str, args, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    threads = str(BLAS_THREADS)
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    command = [
        sys.executable,
        str(ROOT / "perfbench" / "worker.py"),
        *("--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds)),
        *("--mode", mode, "--size", args.size),
        "--spawned",
        repr(time.monotonic()),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: no time left for a {mode} process")
    try:
        proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} process killed after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: {mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, args, deadline: float) -> dict:
    """Measure one workload; returns counts, metrics and annotations."""
    if args.trace:
        result = spawn(workload, args, "trace", deadline)
        metrics = result["per_layer"]
        notes = dict.fromkeys(metrics, f"n={result['rounds']} traced rounds")
    else:
        setups = [spawn(workload, args, "setup", deadline) for _ in range(SETUP_PROCESSES - 1)]
        result = spawn(workload, args, "timed", deadline)
        setups.append(result)
        ops = len(result["op_wall_s"])
        metrics = {
            "op_wall_rel_p50": statistics.median(result["op_wall_rel"]),
            "op_cpu_rel_p50": statistics.median(result["op_cpu_rel"]),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wall_s, cpu_s = (statistics.median(result[key]) for key in ("op_wall_s", "op_cpu_s"))
        notes = {
            "op_wall_rel_p50": f"n={ops} operations; {wall_s:.4g} s wall",
            "op_cpu_rel_p50": f"n={ops} operations; {cpu_s:.4g} s CPU",
            "setup_s": f"n={len(setups)} processes",
            "peak_rss_mb": "n=1 process",
        }
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "notes": notes,
        "versions": result["versions"],
    }


def print_report(workload: str, args, outcome: dict) -> None:
    units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(f"{workload}  seed={args.seed}  trace={args.trace}  size={args.size}")
    for name, value in outcome["metrics"].items():
        print(f"  {name:<28} {value:>16.6g} {units[name]:<6} {outcome['notes'][name]}")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"  {'fail_ratio':<28} {failed / attempted:>16.6g} {'':<6} {failed} of {attempted} operations")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "smoke"), default="full", help="smoke: tiny inputs for self-tests"
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "biharm" / "__init__.py").is_file():
        print(f"error: no biharm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    for name in names:
        try:
            outcomes[name] = run_workload(name, args, time.monotonic() + RUN_LIMIT_S)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_report(name, args, outcomes[name])

    units = tracing.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    prefix = len(names) > 1
    metrics = {
        f"{name}.{metric}" if prefix else metric: {"value": value, "unit": units[metric]}
        for name, outcome in outcomes.items()
        for metric, value in outcome["metrics"].items()
    }
    failed = sum(o["failed"] for o in outcomes.values())
    print("env " + json.dumps({**environment(), **outcomes[names[-1]]["versions"]}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(o["attempted"] for o in outcomes.values()),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
