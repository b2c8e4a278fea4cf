"""The fencemonoid benchmark: one command, three workloads, checked answers.

    python3 benchmarks/run.py --workload claims-n8 --seed 1 --seconds 40 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  Every pass of a workload runs in a fresh interpreter (see
``passrun.py``) inside a temporary directory under the checkout, which
is removed afterwards, so lazily built tables are paid in every pass as
every CLI call pays them and nothing is left behind.

``--trace 0`` repeats passes while ``--seconds`` allows (at least one),
times set-up in extra interpreters until there are seven samples, and
prints the end-to-end metrics, in reference seconds: wall time scaled by
the host speed each pass measured while it ran (``hostspeed.py``).  ``--trace 1`` runs one untraced and one
traced pass and prints the per-layer metrics.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A summary with run metadata goes to stderr.  When the program cannot be
run at all, the benchmark prints no result and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 7
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a
    share ``q`` of the values at or below it.  With fewer than 100
    values, the 99th is the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    def __init__(self, workload, seed, workdir, started):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.hard_deadline = started + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        self.cpus = sorted(os.sched_getaffinity(0))
        self.spawned = 0

    def spawn(self, *flags, cpu=None):
        """Run passrun.py once; returns its report and its wall time.

        Each interpreter is pinned to one CPU, taking the CPUs in turn
        unless ``cpu`` is given: on a shared host each core's speed
        drifts on its own, and alternating keeps one slow core from
        setting a whole run's figures.
        """
        if cpu is None:
            cpu = self.cpus[self.spawned % len(self.cpus)]
        self.spawned += 1
        spawned_at = time.monotonic()
        timeout = self.hard_deadline - spawned_at
        if timeout <= 0:
            raise BenchError("out of time before the next pass")
        cmd = [
            sys.executable, "-B", os.path.join(HERE, "passrun.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--spawned-at", repr(spawned_at), *flags,
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=self.workdir, env=self.env, capture_output=True,
                text=True, timeout=timeout,
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass did not finish within {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"pass exited with code {proc.returncode}:\n{proc.stderr[-2000:]}")
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"pass printed no report:\n{proc.stderr[-2000:]}") from None
        return report, time.monotonic() - spawned_at


def run_s(report):
    return sum(report["op_seconds"])


def tally(reports):
    failures = [f for r in reports for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reports)
    return attempted, failures


def untraced(runner, seconds):
    deadline = time.monotonic() + seconds
    passes, walls = [], []
    while True:
        report, wall = runner.spawn()
        passes.append(report)
        walls.append(wall)
        if time.monotonic() + max(walls) > deadline:
            break
    setups = [r["setup_s"] for r in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn("--setup-only")[0]["setup_s"])
    # an operation's latency is its median over the passes, so a burst of
    # machine noise in one pass does not move the percentiles
    op_ms = [statistics.median(ts) * 1000 for ts in zip(*(r["op_seconds"] for r in passes))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(run_s(r) for r in passes), "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p99_ms": (percentile(op_ms, 0.99), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
    }
    info = {
        "passes": len(passes),
        "pass_run_s": [run_s(r) for r in passes],
        "pass_wall_run_s": [r["wall_run_s"] for r in passes],
        "pass_slowdown": [r["slowdown"] for r in passes],
        "op_samples": len(op_ms),
        "setup_samples": len(setups),
    }
    return passes, metrics, info


def traced(runner):
    # both on one CPU and both in wall time, so their difference is the
    # tracing overhead
    plain, _ = runner.spawn(cpu=runner.cpus[0])
    report, _ = runner.spawn("--trace", cpu=runner.cpus[0])
    metrics = {name: tuple(vu) for name, vu in report["layers"].items()}
    # per-op verdict times of the traced pass; ops of other workloads read 0
    op_seconds = dict(zip(report["op_names"], report["op_seconds"]))
    for op in workloads.CLI_OPS:
        metrics[f"{op.name}.s"] = (op_seconds.get(op.name, 0.0), "s")
    metrics["trace.run_s"] = (run_s(report), "s")
    metrics["trace.overhead_s"] = (run_s(report) - plain["wall_run_s"], "s")
    attempted, failures = tally([plain, report])
    metrics["error_rate"] = (len(failures) / attempted, "ratio")
    return [plain, report], metrics, {"untraced_wall_run_s": plain["wall_run_s"]}


def metadata(seed, passes):
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = proc.stdout.strip() or sha
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    meta = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "seed": seed,
        "src_lines": src_lines,
    }
    digests = {r["input_digest"] for r in passes if "input_digest" in r}
    if digests:
        meta["input_digest"] = digests.pop() if len(digests) == 1 else sorted(digests)
    return meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # on SIGTERM, unwind: subprocess.run kills and reaps the pass, and the
    # temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not os.path.isfile(os.path.join(SRC, "fencemonoid", "cli.py")):
        sys.stderr.write(f"error: no fencemonoid sources under {SRC}\n")
        return 1
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        runner = Runner(args.workload, args.seed, workdir, started)
        if args.trace:
            passes, metrics, info = traced(runner)
        else:
            passes, metrics, info = untraced(runner, args.seconds)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures = tally(passes)
    summary = {
        "workload": args.workload,
        "error_rate": len(failures) / attempted,
        **info,
        **metadata(args.seed, passes),
        "failures": failures[:20],
    }
    sys.stderr.write(json.dumps(summary) + "\n")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
