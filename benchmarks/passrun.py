"""One pass of a benchmark workload, in a fresh interpreter.

Started by ``run.py`` with ``fencemonoid`` importable, in a temporary
working directory.  It imports the library, builds the workload's inputs,
and then calls the operations one after another: a closed loop with a
single caller.  Each call is timed on its own and its answer checked
against the references in ``workloads.py``; the checks are not timed.
Outside traced passes, ``hostspeed.Meter`` probes the host's speed
throughout, and every time is reported in reference seconds (see
``hostspeed.py``), next to the pass's plain wall time and its slowdown.
The last line of stdout is one JSON object with the pass's figures.

    python3 passrun.py --workload NAME --seed N --spawned-at T [--trace] [--setup-only]

``--spawned-at`` is the ``time.monotonic()`` reading taken by the parent
just before it started this process, so set-up time includes interpreter
start.  ``--setup-only`` stops before the first operation.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import sys
import time

import hostspeed
import tracing
import workloads

MODULES = ("cli", "enumeration", "factor", "fence", "genfam", "greens", "pinj")


def call(op, mods, element):
    """Run one operation; returns what its check needs."""
    if isinstance(op, workloads.CliOp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mods["cli"].main(list(op.argv))
        return rc, out.getvalue()
    if op.target == "J":
        return mods["factor"].factorize_j(element)
    return mods["factor"].factorize_g(element)


def check(op, outcome):
    """None for a correct answer, else the reason it failed."""
    if isinstance(outcome, Exception):
        return f"raised {outcome!r}"
    if isinstance(op, workloads.CliOp):
        return workloads.check_cli(op, *outcome)
    return workloads.check_word(op, outcome)


def run_ops(ops, mods, elements):
    """Call every op in order; returns ((start, end) per op, failures)."""
    spans, failures = [], []
    clock = time.monotonic
    for op, element in zip(ops, elements):
        t0 = clock()
        try:
            outcome = call(op, mods, element)
        except Exception as exc:  # a failed operation, counted below
            outcome = exc
        spans.append((t0, clock()))
        reason = check(op, outcome)
        if reason is not None:
            failures.append(f"{op.name}: {reason}")
    return spans, failures


def wall_only(t0, t1):
    """The conversion of a traced pass: wall time as it is."""
    return t1 - t0, t1 - t0, 1.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # traced passes keep plain wall time, so the probe stays out of their spans
    meter = None if args.trace else hostspeed.Meter()
    if meter is not None:
        meter.start()

    package = importlib.import_module("fencemonoid")
    mods = {name: importlib.import_module(f"fencemonoid.{name}") for name in MODULES}
    ops = workloads.operations(args.workload, args.seed)
    elements = []
    for op in ops:
        if isinstance(op, workloads.FactorOp):
            a = mods["pinj"].PartialInjection(len(op.img), op.img)
            if not mods["fence"].in_if(a):
                raise RuntimeError(f"generated element {a.encode()} is not in IF")
            elements.append(a)
        else:
            elements.append(None)
    setup = (args.spawned_at, time.monotonic())
    if meter is not None:
        meter.sample()  # probes right after set-up, which may end before a tick
    spans, failures, tracer = [], [], None
    if not args.setup_only:
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer, package, mods)
        spans, failures = run_ops(ops, mods, elements)
    convert = wall_only
    if meter is not None:
        meter.sample()
        meter.stop()
        convert = meter.convert
    setup_s, setup_wall_s, _ = convert(*setup)
    report = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
    if not args.setup_only:
        converted = [convert(*span) for span in spans]
        ref_run_s = sum(ref for ref, _, _ in converted)
        wall_run_s = sum(wall for _, wall, _ in converted)
        report.update(
            op_names=[op.name for op in ops],
            op_seconds=[ref for ref, _, _ in converted],
            wall_run_s=wall_run_s,
            slowdown=wall_run_s / ref_run_s if ref_run_s else 1.0,
            attempted=len(ops),
            failures=failures,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if args.workload == "factor-stream":
            report["input_digest"] = workloads.stream_digest((op.target, op.img) for op in ops)
        if tracer is not None:
            report["layers"] = tracing.layer_metrics(tracer)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
