#!/usr/bin/env python3
"""Steady-state rekey-epoch benchmark: one command, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload one-wkabkr-4k --seed 1 --seconds 10 --trace 0

Each run sets the workload up once, timing it, then runs timed rekey
epochs in a closed loop until ``--seconds`` have passed and the
workload's epoch window (its first ``spec.epochs`` timed epochs) is
complete.  Every per-epoch metric comes from that window, so each program
version is measured on the same epochs however long the loop ran.
Epoch timings are printed as wall times and as host-adjusted times
(``perfbench.hostref``); the result line reports the adjusted ones, since
the host's own speed swings more from run to run than the bounds allow.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
traced and untraced epochs, prints the per-layer metrics and writes the
spans as Chrome trace JSON under ``perfbench/out/``.

Every metric is printed by name with its unit and sample count; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The run exits 1 if a
correctness check fails and 2 if it cannot run at all (a ``REPRO_*``
environment variable is set, or the program's source is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: The metrics the last line reports, from ``BENCHMARK.json``.  The other
#: end-to-end metrics (``late_receiver_share``, ``failed_share``) and
#: ``network.multicast_ms_p50`` can read exactly 0 on some workloads, so
#: they are printed above it but not listed there.
CONFIG = os.path.join(ROOT, "BENCHMARK.json")


def _refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _host() -> str:
    import numpy

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"nproc={nproc} python={platform.python_version()} numpy={numpy.__version__}"


def main(argv=None) -> int:
    args = _parse(argv)
    knobs = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if knobs:
        _refuse(
            "refusing to run with " + ", ".join(knobs) + " set: the benchmark "
            "measures the program's defaults"
        )
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _refuse(f"program source not found under {os.path.relpath(SRC)}")
    sys.path[:0] = [SRC, ROOT]

    from repro.obs.chrometrace import validate_chrome_trace

    from perfbench.bench import end_to_end, layer_ranking, measure, per_layer, timed_setup
    from perfbench.pipeline import CorrectnessError, EpochPipeline
    from perfbench.workloads import EPOCH_PERIOD_S, WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        _refuse(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    pipeline = EpochPipeline(spec, args.seed)
    correct = True
    problems = []
    try:
        setup_wall_s, setup_s = timed_setup(pipeline)
        measurement = measure(pipeline, args.seconds, bool(args.trace))
    except CorrectnessError as exc:
        correct = False
        problems.append(str(exc))
        measurement = None

    print(f"perfbench {spec.name} seed={args.seed} trace={args.trace} {_host()}")
    print(f"workload: {spec.why}")
    if measurement is None:
        for problem in problems:
            print(f"check FAILED: {problem}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    records = measurement.records
    window = min(spec.epochs, len(records))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"set-up: {setup_wall_s:.4f} s wall time, {setup_s:.4f} s host-adjusted (setup_s)")
    print(
        f"epochs: {len(records)} timed in {measurement.loop_s:.2f} s "
        f"({sum(r.traced for r in records)} traced), metrics over the first {window}; "
        f"Tp={EPOCH_PERIOD_S:.0f} s simulated per epoch"
    )
    if len(records) < spec.epochs:
        print(f"warning: the loop stopped after {len(records)} of {spec.epochs} epochs")

    e2e = end_to_end(measurement, setup_s, peak_rss_mb, window)
    layers = per_layer(measurement, window) if args.trace else []
    for metric in e2e + layers:
        note = f"  ({metric.note})" if metric.note else ""
        print(f"  {metric.name} = {metric.value:.6g} {metric.unit}{note}")

    attempted = sum(r.receivers for r in records)
    failed = sum(r.failed for r in records)
    print(
        f"payload sha256 over epochs 1-{spec.warmup_epochs + window}: "
        f"{pipeline.digest.hexdigest()}"
    )
    print(
        f"check: {attempted - failed} of {attempted} receiver-epochs hold the new group "
        f"key, {len(pipeline.departed)} retained departed receivers hold none: ok"
    )

    if args.trace:
        ranking = ", ".join(
            f"{name} {share:.1%}" for name, share in layer_ranking(measurement, window)
        )
        print(f"layers by self time: {ranking}")
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{spec.name}-seed{args.seed}.json")
        doc = measurement.recorder.write_chrome_trace(path)
        counts = validate_chrome_trace(doc)
        print(f"chrome trace: {os.path.relpath(path, ROOT)} {counts}: ok")

    for problem in problems:
        print(f"check FAILED: {problem}")
    correct = correct and not problems
    with open(CONFIG, encoding="utf-8") as handle:
        listed = {m["name"] for m in json.load(handle)["per_layer" if args.trace else "end_to_end"]}
    reported = [m for m in (layers if args.trace else e2e) if m.name in listed]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in reported},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
