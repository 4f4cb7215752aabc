"""The hot-path benchmark matrix behind ``python -m repro bench``.

Runs a standard set of large-group rekeying scenarios against the
one-keytree server and emits ``BENCH_hotpath.json``: per-phase wall-clock,
ops/sec, op counters, and peak RSS.  Cost-only scenarios also rerun the
same workload along the *pre-optimization* path — eager wrapping plus the
naive O(N·|message|) per-receiver delivery scan — and record the measured
speedup, so the file doubles as a regression baseline future PRs diff
against.

Scenario phases
---------------
``build``
    Admit all N members and process them as one batch rekeying.
``rekey``
    ``rounds`` churn batches: ``churn`` departures + ``churn`` joins each.
``deliver``
    Cost-only: resolve per-receiver interest (the fixed-point closure of
    Section 2.2's sparseness property) for ``sample_receivers`` members
    per round.  Full-crypto: every member absorbs (really decrypts) every
    round's payload.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.wrap import deferred_wraps
from repro.members.member import Member
from repro.perf.instrumentation import PerfRecorder, recording
from repro.perf.parallel import available_cpus, parallel_map
from repro.server.onetree import OneTreeServer
from repro.server.sharded import ShardedOneTreeServer

COST_ONLY = "cost-only"
FULL_CRYPTO = "full-crypto"

BENCH_FILENAME = "BENCH_hotpath.json"

#: Per-call budget for a *disabled* observability probe.  With no
#: collector installed every probe must reduce to one module-global
#: ``is None`` check (~100 ns in CPython); the budget leaves generous
#: headroom for scheduler noise while still catching a regression that
#: makes the disabled path allocate, format, or lock.
OBS_OVERHEAD_BUDGET_NS = 1500.0


def measure_obs_overhead(iterations: int = 100_000) -> Dict[str, object]:
    """The ``obs-overhead`` guard: price the observability probes.

    Measures per-call nanoseconds for the three probe families —
    ``metrics.inc``, ``tracing.span`` (enter+exit), ``events.emit`` —
    first with no collector installed (the cost every hot-path call site
    pays all the time), then with the full :func:`repro.obs.observe`
    stack active (the cost of an observed run).  Also times a small
    rekeying workload both ways.  ``pass`` is True iff every *disabled*
    probe stays under :data:`OBS_OVERHEAD_BUDGET_NS`; the enabled numbers
    and the workload ratio are informational.
    """
    import repro.obs as obs
    from repro.obs import events as obs_events
    from repro.obs import metrics as obs_metrics
    from repro.obs import tracing as obs_tracing

    def per_call_ns(fn: Callable[[], None], n: int) -> float:
        fn()  # warm any lazy setup outside the timed window
        start = time.perf_counter()
        for _ in range(n):
            fn()
        return (time.perf_counter() - start) / n * 1e9

    def probe_inc() -> None:
        obs_metrics.inc("bench.obs_overhead")

    def probe_span() -> None:
        with obs_tracing.span("bench.obs_overhead"):
            pass

    def probe_emit() -> None:
        obs_events.emit("crash", time=0.0, epoch=0)

    probes = {
        "metrics_inc": probe_inc,
        "tracing_span": probe_span,
        "events_emit": probe_emit,
    }

    def workload() -> None:
        server = OneTreeServer(degree=4, group="obs-overhead")
        for i in range(256):
            server.join(f"w{i}")
        server.rekey()
        for round_no in range(2):
            for i in range(8):
                server.leave(f"w{round_no * 8 + i}")
                server.join(f"x{round_no}_{i}")
            server.rekey()

    # Force the disabled path regardless of the caller's context (repro
    # bench itself may be running under --trace/--metrics).
    saved = (obs_metrics._ACTIVE, obs_tracing._ACTIVE, obs_events._ACTIVE)
    obs_metrics._ACTIVE = None
    obs_tracing._ACTIVE = None
    obs_events._ACTIVE = None
    try:
        disabled_ns = {
            name: round(per_call_ns(fn, iterations), 1)
            for name, fn in probes.items()
        }
        workload_off_start = time.perf_counter()
        workload()
        workload_off_s = time.perf_counter() - workload_off_start
    finally:
        obs_metrics._ACTIVE, obs_tracing._ACTIVE, obs_events._ACTIVE = saved

    enabled_iterations = min(iterations, 20_000)
    with obs.observe(clock=lambda: 0.0):
        enabled_ns = {
            name: round(per_call_ns(fn, enabled_iterations), 1)
            for name, fn in probes.items()
        }
        workload_on_start = time.perf_counter()
        workload()
        workload_on_s = time.perf_counter() - workload_on_start

    return {
        "iterations": iterations,
        "budget_ns": OBS_OVERHEAD_BUDGET_NS,
        "disabled_ns": disabled_ns,
        "enabled_ns": enabled_ns,
        "workload_off_s": round(workload_off_s, 6),
        "workload_on_s": round(workload_on_s, 6),
        "workload_on_off_ratio": (
            round(workload_on_s / workload_off_s, 3) if workload_off_s else None
        ),
        "pass": all(ns <= OBS_OVERHEAD_BUDGET_NS for ns in disabled_ns.values()),
    }


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size in KiB (None where resource is unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        usage //= 1024
    return int(usage)


@dataclass(frozen=True)
class BenchScenario:
    """One cell of the benchmark matrix."""

    name: str
    members: int
    mode: str  # COST_ONLY or FULL_CRYPTO
    rounds: int
    churn: int
    sample_receivers: int
    #: Also run the pre-optimization path and record the speedup.
    compare_baseline: bool = False
    degree: int = 4
    seed: int = 7
    #: ``"one"`` (OneTreeServer) or ``"sharded"`` (ShardedOneTreeServer).
    server: str = "one"
    #: Sharded cells only — the *protocol* parameter (fixes cost/payload).
    shards: int = 1
    #: Tree kernel (``"object"`` or ``"flat"``).  Flat cells also run the
    #: same scenario on the object kernel and record ``speedup_vs_object``
    #: plus whether ``mean_batch_cost`` matched (the kernels must differ
    #: in wall-clock only, never in payload).
    kernel: str = "object"
    #: Bulk crypto engine (:mod:`repro.crypto.bulk`).  Bulk cells also run
    #: the same scenario with the engine off and record ``speedup_vs_flat``
    #: (or vs the object kernel's non-bulk run for object cells), again
    #: under a cost-match gate — the engine is execution-only.
    bulk: bool = False


def standard_scenarios() -> List[BenchScenario]:
    """The full matrix: cost-only up to 1M members, full-crypto to 10k.

    The sharded family varies the shard count (1 vs 4 vs 8 — a protocol
    parameter, so cells with different shard counts price differently).
    """
    return [
        BenchScenario("cost-only-1k", 1_000, COST_ONLY, 5, 16, 500, True),
        BenchScenario("cost-only-10k", 10_000, COST_ONLY, 5, 32, 1_000, True),
        BenchScenario("cost-only-100k", 100_000, COST_ONLY, 5, 64, 16_000, True),
        BenchScenario("cost-only-1m", 1_000_000, COST_ONLY, 3, 64, 1_000, False),
        BenchScenario("full-crypto-1k", 1_000, FULL_CRYPTO, 5, 16, 0),
        BenchScenario("full-crypto-10k", 10_000, FULL_CRYPTO, 3, 32, 0),
        # Sharded family — cost-only 100k across shard counts.
        BenchScenario(
            "sharded-s1-cost-100k", 100_000, COST_ONLY, 3, 64, 1_000,
            server="sharded", shards=1,
        ),
        BenchScenario(
            "sharded-s4-cost-100k", 100_000, COST_ONLY, 3, 64, 1_000,
            server="sharded", shards=4,
        ),
        # Sharded cost-only at 1M members.
        BenchScenario(
            "sharded-s8-cost-1m", 1_000_000, COST_ONLY, 2, 64, 500,
            server="sharded", shards=8,
        ),
        # Sharded full-crypto at 10k.
        BenchScenario(
            "sharded-s4-full-10k", 10_000, FULL_CRYPTO, 3, 32, 0,
            server="sharded", shards=4,
        ),
        # Flat-kernel family — same workloads on the flat-array tree core;
        # each runs an object-kernel reference and records
        # ``speedup_vs_object`` with a payload-cost match gate.
        BenchScenario(
            "flat-cost-100k", 100_000, COST_ONLY, 3, 64, 1_000, kernel="flat",
        ),
        BenchScenario(
            "flat-cost-1m", 1_000_000, COST_ONLY, 2, 64, 500, kernel="flat",
        ),
        BenchScenario(
            "flat-full-10k", 10_000, FULL_CRYPTO, 3, 32, 0, kernel="flat",
        ),
        BenchScenario(
            "sharded-s4-flat-cost-100k", 100_000, COST_ONLY, 3, 64, 1_000,
            server="sharded", shards=4, kernel="flat",
        ),
        # Bulk-engine family — flat kernel plus vectorized derivation and
        # the batched-HMAC wrap planner; references against both the
        # object kernel and the non-bulk flat kernel.
        BenchScenario(
            "flat-bulk-cost-100k", 100_000, COST_ONLY, 3, 64, 1_000,
            kernel="flat", bulk=True,
        ),
        BenchScenario(
            "flat-bulk-cost-1m", 1_000_000, COST_ONLY, 2, 64, 500,
            kernel="flat", bulk=True,
        ),
        BenchScenario(
            "flat-bulk-full-10k", 10_000, FULL_CRYPTO, 3, 32, 0,
            kernel="flat", bulk=True,
        ),
    ]


def quick_scenarios() -> List[BenchScenario]:
    """CI-sized subset (still exercises both modes and the baseline diff)."""
    return [
        BenchScenario("cost-only-1k", 1_000, COST_ONLY, 5, 16, 500, True),
        BenchScenario("cost-only-10k", 10_000, COST_ONLY, 3, 32, 1_000, True),
        BenchScenario("full-crypto-1k", 1_000, FULL_CRYPTO, 3, 16, 0),
        BenchScenario(
            "sharded-s4-cost-1k", 1_000, COST_ONLY, 3, 16, 500,
            server="sharded", shards=4,
        ),
        BenchScenario(
            "flat-cost-10k", 10_000, COST_ONLY, 3, 32, 1_000, kernel="flat",
        ),
        BenchScenario(
            "sharded-s4-flat-cost-1k", 1_000, COST_ONLY, 3, 16, 500,
            server="sharded", shards=4, kernel="flat",
        ),
        BenchScenario(
            "flat-bulk-cost-10k", 10_000, COST_ONLY, 3, 32, 1_000,
            kernel="flat", bulk=True,
        ),
    ]


def _build_bench_server(scenario: BenchScenario):
    if scenario.server == "sharded":
        return ShardedOneTreeServer(
            shards=scenario.shards,
            degree=scenario.degree,
            group=scenario.name,
            tree_kernel=scenario.kernel,
            bulk=scenario.bulk,
        )
    return OneTreeServer(
        degree=scenario.degree,
        group=scenario.name,
        tree_kernel=scenario.kernel,
        bulk=scenario.bulk,
    )


def _held_versions_of(server, member_id: str) -> Dict[str, int]:
    """What ``member_id`` holds right now, from the authoritative tree."""
    if isinstance(server, ShardedOneTreeServer):
        return {
            key.key_id: key.version
            for key in server._current_keys_of(member_id)
        }
    held = {
        node.key.key_id: node.key.version
        for node in server.tree.path_of(member_id)
    }
    return held


def _naive_interest(keys: Sequence, held: Dict[str, int]) -> set:
    """The pre-optimization per-receiver delivery scan (kept verbatim as
    the measured baseline): repeated linear passes over the whole payload
    until the fixed point — O(|message|) per receiver per pass."""
    versions = dict(held)
    wanted: set = set()
    progress = True
    while progress:
        progress = False
        for position, ek in enumerate(keys):
            if position in wanted:
                continue
            if versions.get(ek.wrapping_id) == ek.wrapping_version and (
                versions.get(ek.payload_id, -1) < ek.payload_version
            ):
                wanted.add(position)
                versions[ek.payload_id] = ek.payload_version
                progress = True
    return wanted


def _run_variant(scenario: BenchScenario, optimized: bool) -> Dict[str, object]:
    """Run one scenario along the optimized or the baseline path."""
    rng = random.Random(scenario.seed)
    recorder = PerfRecorder()
    deferred = optimized  # baseline pays eager wrapping, as pre-PR code did
    full_crypto = scenario.mode == FULL_CRYPTO
    receivers: Dict[str, Member] = {}
    total_batch_cost = 0

    with recording(recorder), deferred_wraps(enabled=deferred):
        server = _build_bench_server(scenario)
        with recorder.timeit("build"):
            member_ids = [f"m{i}" for i in range(scenario.members)]
            registrations = {
                member_id: server.join(member_id) for member_id in member_ids
            }
            build_result = server.rekey()
            if full_crypto:
                for member_id, registration in registrations.items():
                    receivers[member_id] = Member(
                        member_id, registration.individual_key
                    )
                index = build_result.index()
                for member in receivers.values():
                    member.absorb(build_result.encrypted_keys, index=index)
        del build_result, registrations

        for round_no in range(scenario.rounds):
            victims = rng.sample(member_ids, scenario.churn)
            victim_set = set(victims)
            member_ids = [m for m in member_ids if m not in victim_set]
            joiners = [f"j{round_no}_{i}" for i in range(scenario.churn)]

            # Interest is defined against pre-rekey holdings; snapshot the
            # sampled survivors' key state before the batch is processed.
            sampled_held = {}
            if not full_crypto and scenario.sample_receivers:
                sampled = rng.sample(
                    member_ids, min(scenario.sample_receivers, len(member_ids))
                )
                sampled_held = {
                    member_id: _held_versions_of(server, member_id)
                    for member_id in sampled
                }

            with recorder.timeit("rekey"):
                for member_id in victims:
                    server.leave(member_id)
                joined_regs = {m: server.join(m) for m in joiners}
                result = server.rekey()
            member_ids.extend(joiners)
            total_batch_cost += result.cost

            with recorder.timeit("deliver"):
                if full_crypto:
                    for member_id in victims:
                        receivers.pop(member_id, None)
                    for member_id, registration in joined_regs.items():
                        receivers[member_id] = Member(
                            member_id, registration.individual_key
                        )
                    index = result.index()
                    for member in receivers.values():
                        member.absorb(result.encrypted_keys, index=index)
                elif optimized:
                    index = result.index()
                    for held in sampled_held.values():
                        index.closure(held)
                else:
                    for held in sampled_held.values():
                        _naive_interest(result.encrypted_keys, held)
            del result

        if full_crypto:
            # Sanity: every receiver really ended on the current group key.
            dek = server.group_key()
            for member in receivers.values():
                if not member.holds(dek.key_id, dek.version):
                    raise AssertionError(
                        f"receiver {member.member_id} missed the group key"
                    )

    phases = {
        f"{name}_s": round(timer.total, 6)
        for name, timer in recorder.timers.items()
    }
    # Scenario wall-clock is the three top-level phases; other timers
    # (e.g. the server-internal "server.rekey") nest inside them and are
    # reported for breakdown only.
    total_s = sum(
        recorder.timer_total(name) for name in ("build", "rekey", "deliver")
    )
    build_s = recorder.timer_total("build")
    deliver_s = recorder.timer_total("deliver")
    deliveries = (
        len(receivers) * scenario.rounds
        if full_crypto
        else scenario.sample_receivers * scenario.rounds
    )
    ops_per_sec = {
        "joins_build": round(scenario.members / build_s, 1) if build_s else None,
        "rekeys": (
            round(scenario.rounds / recorder.timer_total("rekey"), 2)
            if recorder.timer_total("rekey")
            else None
        ),
        "deliveries": (
            round(deliveries / deliver_s, 1) if deliver_s and deliveries else None
        ),
    }
    return {
        "total_s": round(total_s, 6),
        "phases": phases,
        "ops_per_sec": ops_per_sec,
        "mean_batch_cost": (
            round(total_batch_cost / scenario.rounds, 1) if scenario.rounds else 0
        ),
        "counters": {
            name: counter.value for name, counter in recorder.counters.items()
        },
    }


def run_scenario(scenario: BenchScenario) -> Dict[str, object]:
    """Run one scenario (optimized, plus baseline when configured).

    Flat-kernel cells also run an object-kernel reference and record
    ``speedup_vs_object`` plus whether ``mean_batch_cost`` matched — the
    kernel must change wall-clock only, never the payload.  Bulk cells
    likewise run a non-bulk reference and record ``speedup_vs_flat``
    under the same cost-match gate.
    """
    optimized = _run_variant(scenario, optimized=True)
    gc.collect()
    baseline = None
    if scenario.compare_baseline:
        baseline = _run_variant(scenario, optimized=False)
        gc.collect()
    speedup = None
    if baseline is not None and optimized["total_s"]:
        speedup = round(baseline["total_s"] / optimized["total_s"], 2)

    object_ref = None
    speedup_vs_object = None
    cost_matches_object = None
    if scenario.kernel == "flat":
        # The object reference always runs without the bulk engine: for
        # bulk cells ``speedup_vs_object`` is the headline "engine + flat
        # kernel vs the original object path" number.
        reference = replace(scenario, kernel="object", bulk=False)
        object_ref = _run_variant(reference, optimized=True)
        gc.collect()
        if optimized["total_s"]:
            speedup_vs_object = round(
                object_ref["total_s"] / optimized["total_s"], 2
            )
        cost_matches_object = (
            object_ref["mean_batch_cost"] == optimized["mean_batch_cost"]
        )

    flat_ref = None
    speedup_vs_flat = None
    cost_matches_flat = None
    if scenario.bulk:
        # And the same cell with only the bulk engine off isolates what
        # the engine itself buys on top of this kernel.
        reference = replace(scenario, bulk=False)
        flat_ref = _run_variant(reference, optimized=True)
        gc.collect()
        if optimized["total_s"]:
            speedup_vs_flat = round(
                flat_ref["total_s"] / optimized["total_s"], 2
            )
        cost_matches_flat = (
            flat_ref["mean_batch_cost"] == optimized["mean_batch_cost"]
        )

    return {
        "name": scenario.name,
        "members": scenario.members,
        "mode": scenario.mode,
        "rounds": scenario.rounds,
        "churn": scenario.churn,
        "sample_receivers": scenario.sample_receivers,
        "server": scenario.server,
        "shards": scenario.shards,
        "kernel": scenario.kernel,
        "bulk": scenario.bulk,
        "optimized": optimized,
        "baseline": baseline,
        "speedup": speedup,
        "object_ref": object_ref,
        "speedup_vs_object": speedup_vs_object,
        "mean_batch_cost_matches_object": cost_matches_object,
        "flat_ref": flat_ref,
        "speedup_vs_flat": speedup_vs_flat,
        "mean_batch_cost_matches_flat": cost_matches_flat,
        "peak_rss_kb": _peak_rss_kb(),
    }


def environment_snapshot() -> Dict[str, object]:
    """Recording-environment provenance for ``repro bench --record-env``.

    ``BENCH_hotpath.json`` has been recorded on a 1-CPU container before,
    which made every parallel cell look like a regression to anyone who
    trusted the file without checking the host.  This snapshot pins the
    facts a reader needs to judge the numbers: usable CPUs (affinity-aware
    :func:`available_cpus`, not the raw core count), load at record time,
    and the interpreter/numpy versions the crypto path depends on.
    """
    snapshot: Dict[str, object] = {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": available_cpus(),
        "os_cpu_count": os.cpu_count(),
    }
    try:
        snapshot["loadavg_1m"] = round(os.getloadavg()[0], 2)
    except (AttributeError, OSError):  # pragma: no cover - non-POSIX
        snapshot["loadavg_1m"] = None
    try:
        import numpy

        snapshot["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is optional
        snapshot["numpy"] = None
    return snapshot


def profile_scenario(
    name: str,
    quick: bool = False,
    out_dir: str = "benchmarks/out",
    top: int = 25,
    reps: int = 3,
) -> str:
    """Run one named scenario under ``cProfile``; write a cumtime table.

    The optimized variant of the scenario runs ``reps`` times with the
    same profiler accumulating across every repetition, and the top
    ``top`` functions by cumulative time land in
    ``<out_dir>/profile_<name>.txt`` (the path is returned).  A single
    rep used to be profiled, which made the table a build-phase story:
    one-time tree construction dominated and steady-state rekeying noise
    (allocation churn, wrap planning) hid below the fold.  Aggregating
    all reps keeps call counts honest.  This is the tool that found the
    per-object crypto overhead the bulk engine now removes — keep it
    honest by profiling cells, not microbenchmarks.
    """
    import cProfile
    import io
    import pstats

    matrix = quick_scenarios() if quick else standard_scenarios()
    by_name = {scenario.name: scenario for scenario in matrix}
    if name not in by_name:
        raise KeyError(
            f"unknown scenario {name!r}; choose from {sorted(by_name)}"
        )
    scenario = by_name[name]
    reps = max(1, int(reps))
    profiler = cProfile.Profile()
    for _ in range(reps):
        profiler.enable()
        try:
            _run_variant(scenario, optimized=True)
        finally:
            profiler.disable()
        gc.collect()
    stream = io.StringIO()
    stream.write(f"scenario {name}: {reps} rep(s) aggregated\n")
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    out_path = Path(out_dir) / f"profile_{name}.txt"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(stream.getvalue())
    return str(out_path)


def run_bench(
    scenarios: Optional[Sequence[BenchScenario]] = None,
    out_path: Optional[str] = None,
    quick: bool = False,
    progress=None,
    workers: int = 1,
    record_env: bool = False,
) -> Dict[str, object]:
    """Run the matrix and (optionally) write ``BENCH_hotpath.json``.

    Parameters
    ----------
    scenarios:
        Explicit matrix; defaults to :func:`standard_scenarios` (or
        :func:`quick_scenarios` with ``quick=True``).
    out_path:
        Where to write the JSON report; None skips writing.
    progress:
        Optional ``callable(str)`` invoked with one line per scenario.
    workers:
        ``> 1`` fans whole scenarios out over a process pool (every
        scenario carries its own seed, so results are position-for-position
        identical; timings of co-scheduled cells do contend for cores).
    record_env:
        Embed :func:`environment_snapshot` in the report — pass this
        whenever the output is meant to be committed as a baseline.
    """
    if scenarios is None:
        scenarios = quick_scenarios() if quick else standard_scenarios()
    scenarios = list(scenarios)
    results = parallel_map(run_scenario, scenarios, workers)
    if progress is not None:
        for scenario, result in zip(scenarios, results):
            opt = result["optimized"]
            line = (
                f"{scenario.name}: {opt['total_s']:.2f}s"
                f" (build {opt['phases'].get('build_s', 0):.2f}s)"
            )
            if result["speedup"] is not None:
                line += (
                    f", baseline {result['baseline']['total_s']:.2f}s"
                    f" -> {result['speedup']:.1f}x speedup"
                )
            if result["speedup_vs_object"] is not None:
                line += (
                    f", object {result['object_ref']['total_s']:.2f}s"
                    f" -> {result['speedup_vs_object']:.1f}x vs object"
                )
            if result["speedup_vs_flat"] is not None:
                line += (
                    f", non-bulk {result['flat_ref']['total_s']:.2f}s"
                    f" -> {result['speedup_vs_flat']:.1f}x vs non-bulk"
                )
            progress(line)
    obs_overhead = measure_obs_overhead(
        iterations=20_000 if quick else 100_000
    )
    if progress is not None:
        worst_ns = max(obs_overhead["disabled_ns"].values())
        progress(
            f"obs-overhead: disabled probes worst {worst_ns:.0f} ns/call "
            f"(budget {OBS_OVERHEAD_BUDGET_NS:.0f} ns)"
        )
    warnings: List[str] = []
    if available_cpus() < 2:
        warnings.append(
            "recorded on a host with <2 usable CPUs: speedups reflect "
            "core starvation, not capacity — re-record on a multi-core "
            "box before treating this file as a baseline"
        )
    if progress is not None:
        for warning in warnings:
            progress(f"WARNING: {warning}")
    report = {
        "version": 2,
        "suite": "hotpath",
        "quick": quick,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpus": available_cpus(),
        "workers": workers,
        "warnings": warnings,
        "scenarios": results,
        "obs_overhead": obs_overhead,
        "peak_rss_kb": _peak_rss_kb(),
    }
    if record_env:
        report["env"] = environment_snapshot()
    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


#: Wall-clock slowdown (fractional) tolerated before ``--compare`` reacts.
WALL_TOLERANCE = 0.30

#: The scenario fields that define a cell's workload.  Two cells compare
#: only when every one of these matches — ``cost-only-10k`` at 3 rounds
#: (quick) is a different workload from the same name at 5 rounds
#: (standard), and silently diffing them would manufacture regressions.
WORKLOAD_KEYS = (
    "members",
    "mode",
    "rounds",
    "churn",
    "sample_receivers",
    "server",
    "shards",
    "kernel",
    "bulk",
)

#: Execution-only speedup gates: a True→False transition between a
#: baseline and the current run means an optimization layer started
#: changing the payload, which is a correctness regression regardless of
#: how fast either host is.
COST_MATCH_GATES = (
    "mean_batch_cost_matches_object",
    "mean_batch_cost_matches_flat",
)


def _hosts_comparable(current: Dict[str, object], baseline: Dict[str, object]) -> Tuple[bool, Optional[str]]:
    """Whether wall-clock deltas between the two reports mean anything."""
    if baseline.get("warnings"):
        return False, "baseline was recorded with warnings (see its warnings list)"
    if current.get("warnings"):
        return False, "current run carries recording warnings"
    if baseline.get("cpus") != current.get("cpus"):
        return False, (
            f"cpu counts differ (baseline {baseline.get('cpus')}, "
            f"current {current.get('cpus')})"
        )
    return True, None


def compare_reports(
    current: Dict[str, object],
    baseline: Dict[str, object],
    wall_tolerance: float = WALL_TOLERANCE,
) -> Dict[str, List[str]]:
    """The ``repro bench --compare`` regression gate.

    Diffs a freshly measured report against a committed baseline
    (``BENCH_hotpath.json``).  Two severities:

    * **failures** — host-independent cost metrics: a cell's optimized
      ``mean_batch_cost`` changed, or one of the execution-only
      cost-match gates flipped True→False.  These fail the gate no
      matter where either report was recorded.
    * **warnings** — wall-clock slowdowns beyond ``wall_tolerance``.
      They only *fail* when the hosts are comparable (neither report
      carries recording warnings and the CPU counts match); a baseline
      recorded on a 1-CPU container must not fail a multi-core rerun,
      per the ``--record-env`` provenance convention.

    Cells are matched by name **and** workload identity
    (:data:`WORKLOAD_KEYS`); mismatched cells are listed in ``skipped``
    rather than diffed.  Returns
    ``{"failures", "warnings", "compared", "skipped"}``.
    """
    failures: List[str] = []
    warning_lines: List[str] = []
    compared: List[str] = []
    skipped: List[str] = []

    comparable, reason = _hosts_comparable(current, baseline)
    if not comparable:
        warning_lines.append(
            f"hosts not comparable — wall-time deltas are warnings only: {reason}"
        )

    base_cells = {
        cell["name"]: cell for cell in baseline.get("scenarios", [])
    }
    current_names = set()
    for cell in current.get("scenarios", []):
        name = cell["name"]
        current_names.add(name)
        base = base_cells.get(name)
        if base is None:
            skipped.append(f"{name}: not in baseline")
            continue
        mismatched = [
            key
            for key in WORKLOAD_KEYS
            if cell.get(key) != base.get(key)
        ]
        if mismatched:
            skipped.append(
                f"{name}: workload differs from baseline "
                f"({', '.join(mismatched)})"
            )
            continue
        compared.append(name)

        cost_now = cell["optimized"]["mean_batch_cost"]
        cost_base = base["optimized"]["mean_batch_cost"]
        if cost_now != cost_base:
            failures.append(
                f"{name}: mean_batch_cost changed "
                f"({cost_base} -> {cost_now}) — the protocol is paying a "
                "different key budget for the same workload"
            )
        for gate in COST_MATCH_GATES:
            if base.get(gate) is True and cell.get(gate) is False:
                failures.append(
                    f"{name}: {gate} flipped True -> False — an "
                    "execution-only layer started changing the payload"
                )

        wall_now = cell["optimized"]["total_s"]
        wall_base = base["optimized"]["total_s"]
        if wall_base and wall_now > wall_base * (1.0 + wall_tolerance):
            slowdown = (wall_now / wall_base - 1.0) * 100.0
            line = (
                f"{name}: wall time {wall_now:.3f}s vs baseline "
                f"{wall_base:.3f}s (+{slowdown:.0f}%, tolerance "
                f"{wall_tolerance * 100:.0f}%)"
            )
            (failures if comparable else warning_lines).append(line)

    for name in base_cells:
        if name not in current_names:
            skipped.append(f"{name}: baseline-only (not measured this run)")

    return {
        "failures": failures,
        "warnings": warning_lines,
        "compared": compared,
        "skipped": skipped,
    }
