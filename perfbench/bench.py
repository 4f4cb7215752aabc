"""Measure a workload's steady-state rekey epochs and derive the metrics.

``measure`` runs the timed epochs of one set-up pipeline in a closed loop
-- each epoch starts when the previous one has finished -- until both
``seconds`` have passed and the workload's epoch window is complete.
The metrics are taken over that window -- the first ``spec.epochs`` timed
epochs -- only: per-epoch cost drifts on some workloads (the heap and the
garbage collector's pauses grow), so a loop that ran longer would time
other epochs, and two program versions would not be compared on the same
work.  Before the first epoch and after each one the loop times the
benchmark's reference loop (``perfbench.hostref``), so the end-to-end
timings are reported both as wall times and adjusted to the host's
speed at the time.

Untraced runs give the end-to-end metrics.  A traced run alternates
traced and untraced epochs: the traced ones record a span around every
layer call (and CPython garbage collections as the ``runtime`` layer)
under the program's own ``repro.obs.observe()``, and the untraced ones
give the baseline for the tracing overhead.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import observe

from perfbench.hostref import REFERENCE_S, adjust_scales, time_reference
from perfbench.pipeline import EpochPipeline, EpochRecord
from perfbench.spans import SpanRecorder
from perfbench.stats import percentile, ratio, samples_beyond

_clock = time.perf_counter

#: Hard stop for the timed loop, so one run ends well inside three minutes
#: even on a host much slower than the one the epoch windows were sized on.
MAX_LOOP_S = 120.0

#: Span names that are layers of the pipeline, as reported.
LAYERS = (
    "server",
    "codec.encode",
    "codec.decode",
    "index",
    "interest",
    "transport",
    "network",
    "members",
    "runtime",
)


class RuntimeProbe:
    """``gc.callbacks`` hook: garbage-collection pauses as ``runtime`` spans.

    Totals the pauses of the collections in each epoch, counts
    generation-2 collections per epoch and, right after each one (when the
    heap holds only live objects), samples the number of objects the
    collector tracks.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.traced = False
        self.epoch_index = 0
        self.pause_by_epoch: Counter = Counter()
        self.gen2_by_epoch: Counter = Counter()
        self.heap_samples: List[Tuple[int, int]] = []
        self._start = 0.0

    def __call__(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._start = _clock()
            return
        end = _clock()
        self.pause_by_epoch[self.epoch_index] += end - self._start
        inside = self.traced and self.recorder.inside()
        if inside:
            self.recorder.add("runtime", self._start, end)
        if info.get("generation") == 2:
            self.gen2_by_epoch[self.epoch_index] += 1
            self.heap_samples.append((self.epoch_index, len(gc.get_objects())))
            if inside:
                self.recorder.add("trace.heapcount", end, _clock())


@dataclass
class Measurement:
    """Everything one timed loop produced."""

    records: List[EpochRecord]
    loop_s: float
    #: reference-loop timings (seconds): one before the first epoch and
    #: one after each, see ``perfbench.hostref``
    reference_s: List[float] = field(default_factory=list)
    recorder: Optional[SpanRecorder] = None
    probe: Optional[RuntimeProbe] = None
    #: program-side span totals (seconds) from ``repro.obs.observe()``
    obs_totals: Dict[str, float] = field(default_factory=dict)
    heap_start: int = 0
    heap_end: int = 0


def timed_setup(pipeline: EpochPipeline) -> Tuple[float, float]:
    """Set ``pipeline`` up; returns its wall and host-adjusted seconds.

    The reference loop is timed before the first set-up step and after
    each, and each step's wall time is adjusted like an epoch's.
    """
    reference_s = [time_reference()]
    walls = []
    for step in pipeline.setup_steps():
        start = _clock()
        step()
        walls.append(_clock() - start)
        reference_s.append(time_reference())
    adjusted = sum(wall * scale for wall, scale in zip(walls, adjust_scales(reference_s)))
    return sum(walls), adjusted


def measure(
    pipeline: EpochPipeline,
    seconds: float,
    trace: bool,
) -> Measurement:
    """Run timed epochs until ``seconds`` passed and the window is complete."""
    window = pipeline.spec.epochs
    records: List[EpochRecord] = []
    recorder = SpanRecorder() if trace else None
    probe = RuntimeProbe(recorder) if recorder is not None else None
    obs_totals = {"rekey": 0.0, "transport.round": 0.0}
    heap_start = len(gc.get_objects()) if trace else 0
    if probe is not None:
        gc.callbacks.append(probe)
    reference_s = [time_reference()]
    start = _clock()
    try:
        while len(records) < window or _clock() - start < seconds:
            if _clock() - start > MAX_LOOP_S:
                break
            traced = trace and len(records) % 2 == 1
            if probe is not None:
                probe.traced = traced
                probe.epoch_index = len(records)
            if traced:
                with observe() as bundle:
                    record = pipeline.run_epoch(recorder)
                for span in bundle.tracer.spans:
                    if span.name in obs_totals:
                        obs_totals[span.name] += span.duration_s
            else:
                record = pipeline.run_epoch()
            records.append(record)
            reference_s.append(time_reference())
    finally:
        if probe is not None:
            gc.callbacks.remove(probe)
    loop_s = _clock() - start
    return Measurement(
        records=records,
        loop_s=loop_s,
        reference_s=reference_s,
        recorder=recorder,
        probe=probe,
        obs_totals=obs_totals,
        heap_start=heap_start,
        heap_end=len(gc.get_objects()) if trace else 0,
    )


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """One reported figure."""

    name: str
    value: float
    unit: str
    note: str = ""


def _sum(records: List[EpochRecord], attribute: str) -> float:
    return sum(getattr(record, attribute) for record in records)


def end_to_end(
    measurement: Measurement, setup_s: float, peak_rss_mb: float, window: int
) -> List[Metric]:
    """The user-visible metrics, over the first ``window`` epochs.

    Times come from the window's untraced epochs only, as wall times and
    as host-adjusted times (``perfbench.hostref``).
    """
    records = measurement.records
    counted = records[:window]
    scales = adjust_scales(measurement.reference_s)[:window]
    timed = [(r, scale) for r, scale in zip(counted, scales) if not r.traced]
    walls_ms = [r.wall_s * 1e3 for r, __ in timed]
    adjusted_ms = [r.wall_s * 1e3 * scale for r, scale in timed]
    changes = sum(r.changes for r, __ in timed)
    n = len(walls_ms)
    beyond = f"n={n}, {samples_beyond(n, 90)} beyond"
    receivers = _sum(records, "receivers")
    reference_ms = [s * 1e3 for s in measurement.reference_s[: window + 1]]
    return [
        Metric("epoch_ms_p50", percentile(walls_ms, 50), "ms", f"n={n}, wall time"),
        Metric("epoch_ms_p90", percentile(walls_ms, 90), "ms", f"{beyond}, wall time"),
        Metric(
            "member_changes_per_s",
            ratio(changes, sum(walls_ms) / 1e3),
            "1/s",
            f"n={n}, wall time",
        ),
        Metric("adj_epoch_ms_p50", percentile(adjusted_ms, 50), "ms", f"n={n}, host-adjusted"),
        Metric("adj_epoch_ms_p90", percentile(adjusted_ms, 90), "ms", f"{beyond}, host-adjusted"),
        Metric(
            "adj_member_changes_per_s",
            ratio(changes, sum(adjusted_ms) / 1e3),
            "1/s",
            f"n={n}, host-adjusted",
        ),
        Metric(
            "host.reference_ms_p50",
            percentile(reference_ms, 50),
            "ms",
            f"n={len(reference_ms)}, reference loop; adjusted times assume "
            f"{REFERENCE_S * 1e3:g} ms",
        ),
        Metric("setup_s", setup_s, "s"),
        Metric("peak_rss_mb", peak_rss_mb, "MB"),
        Metric(
            "enc_keys_per_epoch",
            _sum(counted, "enc_keys") / len(counted),
            "keys",
            f"first {len(counted)} epochs",
        ),
        Metric(
            "wire_keys_per_epoch",
            _sum(counted, "wire_keys") / len(counted),
            "keys",
            f"first {len(counted)} epochs",
        ),
        Metric(
            "late_receiver_share",
            ratio(_sum(counted, "late"), _sum(counted, "receivers")),
            "ratio",
            f"first {len(counted)} epochs",
        ),
        Metric(
            "failed_share",
            ratio(_sum(records, "failed"), receivers),
            "ratio",
            f"{int(receivers)} receiver-epochs",
        ),
    ]


def per_layer(measurement: Measurement, window: int) -> List[Metric]:
    """The per-layer metrics of a traced run, over the first ``window`` epochs."""
    recorder = measurement.recorder
    probe = measurement.probe
    if recorder is None or probe is None:
        raise ValueError("per-layer metrics need a traced measurement")
    counted = measurement.records[:window]
    traced = [r for r in counted if r.traced]
    untraced = [r for r in counted if not r.traced]
    epochs = [r.epoch for r in traced]
    self_s = recorder.self_times()

    def layer_ms(*names: str) -> List[float]:
        return [sum(self_s.get((e, name), 0.0) for name in names) * 1e3 for e in epochs]

    wall_total = _sum(traced, "wall_s")

    def share(*names: str) -> float:
        return ratio(sum(layer_ms(*names)) / 1e3, wall_total)

    def p50(*names: str) -> float:
        return percentile(layer_ms(*names), 50)

    traced_p50 = percentile([r.wall_s for r in traced], 50)
    untraced_p50 = percentile([r.wall_s for r in untraced], 50)
    layer_sum_p50 = percentile(layer_ms(*LAYERS), 50) / 1e3
    server_total = sum(recorder.totals("server").values())
    transport_total = sum(recorder.totals("transport").values())
    heap = [sample for sample in probe.heap_samples if sample[0] < window]
    if len(heap) >= 2 and heap[-1][0] > heap[0][0]:
        heap_growth = (heap[-1][1] - heap[0][1]) / (heap[-1][0] - heap[0][0])
        heap_note = f"{len(heap)} post-gen2 samples"
    else:
        heap_growth = (measurement.heap_end - measurement.heap_start) / len(
            measurement.records
        )
        heap_note = "loop start/end counts"
    nt = f"n={len(traced)} traced"
    nc = f"first {len(counted)} epochs"
    return [
        Metric("server.rekey_ms_p50", p50("server"), "ms", nt),
        Metric("server.share", share("server"), "ratio", nt),
        Metric(
            "server.ne_ratio",
            ratio(_sum(counted, "enc_keys"), _sum(counted, "expected_keys")),
            "ratio",
            f"{nc}, vs expected_batch_cost(N, L, 4)",
        ),
        Metric(
            "server.migrations_per_epoch",
            _sum(counted, "migrations") / len(counted),
            "count",
            nc,
        ),
        Metric("codec.encode_ms_p50", p50("codec.encode"), "ms", nt),
        Metric("codec.decode_ms_p50", p50("codec.decode"), "ms", nt),
        Metric(
            "codec.payload_bytes_per_epoch",
            _sum(counted, "payload_bytes") / len(counted),
            "bytes",
            nc,
        ),
        Metric("index.build_ms_p50", p50("index"), "ms", nt),
        Metric("interest.build_ms_p50", p50("interest"), "ms", nt),
        Metric("interest.share", share("interest"), "ratio", nt),
        Metric(
            "interest.keys_per_receiver",
            ratio(_sum(counted, "interest_keys"), _sum(counted, "receivers")),
            "keys",
            nc,
        ),
        Metric("transport.self_ms_p50", p50("transport"), "ms", nt),
        Metric("transport.share", share("transport"), "ratio", nt),
        Metric(
            "transport.rounds_per_epoch", _sum(counted, "rounds") / len(counted), "count", nc
        ),
        Metric(
            "transport.packets_per_epoch", _sum(counted, "packets") / len(counted), "count", nc
        ),
        Metric(
            "transport.parity_packets_per_epoch",
            _sum(counted, "parity_packets") / len(counted),
            "count",
            nc,
        ),
        Metric(
            "transport.useful_key_ratio",
            ratio(_sum(counted, "interest_keys"), _sum(counted, "key_receptions")),
            "ratio",
            f"{nc}, wanted keys / key slots received",
        ),
        Metric("network.multicast_ms_p50", p50("network"), "ms", nt),
        Metric(
            "network.multicasts_per_epoch",
            _sum(counted, "multicasts") / len(counted),
            "count",
            nc,
        ),
        Metric(
            "network.receptions_per_epoch",
            _sum(counted, "receptions") / len(counted),
            "count",
            nc,
        ),
        Metric(
            "network.loss_ratio",
            ratio(_sum(counted, "losses"), _sum(counted, "losses") + _sum(counted, "receptions")),
            "ratio",
            nc,
        ),
        Metric("members.absorb_ms_p50", p50("members"), "ms", nt),
        Metric("members.share", share("members"), "ratio", nt),
        Metric(
            "members.absorb_us_per_receiver",
            ratio(sum(layer_ms("members")) * 1e3, _sum(traced, "receivers")),
            "us",
            nt,
        ),
        Metric(
            "members.keys_learned_per_epoch",
            _sum(counted, "keys_learned") / len(counted),
            "keys",
            nc,
        ),
        Metric(
            "runtime.gc_pause_ms_per_epoch",
            sum(s for index, s in probe.pause_by_epoch.items() if index < window)
            * 1e3
            / len(counted),
            "ms",
            f"{nc}, traced and untraced",
        ),
        Metric(
            "runtime.gc_gen2_collections",
            sum(count for index, count in probe.gen2_by_epoch.items() if index < window),
            "count",
            nc,
        ),
        Metric("runtime.heap_objects_growth_per_epoch", heap_growth, "count", heap_note),
        Metric(
            "trace.overhead_ratio",
            ratio(traced_p50, untraced_p50),
            "ratio",
            f"traced p50 / untraced p50, n={len(traced)}+{len(untraced)}",
        ),
        Metric(
            "trace.layer_sum_ratio",
            ratio(layer_sum_p50, untraced_p50),
            "ratio",
            "p50 of traced layer self-time sums / untraced p50",
        ),
        Metric(
            "obs.rekey_span_ratio",
            ratio(measurement.obs_totals["rekey"], server_total),
            "ratio",
            "program 'rekey' spans / benchmark 'server' spans",
        ),
        Metric(
            "obs.transport_span_ratio",
            ratio(measurement.obs_totals["transport.round"], transport_total),
            "ratio",
            "program 'transport.round' spans / benchmark 'transport' spans",
        ),
    ]


def layer_ranking(measurement: Measurement, window: int) -> List[Tuple[str, float]]:
    """Layers by share of traced epoch time in the window, largest first."""
    recorder = measurement.recorder
    if recorder is None:
        return []
    records = [r for r in measurement.records[:window] if r.traced]
    traced = {r.epoch for r in records}
    wall = _sum(records, "wall_s")
    totals: Counter = Counter()
    for (epoch, name), seconds in recorder.self_times().items():
        if epoch in traced:
            totals["loop" if name == "epoch" else name] += seconds
    return [(name, ratio(seconds, wall)) for name, seconds in totals.most_common()]
