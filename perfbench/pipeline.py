"""One steady-state rekey epoch of the whole pipeline, driven layer by layer.

Each epoch runs, in one thread and in this order:

1. ``server``    -- ``GroupKeyServer.rekey`` closes the batch (key tree
   marking, key generation and HMAC wrapping);
2. ``codec``     -- the payload is encoded to wire bytes once and decoded
   back, so every ciphertext is materialized inside the epoch;
3. ``index``     -- the ``WrapIndex`` over the decoded payload;
4. ``interest``  -- ``build_task``: each receiver's fixed-point interest;
5. ``transport`` -- ``Protocol.run`` over the lossy multicast channel
   (``network``: each ``MulticastChannel.multicast`` call);
6. ``members``   -- every receiver absorbs the decoded payload.

The epoch's wall time runs from the ``server.rekey`` call until the last
receiver has absorbed the payload.  Joins and departures are handed to
the server before that, as they would arrive during the rekey period.
After the epoch the pipeline checks, untimed, that every receiver holds
the new group key and that no retained departed receiver does.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.analysis.batchcost import expected_batch_cost
from repro.keytree.lkh import RekeyMessage
from repro.members.member import Member
from repro.network.channel import MulticastChannel
from repro.network.loss import BernoulliLoss
from repro.server.onetree import OneTreeServer
from repro.server.twopartition import TwoPartitionServer
from repro.transport import (
    ProactiveFecProtocol,
    TransportExhausted,
    WkaBkrProtocol,
    build_task,
    decode_rekey_message,
    encode_rekey_message,
)

from perfbench.spans import NULL_RECORDER, SpanRecorder
from perfbench.workloads import EPOCH_PERIOD_S, Joiner, WorkloadGenerator, WorkloadSpec

_clock = time.perf_counter

#: Departed receivers kept to prove they cannot read the new group key.
RETAINED_DEPARTED = 64

TREE_DEGREE = 4


class CorrectnessError(Exception):
    """A receiver's key state contradicts the group's membership."""


class BenchChannel(MulticastChannel):
    """The program's multicast channel, with a span around each multicast.

    Also counts key slots received by the reported audience (a parity
    packet occupies ``keys_per_packet`` slots), the denominator of the
    transport's useful-key ratio.
    """

    def __init__(self, seed: int, keys_per_packet: int) -> None:
        super().__init__(seed=seed)
        self.keys_per_packet = keys_per_packet
        self.recorder: Optional[SpanRecorder] = None
        self.key_receptions = 0

    def multicast(self, packet, audience=None):
        recorder = self.recorder
        if recorder is None:
            report = MulticastChannel.multicast(self, packet, audience)
        else:
            span = recorder.open("network")
            try:
                report = MulticastChannel.multicast(self, packet, audience)
            finally:
                recorder.close(span)
        slots = self.keys_per_packet if packet.is_parity else packet.key_count
        self.key_receptions += slots * len(report.delivered_to)
        return report


@dataclass
class EpochRecord:
    """What one epoch did, as counted and timed by the benchmark."""

    epoch: int
    wall_s: float
    traced: bool
    changes: int
    enc_keys: int
    expected_keys: float
    wire_keys: int
    payload_bytes: int
    migrations: int
    receivers: int
    interest_keys: int
    late: int
    failed: int
    keys_learned: int
    rounds: int = 0
    packets: int = 0
    parity_packets: int = 0
    multicasts: int = 0
    receptions: int = 0
    losses: int = 0
    key_receptions: int = 0


def make_server(spec: WorkloadSpec):
    """The workload's key server, with constructor defaults otherwise."""
    if spec.scheme == "one":
        return OneTreeServer(degree=TREE_DEGREE)
    if spec.scheme == "tt":
        return TwoPartitionServer(mode="tt", s_period=spec.s_period_s)
    raise ValueError(f"unknown scheme {spec.scheme!r}")


def make_protocol(spec: WorkloadSpec):
    """The workload's transport protocol, or None when it has none."""
    if spec.transport is None:
        return None
    if spec.transport == "wka-bkr":
        return WkaBkrProtocol(keys_per_packet=spec.keys_per_packet)
    if spec.transport == "fec":
        return ProactiveFecProtocol(
            keys_per_packet=spec.keys_per_packet, block_size=spec.block_size
        )
    raise ValueError(f"unknown transport {spec.transport!r}")


class EpochPipeline:
    """A workload's key server, receivers and channel, run epoch by epoch."""

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self.generator = WorkloadGenerator(spec, seed)
        self.server = make_server(spec)
        self.protocol = make_protocol(spec)
        self.channel = (
            BenchChannel(seed, spec.keys_per_packet) if self.protocol is not None else None
        )
        self.receivers: Dict[str, Member] = {}
        self.departed: Deque[Member] = deque(maxlen=RETAINED_DEPARTED)
        self.epoch = 0
        self.digest = hashlib.sha256()

    @property
    def now(self) -> float:
        """Simulated time of the current epoch's batch close."""
        return self.epoch * EPOCH_PERIOD_S

    # ------------------------------------------------------------------
    # membership changes (between batch closes, untimed)
    # ------------------------------------------------------------------

    def _admit(self, joiner: Joiner) -> None:
        registration = self.server.join(joiner.member_id, at_time=self.now)
        probes = self.spec.probes
        if probes is None or len(self.receivers) < probes:
            self.receivers[joiner.member_id] = Member(
                joiner.member_id, registration.individual_key
            )
            if self.channel is not None:
                self.channel.subscribe(joiner.member_id, BernoulliLoss(joiner.loss_rate))

    def _depart(self, member_id: str) -> None:
        self.server.leave(member_id, at_time=self.now)
        member = self.receivers.pop(member_id, None)
        if member is not None:
            self.departed.append(member)
            if self.channel is not None:
                self.channel.unsubscribe(member_id)

    # ------------------------------------------------------------------

    def setup_steps(self) -> List[Callable[[], object]]:
        """The set-up, as steps to run in order: bootstrap, then warm-ups.

        The bootstrap cohort is admitted by one rekey at time 0, and each
        receiver learns its keys over unicast (``GroupKeyServer.resync``),
        as over the registration channel.  The warm-up epochs run the
        pipeline without the transport, which keeps no state from one
        epoch to the next.
        """
        warm_up = partial(self.run_epoch, transport=False)
        return [self._bootstrap] + [warm_up] * self.spec.warmup_epochs

    def _bootstrap(self) -> None:
        for joiner in self.generator.bootstrap():
            self._admit(joiner)
        self.server.rekey(self.now)
        for rid, member in self.receivers.items():
            member.absorb(self.server.resync(rid))
        self.check_keys(set())

    def run_epoch(
        self, recorder: Optional[SpanRecorder] = None, transport: bool = True
    ) -> EpochRecord:
        """Apply the next epoch's changes, rekey, deliver and check.

        With ``transport=False`` the receivers absorb the payload without
        it crossing the lossy channel first.
        """
        changes = self.generator.next_epoch()
        self.epoch = changes.epoch
        for member_id in changes.departures:
            self._depart(member_id)
        for joiner in changes.joins:
            self._admit(joiner)
        group_size = self.server.size
        receivers = self.receivers
        protocol = self.protocol if transport else None
        channel = self.channel
        if channel is not None:
            counters = (
                channel.packets_sent,
                channel.receptions,
                channel.losses,
                channel.key_receptions,
            )
        outcome = None
        failed: Set[str] = set()
        keys_learned = 0

        spans = recorder if recorder is not None else NULL_RECORDER
        if recorder is not None:
            recorder.epoch = changes.epoch
        start = _clock()
        epoch_span = spans.open("epoch")
        span = spans.open("server")
        result = self.server.rekey(self.now)
        spans.close(span)
        span = spans.open("codec.encode")
        message = RekeyMessage(
            group=self.server.group,
            epoch=result.epoch,
            encrypted_keys=result.encrypted_keys,
            advanced=result.advanced,
            joined=result.joined,
            departed=result.departed,
        )
        blob = encode_rekey_message(message)
        spans.close(span)
        span = spans.open("codec.decode")
        decoded = decode_rekey_message(blob)
        spans.close(span)
        span = spans.open("index")
        index = decoded.index()
        spans.close(span)
        span = spans.open("interest")
        task = build_task(
            decoded, {rid: member.held_versions() for rid, member in receivers.items()}
        )
        spans.close(span)
        span = spans.open("transport")
        if protocol is not None:
            channel.recorder = recorder
            try:
                outcome = protocol.run(task, channel)
            except TransportExhausted as exc:
                outcome = exc.result
                failed = set(exc.pending)
            finally:
                channel.recorder = None
        spans.close(span)
        span = spans.open("members")
        keys = decoded.encrypted_keys
        for rid, member in receivers.items():
            if rid not in failed:
                keys_learned += len(member.absorb(keys, index=index))
        spans.close(span)
        spans.close(epoch_span)
        wall_s = _clock() - start

        if changes.epoch <= self.spec.warmup_epochs + self.spec.epochs:
            self.digest.update(blob)
        self.check_keys(failed)
        for rid in failed:
            # Unicast catch-up, so a failed receiver starts the next epoch
            # in sync; the failure itself is counted in ``failed_share``.
            receivers[rid].absorb(self.server.resync(rid))

        departures = len(changes.departures)
        record = EpochRecord(
            epoch=changes.epoch,
            wall_s=wall_s,
            traced=recorder is not None,
            changes=departures + len(changes.joins),
            enc_keys=result.cost,
            expected_keys=expected_batch_cost(group_size, departures, TREE_DEGREE),
            wire_keys=outcome.keys_sent if outcome is not None else result.cost,
            payload_bytes=len(blob),
            migrations=len(result.migrated),
            receivers=len(receivers),
            interest_keys=sum(len(wanted) for wanted in task.interest.values()),
            late=len(outcome.late - failed) if outcome is not None else 0,
            failed=len(failed),
            keys_learned=keys_learned,
        )
        if outcome is not None:
            record.rounds = outcome.rounds
            record.packets = outcome.packets_sent
            record.parity_packets = outcome.parity_packets
            record.multicasts = channel.packets_sent - counters[0]
            record.receptions = channel.receptions - counters[1]
            record.losses = channel.losses - counters[2]
            record.key_receptions = channel.key_receptions - counters[3]
        return record

    # ------------------------------------------------------------------

    def check_keys(self, failed: Set[str]) -> None:
        """Every receiver but ``failed`` holds the group key; no departed one does."""
        dek = self.server.group_key()
        key_id, version = dek.key_id, dek.version
        for rid, member in self.receivers.items():
            if rid not in failed and not member.holds(key_id, version):
                raise CorrectnessError(
                    f"epoch {self.epoch}: receiver {rid} lacks group key v{version}"
                )
        for member in self.departed:
            if member.holds(key_id, version):
                raise CorrectnessError(
                    f"epoch {self.epoch}: departed {member.member_id} holds group key v{version}"
                )
