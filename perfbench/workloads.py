"""Seeded workload generator for the steady-state rekey-epoch benchmark.

A workload is a group of receivers and the membership changes each rekey
epoch applies to it.  This module makes every input the key server and
the receivers see -- member ids, per-member loss rates, and the per-epoch
join and departure lists -- from one seed, with no reference to the
program under test, so the same seed always yields the same inputs.

Two churn models exist:

``uniform``
    A constant-size group: every epoch, ``churn`` members chosen uniformly
    at random depart and ``churn`` fresh members join (the premise of the
    paper's ``Ne(N, L)``).
``lifetime``
    The paper's two-class exponential membership durations: Poisson
    joins at the rate that holds the group size steady, each joiner
    short-lived with probability ``short_share``.  The bootstrap cohort is
    drawn from the stationary class mix, whose residual lifetimes are
    exponential with the class means (memorylessness).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Simulated seconds between two rekey epochs (``Tp``).
EPOCH_PERIOD_S = 60.0

#: Two-point loss: this share of receivers loses ``HIGH_LOSS`` of packets,
#: the rest lose ``LOW_LOSS``.
HIGH_LOSS_SHARE = 0.3
HIGH_LOSS = 0.20
LOW_LOSS = 0.02


@dataclass(frozen=True)
class WorkloadSpec:
    """The parameters of one benchmark workload."""

    name: str
    why: str
    scheme: str  # "one" (OneTreeServer) or "tt" (TwoPartitionServer)
    members: int
    churn_model: str  # "uniform" or "lifetime"
    #: uniform model: departures (and joins) per epoch
    churn: int = 0
    #: lifetime model: class means in seconds and the short-lived share
    short_mean_s: float = 180.0
    long_mean_s: float = 10_800.0
    short_share: float = 0.8
    #: "wka-bkr", "fec" or None (no transport; probes absorb directly)
    transport: Optional[str] = None
    keys_per_packet: int = 16
    block_size: int = 8
    #: real receivers: None means every member, else a replenished probe set
    probes: Optional[int] = None
    #: TwoPartitionServer S-period
    s_period_s: float = 600.0
    #: untimed epochs run after bootstrap, part of set-up
    warmup_epochs: int = 2
    #: the window: every metric is taken over the first this many timed
    #: epochs of a run, and the counts and the payload digest repeat for
    #: one seed.  60 keeps a run of a one-tree workload near 30 s, so that
    #: all of the benchmark's runs fit their time budget; p90 then has six
    #: samples beyond it.
    epochs: int = 60


WORKLOADS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="one-wkabkr-4k",
            why=(
                "delivery-heavy: OneTreeServer(degree=4), 4,096 real receivers, 64 "
                "leaves + 64 joins per epoch, WkaBkrProtocol(keys_per_packet=16); "
                "unwrap, transport and interest do the work"
            ),
            scheme="one",
            members=4096,
            churn_model="uniform",
            churn=64,
            transport="wka-bkr",
        ),
        WorkloadSpec(
            name="one-rekey-100k",
            why=(
                "server-heavy: OneTreeServer(degree=4), 100,000 members, 512 leaves + "
                "512 joins per epoch, no transport, 64 probe receivers; tree marking, "
                "keygen, wrapping, codec and GC do the work"
            ),
            scheme="one",
            members=100_000,
            churn_model="uniform",
            churn=512,
            transport=None,
            probes=64,
            warmup_epochs=1,
            # Its p90 falls among the epochs with a full collection, about
            # one in six, so it needs more epochs beyond p90 to hold still.
            epochs=80,
        ),
        WorkloadSpec(
            name="tt-fec-2k",
            why=(
                "the paper's scheme: TwoPartitionServer(tt, s_period=600), ~2,048 "
                "receivers, two-class lifetimes (180 s / 10,800 s, 80% short), "
                "ProactiveFecProtocol(16, block 8); migrations + FEC parity"
            ),
            scheme="tt",
            members=2048,
            churn_model="lifetime",
            transport="fec",
            warmup_epochs=10,
            # Its epochs are the cheapest, so a window that leaves ten
            # samples beyond p90 still ends near 35 s.
            epochs=100,
        ),
    )
}


@dataclass(frozen=True)
class Joiner:
    """One joining member: its id and its packet loss rate."""

    member_id: str
    loss_rate: float


@dataclass(frozen=True)
class EpochChanges:
    """The membership changes batched into one rekey epoch."""

    epoch: int
    joins: Tuple[Joiner, ...]
    departures: Tuple[str, ...]


class WorkloadGenerator:
    """Deterministic source of a workload's inputs for one seed.

    ``bootstrap()`` returns the initial cohort; each ``next_epoch()`` call
    returns the next epoch's changes.  The sequence depends only on the
    spec and the seed.
    """

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self._rng = random.Random(f"perfbench/{spec.name}/{seed}")
        self._next_id = 0
        self._epoch = 0
        self._bootstrapped = False
        # uniform model: current ids, swap-remove positions
        self._ids: List[str] = []
        # lifetime model: (departure time, id) heap
        self._departures: List[Tuple[float, str]] = []
        self._next_arrival = 0.0
        mean_life = (
            spec.short_share * spec.short_mean_s
            + (1.0 - spec.short_share) * spec.long_mean_s
        )
        self.arrival_rate = spec.members / mean_life

    # ------------------------------------------------------------------

    def _new_joiner(self) -> Joiner:
        self._next_id += 1
        member_id = f"m{self._next_id:07d}"
        high = self._rng.random() < HIGH_LOSS_SHARE
        return Joiner(member_id, HIGH_LOSS if high else LOW_LOSS)

    def _lifetime(self, short: bool) -> float:
        spec = self.spec
        return self._rng.expovariate(1.0 / (spec.short_mean_s if short else spec.long_mean_s))

    def stationary_long_share(self) -> float:
        """Share of long-lived members in the steady-state population."""
        spec = self.spec
        short = spec.short_share * spec.short_mean_s
        long_ = (1.0 - spec.short_share) * spec.long_mean_s
        return long_ / (short + long_)

    def bootstrap(self) -> Tuple[Joiner, ...]:
        """The initial cohort, admitted by the first rekey at time 0."""
        if self._bootstrapped:
            raise RuntimeError("bootstrap() may be called once")
        self._bootstrapped = True
        cohort = tuple(self._new_joiner() for __ in range(self.spec.members))
        if self.spec.churn_model == "uniform":
            self._ids = [j.member_id for j in cohort]
        else:
            long_share = self.stationary_long_share()
            for joiner in cohort:
                short = self._rng.random() >= long_share
                heapq.heappush(self._departures, (self._lifetime(short), joiner.member_id))
            self._next_arrival = self._rng.expovariate(self.arrival_rate)
        return cohort

    def next_epoch(self) -> EpochChanges:
        """The changes batched at the end of the next rekey period."""
        if not self._bootstrapped:
            raise RuntimeError("call bootstrap() first")
        self._epoch += 1
        if self.spec.churn_model == "uniform":
            return self._uniform_epoch()
        return self._lifetime_epoch()

    def _uniform_epoch(self) -> EpochChanges:
        ids = self._ids
        picks = sorted(self._rng.sample(range(len(ids)), self.spec.churn), reverse=True)
        departures = []
        for position in picks:
            departures.append(ids[position])
            ids[position] = ids[-1]
            ids.pop()
        joins = tuple(self._new_joiner() for __ in range(self.spec.churn))
        ids.extend(j.member_id for j in joins)
        return EpochChanges(self._epoch, joins, tuple(departures))

    def _lifetime_epoch(self) -> EpochChanges:
        spec = self.spec
        end = self._epoch * EPOCH_PERIOD_S
        joins: List[Joiner] = []
        while self._next_arrival <= end:
            joiner = self._new_joiner()
            short = self._rng.random() < spec.short_share
            leaves_at = self._next_arrival + self._lifetime(short)
            self._next_arrival += self._rng.expovariate(self.arrival_rate)
            if leaves_at <= end:
                # Joined and left inside one period: the key server never
                # admits it, so it is no input of the batch.
                continue
            joins.append(joiner)
            heapq.heappush(self._departures, (leaves_at, joiner.member_id))
        departures: List[str] = []
        while self._departures and self._departures[0][0] <= end:
            departures.append(heapq.heappop(self._departures)[1])
        return EpochChanges(self._epoch, tuple(joins), tuple(departures))
