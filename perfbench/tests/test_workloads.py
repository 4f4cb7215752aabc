"""The workload generator is deterministic per seed and holds N steady."""

from dataclasses import replace

import pytest

from perfbench.workloads import (
    HIGH_LOSS,
    LOW_LOSS,
    WORKLOADS,
    WorkloadGenerator,
)


def _trace(spec, seed, epochs):
    generator = WorkloadGenerator(spec, seed)
    cohort = generator.bootstrap()
    return cohort, [generator.next_epoch() for __ in range(epochs)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    spec = replace(WORKLOADS[name], members=min(WORKLOADS[name].members, 2048))
    assert _trace(spec, 7, 15) == _trace(spec, 7, 15)
    assert _trace(spec, 7, 15) != _trace(spec, 8, 15)


def test_uniform_churn_keeps_group_size_and_never_reuses_ids():
    spec = replace(WORKLOADS["one-wkabkr-4k"], members=500, churn=20)
    cohort, epochs = _trace(spec, 3, 30)
    current = {j.member_id for j in cohort}
    seen = set(current)
    for changes in epochs:
        assert len(changes.departures) == len(changes.joins) == 20
        assert set(changes.departures) <= current
        current -= set(changes.departures)
        joined = {j.member_id for j in changes.joins}
        assert not joined & seen
        seen |= joined
        current |= joined
        assert len(current) == 500


def test_two_point_loss_mix():
    spec = replace(WORKLOADS["one-rekey-100k"], members=20_000)
    cohort = WorkloadGenerator(spec, 1).bootstrap()
    rates = [j.loss_rate for j in cohort]
    assert set(rates) == {HIGH_LOSS, LOW_LOSS}
    assert 0.28 < rates.count(HIGH_LOSS) / len(rates) < 0.32


def test_lifetime_churn_holds_size_and_departures_are_members():
    spec = WORKLOADS["tt-fec-2k"]
    cohort, epochs = _trace(spec, 5, 120)
    current = {j.member_id for j in cohort}
    for changes in epochs:
        assert set(changes.departures) <= current
        current -= set(changes.departures)
        current |= {j.member_id for j in changes.joins}
    assert 0.85 * spec.members < len(current) < 1.15 * spec.members


def test_stationary_mix_is_mostly_long_lived():
    generator = WorkloadGenerator(WORKLOADS["tt-fec-2k"], 1)
    # 0.2 * 10800 / (0.8 * 180 + 0.2 * 10800)
    assert generator.stationary_long_share() == pytest.approx(2160 / 2304)


def test_bootstrap_once():
    generator = WorkloadGenerator(WORKLOADS["tt-fec-2k"], 1)
    with pytest.raises(RuntimeError):
        generator.next_epoch()
    generator.bootstrap()
    with pytest.raises(RuntimeError):
        generator.bootstrap()
