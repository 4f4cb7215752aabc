"""Tiny sizes of every workload pass their correctness checks end to end."""

import json
import os
from dataclasses import replace

import pytest

from repro.obs.chrometrace import validate_chrome_trace

from perfbench import run
from perfbench.bench import (
    Measurement,
    end_to_end,
    layer_ranking,
    measure,
    per_layer,
    timed_setup,
)
from perfbench.hostref import REFERENCE_S, SENSITIVITY
from perfbench.pipeline import CorrectnessError, EpochPipeline, EpochRecord
from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _config():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


#: Group size of each workload's tiny variant.
SMALL_MEMBERS = {"one-wkabkr-4k": 256, "one-rekey-100k": 512, "tt-fec-2k": 128}


def _small(name, epochs=6):
    spec = WORKLOADS[name]
    members = SMALL_MEMBERS[name]
    return replace(spec, members=members, churn=min(spec.churn, members // 16), epochs=epochs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_workload_passes_checks_traced(name):
    spec = _small(name)
    pipeline = EpochPipeline(spec, seed=11)
    wall_s, adjusted_s = timed_setup(pipeline)
    assert wall_s > 0 and adjusted_s > 0
    assert pipeline.epoch == spec.warmup_epochs
    measurement = measure(pipeline, seconds=0, trace=True)
    records = measurement.records
    assert len(records) == spec.epochs
    assert sum(r.traced for r in records) == spec.epochs // 2

    e2e = {m.name: m.value for m in end_to_end(measurement, 1.0, 50.0, spec.epochs)}
    assert e2e["failed_share"] == 0
    assert e2e["enc_keys_per_epoch"] > 0
    assert e2e["wire_keys_per_epoch"] >= e2e["enc_keys_per_epoch"]
    layers = {m.name: m.value for m in per_layer(measurement, spec.epochs)}
    assert {m["name"] for m in _config()["per_layer"]} <= set(layers)
    assert layers["server.rekey_ms_p50"] > 0
    assert 0 < layers["server.share"] < 1
    if spec.transport is None:
        assert layers["transport.packets_per_epoch"] == 0
        assert layers["network.multicasts_per_epoch"] == 0
    else:
        assert layers["transport.rounds_per_epoch"] >= 1
        assert 0 < layers["transport.useful_key_ratio"] <= 1
        assert 0 < layers["network.loss_ratio"] < 0.25
    if spec.scheme == "tt":
        assert layers["server.migrations_per_epoch"] > 0
    shares = dict(layer_ranking(measurement, spec.epochs))
    assert sum(shares.values()) == pytest.approx(1.0, rel=0.01)
    assert validate_chrome_trace(measurement.recorder.chrome_trace())["X"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_payload_digest_repeats_for_one_seed(name):
    digests = []
    for seed in (4, 4, 5):
        pipeline = EpochPipeline(_small(name, epochs=3), seed=seed)
        timed_setup(pipeline)
        measure(pipeline, seconds=0, trace=False)
        digests.append(pipeline.digest.hexdigest())
    assert digests[0] == digests[1] != digests[2]


def test_secrecy_check_catches_a_departed_receiver_holding_the_key():
    pipeline = EpochPipeline(_small("one-wkabkr-4k"), seed=2)
    timed_setup(pipeline)
    pipeline.run_epoch()
    leaked = pipeline.departed[0]
    dek = pipeline.server.group_key()
    leaked.install(dek)
    with pytest.raises(CorrectnessError):
        pipeline.check_keys(set())


def _record(epoch, wall_s):
    return EpochRecord(
        epoch=epoch,
        wall_s=wall_s,
        traced=False,
        changes=10,
        enc_keys=100 + epoch,
        expected_keys=100.0,
        wire_keys=200,
        payload_bytes=1000,
        migrations=0,
        receivers=50,
        interest_keys=5,
        late=0,
        failed=0,
        keys_learned=5,
    )


def _measurement(records, reference_s):
    return Measurement(records, 1.0, reference_s=[reference_s] * (len(records) + 1))


def test_metrics_cover_only_the_fixed_window():
    # Epochs past the window are far slower and cost more keys; a loop
    # that ran longer must not change any figure.
    window = [_record(e, 0.1 * e) for e in range(1, 11)]
    extra = [_record(e, 10.0 * e) for e in range(11, 31)]
    short = {m.name: m.value for m in end_to_end(_measurement(window, REFERENCE_S), 2.0, 9.0, 10)}
    long_ = {
        m.name: m.value
        for m in end_to_end(_measurement(window + extra, REFERENCE_S), 2.0, 9.0, 10)
    }
    for name in (
        "epoch_ms_p50",
        "epoch_ms_p90",
        "member_changes_per_s",
        "adj_epoch_ms_p50",
        "adj_epoch_ms_p90",
        "adj_member_changes_per_s",
        "enc_keys_per_epoch",
    ):
        assert long_[name] == short[name], name
    assert short["epoch_ms_p50"] == pytest.approx(500.0)
    assert short["epoch_ms_p90"] == pytest.approx(900.0)
    assert short["member_changes_per_s"] == pytest.approx(100 / 5.5)
    # At the nominal reference speed adjusted times are wall times.
    assert short["adj_epoch_ms_p50"] == pytest.approx(500.0)
    assert short["adj_member_changes_per_s"] == pytest.approx(100 / 5.5)


def test_adjusted_times_scale_with_the_reference_loop():
    # On a host where the reference loop runs half as fast, epochs take
    # 2 ** SENSITIVITY times as long; the adjusted figures are those of
    # the fast host.
    slowdown = 2**SENSITIVITY
    fast = [_record(e, 0.1 * e) for e in range(1, 11)]
    slow = [_record(e, 0.1 * e * slowdown) for e in range(1, 11)]
    on_fast = {m.name: m.value for m in end_to_end(_measurement(fast, REFERENCE_S), 2.0, 9.0, 10)}
    on_slow = {
        m.name: m.value for m in end_to_end(_measurement(slow, 2 * REFERENCE_S), 2.0, 9.0, 10)
    }
    assert on_slow["epoch_ms_p50"] == pytest.approx(slowdown * on_fast["epoch_ms_p50"])
    for name in ("adj_epoch_ms_p50", "adj_epoch_ms_p90", "adj_member_changes_per_s"):
        assert on_slow[name] == pytest.approx(on_fast[name]), name
    assert on_slow["host.reference_ms_p50"] == pytest.approx(2 * REFERENCE_S * 1e3)


def test_command_prints_contract_json(monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "tt-fec-2k", _small("tt-fec-2k", epochs=4))
    code = run.main(["--workload", "tt-fec-2k", "--seed", "3", "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in _config()["end_to_end"]}
    for name in ("late_receiver_share", "failed_share", "nproc=", "numpy=", "sha256", "set-up:"):
        assert name in out


def test_command_refuses_program_knobs(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BULK_CRYPTO", "1")
    with pytest.raises(SystemExit) as exit_info:
        run.main(["--workload", "tt-fec-2k", "--seed", "1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "REPRO_BULK_CRYPTO" in captured.err
    assert captured.out == ""
