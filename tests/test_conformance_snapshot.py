"""Differential conformance for snapshot/restore.

A restored server must be *behaviourally identical* to the live one it
was dumped from: same future epochs, same batch costs, same group-key
material — and it must keep satisfying every security invariant when the
second half of a scenario is replayed against it.  Members who absorbed
the live server's broadcasts must keep decrypting after the handover,
which is exactly the operational story (server failover mid-session).
"""

import json

import pytest

from repro.server.snapshot import restore_server, snapshot_server
from repro.testing import (
    SCHEME_FACTORIES,
    ConformanceHarness,
    Scenario,
    default_join_attributes,
)
from repro.testing.conformance import S_PERIOD

PREFIX = Scenario.parse(
    f"+a +b +c +d +e . -b . t+{S_PERIOD:g} +f .", name="prefix"
)
SUFFIX = Scenario.parse("+g -a . t+60 -c +h . !*", name="suffix")

SNAPSHOT_SCHEMES = [
    "one-keytree",
    "one-keytree-owf",
    "sharded",
    "qt",
    "tt",
    "loss-homogenized",
    "one-keytree-flat",
    "sharded-flat",
]


def run_prefix(spec):
    harness = ConformanceHarness(spec.factory())
    PREFIX.run(
        harness,
        attribute_filter=spec.attributes,
        join_defaults=default_join_attributes,
    )
    return harness


@pytest.mark.parametrize("name", SNAPSHOT_SCHEMES)
def test_restored_server_is_behaviourally_identical(name):
    spec = SCHEME_FACTORIES[name]
    live = run_prefix(spec)
    state = snapshot_server(live.server)
    # The dump must be pure JSON (the documented at-rest format).
    state = json.loads(json.dumps(state))
    restored_server = restore_server(state)

    # Graft the harness onto the restored server: same members, same
    # shadow, same history — only the server object is swapped.
    restored = live
    restored.server = restored_server

    SUFFIX.run(
        restored,
        attribute_filter=spec.attributes,
        join_defaults=default_join_attributes,
    )


@pytest.mark.parametrize("name", SNAPSHOT_SCHEMES)
def test_live_and_restored_emit_identical_batches(name):
    spec = SCHEME_FACTORIES[name]
    live = run_prefix(spec)
    state = snapshot_server(live.server)
    twin = restore_server(json.loads(json.dumps(state)))

    attrs = {
        k: v
        for k, v in default_join_attributes("z1").items()
        if k in spec.attributes
    }
    for server in (live.server, twin):
        server.join("z1", at_time=1000.0, **attrs)
        server.leave("d", at_time=1000.0)
    live_result = live.server.rekey(now=1000.0)
    twin_result = twin.rekey(now=1000.0)

    assert twin_result.epoch == live_result.epoch
    assert twin_result.cost == live_result.cost
    assert twin_result.breakdown == live_result.breakdown
    assert sorted(twin_result.joined) == sorted(live_result.joined)
    assert sorted(twin_result.departed) == sorted(live_result.departed)
    assert twin_result.migrated == live_result.migrated
    # Same future key material, not just same shapes.
    assert twin.group_key().secret == live.server.group_key().secret
    live_wire = {
        (ek.wrapping_id, ek.wrapping_version, ek.payload_id, ek.payload_version)
        for ek in live_result.encrypted_keys
    }
    twin_wire = {
        (ek.wrapping_id, ek.wrapping_version, ek.payload_id, ek.payload_version)
        for ek in twin_result.encrypted_keys
    }
    assert twin_wire == live_wire


#: (scheme, kernel to restore into) — dumps are kernel-neutral, so a
#: snapshot taken with one kernel must restore into the other and keep
#: emitting byte-identical payloads from the next rekey onward.
CROSS_KERNEL = [
    ("one-keytree", "flat"),
    ("one-keytree-flat", "object"),
    ("sharded", "flat"),
    ("sharded-flat", "object"),
]


def _wire(result):
    return [
        (
            ek.wrapping_id,
            ek.wrapping_version,
            ek.payload_id,
            ek.payload_version,
            ek.ciphertext,
        )
        for ek in result.encrypted_keys
    ]


@pytest.mark.parametrize("name,other_kernel", CROSS_KERNEL)
def test_cross_kernel_restore_emits_identical_payloads(name, other_kernel):
    spec = SCHEME_FACTORIES[name]
    live = run_prefix(spec)
    state = json.loads(json.dumps(snapshot_server(live.server)))
    assert state["tree_kernel"] != other_kernel
    state["tree_kernel"] = other_kernel
    twin = restore_server(state)

    # Continue churning both servers in lock step: every subsequent batch
    # must match byte for byte (order and ciphertexts included).
    for step in range(4):
        now = 1000.0 + 10.0 * step
        for server in (live.server, twin):
            server.join(f"x{step}", at_time=now)
            if step == 1:
                server.leave("c", at_time=now)
        live_result = live.server.rekey(now=now)
        twin_result = twin.rekey(now=now)
        assert twin_result.epoch == live_result.epoch
        assert _wire(twin_result) == _wire(live_result)
    assert twin.group_key().secret == live.server.group_key().secret


def test_snapshot_round_trip_preserves_resync():
    spec = SCHEME_FACTORIES["tt"]
    live = run_prefix(spec)
    twin = restore_server(json.loads(json.dumps(snapshot_server(live.server))))
    restored = live
    restored.server = twin
    restored.check_all_resyncs()
