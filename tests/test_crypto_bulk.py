"""Unit battery for the bulk crypto engine (:mod:`repro.crypto.bulk`).

The engine's whole contract is byte-identity with the per-key primitives:
bulk derivation must equal N independent :class:`KeyGenerator` draws, and
the batched-HMAC wrap planner must equal N independent :func:`wrap_key`
ciphertexts — for any batch shape, any grouping of wrapping keys, and
through every :class:`PackedWraps` access path (views, pickling,
WrapIndex consumption).
"""

import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.bulk import (
    BULK_ENV,
    PackedEncryptedKey,
    PackedWraps,
    bulk_enabled,
    derive_secret_list,
    derive_secrets,
    encrypt_wrap_rows,
)
from repro.crypto.material import KEY_SIZE, KeyGenerator, KeyMaterial
from repro.crypto.wrap import (
    EncryptedKey,
    WrapIndex,
    unwrap_key,
    wrap_key,
)


def _columns(pairs):
    return (
        [w.key_id for w, _ in pairs],
        [w.version for w, _ in pairs],
        [p.key_id for _, p in pairs],
        [p.version for _, p in pairs],
        [w.secret for w, _ in pairs],
        [p.secret for _, p in pairs],
    )


def _pack(pairs, **kwargs):
    return PackedWraps(*_columns(pairs), **kwargs)


def _make_pairs(n, distinct_wrapping, seed=3):
    """n (wrapping, payload) pairs over ``distinct_wrapping`` wrap keys."""
    keygen = KeyGenerator(seed=seed)
    wrappers = [
        keygen.generate(f"w{i}", version=i % 3)
        for i in range(max(1, distinct_wrapping))
    ]
    return [
        (wrappers[i % len(wrappers)], keygen.generate(f"p{i}", version=i % 2))
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# derivation
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    burn=st.integers(min_value=0, max_value=20),
    n=st.integers(min_value=0, max_value=64),
)
def test_bulk_derivation_equals_independent_draws(seed, burn, n):
    """derive_secret_list == n fresh_secret() calls, from any counter."""
    reference = KeyGenerator(seed=seed)
    bulk_gen = KeyGenerator(seed=seed)
    for _ in range(burn):
        reference.fresh_secret()
        bulk_gen.fresh_secret()
    derived = derive_secret_list(bulk_gen._root, bulk_gen._counter, n)
    assert derived == [reference.fresh_secret() for _ in range(n)]
    assert derive_secrets(bulk_gen._root, bulk_gen._counter, n) == b"".join(
        derived
    )


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=32),
)
def test_bulk_derivation_equals_generate_and_rekey(seed, n):
    """Via _trusted construction, generate()/rekey() chains match bulk."""
    reference = KeyGenerator(seed=seed)
    bulk_gen = KeyGenerator(seed=seed)
    keys = [reference.generate(f"k{i}") for i in range(n)]
    keys = [reference.rekey(key) for key in keys]
    secrets = derive_secret_list(bulk_gen._root, bulk_gen._counter, 2 * n)
    assert [key.secret for key in keys] == secrets[n:]
    assert all(key.version == 1 for key in keys)


def test_trusted_constructor_matches_validating_constructor():
    secret = bytes(range(32))
    fast = KeyMaterial._trusted("node/1", 4, secret)
    slow = KeyMaterial(key_id="node/1", version=4, secret=secret)
    assert fast == slow
    assert hash(fast) == hash(slow)
    assert fast.handle == ("node/1", 4)


# ----------------------------------------------------------------------
# batched-HMAC wrap engine
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,distinct",
    [(1, 1), (2, 1), (2, 2), (7, 3), (48, 5), (48, 48), (129, 16)],
    ids=["single", "pair-same-key", "pair", "odd", "grouped", "all-distinct",
         "large"],
)
def test_batched_wraps_equal_per_key_wraps(n, distinct):
    """encrypt_wrap_rows row i == wrap_key(...) ciphertext i, any grouping."""
    pairs = _make_pairs(n, distinct)
    buffer = encrypt_wrap_rows(*_columns(pairs))
    assert len(buffer) == n * EncryptedKey.SIZE_BYTES
    for i, (wrapping, payload) in enumerate(pairs):
        expected = wrap_key(wrapping, payload).ciphertext
        base = i * EncryptedKey.SIZE_BYTES
        assert buffer[base : base + EncryptedKey.SIZE_BYTES] == expected, i


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=24),
    distinct=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_batched_wraps_property(n, distinct, seed):
    pairs = _make_pairs(n, distinct, seed=seed)
    buffer = encrypt_wrap_rows(*_columns(pairs))
    size = EncryptedKey.SIZE_BYTES
    for i, (wrapping, payload) in enumerate(pairs):
        assert (
            buffer[i * size : (i + 1) * size]
            == wrap_key(wrapping, payload).ciphertext
        )


def test_explicit_group_keys_match_secret_grouping():
    # The planner may group by caller-supplied keys (the rekeyers group
    # by wrapping key id) — same bytes either way.
    pairs = _make_pairs(120, 7)
    columns = _columns(pairs)
    by_key = encrypt_wrap_rows(
        *columns, group_keys=[w.key_id for w, _ in pairs]
    )
    singletons = encrypt_wrap_rows(
        *columns, group_keys=list(range(len(pairs)))
    )
    assert encrypt_wrap_rows(*columns) == by_key == singletons


def test_empty_plan_yields_empty_buffer():
    assert encrypt_wrap_rows([], [], [], [], [], []) == b""


def test_packed_rows_unwrap_with_the_real_receiver_path():
    """A receiver can authenticate and decrypt packed rows end to end."""
    pairs = _make_pairs(9, 3)
    pack = _pack(pairs).materialize()
    for view, (wrapping, payload) in zip(pack, pairs):
        recovered = unwrap_key(wrapping, view)
        assert recovered.secret == payload.secret
        assert recovered.handle == payload.handle


# ----------------------------------------------------------------------
# PackedWraps container semantics
# ----------------------------------------------------------------------


def test_pack_is_a_sequence_of_equal_views():
    pairs = _make_pairs(11, 4)
    pack = _pack(pairs)
    reference = [wrap_key(w, p) for w, p in pairs]
    assert len(pack) == 11
    assert list(pack) == reference
    assert pack == reference
    assert pack[0] == reference[0]
    assert pack[-1] == reference[-1]
    assert pack[3:7] == reference[3:7]
    with pytest.raises(IndexError):
        pack[11]
    assert pack != reference[:-1]  # length mismatch


def test_deferred_pack_materializes_once_on_first_ciphertext():
    pairs = _make_pairs(5, 2)
    pack = _pack(pairs)
    assert pack.buffer is None
    first = pack[0].ciphertext
    assert pack.buffer is not None
    assert pack.wrapping_secrets is None and pack.payload_secrets is None
    assert first == wrap_key(*pairs[0]).ciphertext
    assert pack.materialize() is pack  # idempotent


def test_views_pickle_standalone_never_the_pack():
    pairs = _make_pairs(6, 2)
    pack = _pack(pairs)
    view = pickle.loads(pickle.dumps(pack[2]))
    assert type(view) is EncryptedKey
    assert view == wrap_key(*pairs[2])
    # A full pack round-trips by column and stays equal.
    restored = pickle.loads(pickle.dumps(pack))
    assert isinstance(restored, PackedWraps)
    assert restored == [wrap_key(w, p) for w, p in pairs]


def test_wrap_index_consumes_packs():
    pairs = _make_pairs(10, 3)
    pack = _pack(pairs)
    index = WrapIndex(pack)
    reference = WrapIndex([wrap_key(w, p) for w, p in pairs])
    assert index.size == reference.size
    wrapping_id = pairs[0][0].key_id
    assert [
        (pos, ek.payload_id) for pos, ek in index.wraps_under(wrapping_id)
    ] == [
        (pos, ek.payload_id) for pos, ek in reference.wraps_under(wrapping_id)
    ]


def test_view_hash_and_eq_match_eager_records():
    pairs = _make_pairs(3, 1)
    pack = _pack(pairs)
    eager = wrap_key(*pairs[0])
    assert isinstance(pack[0], PackedEncryptedKey)
    assert hash(pack[0]) == hash(eager)
    assert pack[0] == eager and eager == pack[0]
    assert pack[0] != wrap_key(*pairs[1])


# ----------------------------------------------------------------------
# env resolution
# ----------------------------------------------------------------------


def test_bulk_enabled_resolution(monkeypatch):
    assert bulk_enabled(True) is True
    assert bulk_enabled(False) is False
    monkeypatch.delenv(BULK_ENV, raising=False)
    assert bulk_enabled(None) is False
    for value in ("1", "true", "YES", " on "):
        monkeypatch.setenv(BULK_ENV, value)
        assert bulk_enabled(None) is True, value
    monkeypatch.setenv(BULK_ENV, "0")
    assert bulk_enabled(None) is False
    # Explicit False beats the environment.
    monkeypatch.setenv(BULK_ENV, "1")
    assert bulk_enabled(False) is False
