"""Bulk crypto engine: array-at-a-time key derivation and wrapping.

The per-key cost of a batch rekeying has three Python-object components
the paper's cost metric never sees but a million-member server pays for
on every batch: one ``hashlib`` round-trip per fresh secret, one
``hmac.new`` dispatch per wrap, and one :class:`EncryptedKey`-flavored
object per payload entry.  This module replaces all three with
operations over contiguous buffers:

* :func:`derive_secret_list` / :func:`derive_secrets` — all fresh
  secrets for a batch in one pass over a packed counter buffer,
  byte-identical to ``n`` successive
  :meth:`repro.crypto.material.KeyGenerator.fresh_secret` draws.
* :func:`encrypt_wrap_rows` — the batched-HMAC wrap engine: the epoch's
  (wrapping, payload) pairs grouped by wrapping key, keystreams from a
  per-group HMAC template (key padding absorbed once, ``.copy()`` per
  message), one vectorized XOR over the packed ``(n, 32)`` plaintext and
  keystream matrices (numpy when available, a single big-int XOR
  otherwise), ciphertext-plus-tag rows emitted into one preallocated
  ``n * 48`` output buffer.
* :class:`PackedWraps` — a columnar, pickle-cheap stand-in for a list of
  :class:`~repro.crypto.wrap.EncryptedKey` records: identity columns
  plus either the ciphertext buffer (eager) or the secret columns
  (deferred — the whole pack encrypts in one batched pass on first
  ciphertext access).

Byte-identity contract
----------------------
Every ciphertext produced here equals :func:`repro.crypto.cipher.encrypt`
over the same ``(key, nonce, plaintext)`` bit for bit — same subkey
derivation (the shared ``_subkeys`` cache), same HMAC-counter keystream,
same truncated tag.  ``tests/test_crypto_bulk.py`` pins this per
primitive, and the flat-kernel differential battery pins it end to end
(``bulk=True`` payloads must match the object kernel's golden bytes).
"""

from __future__ import annotations

import hashlib
import hmac
import os
from typing import Dict, Hashable, List, Optional, Sequence

from repro.crypto.cipher import _subkeys
from repro.crypto.material import KEY_SIZE
from repro.crypto.wrap import EncryptedKey
from repro.obs import metrics as obs_metrics

try:  # numpy is a declared dependency, but the engine degrades without it
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via _xor_blocks fallback
    _np = None

WRAP_SIZE = EncryptedKey.SIZE_BYTES
_TAG_SIZE = WRAP_SIZE - KEY_SIZE
_ZERO8 = (0).to_bytes(8, "big")  # keystream block counter (one block per key)

BULK_ENV = "REPRO_BULK_CRYPTO"
"""Environment switch: a truthy value turns the bulk fast path on for
every rekeyer constructed with ``bulk=None`` (the default), which is how
the CI ``bulk-differential`` job forces the whole battery through it."""


def bulk_enabled(flag: Optional[bool] = None) -> bool:
    """Resolve a rekeyer's ``bulk`` argument against :data:`BULK_ENV`.

    Explicit ``True``/``False`` win; ``None`` defers to the environment.
    """
    if flag is not None:
        return bool(flag)
    return os.environ.get(BULK_ENV, "").strip().lower() in (
        "1", "true", "yes", "on",
    )


# ----------------------------------------------------------------------
# vectorized key derivation
# ----------------------------------------------------------------------


def derive_secret_list(root: bytes, counter: int, n: int) -> List[bytes]:
    """The next ``n`` fresh secrets of a generator at ``counter``.

    Equals ``[KeyGenerator.fresh_secret() for _ in range(n)]`` byte for
    byte for a generator whose ``_root`` is ``root`` and whose
    ``_counter`` is ``counter`` — the caller must advance its counter by
    ``n`` afterwards.  One tight C-dispatch loop: per key, a single
    SHA-256 over the 40-byte ``root || counter`` block.
    """
    sha256 = hashlib.sha256
    to_bytes = int.to_bytes
    return [
        sha256(root + to_bytes(i, 8, "big")).digest()
        for i in range(counter + 1, counter + n + 1)
    ]


def derive_secrets(root: bytes, counter: int, n: int) -> bytes:
    """:func:`derive_secret_list` packed into one contiguous buffer.

    The result is the C-contiguous ``(n, KEY_SIZE)`` byte matrix the
    wrap engine consumes; row ``i`` is draw ``counter + 1 + i``.
    """
    return b"".join(derive_secret_list(root, counter, n))


# ----------------------------------------------------------------------
# batched HMAC wrap engine
# ----------------------------------------------------------------------


def _xor_blocks(plain: bytes, stream: bytes) -> bytes:
    """XOR two equal-length packed buffers in one vectorized operation."""
    if _np is not None:
        return (
            _np.frombuffer(plain, dtype=_np.uint8)
            ^ _np.frombuffer(stream, dtype=_np.uint8)
        ).tobytes()
    little = "little"
    return (
        int.from_bytes(plain, little) ^ int.from_bytes(stream, little)
    ).to_bytes(len(plain), little)


def wrap_nonce(
    wrapping_id: str,
    wrapping_version: int,
    payload_id: str,
    payload_version: int,
) -> bytes:
    """The deterministic wrap nonce (same format as ``wrap._nonce``)."""
    return (
        f"{wrapping_id}#{wrapping_version}->{payload_id}#{payload_version}"
    ).encode("utf-8")


def encrypt_wrap_rows(
    wrapping_ids: Sequence[str],
    wrapping_versions: Sequence[int],
    payload_ids: Sequence[str],
    payload_versions: Sequence[int],
    wrapping_secrets: Sequence[bytes],
    payload_secrets: Sequence[bytes],
    group_keys: Optional[Sequence[Hashable]] = None,
) -> bytes:
    """Encrypt ``n`` wraps into one ``n * WRAP_SIZE`` buffer.

    Row ``i`` is ``ciphertext || tag`` for wrap ``i`` — byte-identical to
    ``encrypt(wrapping_secrets[i], nonce_i, payload_secrets[i])``.  The
    planner groups rows by wrapping key so each distinct key pays its
    subkey derivation and HMAC key-padding once (``hmac`` templates are
    ``.copy()``-ed per row); the keystream/plaintext XOR runs once over
    the packed matrices.  Output row order is input order regardless of
    grouping, so callers' wire order is untouched.

    ``group_keys`` optionally supplies one hashable grouping key per row
    (e.g. the wrapping key id).  Rows sharing a key must share a wrapping
    secret; grouping by a short id is cheaper than hashing 32-byte
    secrets.  Grouping never affects output bytes — only which rows
    share an HMAC template.
    """
    n = len(wrapping_ids)
    if n == 0:
        return b""
    nonces = [
        f"{wrapping_ids[i]}#{wrapping_versions[i]}"
        f"->{payload_ids[i]}#{payload_versions[i]}".encode("utf-8")
        for i in range(n)
    ]
    by_key: Dict[Hashable, List[int]] = {}
    if group_keys is None:
        for i, secret in enumerate(wrapping_secrets):
            by_key.setdefault(secret, []).append(i)
        groups = list(by_key.items())
    else:
        for i, key in enumerate(group_keys):
            by_key.setdefault(key, []).append(i)
        groups = [
            (wrapping_secrets[rows[0]], rows) for rows in by_key.values()
        ]

    sha256 = hashlib.sha256
    keystream = bytearray(n * KEY_SIZE)
    tag_groups = []
    for secret, rows in groups:
        enc_key, mac_key = _subkeys(secret)
        ks_template = hmac.new(enc_key, b"", sha256)
        for i in rows:
            block = ks_template.copy()
            block.update(nonces[i])
            block.update(_ZERO8)
            base = i * KEY_SIZE
            keystream[base : base + KEY_SIZE] = block.digest()
        tag_groups.append((hmac.new(mac_key, b"", sha256), rows))

    ciphertexts = _xor_blocks(b"".join(payload_secrets), bytes(keystream))

    out = bytearray(n * WRAP_SIZE)
    for tag_template, rows in tag_groups:
        for i in rows:
            base = i * KEY_SIZE
            row = ciphertexts[base : base + KEY_SIZE]
            tag = tag_template.copy()
            tag.update(nonces[i])
            tag.update(row)
            slot = i * WRAP_SIZE
            out[slot : slot + KEY_SIZE] = row
            out[slot + KEY_SIZE : slot + WRAP_SIZE] = tag.digest()[:_TAG_SIZE]
    if obs_metrics.active_registry() is not None:
        obs_metrics.inc("bulk.wrap_rows", n)
    return bytes(out)


# ----------------------------------------------------------------------
# columnar wrap store
# ----------------------------------------------------------------------


class PackedEncryptedKey(EncryptedKey):
    """An :class:`EncryptedKey` view over one :class:`PackedWraps` row.

    Identity fields are copied out eagerly (cost metrics, indexing and
    interest closure read them constantly); the ciphertext resolves
    through the pack, which batch-encrypts all rows on first access.
    Views pickle as standalone eager records, never the whole pack, so a
    stray per-key pickle cannot ship the batch.
    """

    def __init__(self, pack: "PackedWraps", row: int) -> None:
        # Same frozen-dataclass bypass as LazyEncryptedKey: one dict
        # update is the entire per-view cost.
        self.__dict__.update(
            wrapping_id=pack.wrapping_ids[row],
            wrapping_version=pack.wrapping_versions[row],
            payload_id=pack.payload_ids[row],
            payload_version=pack.payload_versions[row],
            _pack=pack,
            _row=row,
        )

    @property
    def ciphertext(self) -> bytes:  # type: ignore[override]
        return self._pack.ciphertext_at(self._row)

    @property
    def materialized(self) -> bool:
        return self._pack.buffer is not None

    def __reduce__(self):
        return (
            EncryptedKey,
            (
                self.wrapping_id,
                self.wrapping_version,
                self.payload_id,
                self.payload_version,
                self.ciphertext,
            ),
        )

    # Content-based comparison across every EncryptedKey flavor, exactly
    # like LazyEncryptedKey.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncryptedKey):
            return NotImplemented
        if (
            self.wrapping_id != other.wrapping_id
            or self.wrapping_version != other.wrapping_version
            or self.payload_id != other.payload_id
            or self.payload_version != other.payload_version
        ):
            return False
        return self.ciphertext == other.ciphertext

    def __hash__(self) -> int:
        return hash(
            (
                self.wrapping_id,
                self.wrapping_version,
                self.payload_id,
                self.payload_version,
                self.ciphertext,
            )
        )


class PackedWraps:
    """``n`` wraps as identity columns plus one ciphertext buffer.

    Quacks like the ``List[EncryptedKey]`` every payload consumer
    expects (``len``/iteration/indexing yield :class:`PackedEncryptedKey`
    views) while storing no per-row objects.  Two states:

    * **deferred** — secret columns held, ``buffer`` ``None``; the first
      ciphertext read batch-encrypts every row via
      :func:`encrypt_wrap_rows` and drops the secrets.
    * **eager** — ``buffer`` holds the ``n * WRAP_SIZE`` rows (call
      :meth:`materialize` right after construction).

    Instances pickle by column (``__slots__`` state), as a few lists and
    at most one bytes blob.
    """

    __slots__ = (
        "wrapping_ids",
        "wrapping_versions",
        "payload_ids",
        "payload_versions",
        "wrapping_secrets",
        "payload_secrets",
        "buffer",
        "group_keys",
        "_views",
    )

    def __init__(
        self,
        wrapping_ids: List[str],
        wrapping_versions: List[int],
        payload_ids: List[str],
        payload_versions: List[int],
        wrapping_secrets: Optional[List[bytes]] = None,
        payload_secrets: Optional[List[bytes]] = None,
        buffer: Optional[bytes] = None,
        group_keys: Optional[List[Hashable]] = None,
    ) -> None:
        self.wrapping_ids = wrapping_ids
        self.wrapping_versions = wrapping_versions
        self.payload_ids = payload_ids
        self.payload_versions = payload_versions
        self.wrapping_secrets = wrapping_secrets
        self.payload_secrets = payload_secrets
        self.buffer = buffer
        self.group_keys = group_keys
        self._views: Optional[List[PackedEncryptedKey]] = None

    # -- sequence protocol ----------------------------------------------

    def _view_list(self) -> List["PackedEncryptedKey"]:
        # Views are created once per pack: every payload gets iterated
        # repeatedly (WrapIndex build, codec, receiver absorption), and
        # re-making tens of thousands of view objects per pass would eat
        # the engine's win back.
        views = self._views
        if views is None:
            views = self._views = [
                PackedEncryptedKey(self, row)
                for row in range(len(self.wrapping_ids))
            ]
        return views

    def __len__(self) -> int:
        return len(self.wrapping_ids)

    def __iter__(self):
        return iter(self._view_list())

    def __getitem__(self, item):
        return self._view_list()[item]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PackedWraps):
            if other is self:
                return True
        elif not isinstance(other, (list, tuple)):
            return NotImplemented
        if len(other) != len(self):
            return False
        return all(mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None  # mutable container semantics, like list

    # -- pickling (by column; never the view cache) ----------------------

    def __getstate__(self):
        return (
            self.wrapping_ids,
            self.wrapping_versions,
            self.payload_ids,
            self.payload_versions,
            self.wrapping_secrets,
            self.payload_secrets,
            self.buffer,
        )

    def __setstate__(self, state) -> None:
        (
            self.wrapping_ids,
            self.wrapping_versions,
            self.payload_ids,
            self.payload_versions,
            self.wrapping_secrets,
            self.payload_secrets,
            self.buffer,
        ) = state
        self.group_keys = None
        self._views = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "eager" if self.buffer is not None else "deferred"
        return f"<PackedWraps n={len(self)} {state}>"

    # -- ciphertext production ------------------------------------------

    def materialize(self) -> "PackedWraps":
        """Batch-encrypt every row (idempotent); returns ``self``."""
        if self.buffer is None:
            self.buffer = encrypt_wrap_rows(
                self.wrapping_ids,
                self.wrapping_versions,
                self.payload_ids,
                self.payload_versions,
                self.wrapping_secrets,
                self.payload_secrets,
                group_keys=self.group_keys,
            )
            # The secrets' job is done; free them like an eager wrap would.
            self.wrapping_secrets = None
            self.payload_secrets = None
            self.group_keys = None
        return self

    def ciphertext_at(self, row: int) -> bytes:
        """``ciphertext || tag`` of row ``row`` (materializes the pack)."""
        buffer = self.buffer
        if buffer is None:
            buffer = self.materialize().buffer
        base = row * WRAP_SIZE
        return buffer[base : base + WRAP_SIZE]
