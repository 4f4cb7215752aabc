"""A key tree sharded into independent LKH subtrees.

:class:`ShardedKeyTree` splits the membership across ``shards``
independent :class:`~repro.keytree.tree.KeyTree` subtrees, so a batch of
J joins / L departures decomposes into per-shard mark/generate/wrap jobs,
run in ascending shard order, plus an O(shards) group-key stitch the
owning server performs over the shard roots (the same "sub-trees under
the root key" composition the paper uses for its two-partition and
loss-homogenized schemes).

Determinism contract
--------------------
The number of shards is a *protocol parameter*, like the tree degree: it
fixes which subtree each member lives in (``sha256(member_id) % shards``
— never Python's salted ``hash``) and therefore the logical structure and
cost of every batch.  Each shard draws keys from a private stream derived
from the server generator and the shard id, so a shard's key sequence
depends only on the seed, the shard id and the operations that shard
has seen.

With ``shards=1`` the sharded tree degenerates to exactly the unsharded
one-keytree structure (no stitch, identical per-batch costs), which the
shard-determinism tests pin against :class:`~repro.server.onetree.OneTreeServer`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.material import KeyGenerator, KeyMaterial
from repro.crypto.wrap import EncryptedKey
from repro.keytree.serialize import (
    TREE_KERNELS,
    make_kernel_rekeyer,
    make_kernel_tree,
    tree_with_stream_from_dict,
    tree_with_stream_to_dict,
)


def shard_of(member_id: str, shards: int) -> int:
    """Stable member-to-shard placement: ``sha256(member_id) % shards``.

    Independent of ``PYTHONHASHSEED``, process, platform and insertion
    order — the placement is part of the protocol state.
    """
    digest = hashlib.sha256(member_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


@dataclass
class ShardFragment:
    """One shard's slice of the batch payload."""

    shard: int
    encrypted_keys: List[EncryptedKey]
    advanced: List[tuple]
    root_key: KeyMaterial
    #: Wall-clock seconds the shard job took (feeds the per-shard spans
    #: and imbalance report).
    wall_s: float


@dataclass
class ShardedBatchOutcome:
    """The merged result of one sharded batch rekeying."""

    fragments: List[ShardFragment] = field(default_factory=list)
    #: Shards the batch touched, ascending.
    touched: List[int] = field(default_factory=list)


class ShardedKeyTree:
    """``shards`` independent LKH subtrees behind one membership map.

    Parameters
    ----------
    shards:
        Number of independent subtrees (protocol parameter; see the
        module docstring).
    degree:
        Degree of every shard subtree.
    keygen:
        The server's generator; each shard's private stream is derived
        from it (:meth:`~repro.crypto.material.KeyGenerator.derive_stream`)
        so shard key sequences depend only on the seed and the shard id.
    kernel:
        Per-shard tree kernel (``"object"`` or ``"flat"``).  An execution
        parameter only: both kernels emit byte-identical payloads, so
        ``mean_batch_cost`` must not move.
    """

    def __init__(
        self,
        shards: int = 16,
        degree: int = 4,
        keygen: Optional[KeyGenerator] = None,
        name: str = "group",
        kernel: str = "object",
        bulk: Optional[bool] = None,
    ) -> None:
        if shards < 1:
            raise ValueError("shard count must be at least 1")
        if kernel not in TREE_KERNELS:
            raise ValueError(f"kernel must be one of {TREE_KERNELS}, got {kernel!r}")
        self.shards = shards
        self.degree = degree
        self.name = name
        self.kernel = kernel
        self.bulk = bulk
        keygen = keygen if keygen is not None else KeyGenerator()
        self._trees = [
            make_kernel_tree(
                kernel,
                degree=degree,
                keygen=keygen.derive_stream(f"shard{shard}"),
                name=f"{name}/shard{shard}",
            )
            for shard in range(shards)
        ]
        self._rekeyers = [
            make_kernel_rekeyer(tree, bulk=bulk) for tree in self._trees
        ]
        self._assignment: Dict[str, int] = {}
        self._sizes: Dict[int, int] = {shard: 0 for shard in range(shards)}

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._assignment)

    def __contains__(self, member_id: str) -> bool:
        return member_id in self._assignment

    def members(self) -> List[str]:
        return list(self._assignment)

    def shard_holding(self, member_id: str) -> int:
        """The shard ``member_id`` currently lives in."""
        try:
            return self._assignment[member_id]
        except KeyError:
            raise KeyError(
                f"member {member_id!r} is not in sharded tree {self.name!r}"
            ) from None

    def shard_sizes(self) -> Dict[int, int]:
        """Members per shard (zeros included)."""
        return dict(self._sizes)

    def populated_shards(self) -> List[int]:
        return [shard for shard, size in sorted(self._sizes.items()) if size > 0]

    # ------------------------------------------------------------------
    # batch processing
    # ------------------------------------------------------------------

    def apply_batch(
        self,
        joins: Sequence[Tuple[str, KeyMaterial]] = (),
        departures: Sequence[str] = (),
        join_refresh: str = "random",
    ) -> ShardedBatchOutcome:
        """Decompose the batch into per-shard jobs and run them.

        Shards run, and their fragments come back, in ascending shard
        order, keeping the merged payload deterministic.
        """
        per_shard_joins: Dict[int, List[Tuple[str, KeyMaterial]]] = {}
        per_shard_leaves: Dict[int, List[str]] = {}
        for member_id, key in joins:
            shard = shard_of(member_id, self.shards)
            self._assignment[member_id] = shard
            self._sizes[shard] += 1
            per_shard_joins.setdefault(shard, []).append((member_id, key))
        for member_id in departures:
            shard = self._assignment.pop(member_id)
            self._sizes[shard] -= 1
            per_shard_leaves.setdefault(shard, []).append(member_id)

        touched = sorted(set(per_shard_joins) | set(per_shard_leaves))
        fragments = []
        for shard in touched:
            start = time.perf_counter()
            message = self._rekeyers[shard].rekey_batch(
                joins=per_shard_joins.get(shard, ()),
                departures=per_shard_leaves.get(shard, ()),
                join_refresh=join_refresh,
            )
            fragments.append(
                ShardFragment(
                    shard=shard,
                    encrypted_keys=message.encrypted_keys,
                    advanced=list(message.advanced),
                    root_key=self._trees[shard].root.key,
                    wall_s=time.perf_counter() - start,
                )
            )
        return ShardedBatchOutcome(fragments=fragments, touched=touched)

    # ------------------------------------------------------------------
    # key queries
    # ------------------------------------------------------------------

    def root_key(self, shard: int) -> KeyMaterial:
        """The current root (sub-group) key of ``shard``."""
        return self._trees[shard].root.key

    def member_path_keys(self, member_id: str) -> List[KeyMaterial]:
        """Keys ``member_id`` holds inside its shard (leaf excluded,
        shard root included) — the resync payload minus the group DEK."""
        tree = self._trees[self.shard_holding(member_id)]
        return [node.key for node in tree.path_of(member_id)[1:]]

    def local_trees(self):
        """(shard -> KeyTree) for structural checks."""
        return dict(enumerate(self._trees))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def dump_shards(self) -> Dict[int, dict]:
        """Per-shard dumps (tree + attachment heaps + stream state)."""
        return {
            shard: tree_with_stream_to_dict(
                tree, epoch=self._rekeyers[shard]._next_epoch
            )
            for shard, tree in enumerate(self._trees)
        }

    def load_shards(self, dumps: Dict[int, dict]) -> None:
        """Restore shard state from :meth:`dump_shards` output."""
        self._sizes = {shard: 0 for shard in range(self.shards)}
        self._assignment = {}
        for shard, data in dumps.items():
            shard = int(shard)
            tree, epoch = tree_with_stream_from_dict(data, kernel=self.kernel)
            rekeyer = make_kernel_rekeyer(tree, bulk=self.bulk)
            rekeyer._next_epoch = epoch
            self._trees[shard] = tree
            self._rekeyers[shard] = rekeyer
            for entry in _iter_member_ids(data["tree"]["root"]):
                self._assignment[entry] = shard
                self._sizes[shard] += 1


def _iter_member_ids(node_data: dict):
    """Member ids in a serialized tree dump (depth-first)."""
    if "member" in node_data and node_data["member"] is not None:
        yield node_data["member"]
    for child in node_data.get("children", ()):
        yield from _iter_member_ids(child)
