"""ShardedKeyTree structure: placement, sizes, dumps, determinism."""

import pytest

from repro.crypto.material import KeyGenerator
from repro.keytree.sharded import ShardedKeyTree, shard_of


def make_tree(shards=4, seed=7):
    return ShardedKeyTree(shards=shards, degree=4, keygen=KeyGenerator(seed=seed))


def join_batch(tree, member_ids, keygen):
    joins = [(m, keygen.generate(f"member:{m}")) for m in member_ids]
    return tree.apply_batch(joins=joins)


def flatten(outcome):
    return [
        (
            fragment.shard,
            tuple(
                (
                    ek.wrapping_id,
                    ek.wrapping_version,
                    ek.payload_id,
                    ek.payload_version,
                    ek.ciphertext,
                )
                for ek in fragment.encrypted_keys
            ),
        )
        for fragment in outcome.fragments
    ]


class TestPlacement:
    def test_shard_of_is_stable_and_in_range(self):
        for shards in (1, 2, 8, 16):
            for i in range(200):
                member = f"m{i}"
                shard = shard_of(member, shards)
                assert 0 <= shard < shards
                assert shard == shard_of(member, shards)

    def test_shard_of_is_roughly_balanced(self):
        shards = 8
        counts = [0] * shards
        population = 4000
        for i in range(population):
            counts[shard_of(f"member-{i}", shards)] += 1
        expected = population / shards
        for count in counts:
            assert abs(count - expected) < expected * 0.25

    def test_single_shard_routes_everything_to_zero(self):
        assert all(shard_of(f"m{i}", 1) == 0 for i in range(50))

    def test_apply_batch_records_placement(self):
        tree = make_tree()
        keygen = KeyGenerator(seed=1)
        join_batch(tree, [f"m{i}" for i in range(32)], keygen)
        for i in range(32):
            member = f"m{i}"
            assert member in tree
            assert tree.shard_holding(member) == shard_of(member, tree.shards)
        assert tree.size == 32
        assert sum(tree.shard_sizes().values()) == 32

    def test_departure_updates_sizes_and_membership(self):
        tree = make_tree()
        keygen = KeyGenerator(seed=1)
        join_batch(tree, [f"m{i}" for i in range(16)], keygen)
        before = tree.shard_sizes()
        victim = "m5"
        shard = tree.shard_holding(victim)
        tree.apply_batch(departures=[victim])
        assert victim not in tree
        assert tree.shard_sizes()[shard] == before[shard] - 1
        with pytest.raises(KeyError):
            tree.shard_holding(victim)

    def test_populated_shards_excludes_empty(self):
        tree = make_tree(shards=8)
        keygen = KeyGenerator(seed=1)
        join_batch(tree, ["only-one"], keygen)
        assert tree.populated_shards() == [shard_of("only-one", 8)]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShardedKeyTree(shards=0)
        with pytest.raises(ValueError):
            ShardedKeyTree(shards=2, kernel="gpu")


class TestBatchOutcome:
    def test_touched_lists_only_affected_shards(self):
        tree = make_tree(shards=8)
        keygen = KeyGenerator(seed=3)
        join_batch(tree, [f"m{i}" for i in range(24)], keygen)
        victim = "m0"
        outcome = tree.apply_batch(departures=[victim])
        assert outcome.touched == [shard_of(victim, 8)]
        assert [f.shard for f in outcome.fragments] == outcome.touched

    def test_fragments_come_back_in_shard_order(self):
        tree = make_tree(shards=8)
        keygen = KeyGenerator(seed=3)
        outcome = join_batch(tree, [f"m{i}" for i in range(40)], keygen)
        order = [f.shard for f in outcome.fragments]
        assert order == sorted(order)

    def test_fragment_roots_match_root_key_query(self):
        tree = make_tree(shards=4)
        keygen = KeyGenerator(seed=3)
        outcome = join_batch(tree, [f"m{i}" for i in range(20)], keygen)
        for fragment in outcome.fragments:
            assert tree.root_key(fragment.shard) == fragment.root_key


class TestDumpLoad:
    def test_round_trip_re_derives_identical_payloads(self):
        live = make_tree(shards=4, seed=21)
        keygen = KeyGenerator(seed=22)
        join_batch(live, [f"m{i}" for i in range(20)], keygen)
        live.apply_batch(departures=["m3", "m8"])

        twin = make_tree(shards=4, seed=99)  # seed replaced by the load
        twin.load_shards(live.dump_shards())
        assert twin.shard_sizes() == live.shard_sizes()
        assert twin.members() and set(twin.members()) == set(live.members())
        for shard in live.populated_shards():
            assert twin.root_key(shard) == live.root_key(shard)

        followup_keygen = KeyGenerator(seed=22)
        followup_keygen._counter = keygen._counter
        live_out = live.apply_batch(
            joins=[("late", keygen.generate("member:late"))],
            departures=["m1"],
        )
        twin_out = twin.apply_batch(
            joins=[("late", followup_keygen.generate("member:late"))],
            departures=["m1"],
        )
        assert flatten(twin_out) == flatten(live_out)

    def test_member_path_keys_end_at_shard_root(self):
        tree = make_tree(shards=4)
        keygen = KeyGenerator(seed=5)
        join_batch(tree, [f"m{i}" for i in range(16)], keygen)
        for member in ("m0", "m7", "m15"):
            path = tree.member_path_keys(member)
            assert path
            assert path[-1] == tree.root_key(tree.shard_holding(member))
