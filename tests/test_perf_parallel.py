"""parallel_map, available_cpus and the fragment-merged WrapIndex."""

from repro.crypto.material import KeyGenerator
from repro.crypto.wrap import WrapIndex, wrap_key
from repro.perf.parallel import available_cpus, parallel_map


def _square(x):
    """Module-level so the process pool can pickle it."""
    return x * x


class TestParallelMap:
    def test_serial_path_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], workers=1) == [9, 1, 4]

    def test_pool_results_equal_serial(self):
        items = list(range(40))
        serial = parallel_map(_square, items, workers=1)
        pooled = parallel_map(_square, items, workers=2)
        assert pooled == serial

    def test_single_item_runs_inline(self):
        assert parallel_map(_square, [7], workers=8) == [49]

    def test_empty_input(self):
        assert parallel_map(_square, [], workers=4) == []


class TestAvailableCpus:
    def test_reports_at_least_one(self):
        assert available_cpus() >= 1


class TestWrapIndexFromFragments:
    def test_positions_match_concatenation(self):
        keygen = KeyGenerator(seed=6)
        keys = [keygen.generate(f"k{i}") for i in range(6)]
        frag_a = [wrap_key(keys[0], keys[1]), wrap_key(keys[2], keys[3])]
        frag_b = [wrap_key(keys[0], keys[4])]
        frag_c = [wrap_key(keys[2], keys[5])]
        merged = WrapIndex.from_fragments([frag_a, frag_b, frag_c])
        reference = WrapIndex(frag_a + frag_b + frag_c)
        assert merged.size == reference.size
        for key in keys:
            assert merged.wraps_under(key.key_id) == (
                reference.wraps_under(key.key_id)
            )
