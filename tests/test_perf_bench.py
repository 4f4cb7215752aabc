"""The ``repro bench`` harness: smoke runs and op-count budgets.

The budget test is the tier-1 guard for the indexed delivery path: it
asserts — via deterministic op *counters*, never wall-clock — that
per-member rekey delivery work at N=10k stays proportional to the tree
depth, not to the message size.  A regression back to linear payload
scans blows the budget by two orders of magnitude.
"""

import json
import math
from pathlib import Path

import pytest

from repro.crypto.wrap import deferred_wraps
from repro.perf import recording
from repro.perf.bench import (
    BenchScenario,
    COST_ONLY,
    FULL_CRYPTO,
    profile_scenario,
    quick_scenarios,
    run_bench,
    run_scenario,
    standard_scenarios,
)
from repro.perf.parallel import available_cpus
from repro.server.onetree import OneTreeServer

TINY_COST = BenchScenario(
    "tiny-cost", 64, COST_ONLY, rounds=2, churn=4, sample_receivers=16,
    compare_baseline=True,
)
TINY_CRYPTO = BenchScenario(
    "tiny-crypto", 48, FULL_CRYPTO, rounds=2, churn=4, sample_receivers=0,
)
TINY_FLAT = BenchScenario(
    "tiny-flat", 64, COST_ONLY, rounds=2, churn=4, sample_receivers=16,
    kernel="flat",
)
TINY_BULK = BenchScenario(
    "tiny-bulk", 64, COST_ONLY, rounds=2, churn=4, sample_receivers=16,
    kernel="flat", bulk=True,
)


class TestBenchHarness:
    def test_smoke_run_writes_report(self, tmp_path):
        out = tmp_path / "bench.json"
        report = run_bench(
            scenarios=[TINY_COST, TINY_CRYPTO], out_path=str(out)
        )
        assert out.exists()
        assert json.loads(out.read_text()) == report
        assert report["suite"] == "hotpath"
        assert [s["name"] for s in report["scenarios"]] == [
            "tiny-cost", "tiny-crypto",
        ]

    def test_cost_only_scenario_records_baseline_and_speedup(self):
        result = run_scenario(TINY_COST)
        for variant in (result["optimized"], result["baseline"]):
            assert variant["total_s"] > 0
            assert set(variant["phases"]) >= {
                "build_s", "rekey_s", "deliver_s",
            }
        assert result["speedup"] is not None
        # The optimized variant delivers through the index, the baseline
        # through the naive scan...
        assert result["optimized"]["counters"]["wrapindex.examined"] > 0
        assert "wrapindex.examined" not in result["baseline"]["counters"]
        # ...while both count the same rekey traffic.
        assert (
            result["optimized"]["mean_batch_cost"]
            == result["baseline"]["mean_batch_cost"]
        )

    def test_full_crypto_scenario_verifies_group_key(self):
        result = run_scenario(TINY_CRYPTO)
        assert result["baseline"] is None
        counters = result["optimized"]["counters"]
        assert counters["server.rekeys"] == TINY_CRYPTO.rounds + 1
        assert counters["member.keys_learned"] > 0

    def test_scenario_matrices_are_well_formed(self):
        standard = standard_scenarios()
        quick = quick_scenarios()
        assert max(s.members for s in standard) == 1_000_000
        assert max(s.members for s in quick) <= 10_000
        names = [s.name for s in standard]
        assert len(names) == len(set(names))
        # The acceptance scenario must diff against the baseline path.
        hundred_k = next(s for s in standard if s.members == 100_000)
        assert hundred_k.compare_baseline
        # Both matrices exercise the flat kernel, including at 100k+ and
        # through the sharded server.
        flat_standard = [s for s in standard if s.kernel == "flat"]
        assert any(s.members >= 100_000 for s in flat_standard)
        assert any(s.server == "sharded" for s in flat_standard)
        assert any(s.kernel == "flat" for s in quick)
        # ...and the bulk crypto engine, at 100k+ cost-only (the
        # acceptance cell) and in one full-crypto configuration.
        bulk_standard = [s for s in standard if s.bulk]
        assert all(s.kernel == "flat" for s in bulk_standard)
        assert any(
            s.members >= 100_000 and s.mode == COST_ONLY
            for s in bulk_standard
        )
        assert any(s.mode == FULL_CRYPTO for s in bulk_standard)
        assert any(s.bulk for s in quick)
        # The quick matrix must not carry a cell the single-CPU CI
        # speedup floor would trip on (floor applies from 100k members).
        assert all(s.members < 100_000 for s in quick if s.bulk)

    def test_bulk_scenario_records_both_references(self):
        result = run_scenario(TINY_BULK)
        assert result["bulk"] is True
        # Bulk cells diff against both the object kernel and the same
        # flat cell with the engine off; all three must price alike.
        assert result["object_ref"] is not None
        assert result["flat_ref"] is not None
        assert result["speedup_vs_object"] is not None
        assert result["speedup_vs_flat"] is not None
        assert result["mean_batch_cost_matches_object"] is True
        assert result["mean_batch_cost_matches_flat"] is True
        assert (
            result["optimized"]["mean_batch_cost"]
            == result["flat_ref"]["mean_batch_cost"]
            == result["object_ref"]["mean_batch_cost"]
        )

    def test_non_bulk_scenarios_skip_the_flat_reference(self):
        result = run_scenario(TINY_FLAT)
        assert result["bulk"] is False
        assert result["flat_ref"] is None
        assert result["speedup_vs_flat"] is None
        assert result["mean_batch_cost_matches_flat"] is None

    def test_record_env_snapshot_and_cpu_warning(self):
        report = run_bench(
            scenarios=[TINY_CRYPTO], quick=True, record_env=True
        )
        env = report["env"]
        assert env["cpus"] == report["cpus"]
        assert env["python"] == report["python"]
        assert "numpy" in env and "loadavg_1m" in env
        # The warnings channel flags single-CPU recordings so a committed
        # baseline can't silently hide a starved host again.
        if available_cpus() < 2:
            assert any("<2 usable CPUs" in w for w in report["warnings"])
        else:
            assert report["warnings"] == []
        # Without --record-env the provenance section stays out.
        lean = run_bench(scenarios=[TINY_CRYPTO], quick=True)
        assert "env" not in lean

    def test_profile_scenario_writes_cumtime_table(self, tmp_path):
        path = profile_scenario(
            "full-crypto-1k", quick=True, out_dir=str(tmp_path), reps=1
        )
        text = Path(path).read_text()
        assert "cumulative" in text
        assert "function calls" in text
        with pytest.raises(KeyError):
            profile_scenario("no-such-cell", quick=True)

    def test_profile_scenario_aggregates_reps(self, tmp_path):
        """The stats table accumulates across reps, not just the last one."""
        import re

        def run_count(reps):
            path = profile_scenario(
                "cost-only-1k",
                quick=True,
                out_dir=str(tmp_path / f"r{reps}"),
                reps=reps,
            )
            text = Path(path).read_text()
            assert f"{reps} rep(s) aggregated" in text
            # Total call volume scales with reps; compare the primitive
            # call counts from the header line.
            match = re.search(r"(\d+) function calls", text)
            assert match is not None
            return int(match.group(1))

        assert run_count(2) > run_count(1) * 1.5

    def test_flat_kernel_scenario_records_object_reference(self):
        result = run_scenario(TINY_FLAT)
        assert result["kernel"] == "flat"
        assert result["object_ref"] is not None
        assert result["speedup_vs_object"] is not None
        # The kernels must price identically — the flat kernel is an
        # execution optimization, never a payload change.
        assert result["mean_batch_cost_matches_object"] is True
        assert (
            result["optimized"]["mean_batch_cost"]
            == result["object_ref"]["mean_batch_cost"]
        )


class TestOpCountBudget:
    def test_10k_member_delivery_stays_within_depth_budget(self):
        """Tier-1: at N=10k, resolving one member's interest examines
        O(depth * degree) candidate wraps, not O(|message|)."""
        members = 10_000
        churn = 64
        degree = 4
        server = OneTreeServer(degree=degree, group="budget")
        with deferred_wraps():
            member_ids = [f"m{i}" for i in range(members)]
            for member_id in member_ids:
                server.join(member_id)
            server.rekey()

            held = {
                member_id: {
                    node.key.key_id: node.key.version
                    for node in server.tree.path_of(member_id)
                }
                for member_id in member_ids[: 2 * churn]
            }
            for member_id in member_ids[:churn]:
                server.leave(member_id)
            for i in range(churn):
                server.join(f"j{i}")
            result = server.rekey()

        depth = max(len(h) for h in held.values())
        survivors = member_ids[churn : 2 * churn]
        with recording() as recorder:
            index = result.index()
            for member_id in survivors:
                index.closure(held[member_id])
        examined = recorder.counter("wrapindex.examined")
        assert examined > 0
        # Each member examines the buckets of its ~depth held keys plus
        # those of keys it learns along the way; degree bounds any bucket
        # contribution per key.  2x slack absorbs bucket skew (measured
        # work is ~depth wraps per receiver, far under this).
        budget = len(survivors) * 2 * depth * degree
        assert examined <= budget, (
            f"examined {examined} wraps for {len(survivors)} receivers "
            f"(budget {budget}); delivery work is no longer O(depth)"
        )
        # And the measured work is orders of magnitude below what linear
        # scans would cost (|message| wraps per receiver).
        naive_cost = len(survivors) * result.cost
        assert examined * 50 < naive_cost

    def test_budget_counter_counts_message_scan_equivalent(self):
        """Sanity for the budget's premise: a naive scan would examine
        |message| wraps per receiver (cost ~ churn * depth at this N)."""
        scenario = BenchScenario(
            "probe", 4_096, COST_ONLY, rounds=1, churn=32,
            sample_receivers=8, compare_baseline=False,
        )
        result = run_scenario(scenario)
        cost = result["optimized"]["mean_batch_cost"]
        depth = math.ceil(math.log(scenario.members, scenario.degree))
        assert cost > 4 * depth  # a batch is much bigger than one path
