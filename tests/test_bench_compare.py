"""The ``repro bench --compare`` regression gate (compare_reports)."""

import json

from repro.perf.bench import WORKLOAD_KEYS, compare_reports


def cell(name="cost-only-1k", cost=100.0, total_s=1.0, **overrides):
    base = {
        "name": name,
        "members": 1_000,
        "mode": "cost-only",
        "rounds": 5,
        "churn": 16,
        "sample_receivers": 500,
        "server": "one",
        "shards": 1,
        "kernel": "object",
        "bulk": False,
        "optimized": {"total_s": total_s, "mean_batch_cost": cost},
        "baseline": None,
        "speedup": None,
        "object_ref": None,
        "speedup_vs_object": None,
        "mean_batch_cost_matches_object": None,
        "flat_ref": None,
        "speedup_vs_flat": None,
        "mean_batch_cost_matches_flat": None,
        "peak_rss_kb": None,
    }
    base.update(overrides)
    return base


def report(cells, cpus=4, warnings=()):
    return {
        "version": 2,
        "suite": "hotpath",
        "cpus": cpus,
        "warnings": list(warnings),
        "scenarios": cells,
    }


class TestCompareReports:
    def test_identical_reports_pass(self):
        current, baseline = report([cell()]), report([cell()])
        diff = compare_reports(current, baseline)
        assert diff["failures"] == []
        assert diff["warnings"] == []
        assert diff["compared"] == ["cost-only-1k"]
        assert diff["skipped"] == []

    def test_cost_change_fails_even_on_mismatched_hosts(self):
        current = report([cell(cost=120.0)], cpus=8)
        baseline = report([cell(cost=100.0)], cpus=1, warnings=["<2 CPUs"])
        diff = compare_reports(current, baseline)
        assert len(diff["failures"]) == 1
        assert "mean_batch_cost" in diff["failures"][0]

    def test_gate_flip_true_to_false_fails(self):
        current = report([cell(mean_batch_cost_matches_object=False)])
        baseline = report([cell(mean_batch_cost_matches_object=True)])
        diff = compare_reports(current, baseline)
        assert any("flipped" in line for line in diff["failures"])
        # The reverse direction (None/False -> True) is not a regression.
        assert not compare_reports(baseline, current)["failures"]

    def test_wall_slowdown_fails_only_on_comparable_hosts(self):
        current, baseline = report([cell(total_s=2.0)]), report([cell(total_s=1.0)])
        diff = compare_reports(current, baseline)
        assert any("wall time" in line for line in diff["failures"])

        warned_baseline = report(
            [cell(total_s=1.0)], cpus=1, warnings=["recorded on <2 CPUs"]
        )
        diff = compare_reports(current, warned_baseline)
        assert diff["failures"] == []
        assert any("wall time" in line for line in diff["warnings"])
        assert any("not comparable" in line for line in diff["warnings"])

    def test_wall_slowdown_within_tolerance_is_silent(self):
        current, baseline = report([cell(total_s=1.2)]), report([cell(total_s=1.0)])
        diff = compare_reports(current, baseline)
        assert diff["failures"] == [] and diff["warnings"] == []

    def test_cpu_count_mismatch_downgrades_wall_failures(self):
        current = report([cell(total_s=2.0)], cpus=8)
        baseline = report([cell(total_s=1.0)], cpus=4)
        diff = compare_reports(current, baseline)
        assert diff["failures"] == []
        assert any("cpu counts differ" in line for line in diff["warnings"])

    def test_workload_mismatch_is_skipped_not_diffed(self):
        # Same cell name, different round count (quick vs standard).
        current = report([cell(rounds=3, cost=60.0, total_s=9.0)])
        baseline = report([cell(rounds=5, cost=100.0, total_s=1.0)])
        diff = compare_reports(current, baseline)
        assert diff["failures"] == []
        assert diff["compared"] == []
        assert any("rounds" in line for line in diff["skipped"])

    def test_baseline_with_removed_execution_keys_is_compared(self):
        # Baselines recorded before the shard backends, wrap threads and
        # the secret arena were removed still carry those four keys; the
        # cell must be diffed, not skipped as a different workload.
        legacy = {"workers": 1, "backend": "serial", "threads": 1, "arena": False}
        baseline = report([cell(cost=100.0, **legacy)])
        current = report([cell(cost=120.0)])
        diff = compare_reports(current, baseline)
        assert diff["compared"] == ["cost-only-1k"]
        assert diff["skipped"] == []
        assert any("mean_batch_cost" in line for line in diff["failures"])

    def test_unmatched_cells_listed_both_ways(self):
        current = report([cell(name="only-current")])
        baseline = report([cell(name="only-baseline")])
        diff = compare_reports(current, baseline)
        skipped = "\n".join(diff["skipped"])
        assert "only-current: not in baseline" in skipped
        assert "only-baseline: baseline-only" in skipped

    def test_workload_keys_cover_every_scenario_field(self):
        # Every protocol/execution field of a result cell is part of the
        # match identity; a new BenchScenario knob must be added here too.
        sample = cell()
        for key in WORKLOAD_KEYS:
            assert key in sample


class TestCompareCli:
    def fake_report(self, **cell_overrides):
        full = report([cell(**cell_overrides)], cpus=4)
        full.update(
            {
                "quick": True,
                "workers": 1,
                "peak_rss_kb": None,
                "obs_overhead": {
                    "disabled_ns": {"metrics_inc": 100.0},
                    "budget_ns": 1500.0,
                    "pass": True,
                },
            }
        )
        return full

    def run_cli(self, tmp_path, monkeypatch, baseline, **cell_overrides):
        import repro.cli as cli
        import repro.perf.bench as bench

        monkeypatch.setattr(
            bench, "run_bench", lambda **kw: self.fake_report(**cell_overrides)
        )
        monkeypatch.chdir(tmp_path)
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(baseline))
        return cli.main(
            [
                "bench",
                "--quick",
                "--out",
                str(tmp_path / "b.json"),
                "--compare",
                str(baseline_path),
            ]
        )

    def test_cost_regression_exits_1(self, tmp_path, capsys, monkeypatch):
        rc = self.run_cli(
            tmp_path, monkeypatch, self.fake_report(cost=90.0), cost=120.0
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "mean_batch_cost" in captured.err

    def test_provenance_mismatch_warns_and_passes(self, tmp_path, capsys, monkeypatch):
        baseline = self.fake_report(total_s=0.1)
        baseline["cpus"] = 1
        baseline["warnings"] = ["recorded on a host with <2 usable CPUs"]
        rc = self.run_cli(tmp_path, monkeypatch, baseline, total_s=5.0)
        captured = capsys.readouterr()
        assert rc == 0
        assert "WARNING" in captured.out
        assert "no cost regressions" in captured.out

    def test_unreadable_baseline_exits_2(self, tmp_path, capsys, monkeypatch):
        import repro.cli as cli
        import repro.perf.bench as bench

        monkeypatch.setattr(bench, "run_bench", lambda **kw: self.fake_report())
        monkeypatch.chdir(tmp_path)
        rc = cli.main(
            [
                "bench",
                "--quick",
                "--out",
                str(tmp_path / "b.json"),
                "--compare",
                str(tmp_path / "missing.json"),
            ]
        )
        assert rc == 2
        assert "cannot read baseline" in capsys.readouterr().err
