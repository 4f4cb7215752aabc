"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestFigures:
    def test_single_figure(self, capsys):
        assert main(["figures", "fig5"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "262144" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])


class TestHeadlines:
    def test_prints_claims(self, capsys):
        assert main(["headlines"]) == 0
        out = capsys.readouterr().out
        assert "two_partition_peak_reduction_pct" in out
        assert "31.4" in out


class TestValidate:
    def test_fast_mode_passes(self, capsys):
        assert main(["validate", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "worst relative error" in out


class TestSelfcheck:
    def test_single_scheme_passes(self, capsys):
        assert main(["selfcheck", "--scheme", "qt"]) == 0
        out = capsys.readouterr().out
        assert "ok   qt" in out
        assert "scenarios" in out

    def test_all_schemes_pass(self, capsys):
        assert main(["selfcheck", "--no-structural"]) == 0
        out = capsys.readouterr().out
        assert "one-keytree" in out
        assert "loss-homogenized" in out
        assert "FAIL" not in out

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["selfcheck", "--scheme", "bogus"])


class TestSimulate:
    def test_tt_scheme_summary(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "tt",
                "--horizon",
                "600",
                "--arrival-rate",
                "0.5",
                "--seed",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tt-scheme" in out
        assert "security checks" in out

    def test_transport_adds_wire_metric(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "one",
                "--transport",
                "wka-bkr",
                "--horizon",
                "600",
                "--arrival-rate",
                "0.5",
                "--no-verify",
            ]
        )
        assert code == 0
        assert "wire keys total" in capsys.readouterr().out

    def test_losshomog_scheme_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "losshomog",
                "--horizon",
                "600",
                "--arrival-rate",
                "0.5",
            ]
        )
        assert code == 0


class TestTrace:
    def test_generate_and_stats_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "trace.txt"
        assert main(["trace", str(path), "--length", "900", "--seed", "2"]) == 0
        assert path.exists()
        assert main(["tracestats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mean duration" in out
        assert "peak concurrency" in out


class TestBench:
    def test_profile_writes_cumtime_table(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # --profile writes under benchmarks/out/
        code = main(["bench", "--quick", "--profile", "full-crypto-1k"])
        assert code == 0
        out = capsys.readouterr().out
        assert "profile_full-crypto-1k.txt" in out
        assert "cumulative" in out
        assert (
            tmp_path / "benchmarks" / "out" / "profile_full-crypto-1k.txt"
        ).exists()

    def test_profile_unknown_scenario_rejected(self, capsys):
        code = main(["bench", "--quick", "--profile", "no-such-cell"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_quick_matrix_passes_its_gates(self, tmp_path, monkeypatch, capsys):
        # Every gate of the quick matrix must hold on any host, multi-core
        # ones included (the run also writes benchmarks/out/ under cwd).
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "BENCH_quick.json"
        code = main(["bench", "--quick", "--out", str(out)])
        assert code == 0, capsys.readouterr().err
        assert out.exists()


class TestSimulateVariants:
    def test_pt_scheme_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "pt",
                "--horizon",
                "600",
                "--arrival-rate",
                "0.5",
            ]
        )
        assert code == 0
        assert "pt-scheme" in capsys.readouterr().out

    def test_random_trees_scheme_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "random-trees",
                "--horizon",
                "600",
                "--arrival-rate",
                "0.5",
            ]
        )
        assert code == 0

    def test_multisend_transport_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "one",
                "--transport",
                "multi-send",
                "--horizon",
                "300",
                "--arrival-rate",
                "0.3",
                "--no-verify",
            ]
        )
        assert code == 0

    def test_fec_transport_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "one",
                "--transport",
                "fec",
                "--horizon",
                "300",
                "--arrival-rate",
                "0.3",
                "--no-verify",
            ]
        )
        assert code == 0
