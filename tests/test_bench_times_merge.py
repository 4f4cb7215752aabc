"""Regression: the two bench_times.json writers must not clobber each other.

``benchmarks/conftest.py`` (pytest session finish) and ``repro bench``
(:func:`repro.cli._record_bench_session`) both update
``benchmarks/out/bench_times.json``.  Both now route through
:func:`repro.perf.timesfile.merge_update`, which merges on load and
writes via temp-file + ``os.replace`` — so each writer preserves the
other's keys and a reader never sees a partial document.
"""

import json

from repro.perf.timesfile import load_times, merge_update


def test_merge_preserves_foreign_keys(tmp_path):
    path = tmp_path / "bench_times.json"
    merge_update(path, {"benchmarks": {"test_a": 1.0}, "session_wall_s": 9.0})
    merge_update(path, {"repro_bench": {"out": "BENCH_hotpath.json"}})
    payload = json.loads(path.read_text())
    assert payload["benchmarks"] == {"test_a": 1.0}
    assert payload["session_wall_s"] == 9.0
    assert payload["repro_bench"]["out"] == "BENCH_hotpath.json"


def test_update_replaces_own_key_only(tmp_path):
    path = tmp_path / "bench_times.json"
    merge_update(path, {"repro_bench": {"run": 1}, "benchmarks": {"b": 2.0}})
    merge_update(path, {"repro_bench": {"run": 2}})
    payload = json.loads(path.read_text())
    assert payload["repro_bench"] == {"run": 2}
    assert payload["benchmarks"] == {"b": 2.0}


def test_corrupt_file_is_recovered_not_crashed(tmp_path):
    path = tmp_path / "bench_times.json"
    path.write_text("{truncated!")
    merged = merge_update(path, {"benchmarks": {"b": 1.0}})
    assert merged == {"benchmarks": {"b": 1.0}}
    assert json.loads(path.read_text()) == {"benchmarks": {"b": 1.0}}


def test_non_object_document_is_reset(tmp_path):
    path = tmp_path / "bench_times.json"
    path.write_text("[1, 2, 3]\n")
    assert load_times(path) == {}
    merge_update(path, {"k": 1})
    assert json.loads(path.read_text()) == {"k": 1}


def test_write_is_atomic_no_temp_left_and_parent_created(tmp_path):
    path = tmp_path / "nested" / "out" / "bench_times.json"
    merge_update(path, {"k": 1})
    assert path.exists()
    assert not list(path.parent.glob("*.tmp"))


def test_cli_record_bench_session_merges(tmp_path, monkeypatch):
    from repro.cli import _record_bench_session

    monkeypatch.chdir(tmp_path)
    times = tmp_path / "benchmarks" / "out" / "bench_times.json"
    times.parent.mkdir(parents=True)
    times.write_text(json.dumps({"benchmarks": {"pytest::bench": 1.5}}))
    report = {
        "quick": True,
        "workers": 1,
        "cpus": 4,
        "scenarios": [
            {
                "name": "cost-only-1k",
                "optimized": {"total_s": 0.5},
                "shards": 1,
            }
        ],
    }
    _record_bench_session(report, out="BENCH_hotpath.json")
    payload = json.loads(times.read_text())
    assert payload["benchmarks"] == {"pytest::bench": 1.5}
    assert payload["repro_bench"]["scenarios"]["cost-only-1k"]["total_s"] == 0.5
