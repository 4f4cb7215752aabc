"""Self-time accounting and the Chrome trace export."""

import pytest

from repro.obs.chrometrace import validate_chrome_trace

from perfbench.spans import SpanRecorder


def _recorder():
    recorder = SpanRecorder()
    recorder.epoch = 3
    # Synthetic nesting: epoch [0, 10] > transport [2, 8] > network [3, 4], [5, 7]
    recorder._stack.append(recorder._append("epoch", 0.0, 10.0))
    recorder._stack.append(recorder._append("transport", 2.0, 8.0))
    recorder.add("network", 3.0, 4.0)
    recorder.add("network", 5.0, 7.0)
    recorder._stack.pop()
    recorder.add("members", 8.0, 9.5)
    recorder._stack.pop()
    return recorder


def test_self_times_subtract_children_and_sum_to_the_epoch():
    self_s = _recorder().self_times()
    assert self_s[(3, "network")] == pytest.approx(3.0)
    assert self_s[(3, "transport")] == pytest.approx(3.0)
    assert self_s[(3, "members")] == pytest.approx(1.5)
    assert self_s[(3, "epoch")] == pytest.approx(2.5)
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_totals_per_epoch():
    assert _recorder().totals("network") == {3: pytest.approx(3.0)}


def test_open_close_nesting_is_enforced():
    recorder = SpanRecorder()
    outer = recorder.open("epoch")
    inner = recorder.open("server")
    with pytest.raises(RuntimeError):
        recorder.close(outer)
    recorder.close(inner)
    assert recorder.inside()
    recorder.close(outer)
    assert not recorder.inside()
    name, start, end, parent, __ = recorder.span(inner)
    assert (name, parent) == ("server", outer)
    assert end >= start


def test_chrome_trace_is_valid_and_parents_come_first(tmp_path):
    recorder = _recorder()
    doc = recorder.write_chrome_trace(str(tmp_path / "t.json"))
    counts = validate_chrome_trace(doc)
    assert counts == {"M": 1, "X": 5}
    names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
    assert names == ["epoch", "transport", "network", "network", "members"]
    network = [e for e in doc["traceEvents"] if e["name"] == "network"]
    assert network[1]["ts"] == 5_000_000 and network[1]["dur"] == 2_000_000
    assert network[1]["args"]["epoch"] == 3


def test_open_spans_are_not_exported():
    recorder = SpanRecorder()
    recorder.open("epoch")
    doc = recorder.chrome_trace()
    assert validate_chrome_trace(doc) == {"M": 1}
