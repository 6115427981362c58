"""Self-tests of the benchmark: span arithmetic and a tiny smoke run.

Run from the root of a checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import threading
import time

import pytest

from spans import OTHER, SpanRecorder
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent


# -- span arithmetic on a synthetic call tree ---------------------------------


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class Codec:
    def parse(self, seconds):
        busy(seconds)


class Store:
    def read(self, codec):
        busy(0.002)
        codec.parse(0.001)


def request(store, codec):
    """An effect generator: busy, suspend, busy, suspend, busy."""
    busy(0.001)
    yield "recv"
    store.read(codec)
    yield "recv"
    busy(0.001)
    return "done"


def run_effects(gen, wait):
    """A toy runtime: performs each effect by sleeping ``wait``."""
    value = None
    while True:
        try:
            gen.send(value)
        except StopIteration as stop:
            return stop.value
        time.sleep(wait)


@pytest.fixture
def recorder():
    rec = SpanRecorder()
    module = sys.modules[__name__]
    rec.patch(Codec, "parse", "codec", "Codec.parse")
    rec.patch(Store, "read", "store", "Store.read")
    rec.patch(module, "request", "request", "request")
    yield rec
    rec.restore()


def one_op(rec, wait):
    with rec.root():
        busy(0.001)
        result = run_effects(request(Store(), Codec()), wait)
        busy(0.001)
    return result


def test_nested_sync_and_generator_spans_add_up(recorder):
    recorder.enabled = True
    assert one_op(recorder, wait=0.02) == "done"
    recorder.enabled = False
    summary = recorder.summary()
    assert summary["balanced"] and recorder.recheck()
    (thread,) = summary["threads"]
    self_ns = summary["self_ns"]
    assert sum(self_ns.values()) == thread["root_ns"]
    # Two 20 ms suspensions are inside the root but not the generator:
    # they are the root's own (``other``) time, never the layer's.
    assert self_ns["request"] < 10e6
    assert self_ns[OTHER] >= 40e6
    # Store.read's 1 ms Codec.parse child is not Store.read's own.
    assert 1.5e6 < self_ns["store"] < 10e6
    assert 0.9e6 < self_ns["codec"] < 10e6
    # request ran in three resumptions: three intervals, one span id.
    spans = [s for s in recorder.threads()[0].spans if s[4] == "request"]
    assert len(spans) == 3 and len({s[0] for s in spans}) == 1
    calls = summary["calls"]
    assert calls["Codec.parse"] == 1 and calls["request"] == 3


def test_two_threads_balance_separately(recorder):
    recorder.enabled = True
    workers = [
        threading.Thread(target=one_op, args=(recorder, 0.005), name=f"w{i}")
        for i in range(2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(10)
        assert not worker.is_alive()
    recorder.enabled = False
    summary = recorder.summary()
    assert len(summary["threads"]) == 2
    for thread in summary["threads"]:
        assert thread["root_ns"] == thread["self_ns"] > 0
    assert summary["balanced"] and recorder.recheck()


def test_spans_only_open_inside_the_measured_window(recorder):
    one_op(recorder, wait=0.0)  # disabled: nothing recorded
    assert recorder.summary()["calls"] == {}
    recorder.enabled = True
    Codec().parse(0.0)  # a layer call outside any op is its own root
    recorder.enabled = False
    summary = recorder.summary()
    assert summary["calls"] == {"Codec.parse": 1}
    assert summary["balanced"] and recorder.recheck()


def test_restore_puts_the_originals_back(recorder):
    wrapped = Codec.parse
    recorder.restore()
    assert Codec.parse is not wrapped
    assert Codec.parse.__qualname__ == "Codec.parse"
    assert request.__name__ == "request" and not hasattr(
        request, "__wrapped__"
    )


# -- tiny smoke of every workload -------------------------------------------


def _run(workload, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "0.3", "--trace", str(trace),
               "--tiny"]
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _expected(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


#: The 16 end-to-end figures under their own names, with their units.
NAMED = {
    "small-reads": [("pread_p50_us", "us"), ("pread_p99_us", "us"),
                    ("pread_cpu_us", "us"), ("preadvec_p50_ms", "ms")],
    "bulk-transfer": [("get_MBps", "MB/s"), ("put_MBps", "MB/s"),
                      ("bulk_cpu_s_per_GiB", "s/GiB")],
    "proxy-cache": [("proxy_read_p50_us", "us"), ("proxy_read_p99_us", "us"),
                    ("proxy_cpu_us", "us")],
    "fig4-wan": [("fig4_sync_cpu_s", "s"), ("fig4_readahead_cpu_s", "s"),
                 ("fig4_sync_sim_s", "s"), ("fig4_readahead_sim_s", "s")],
}
COMMON = [("setup_s", "s"), ("peak_rss_MiB", "MiB")]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_end_to_end(workload):
    lines, result = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = _expected("end_to_end")
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit and entry["value"] > 0
    # The named metrics print with their units.
    for name, unit in NAMED[workload] + COMMON:
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_traced(workload):
    lines, result = _run(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    expected = _expected("per_layer")
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
    assert any("per-thread sums balance" in line for line in lines)
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
