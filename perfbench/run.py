"""Host-cost benchmark: the CPU and wall time the Python code spends.

Run from the root of a checkout:

    python3 perfbench/run.py --workload small-reads --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
runs the same workload once untraced and once with every layer
boundary wrapped (see ``layers.py``), and reports the per-layer
metrics. ``--workload all`` runs the four workloads one after another
in child processes and prints every workload's named metrics.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run, at least this many and until SETUP_SECONDS have
#: passed; ``setup_s`` is their median.
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
#: Warm-up ops per workload. The first 64 MiB GETs run slower, and CPU
#: per small or proxied read climbs over the first few thousand
#: requests (while the client's bounded span buffer fills).
WARMUP = {
    "small-reads": 3000,
    "bulk-transfer": 4,
    "proxy-cache": 6000,
    "fig4-wan": 2,
}
#: Fewest ops in a measured phase: enough to see every op kind.
MIN_OPS = {"small-reads": 80, "bulk-transfer": 2, "proxy-cache": 40,
           "fig4-wan": 2}
#: Share of a traced run spent on the untraced baseline phase.
BASELINE_SHARE = 0.4

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "op_cpu_ms": "ms",
    "op2_p50_ms": "ms",
    "op2_cpu_ms": "ms",
    "MBps": "MB/s",
    "setup_s": "s",
    "peak_rss_MiB": "MiB",
}


def percentile(values, share):
    """Nearest-rank percentile, ``share`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-share * len(ordered) // 100) - 1)]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(workload, speed):
    """Set the workload up ``SETUP_REPEATS`` times or more (see
    ``SETUP_SECONDS``), keep the last one; returns the host-normalised
    set-up times."""
    times = []
    started = time.perf_counter()
    while True:
        gc.collect()
        speed.sample()
        begin = speed.mark()
        workload.setup()
        end = speed.mark()
        speed.sample()
        times.append(speed.normalise(begin, end)[0])
        if (len(times) >= SETUP_REPEATS
                and time.perf_counter() - started >= SETUP_SECONDS):
            return times
        workload.teardown()


def end_to_end(workload, samples, setup_times) -> dict:
    first, second = workload.kinds
    wall, cpu = samples.wall, samples.cpu
    total_wall = sum(sum(v) for v in wall.values())
    values = {
        "op_p50_ms": statistics.median(wall[first]) * 1e3,
        "op_p90_ms": percentile(wall[first], 90) * 1e3,
        "op_cpu_ms": statistics.median(cpu[first]) * 1e3,
        "op2_p50_ms": statistics.median(wall[second]) * 1e3,
        "op2_cpu_ms": statistics.median(cpu[second]) * 1e3,
        "MBps": samples.payload / total_wall / 1e6,
        "setup_s": statistics.median(setup_times),
        "peak_rss_MiB": peak_rss_mib(),
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END.items()
    }


def named(name, workload, samples, metrics, warmup_s, speed):
    """The workload's metrics under the names the README uses."""
    from hostspeed import NOMINAL

    m = {key: entry["value"] for key, entry in metrics.items()}
    wall, cpu, nbytes = samples.wall, samples.cpu, samples.bytes
    lines = []
    if name == "small-reads":
        lines += [
            ("pread_p50_us", m["op_p50_ms"] * 1e3, "us"),
            ("pread_p99_us", percentile(wall["pread"], 99) * 1e6, "us"),
            ("pread_cpu_us", m["op_cpu_ms"] * 1e3, "us"),
            ("preadvec_p50_ms", m["op2_p50_ms"], "ms"),
        ]
    elif name == "bulk-transfer":
        gib = sum(nbytes.values()) / (1 << 30)
        lines += [
            ("get_MBps", nbytes["get"] / sum(wall["get"]) / 1e6, "MB/s"),
            ("put_MBps", nbytes["put"] / sum(wall["put"]) / 1e6, "MB/s"),
            ("bulk_cpu_s_per_GiB",
             sum(sum(v) for v in cpu.values()) / gib, "s/GiB"),
        ]
    elif name == "proxy-cache":
        reads = [t for v in wall.values() for t in v]
        read_cpu = [t for v in cpu.values() for t in v]
        lines += [
            ("proxy_read_p50_us", statistics.median(reads) * 1e6, "us"),
            ("proxy_read_p99_us", percentile(reads, 99) * 1e6, "us"),
            ("proxy_cpu_us", statistics.median(read_cpu) * 1e6, "us"),
        ]
        lines += [(f"proxy_cache_{key}", value, "count")
                  for key, value in workload.counters().items()]
    elif name == "fig4-wan":
        sim = workload.sim_seconds()
        lines += [
            ("fig4_sync_cpu_s", m["op_cpu_ms"] / 1e3, "s"),
            ("fig4_readahead_cpu_s", m["op2_cpu_ms"] / 1e3, "s"),
            ("fig4_sync_sim_s", sim["sync"], "s"),
            ("fig4_readahead_sim_s", sim["readahead"], "s"),
        ]
    lines += [
        ("setup_s", m["setup_s"], "s"),
        ("warmup_s", warmup_s, "s"),
        ("peak_rss_MiB", m["peak_rss_MiB"], "MiB"),
    ]
    counts = ", ".join(f"{len(v)} {k}" for k, v in sorted(wall.items()))
    print(f"# {name}: {counts} in {samples.elapsed:.2f} s; reference loop "
          f"median {speed.median_loop() * 1e6:.1f} us (times below are "
          f"scaled to {NOMINAL * 1e6:.0f} us)")
    for key, value, unit in lines:
        print(f"{key} = {value:.6g} {unit}")


def traced(name, workload, seconds):
    """Untraced baseline, then the traced phase -> per-layer metrics."""
    from layers import install, layer_metrics
    from spans import SpanRecorder
    from workloads import run_ops

    base = run_ops(workload, seconds * BASELINE_SHARE, min_ops=MIN_OPS[name])
    recorder = SpanRecorder()
    install(recorder)
    # Connections opened before install are served by the unwrapped
    # connection loop: open new ones with one untraced op.
    workload.reconnect()
    reconnected = run_ops(workload, 0.0, min_ops=1)
    origin0 = workload.origin_bytes
    events0 = workload.events
    fetched0 = workload.engine_fetched
    gc.collect()
    recorder.enabled = True
    try:
        samples = run_ops(workload, seconds * (1 - BASELINE_SHARE),
                          recorder=recorder, min_ops=MIN_OPS[name])
    finally:
        recorder.enabled = False
    # Server threads may still be finishing the last response.
    deadline = time.monotonic() + 5.0
    while recorder.open_intervals() and time.monotonic() < deadline:
        time.sleep(0.01)
    summary = recorder.summary()
    ops = samples.ops()

    def cpu_per_op(phase):
        return sum(sum(v) for v in phase.cpu.values()) / phase.ops()

    cells = ops if name == "fig4-wan" else 0
    metrics = layer_metrics(
        summary,
        ops=ops,
        cells=cells,
        events=workload.events - events0,
        payload_bytes=samples.payload,
        engine_fetched=workload.engine_fetched - fetched0,
        origin_bytes=workload.origin_bytes - origin0,
        overhead_ratio=cpu_per_op(samples) / cpu_per_op(base),
    )
    balanced = (
        summary["balanced"]
        and recorder.recheck()
        and recorder.open_intervals() == 0
    )
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    written = recorder.dump(out_dir / f"trace-{name}.jsonl")
    print(f"# {name}: {ops} traced ops, {written} spans written to "
          f".perfbench/trace-{name}.jsonl; per-thread sums "
          f"{'balance' if balanced else 'DO NOT balance'}")
    for thread in summary["threads"]:
        if not thread["spans"]:
            continue
        print(f"#   thread {thread['thread']}: root {thread['root_ns']} ns,"
              f" self+other {thread['self_ns']} ns, {thread['spans']} spans")
    for key, entry in metrics.items():
        print(f"{key} = {entry['value']:.6g} {entry['unit']}")
    base.attempted += reconnected.attempted
    base.failed += reconnected.failed
    return samples, base, metrics, balanced


def pin_to_one_cpu() -> None:
    """Run every thread of the process on one CPU.

    The closed loop never has two of its threads runnable at once, so on
    one CPU a hand-off between the client and a server thread is a
    context switch. Spread over CPUs it is a cross-core wake-up plus an
    interpreter-lock hand-over, whose cost swings with the load other
    tenants put on the host.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args) -> int:
    from hostspeed import HostSpeed
    from workloads import WORKLOADS, Sizes, run_ops

    pin_to_one_cpu()
    sizes = Sizes.tiny() if args.tiny else Sizes()
    workload = WORKLOADS[args.workload](args.seed, sizes)
    warm_ops = (MIN_OPS if args.tiny else WARMUP)[args.workload]
    if args.trace:
        # Traced runs report raw host times: the sampler would land
        # inside whatever span is open.
        workload.setup()
        try:
            warm = run_ops(workload, 0.0, min_ops=warm_ops)
            samples, base, metrics, balanced = traced(
                args.workload, workload, args.seconds
            )
        finally:
            workload.teardown()
        attempted = warm.attempted + base.attempted + samples.attempted
        failed = warm.failed + base.failed + samples.failed
        correct = failed == 0 and balanced
    else:
        try:
            with HostSpeed(in_ops=not workload.threaded) as speed:
                setup_times = set_up(workload, speed)
                warm_started = time.perf_counter()
                warm = run_ops(workload, 0.0, speed, min_ops=warm_ops)
                warmup_s = time.perf_counter() - warm_started
                gc.collect()
                samples = run_ops(workload, args.seconds, speed,
                                  min_ops=MIN_OPS[args.workload])
        finally:
            workload.teardown()
        metrics = end_to_end(workload, samples, setup_times)
        named(args.workload, workload, samples, metrics, warmup_s, speed)
        attempted = warm.attempted + samples.attempted
        failed = warm.failed + samples.failed
        correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own child process; named metrics only."""
    from workloads import WORKLOADS

    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.tiny:
            command.append("--tiny")
        child = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, check=False)
        lines = child.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.stderr.write(child.stderr)
            print(f"# {name}: no result (exit {child.returncode})")
            return 1
        correct = correct and result["correct"] and child.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed}))
    return 0 if correct else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the self-test smoke)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"perfbench: no program sources at {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
