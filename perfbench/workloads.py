"""The benchmark's four workloads.

Every workload runs in one process, with one client thread issuing ops
in a closed loop (the next op starts when the previous one returned)
and one keep-alive connection per hop. Inputs come from the seed alone.
Each op returns the bytes it moved and a check that runs outside the
timed region; a failed check counts the op as failed.

* ``small-reads``: client -> StorageApp over loopback sockets. Uniform
  4 KiB ``pread``s over a 64 MiB object, and every 40th op a
  ``pread_vec`` of 1000 x 4 KiB. Per-request cost dominates.
* ``bulk-transfer``: client -> StorageApp over loopback sockets.
  Alternating 64 MiB PUTs and GETs; each GET reads back the object the
  PUT before it wrote. Byte-bound.
* ``proxy-cache``: client -> ProxyApp (48 MiB page cache) ->
  StorageApp. 4/16/64/256 KiB ranged reads over 8 x 16 MiB objects,
  object chosen Zipf(1.1): a working set larger than the cache, so
  the proxy sees hits, partial hits, misses and evictions.
* ``fig4-wan``: the paper's full-scale FIG4 WAN davix job in the
  simulator, once with synchronous TTreeCache refills and once with the
  32 MB read-ahead engine. Its host CPU is spent in the sim kernel, the
  simulated TCP, rootio and the engine.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List

KiB = 1024
MiB = 1024 * 1024

#: FIG4 job outputs that do not depend on the seed.
FIG4_BYTES = 700_784_452
FIG4_READS = 129
#: Simulated job seconds pinned for seed 42 (rounded to 1 ms).
FIG4_PINNED = {42: {"sync": 204.745, "readahead": 93.398}}
READAHEAD_BYTES = 32_000_000


@dataclass
class Op:
    """One completed op: its kind, payload bytes and output check."""

    kind: str
    nbytes: int
    check: Callable[[], bool]


@dataclass
class Sizes:
    """Input sizes; ``tiny`` shrinks them for the self-test smoke."""

    object_bytes: int = 64 * MiB
    vec_reads: int = 1000
    vec_every: int = 40
    proxy_objects: int = 8
    proxy_object_bytes: int = 16 * MiB
    proxy_cache_bytes: int = 48 * MiB
    fig4_fraction: float = 1.0

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(
            object_bytes=1 * MiB,
            vec_reads=20,
            vec_every=5,
            proxy_objects=4,
            proxy_object_bytes=1 * MiB,
            proxy_cache_bytes=2 * MiB,
            fig4_fraction=0.02,
        )


def _origin_config():
    """Real-socket origins sleep no modelled service or disk time, so
    loopback figures measure the Python code."""
    from repro.server.handlers import ServerConfig

    return ServerConfig(service_overhead=0.0, disk_bandwidth=float("inf"))


def _join_server_threads(timeout=5.0) -> None:
    """Wait for the runtime's server threads to end after a teardown."""
    deadline = time.monotonic() + timeout
    for thread in threading.enumerate():
        if thread.name in ("http-server", "http-conn"):
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                raise RuntimeError(f"server thread {thread.name} did not end")


class Workload:
    """What every workload provides; ``setup`` and ``op`` are its own."""

    #: The two op kinds the end-to-end metrics report, in order.
    kinds = ("", "")
    #: Whether its servers run in threads of this process (see
    #: hostspeed.py for why that matters to the sampler).
    threaded = True
    #: Bytes origins served, tree entries read and bytes read-ahead
    #: cells fetched: the bases of the per-layer ratios.
    origin_bytes = 0
    events = 0
    engine_fetched = 0

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes

    def prepare(self) -> None:
        """Runs before each op, outside its timing."""

    def reconnect(self) -> None:
        """Drop kept-alive connections (before a traced phase)."""

    def teardown(self) -> None:
        """Stop everything ``setup`` started."""

    def counters(self) -> dict:
        """Extra counts printed with the named metrics."""
        return {}


class _Loopback(Workload):
    """Shared plumbing: servers started here are stopped in teardown."""

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        self.rng = random.Random(seed)
        self.servers = []
        self.client = None

    def _serve(self, app):
        from repro.concurrency import ThreadRuntime
        from repro.server import HttpServer

        server = HttpServer(ThreadRuntime(), app, port=0, host="127.0.0.1")
        server.start()
        self.servers.append(server)
        return f"http://127.0.0.1:{server.port}"

    def _client(self, **params):
        from repro.concurrency import ThreadRuntime
        from repro.core import DavixClient, RequestParams

        self.client = DavixClient(
            ThreadRuntime(), params=RequestParams(**params)
        )
        return self.client

    def reconnect(self) -> None:
        """Drop the keep-alive connections, so the next op opens new
        ones (served by whatever ``handle_connection`` is now)."""
        self.client.context.pool.clear()

    def teardown(self) -> None:
        if self.client is not None:
            self.client.context.pool.clear()
        for server in self.servers:
            # Closing a listening socket does not wake a thread blocked
            # in accept(); shutting it down does.
            try:
                server.listener.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            server.stop()
        self.servers = []
        _join_server_threads()


class SmallReads(_Loopback):
    """4 KiB preads, and every ``vec_every``-th op a 1000 x 4 KiB
    pread_vec, over one seeded in-memory object."""

    kinds = ("pread", "pread_vec")

    def setup(self) -> None:
        from repro.server import ObjectStore, StorageApp

        size = self.sizes.object_bytes
        self.data = random.Random(self.seed).randbytes(size)
        store = ObjectStore()
        store.put("/data/object", self.data)
        base = self._serve(StorageApp(store, config=_origin_config()))
        self.url = f"{base}/data/object"
        client = self._client()
        if client.stat(self.url).size != size:
            raise RuntimeError("origin reports the wrong object size")
        self.count = 0

    def op(self) -> Op:
        self.count += 1
        data, rng = self.data, self.rng
        if self.count % self.sizes.vec_every == 0:
            reads = [
                (rng.randrange(0, len(data) - 4 * KiB), 4 * KiB)
                for _ in range(self.sizes.vec_reads)
            ]
            pieces = self.client.pread_vec(self.url, reads)
            return Op(
                "pread_vec",
                4 * KiB * len(reads),
                lambda: len(pieces) == len(reads)
                and all(
                    piece == data[offset : offset + length]
                    for piece, (offset, length) in zip(pieces, reads)
                ),
            )
        offset = rng.randrange(0, len(data) - 4 * KiB)
        piece = self.client.pread(self.url, offset, 4 * KiB)
        return Op(
            "pread",
            4 * KiB,
            lambda: piece == data[offset : offset + 4 * KiB],
        )


class BulkTransfer(_Loopback):
    """Alternating 64 MiB PUTs and GETs of two seeded payloads; each
    GET reads back the payload the PUT before it wrote."""

    kinds = ("get", "put")

    def setup(self) -> None:
        from repro.server import ObjectStore, StorageApp

        size = self.sizes.object_bytes
        rng = random.Random(self.seed)
        self.payloads = [rng.randbytes(size), rng.randbytes(size)]
        self.digests = [hashlib.sha256(p).digest() for p in self.payloads]
        self.store = ObjectStore()
        self.store.put("/data/bulk", self.payloads[1])
        base = self._serve(StorageApp(self.store, config=_origin_config()))
        self.url = f"{base}/data/bulk"
        client = self._client()
        if client.stat(self.url).size != size:
            raise RuntimeError("origin reports the wrong object size")
        self.count = 0
        self.current = 1

    def op(self) -> Op:
        self.count += 1
        if self.count % 2:
            index = (self.current + 1) % 2
            status = self.client.put(self.url, self.payloads[index])
            self.current = index
            return Op(
                "put",
                len(self.payloads[index]),
                lambda: status in (201, 204)
                and hashlib.sha256(
                    self.store.get("/data/bulk").content.read_all()
                ).digest()
                == self.digests[index],
            )
        body = self.client.get(self.url)
        expected = self.payloads[self.current]
        digest = self.digests[self.current]
        return Op(
            "get",
            len(expected),
            lambda: body == expected
            and hashlib.sha256(body).digest() == digest,
        )


def _zipf_cdf(n: int, alpha: float) -> List[float]:
    weights = [1.0 / (rank ** alpha) for rank in range(1, n + 1)]
    total = sum(weights)
    cdf, running = [], 0.0
    for weight in weights:
        running += weight / total
        cdf.append(running)
    return cdf


class ProxyCache(_Loopback):
    """Ranged reads through a caching proxy whose 48 MiB page cache is
    smaller than the 8 x 16 MiB working set."""

    #: A read the proxy answered from its cache, and one that went to
    #: the origin (a miss or a partial hit): two modes whose medians
    #: are each stable, where the median of the mix is not.
    kinds = ("hit", "miss")
    SIZES = (4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB)

    def setup(self) -> None:
        from repro.core.context import Context
        from repro.server import ObjectStore, ProxyApp, StorageApp

        sizes = self.sizes
        rng = random.Random(self.seed)
        self.objects = [
            rng.randbytes(sizes.proxy_object_bytes)
            for _ in range(sizes.proxy_objects)
        ]
        store = ObjectStore()
        for index, blob in enumerate(self.objects):
            store.put(f"/data/obj{index}", blob)
        self.origin = StorageApp(store, config=_origin_config())
        origin = self._serve(self.origin)
        # The proxy's upstream client context is ours, so teardown can
        # close its keep-alive connection to the origin.
        self.upstream = Context()
        self.proxy = ProxyApp(
            cache_bytes=sizes.proxy_cache_bytes, context=self.upstream
        )
        proxy = self._serve(self.proxy)
        self.urls = [f"{origin}/data/obj{i}" for i in range(len(self.objects))]
        self.cdf = _zipf_cdf(len(self.objects), 1.1)
        client = self._client(proxy=proxy)
        first = client.pread(self.urls[0], 0, 4 * KiB)
        if first != self.objects[0][: 4 * KiB]:
            raise RuntimeError("proxy returned the wrong bytes")
        self.store = store

    @property
    def origin_bytes(self) -> int:
        return self.store.bytes_read

    def reconnect(self) -> None:
        self.upstream.pool.clear()
        super().reconnect()

    def teardown(self) -> None:
        self.upstream.pool.clear()
        super().teardown()

    def op(self) -> Op:
        rng = self.rng
        index = min(bisect.bisect_left(self.cdf, rng.random()),
                    len(self.objects) - 1)
        length = rng.choice(self.SIZES)
        blob = self.objects[index]
        offset = rng.randrange(0, len(blob) - length)
        hits = self.proxy.stats["hits"]
        piece = self.client.pread(self.urls[index], offset, length)
        return Op(
            "hit" if self.proxy.stats["hits"] > hits else "miss",
            length,
            lambda: piece == blob[offset : offset + length],
        )

    def counters(self) -> dict:
        stats = self.proxy.stats
        return {
            "hits": stats["hits"],
            "partial_hits": stats["partial_hits"],
            "misses": stats["misses"],
            "evictions": self.proxy.pages.stats["evictions"],
        }


class Fig4Wan(Workload):
    """The FIG4 WAN davix job: one op is one simulated cell, the
    synchronous one and the read-ahead one in turn. Every cell builds
    a fresh simulated world, so there is nothing to reconnect or stop."""

    kinds = ("sync", "readahead")
    threaded = False

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        #: First outcome per kind; every later cell must equal it.
        self.first = {}
        self.events = 0
        self.engine_fetched = 0

    def setup(self) -> None:
        from repro.net.profiles import WAN
        from repro.rootio.generator import generate_tree_layout, paper_dataset
        from repro.workloads import AnalysisConfig
        from repro.workloads.runner import Scenario

        spec = paper_dataset(scale=1.0)
        # What a user pays before a job: the dataset layout (each cell
        # builds it again inside run_scenario) and the scenarios.
        generate_tree_layout(spec)
        base = AnalysisConfig(fraction=self.sizes.fig4_fraction)
        self.scenarios = {
            kind: Scenario(
                profile=WAN,
                protocol="davix",
                spec=spec,
                config=base.with_(davix_readahead=readahead),
                seed=self.seed,
            )
            for kind, readahead in (
                ("sync", None),
                ("readahead", READAHEAD_BYTES),
            )
        }
        self.count = 0

    def prepare(self) -> None:
        """Start every cell from a collected heap, so its memory peak
        does not depend on when the last cell's garbage was freed."""
        gc.collect()

    def op(self) -> Op:
        from repro.workloads.runner import run_scenario

        kind = self.kinds[self.count % 2]
        self.count += 1
        report = run_scenario(self.scenarios[kind])
        outcome = (report.bytes_fetched, report.remote_reads,
                   report.wall_seconds)
        self.first.setdefault(kind, outcome)
        self.events += report.events_read
        if kind == "readahead":
            self.engine_fetched += report.bytes_fetched

        def check() -> bool:
            if outcome != self.first[kind]:
                return False
            if self.sizes.fig4_fraction != 1.0:
                return True
            pinned = FIG4_PINNED.get(self.seed, {}).get(kind)
            return (
                outcome[:2] == (FIG4_BYTES, FIG4_READS)
                and (pinned is None or round(outcome[2], 3) == pinned)
            )

        return Op(kind, report.bytes_fetched, check)

    def sim_seconds(self) -> dict:
        return {kind: self.first[kind][2] for kind in self.first}


WORKLOADS = {
    "small-reads": SmallReads,
    "bulk-transfer": BulkTransfer,
    "proxy-cache": ProxyCache,
    "fig4-wan": Fig4Wan,
}


@dataclass
class Samples:
    """Per-kind wall and CPU seconds of one phase's ops."""

    wall: dict = field(default_factory=dict)
    cpu: dict = field(default_factory=dict)
    bytes: dict = field(default_factory=dict)
    payload: int = 0
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0

    def ops(self) -> int:
        return sum(len(v) for v in self.wall.values())


def run_ops(workload, seconds: float, speed=None, recorder=None,
            min_ops: int = 1) -> Samples:
    """Closed loop for ``seconds`` (at least ``min_ops`` ops).

    Each op's wall and process CPU time is measured around the call
    alone and, when a :class:`hostspeed.HostSpeed` sampler runs,
    scaled to the nominal host once the phase ends. The op's output
    check runs after the clocks stop.
    """
    samples = Samples()
    mark = speed.mark if speed is not None else _mark
    timed = []
    started = time.perf_counter()
    deadline = started + seconds
    while samples.attempted < min_ops or time.perf_counter() < deadline:
        samples.attempted += 1
        if recorder is not None:
            recorder.op = samples.attempted
        workload.prepare()
        if speed is not None:
            speed.between_ops()
        begin = mark()
        try:
            if recorder is not None:
                with recorder.root():
                    op = workload.op()
            else:
                op = workload.op()
        except Exception as exc:  # an op that raises is a failed op
            samples.failed += 1
            print(f"op failed: {exc!r}")
            continue
        end = mark()
        if not op.check():
            samples.failed += 1
            print(f"output check failed on a {op.kind} op")
            continue
        timed.append((op.kind, begin, end))
        samples.bytes[op.kind] = samples.bytes.get(op.kind, 0) + op.nbytes
        samples.payload += op.nbytes
    samples.elapsed = time.perf_counter() - started
    if speed is not None:
        speed.sample()  # the last op's samples
    for kind, begin, end in timed:
        if speed is not None:
            wall, cpu = speed.normalise(begin, end)
        else:
            wall, cpu = end[0] - begin[0], end[1] - begin[1]
        samples.wall.setdefault(kind, []).append(wall)
        samples.cpu.setdefault(kind, []).append(cpu)
    return samples


def _mark():
    return time.perf_counter(), time.process_time()
