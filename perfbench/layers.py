"""The layer boundaries the traced run wraps, and the per-layer metrics.

Each layer is named after the module it measures. ``install`` patches
the public entry points listed in ``BOUNDARIES`` with
:class:`~spans.SpanRecorder` wrappers; ``layer_metrics`` turns the
recorder's aggregates into the benchmark's ``per_layer`` metrics.
"""

from __future__ import annotations

import importlib

from spans import OTHER

#: (module, owner or None for a module function, attribute) per layer.
BOUNDARIES = {
    "http.codec": [
        ("repro.http.codec", "HttpParser", "receive_data"),
        ("repro.http.codec", "HttpParser", "next_event"),
        ("repro.http.codec", None, "serialize_request"),
        ("repro.http.codec", None, "serialize_response"),
        ("repro.http.codec", None, "serialize_response_head"),
    ],
    "http.multipart": [
        ("repro.http.multipart", None, "decode_byteranges"),
        ("repro.http.multipart", None, "encode_byteranges"),
        ("repro.http.multipart", "MultipartStream", "feed"),
        ("repro.http.multipart", "MultipartStream", "close"),
    ],
    "core.vectored": [
        ("repro.core.vectored", None, "plan_vector"),
        ("repro.core.vectored", None, "scatter_parts"),
        ("repro.core.vectored", "PartTable", "find"),
        ("repro.core.vectored", "PartTable", "add"),
    ],
    "core.request": [
        ("repro.core.request", None, "execute_request"),
        ("repro.core.session", "Session", "request"),
        ("repro.core.pool", "SessionPool", "acquire"),
        ("repro.core.pool", "SessionPool", "release"),
    ],
    "core.engine": [
        ("repro.core.engine", "TransferEngine", "read_vec"),
        ("repro.core.engine", "TransferEngine", "read_single"),
        ("repro.core.engine", "TransferEngine", "prefetch"),
    ],
    "core.pagecache": [
        ("repro.core.pagecache", "PageCache", "lookup"),
        ("repro.core.pagecache", "PageCache", "read"),
        ("repro.core.pagecache", "PageCache", "insert"),
        ("repro.core.pagecache", "PageCache", "missing_spans"),
    ],
    "server.handlers": [
        ("repro.server.handlers", "StorageApp", "handle"),
    ],
    "server.proxy": [
        ("repro.server.proxy", "ProxyApp", "handle"),
    ],
    # The GET path streams through the stored object's content, not
    # ObjectStore.read, so the content readers are wrapped as well.
    "server.objectstore": [
        ("repro.server.objectstore", "ObjectStore", "get"),
        ("repro.server.objectstore", "ObjectStore", "read"),
        ("repro.server.objectstore", "ObjectStore", "put"),
        ("repro.server.objectstore", "BytesContent", "read"),
        ("repro.server.objectstore", "ZeroContent", "read"),
    ],
    "concurrency": [
        ("repro.concurrency.thread_runtime", "ThreadRuntime", "_perform"),
    ],
    "sim": [
        ("repro.sim.core", "Environment", "step"),
    ],
    "net.tcp": [
        ("repro.net.tcp", "ConnectionSide", "send"),
        ("repro.net.tcp", "ConnectionSide", "recv"),
    ],
    "rootio": [
        ("repro.rootio.tree", "BranchMeta", "basket_for_entry"),
        ("repro.rootio.tree", "BranchMeta", "baskets_for_entries"),
        ("repro.rootio.tree", "TreeMeta", "segments_for_entries"),
        ("repro.rootio.treecache", "TTreeCache", "read_entry"),
    ],
    "obs": [
        ("repro.obs.metrics", "MetricsRegistry", "counter"),
        ("repro.obs.metrics", "MetricsRegistry", "gauge"),
        ("repro.obs.metrics", "MetricsRegistry", "histogram"),
        ("repro.obs.tracing", "Tracer", "start"),
        ("repro.obs.tracing", "Span", "end"),
        ("repro.obs.events", "EventLog", "emit"),
    ],
}

#: Roots with no layer: each resumption of a server connection loop
#: (its self time is ``other``).
ROOTS = [("repro.server.app", None, "handle_connection")]

#: Calls counted as lookups by the count metrics.
BASKET_LOOKUPS = ("BranchMeta.basket_for_entry", "BranchMeta.baskets_for_entries")
METRIC_LOOKUPS = (
    "MetricsRegistry.counter",
    "MetricsRegistry.gauge",
    "MetricsRegistry.histogram",
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "http.codec.calls_per_op": "count",
    "http.codec.self_us_per_op": "us",
    "http.multipart.self_us_per_op": "us",
    "http.multipart.bytes_per_op": "bytes",
    "core.vectored.self_us_per_op": "us",
    "core.request.self_us_per_op": "us",
    "core.pool.reuse_ratio": "ratio",
    "core.engine.self_us_per_op": "us",
    "core.engine.useful_ratio": "ratio",
    "core.pagecache.self_us_per_op": "us",
    "core.pagecache.hit_ratio": "ratio",
    "core.pagecache.evictions_per_op": "count",
    "server.handlers.self_us_per_op": "us",
    "server.proxy.self_us_per_op": "us",
    "server.proxy.origin_byte_ratio": "ratio",
    "server.objectstore.self_us_per_op": "us",
    "concurrency.wait_us_per_op": "us",
    "concurrency.recv_calls_per_MiB": "count/MiB",
    "sim.events_per_cell": "count",
    "sim.self_s_per_cell": "s",
    "net.tcp.self_s_per_cell": "s",
    "rootio.basket_lookups_per_event": "count",
    "rootio.self_s_per_cell": "s",
    "obs.metric_lookups_per_op": "count",
    "obs.self_us_per_op": "us",
    "other": "us",
    "trace.overhead_ratio": "ratio",
}


def _hooks(recorder):
    """Counters taken at the boundaries, keyed by (owner, attribute)."""

    def body_bytes(index):
        return lambda args, kwargs, result: recorder.count(
            "multipart.bytes", len(args[index])
        )

    def acquired(args, kwargs, result):
        recorder.count("pool.acquires")
        if result is not None:
            recorder.count("pool.reused")

    def looked_up(args, kwargs, result):
        recorder.count("pagecache.probes")
        if result[0] is not None:
            recorder.count("pagecache.hits")

    def probed(args, kwargs, result):
        recorder.count("pagecache.probes")
        if not result:
            recorder.count("pagecache.hits")

    def performed(args, kwargs, result):
        if type(args[1]).__name__ == "Recv":
            recorder.count("recv.calls")

    def handed_vec(args, kwargs, result):
        recorder.count("engine.handed", sum(len(piece) for piece in result))

    def handed_single(args, kwargs, result):
        if result is not None:
            recorder.count("engine.handed", len(result))

    return {
        (None, "decode_byteranges"): body_bytes(0),
        (None, "encode_byteranges"): lambda args, kwargs, result: (
            recorder.count("multipart.bytes", len(result))
        ),
        ("MultipartStream", "feed"): body_bytes(1),
        ("SessionPool", "acquire"): acquired,
        ("PageCache", "lookup"): looked_up,
        ("PageCache", "missing_spans"): probed,
        ("ThreadRuntime", "_perform"): performed,
        ("TransferEngine", "read_vec"): handed_vec,
        ("TransferEngine", "read_single"): handed_single,
    }


def _proxy_handle(recorder, original):
    """ProxyApp.handle returns a deferred op for misses; trace it too."""

    def handle(self, request):
        served = original(self, request)
        deferred = served.deferred
        if deferred is not None:
            served.deferred = lambda: recorder.drive(
                deferred(), "server.proxy", "ProxyApp.deferred"
            )
        return served

    return handle


def _evictions(recorder, original):
    """Evictions happen inside PageCache.insert; count its delta."""

    def insert(self, *args, **kwargs):
        before = self.stats["evictions"]
        try:
            return original(self, *args, **kwargs)
        finally:
            recorder.count("pagecache.evictions",
                           self.stats["evictions"] - before)

    return insert


#: Boundaries whose wrapper needs more than a hook, keyed like hooks.
ADAPTERS = {
    ("ProxyApp", "handle"): _proxy_handle,
    ("PageCache", "insert"): _evictions,
}


def install(recorder) -> None:
    """Patch every boundary in ``BOUNDARIES`` with a traced wrapper."""
    hooks = _hooks(recorder)
    # Import every package first so by-name imports get patched too.
    for package in ("repro.core", "repro.server", "repro.workloads",
                    "repro.rootio", "repro.net", "repro.sim"):
        importlib.import_module(package)
    for layer, targets in [(None, ROOTS), *BOUNDARIES.items()]:
        for module_name, owner_name, attr in targets:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            recorder.patch(
                owner,
                attr,
                layer,
                name=f"{owner_name}.{attr}" if owner_name else attr,
                hook=hooks.get((owner_name, attr)),
                nested_only=layer == "concurrency",
                adapt=ADAPTERS.get((owner_name, attr)),
            )


def layer_metrics(summary, ops, cells, events, payload_bytes,
                  engine_fetched, origin_bytes, overhead_ratio) -> dict:
    """The ``per_layer`` metrics from a recorder summary.

    ``ops`` counts the workload's ops, ``cells`` its FIG4 cells (0 on
    loopback), ``events`` the tree entries those cells read.
    """
    self_ns = summary["self_ns"]
    calls = summary["calls"]
    counts = summary["counts"]

    def per(value, base):
        return value / base if base else 0.0

    def us(layer):
        return per(self_ns.get(layer, 0) / 1e3, ops)

    def s_cell(layer):
        return per(self_ns.get(layer, 0) / 1e9, cells)

    def layer_calls(layer):
        names = {
            f"{owner}.{attr}" if owner else attr
            for _, owner, attr in BOUNDARIES[layer]
        }
        return sum(n for name, n in calls.items() if name in names)

    values = {
        "http.codec.calls_per_op": per(layer_calls("http.codec"), ops),
        "http.codec.self_us_per_op": us("http.codec"),
        "http.multipart.self_us_per_op": us("http.multipart"),
        "http.multipart.bytes_per_op": per(counts.get("multipart.bytes", 0), ops),
        "core.vectored.self_us_per_op": us("core.vectored"),
        "core.request.self_us_per_op": us("core.request"),
        "core.pool.reuse_ratio": per(
            counts.get("pool.reused", 0), counts.get("pool.acquires", 0)
        ),
        "core.engine.self_us_per_op": us("core.engine"),
        "core.engine.useful_ratio": per(
            counts.get("engine.handed", 0), engine_fetched
        ),
        "core.pagecache.self_us_per_op": us("core.pagecache"),
        "core.pagecache.hit_ratio": per(
            counts.get("pagecache.hits", 0), counts.get("pagecache.probes", 0)
        ),
        "core.pagecache.evictions_per_op": per(
            counts.get("pagecache.evictions", 0), ops
        ),
        "server.handlers.self_us_per_op": us("server.handlers"),
        "server.proxy.self_us_per_op": us("server.proxy"),
        "server.proxy.origin_byte_ratio": per(origin_bytes, payload_bytes),
        "server.objectstore.self_us_per_op": us("server.objectstore"),
        "concurrency.wait_us_per_op": us("concurrency"),
        "concurrency.recv_calls_per_MiB": per(
            counts.get("recv.calls", 0), payload_bytes / (1 << 20)
        ),
        "sim.events_per_cell": per(calls.get("Environment.step", 0), cells),
        "sim.self_s_per_cell": s_cell("sim"),
        "net.tcp.self_s_per_cell": s_cell("net.tcp"),
        "rootio.basket_lookups_per_event": per(
            sum(calls.get(name, 0) for name in BASKET_LOOKUPS), events
        ),
        "rootio.self_s_per_cell": s_cell("rootio"),
        "obs.metric_lookups_per_op": per(
            sum(calls.get(name, 0) for name in METRIC_LOOKUPS), ops
        ),
        "obs.self_us_per_op": us("obs"),
        "other": us(OTHER),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in PER_LAYER.items()
    }
