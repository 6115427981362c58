"""DavFile: remote-file operations over HTTP (the davix file API).

Implements the data-access surface the paper's analysis jobs use:

* ``stat`` via HEAD (PROPFIND fallback);
* full-object reads (optionally streamed into a sink);
* positional reads via single Range requests;
* **vectored reads** via multi-range requests (Section 2.3) with
  transparent fallback when the server lacks multi-range support;
* Metalink retrieval (Section 2.4).

Every method is an effect sub-op; :class:`~repro.core.client.DavixClient`
offers the synchronous facade.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.concurrency import bounded_gather
from repro.core.context import Context, RequestParams
from repro.core.engine import TransferEngine
from repro.core.request import execute_request
from repro.core.vectored import (
    PartTable,
    missing_ranges,
    plan_vector,
    scatter_parts,
)
from repro.errors import (
    FileNotFound,
    HttpError,
    HttpParseError,
    PermissionDenied,
    RequestError,
)
from repro.http import (
    Headers,
    RangePart,
    RangeSpec,
    Request,
    Response,
    Url,
    decode_range_response,
    format_range_header,
    merge_spans,
)
from repro.http.headers import parse_cache_control
from repro.http.multipart import (
    MultipartStream,
    content_type_boundary,
    is_byteranges,
)
from repro.metalink import METALINK_MEDIA_TYPE, Metalink, parse_metalink

__all__ = ["FileStat", "DavFile"]


@dataclass(frozen=True)
class FileStat:
    """POSIX-flavoured metadata of a remote resource."""

    size: int
    mtime: Optional[float]
    is_directory: bool
    etag: Optional[str] = None


def _cache_ttl(response: Response) -> Optional[float]:
    """The page-cache TTL a response's ``Cache-Control`` dictates.

    ``None`` = no freshness directive (cacheable, unbounded); ``0.0``
    = the origin forbids reuse (``no-store``/``no-cache``/
    ``max-age=0``); a positive value = ``max-age`` seconds.
    """
    value = response.headers.get("Cache-Control")
    if value is None:
        return None
    directives = parse_cache_control(value)
    if "no-store" in directives or "no-cache" in directives:
        return 0.0
    max_age = directives.get("max-age")
    if max_age is None:
        return None
    try:
        return max(0.0, float(max_age))
    except (TypeError, ValueError):
        return None


def raise_for_status(response: Response, path: str) -> None:
    """Map HTTP error statuses onto the davix exception hierarchy."""
    if response.status == 404:
        raise FileNotFound(path)
    if response.status in (401, 403):
        raise PermissionDenied(path, response.status)
    if response.status >= 400:
        raise RequestError(
            f"{path}: HTTP {response.status} {response.reason}",
            status=response.status,
        )


class DavFile:
    """One remote resource addressed by URL.

    ``read_ahead`` overrides ``params.transfer.read_ahead`` for this
    file: ``True`` arms the pipelined transfer engine
    (:class:`~repro.core.engine.TransferEngine`), ``False`` pins the
    demanded path, ``None`` (default) follows the config.
    """

    def __init__(
        self,
        context: Context,
        url,
        params: Optional[RequestParams] = None,
        read_ahead: Optional[bool] = None,
    ):
        self.context = context
        self.url = url if isinstance(url, Url) else Url.parse(url)
        self.params = params or context.params
        self.transfer = self.params.effective_transfer()
        armed = (
            self.transfer.read_ahead if read_ahead is None else read_ahead
        )
        self._engine: Optional[TransferEngine] = (
            TransferEngine(self, self.transfer) if armed else None
        )
        # The page cache is context-owned (one per Context, shared by
        # every file), so repeated opens of the same URL reuse pages.
        self._cache_key = str(self.url)
        self._pagecache = context.page_cache_for(self.transfer)

    # -- read-ahead engine --------------------------------------------------

    @property
    def read_ahead_enabled(self) -> bool:
        """Is the pipelined transfer engine armed on this file?"""
        return self._engine is not None

    @property
    def engine(self) -> Optional[TransferEngine]:
        """The armed :class:`TransferEngine`, if any (stats, window)."""
        return self._engine

    def prefetch(
        self,
        segments: Sequence[Tuple[int, int]],
        replace: bool = False,
    ) -> TransferEngine:
        """Feed ``(offset, length)`` segments to the read-ahead plan.

        Arms the transfer engine if it is not already; pure
        bookkeeping — speculative fetches launch lazily as subsequent
        ``pread``/``pread_vec`` calls pump the window. With
        ``replace=True`` the previous plan is abandoned first: its
        in-flight speculative batches are cancelled (counted in
        ``engine.cancelled_batches_total``) rather than drained
        uselessly. Returns the engine (stats and window state live
        there).
        """
        if self._engine is None:
            self._engine = TransferEngine(self, self.transfer)
        elif replace:
            self._engine.abandon()
        self._engine.prefetch(segments)
        return self._engine

    def drain(self):
        """Effect sub-op: join outstanding speculative fetches.

        Call before tearing down the runtime when read-ahead is armed;
        a no-op otherwise.
        """
        if self._engine is not None:
            yield from self._engine.drain()

    def close(self):
        """Effect sub-op: abandon the read-ahead plan and clean up.

        In-flight speculative batches are cancelled (their window
        slots free immediately, ``engine.cancelled_batches_total``
        counts them) and their already-spawned tasks joined. A no-op
        without the engine armed; the file object stays usable.
        """
        if self._engine is not None:
            self._engine.abandon()
            yield from self._engine.drain()

    # -- metadata ---------------------------------------------------------------

    def stat(self):
        """Effect sub-op: (size, mtime, type) via HEAD, PROPFIND fallback."""
        response, _ = yield from execute_request(
            self.context, self.url, Request("HEAD", self.url.target),
            self.params,
        )
        if response.status == 405:
            stat = yield from self._stat_propfind()
            return stat
        raise_for_status(response, self.url.path)
        return FileStat(
            size=response.headers.get_int("Content-Length") or 0,
            mtime=None,
            is_directory=False,
            etag=response.headers.get("ETag"),
        )

    def _stat_propfind(self):
        from repro.server.webdav import parse_multistatus

        request = Request(
            "PROPFIND", self.url.target, Headers([("Depth", "0")])
        )
        response, _ = yield from execute_request(
            self.context, self.url, request, self.params
        )
        raise_for_status(response, self.url.path)
        resources = parse_multistatus(response.body)
        if not resources:
            raise FileNotFound(self.url.path)
        res = resources[0]
        return FileStat(
            size=res.size,
            mtime=res.mtime,
            is_directory=res.is_collection,
            etag=res.etag,
        )

    def exists(self):
        """Effect sub-op: does the resource exist?"""
        try:
            yield from self.stat()
        except FileNotFound:
            return False
        return True

    # -- whole-object I/O ---------------------------------------------------------

    def read_all(self, sink: Optional[Callable[[bytes], None]] = None):
        """Effect sub-op: GET the full object.

        Returns the bytes, or the total length when ``sink`` is given
        (chunks stream into the sink).
        """
        def factory(head: Response):
            return sink if sink is not None and head.ok else None

        request = Request("GET", self.url.target)
        response, _ = yield from execute_request(
            self.context,
            self.url,
            request,
            self.params,
            sink_factory=factory if sink is not None else None,
        )
        raise_for_status(response, self.url.path)
        if sink is not None:
            streamed = response.headers.get_int("Content-Length") or 0
            self._charge_delivery(0, streamed)
            return streamed
        self._charge_delivery(0, len(response.body))
        return response.body

    def write_all(self, data: bytes, content_type="application/octet-stream"):
        """Effect sub-op: PUT the full object (idempotent update)."""
        request = Request(
            "PUT",
            self.url.target,
            Headers([("Content-Type", content_type)]),
            body=data,
        )
        response, _ = yield from execute_request(
            self.context, self.url, request, self.params
        )
        raise_for_status(response, self.url.path)
        return response.status

    def delete(self):
        """Effect sub-op: DELETE the object."""
        response, _ = yield from execute_request(
            self.context,
            self.url,
            Request("DELETE", self.url.target),
            self.params,
        )
        raise_for_status(response, self.url.path)

    # -- positional I/O -----------------------------------------------------------

    def pread(self, offset: int, length: int):
        """Effect sub-op: read ``length`` bytes at ``offset``.

        With the page cache armed the cached pages are consulted
        before anything leaves the process (a full hit costs no round
        trip; a partial hit fetches only the missing page-aligned
        spans). With the transfer engine armed the read is then
        offered to the speculative window (a plan hit costs no round
        trip); a miss falls through to the demanded single-range
        request. A read past EOF returns ``b""``.
        """
        if length == 0:
            return b""
        pieces = yield from self._read(
            [(int(offset), int(length))],
            self._single_from_engine,
            self._single_on_demand,
        )
        return pieces[0]

    def _single_from_engine(self, reads):
        """``pread``'s engine step: the window's answer for one read."""
        hit = yield from self._engine.read_single(*reads[0])
        return [hit]

    def _single_on_demand(self, reads):
        """``pread``'s demand step: one single-range GET."""
        parts = yield from self._fetch_batch(reads)
        data = bytes(parts.find(*reads[0]))
        self._charge_delivery(0, len(data))
        return [data]

    def pread_vec(self, reads: Sequence[Tuple[int, int]]):
        """Effect sub-op: vectored read -> list of bytes, input order.

        This is the paper's flagship feature: the reads are coalesced
        and packed into at most ``ceil(n_ranges/max_vector_ranges)``
        multi-range requests, each answered by one
        ``multipart/byteranges`` response. With
        ``transfer.max_inflight > 1`` the batches dispatch
        concurrently, each on its own pooled session with its own
        retry/deadline/breaker envelope; partial responses refetch only
        their ``missing_ranges``. With the transfer engine armed
        (``transfer.read_ahead`` / :meth:`prefetch`) the reads route
        through the speculative window instead. The decode → scatter
        path is zero-copy (``memoryview`` slices over each response
        buffer) until the per-fragment ``bytes`` materialise — the
        only copy, accounted in ``vector.copy_bytes_total``. Fragments
        past EOF come back short (``b""`` when wholly past it).
        """
        reads = [(int(offset), int(length)) for offset, length in reads]
        if any(length == 0 for _, length in reads):
            # Zero-length reads answer b"" locally on every path; only
            # the real reads hit the planner (which rejects empty
            # fragments) or the engine.
            kept = [
                (index, read)
                for index, read in enumerate(reads)
                if read[1] > 0
            ]
            results: List[bytes] = [b""] * len(reads)
            if kept:
                pieces = yield from self.pread_vec(
                    [read for _, read in kept]
                )
                for (index, _), piece in zip(kept, pieces):
                    results[index] = piece
            return results
        max_inflight = self.params.effective_transfer().max_inflight
        results = yield from self._read(
            reads,
            lambda pending: self._engine.read_vec(pending),
            lambda pending: self._pread_vec_demand(pending, max_inflight),
        )
        return results

    def _read(self, reads: List[Tuple[int, int]], from_engine, on_demand):
        """Effect sub-op: the positional read pipeline of both calls.

        Each step answers what it can of ``reads`` and hands the rest
        on:

        1. with the page cache armed, every read is probed (a full hit
           costs no round trip; the probe is the ``cache-lookup``
           phase);
        2. with the transfer engine armed, ``from_engine`` offers the
           rest to the speculative window (a ``None`` piece is a miss);
        3. with the page cache armed, the misses' page-aligned gaps
           are fetched into the cache and re-probed, for at most three
           rounds — an ETag change mid-fill widens the gaps, and a
           budget smaller than the read stops converging;
        4. ``on_demand`` fetches whatever is left.

        ``from_engine`` and ``on_demand`` map a list of reads to a list
        of pieces; they are where ``pread`` and ``pread_vec`` differ.
        """
        results: List[Optional[bytes]] = [None] * len(reads)
        pending = list(range(len(reads)))
        key = self._cache_key
        cache = self._pagecache
        if cache is not None and cache.suppressed(key):
            cache = None
        gaps: Dict[int, List[Tuple[int, int]]] = {}
        if cache is not None:
            started = self.context.clock()
            hit_bytes = 0
            for index, (offset, length) in enumerate(reads):
                data, missing = cache.lookup(key, offset, length)
                if data is None:
                    gaps[index] = missing
                else:
                    results[index] = data
                    hit_bytes += len(data)
            self.context.metrics.histogram(
                "request.phase_seconds", phase="cache-lookup"
            ).observe(self.context.clock() - started)
            self._charge_delivery(hit_bytes, 0)
            pending = list(gaps)
        if pending and self._engine is not None:
            pieces = yield from from_engine([reads[i] for i in pending])
            delivered = 0
            missed: List[int] = []
            for index, piece in zip(pending, pieces):
                if piece is None:
                    missed.append(index)
                else:
                    results[index] = piece
                    delivered += len(piece)
            self._charge_delivery(0, delivered)
            pending = missed
        if pending and cache is not None:
            # Bytes already resident at probe time stay "page-cache"
            # even though the read completes after the gap fill.
            resident = {
                index: reads[index][1] - sum(n for _, n in gaps[index])
                for index in pending
            }
            spans = merge_spans(
                span for index in pending for span in gaps[index]
            )
            for _ in range(3):
                if spans:
                    yield from self._fetch_spans(spans)
                unresolved: List[int] = []
                for index in pending:
                    data = cache.read(key, *reads[index])
                    if data is None:
                        unresolved.append(index)
                        continue
                    results[index] = data
                    cached = min(len(data), max(0, resident[index]))
                    self._charge_delivery(cached, len(data) - cached)
                pending = unresolved
                if not pending:
                    break
                again = merge_spans(
                    span
                    for index in pending
                    for span in cache.missing_spans(key, *reads[index])
                )
                if again == spans:
                    break  # filling stopped converging: demand the rest
                spans = again
        if pending:
            pieces = yield from on_demand([reads[i] for i in pending])
            for index, piece in zip(pending, pieces):
                results[index] = piece
        return results

    # -- byte provenance ----------------------------------------------------

    def _charge_delivery(self, cached: int, network: int) -> None:
        """Attribute delivered payload bytes to their source.

        Every byte a positional read hands back is charged to exactly
        one of ``provenance.bytes_total{source=page-cache}`` (served
        from the client page cache) or ``{source=network}`` (arrived
        over the wire for this read) — the client half of the
        cluster-wide byte-provenance ledger
        (:func:`repro.obs.analyze.byte_provenance`). Delivered bytes
        only: page-aligned overfetch is charged when (if ever) it is
        later read back out of the cache.
        """
        if cached > 0:
            self.context.metrics.counter(
                "provenance.bytes_total", source="page-cache"
            ).inc(cached)
        if network > 0:
            self.context.metrics.counter(
                "provenance.bytes_total", source="network"
            ).inc(network)

    # -- page-cache plumbing ------------------------------------------------

    def _cache_insert(self, response: Response, pieces, total) -> None:
        """Feed a decoded reply into the page cache (no-op when off).

        ``pieces`` are :class:`~repro.http.RangePart`; only pages fully
        covered by a piece are stored, and a stale ETag invalidates
        before anything lands (see :meth:`PageCache.insert`). The
        reply's ``Cache-Control`` header becomes the insert's TTL:
        ``no-store``/``no-cache``/``max-age=0`` keep the bytes out of
        the cache; ``max-age=N`` bounds their freshness. A reply with
        no pieces still teaches the cache a known ``total`` (a 416's
        ``bytes */N``).
        """
        cache = self._pagecache
        if cache is None:
            return
        etag = response.headers.get("ETag")
        ttl = _cache_ttl(response)
        if not pieces and total is not None:
            pieces = [RangePart(offset=0, data=b"", total=total)]
        for piece in pieces:
            cache.insert(
                self._cache_key, etag, piece.offset, piece.data,
                total=piece.total, ttl=ttl,
            )

    def _fetch_spans(self, spans: List[Tuple[int, int]]):
        """Effect sub-op: fetch ``(offset, length)`` spans into the cache.

        The spans (page-aligned gaps from ``missing_spans``) pack into
        coalesced multi-range GETs — at most ``max_vector_ranges`` per
        request — each of which lands in the page cache; the caller
        re-probes the cache for bytes.
        """
        max_ranges = max(1, self.params.max_vector_ranges)
        for start in range(0, len(spans), max_ranges):
            yield from self._fetch_batch(spans[start : start + max_ranges])

    # -- vectored I/O -------------------------------------------------------

    def _pread_vec_demand(
        self, reads: Sequence[Tuple[int, int]], max_inflight: int = 1
    ):
        """The demanded vectored read: plan, fetch, scatter."""
        plan = plan_vector(
            reads,
            max_ranges=self.params.max_vector_ranges,
            gap=self.params.vector_gap,
        )
        if not plan.fragments:
            return []
        self.context.bump("vector_requests", len(plan.batches))
        self.context.bump("vector_fragments", len(plan.fragments))
        metrics = self.context.metrics
        metrics.counter("vector.round_trips_total").inc(len(plan.batches))
        metrics.counter("vector.fragments_total").inc(len(plan.fragments))
        metrics.counter("vector.ranges_total").inc(plan.total_ranges)
        metrics.counter("vector.fragments_coalesced_total").inc(
            len(plan.fragments) - plan.total_ranges
        )
        metrics.counter("vector.requested_bytes_total").inc(
            plan.requested_bytes
        )
        # Overlapping fragments can make the merged ranges smaller than
        # the sum of requests; only true gap overhead is counted.
        metrics.counter("vector.overhead_bytes_total").inc(
            max(0, plan.total_request_bytes - plan.requested_bytes)
        )

        inflight = min(max_inflight, len(plan.batches))
        span = self.context.tracer.start(
            "pread-vec",
            url=str(self.url),
            fragments=len(plan.fragments),
            ranges=plan.total_ranges,
            inflight=max(1, inflight),
        )
        try:
            results: Dict[int, bytes] = {}
            if inflight <= 1:
                for index, batch in enumerate(plan.batches):
                    scattered = yield from self._fetch_scatter(
                        batch, span, index
                    )
                    results.update(scattered)
            else:
                metrics.counter("vector.parallel_dispatch_total").inc()
                gauge = metrics.gauge("vector.inflight")

                def job(batch, index):
                    def thunk():
                        scattered = yield from self._fetch_scatter(
                            batch, span, index
                        )
                        return scattered

                    return thunk

                outcomes = yield from bounded_gather(
                    [
                        job(batch, index)
                        for index, batch in enumerate(plan.batches)
                    ],
                    limit=inflight,
                    name="vec-batch",
                    on_start=lambda: gauge.add(1),
                    on_finish=lambda: gauge.add(-1),
                )
                for outcome in outcomes:
                    results.update(outcome.unwrap())
        finally:
            span.end()
        pieces = [results[i] for i in range(len(plan.fragments))]
        self._charge_delivery(0, sum(len(p) for p in pieces))
        return pieces

    def _fetch_scatter(self, batch, parent_span, index: int):
        """Fetch one batch and scatter its fragments.

        The per-batch child span is explicitly parented (concurrent
        batches interleave, so implicit stack parenting would
        cross-nest); the materialised fragment bytes land in
        ``vector.copy_bytes_total`` — exactly one copy per fragment on
        the zero-copy path.
        """
        batch_span = parent_span.child(
            "vec-batch", batch=index, ranges=len(batch)
        )
        try:
            parts = yield from self._fetch_batch_covered(batch, batch_span)
            scattered = scatter_parts(batch, parts)
        finally:
            batch_span.end()
        self.context.metrics.counter("vector.copy_bytes_total").inc(
            sum(len(piece) for piece in scattered.values())
        )
        return scattered

    def _fetch_batch_covered(self, batch, parent_span=None, stream=False):
        """Fetch one batch of :class:`CoalescedRange`, re-requesting any
        ranges the response left uncovered (a reset
        mid-multipart-body, a server honouring only some ranges).
        Multi-range GETs are idempotent, so the refetch is always
        retry-safe; rounds are bounded by the retry policy's attempt
        budget.
        """
        parts = yield from self._fetch_batch(
            [(rng.offset, rng.length) for rng in batch], parent_span, stream
        )
        rounds = self.params.effective_retry_policy().max_attempts - 1
        missing = missing_ranges(batch, parts)
        while missing and rounds > 0:
            rounds -= 1
            self.context.metrics.counter(
                "vector.refetch_batches_total"
            ).inc()
            self.context.metrics.counter(
                "vector.refetch_ranges_total"
            ).inc(len(missing))
            more = yield from self._fetch_batch(
                [(rng.offset, rng.length) for rng in missing],
                parent_span,
                stream,
            )
            parts.merge(more)
            missing = missing_ranges(batch, parts)
        # Still-missing ranges surface through scatter_parts, which
        # raises the caller-facing RequestError.
        return parts

    def _fetch_batch(self, spans, parent_span=None, stream=False):
        """Effect sub-op: one ranged GET -> :class:`PartTable` of views.

        The only step that sends a ranged GET: engine speculation,
        vectored batches, the page-cache gap fill and ``pread``'s
        demand read all go through it. ``spans`` are ``(offset,
        length)`` pairs. The reply decodes through
        :func:`~repro.http.decode_range_response` and lands in the page
        cache; a 416 decodes to an empty table whose ``total`` clips
        every read past EOF to ``b""``. A malformed reply raises
        :class:`~repro.errors.RequestError`.

        With ``stream=True`` a multipart body decodes incrementally as
        chunks arrive (:class:`~repro.http.multipart.MultipartStream`
        behind a streaming sink), overlapping decode with the transfer
        — the engine's speculative path. Each retry attempt gets a
        fresh decoder; non-multipart responses fall back to buffering.
        """
        specs = [RangeSpec.from_offset_length(o, n) for o, n in spans]
        headers = Headers([("Range", format_range_header(specs))])
        request = Request("GET", self.url.target, headers)

        streamed: Dict[str, object] = {}
        sink_factory = None
        if stream:
            def sink_factory(head: Response):
                streamed["decoder"] = None
                if not is_byteranges(head):
                    return None
                try:
                    boundary = content_type_boundary(head.content_type)
                except HttpParseError:
                    return None  # buffered decode reports the error
                decoder = MultipartStream(boundary)
                streamed["decoder"] = decoder
                streamed["seconds"] = 0.0

                def sink(chunk: bytes) -> None:
                    started = self.context.clock()
                    decoder.feed(chunk)
                    streamed["seconds"] += (
                        self.context.clock() - started
                    )

                return sink

        response, _ = yield from execute_request(
            self.context, self.url, request, self.params,
            sink_factory=sink_factory,
            idempotent=True,
            parent_span=parent_span,
        )
        if response.status != 416:
            raise_for_status(response, self.url.path)

        decoder = streamed.get("decoder")
        decode_started = self.context.clock()
        try:
            if decoder is not None:
                pieces = decoder.close()
                total = pieces[0].total if pieces else None
            else:
                pieces, total = decode_range_response(response)
        except HttpError as exc:
            raise RequestError(f"bad range response: {exc}") from exc
        if decoder is not None or is_byteranges(response):
            decode_seconds = (
                streamed["seconds"]
                if decoder is not None
                else self.context.clock() - decode_started
            )
            self.context.metrics.histogram(
                "request.phase_seconds", phase="multipart-decode"
            ).observe(decode_seconds)
            if parent_span is not None:
                parent_span.set(multipart_decode=decode_seconds)
        self._cache_insert(response, pieces, total)
        return PartTable.from_parts(
            ((piece.offset, piece.data) for piece in pieces), total=total
        )

    # -- metalink -----------------------------------------------------------------

    def get_metalink(self) -> Metalink:
        """Effect sub-op: fetch the Metalink document for this resource."""
        request = Request(
            "GET",
            self.url.target,
            Headers([("Accept", METALINK_MEDIA_TYPE)]),
        )
        response, _ = yield from execute_request(
            self.context, self.url, request, self.params
        )
        raise_for_status(response, self.url.path)
        if METALINK_MEDIA_TYPE not in response.content_type:
            raise RequestError(
                f"{self.url.path}: server returned "
                f"{response.content_type!r}, not a metalink"
            )
        return parse_metalink(response.body)
