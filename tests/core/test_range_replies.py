"""Every read path decodes a ranged reply the same way.

A :class:`StorageApp` whose replies the test rewrites serves malformed
or mislabelled ranged replies. ``pread`` and ``pread_vec`` (demanded,
and through the page-cache gap fill) must turn each one into a
:class:`RequestError`, never wrong bytes and never a bare HTTP-layer
exception.
"""

import pytest

from repro.core import RequestParams, TransferConfig
from repro.errors import RequestError

from tests.helpers import davix_world

URL = "http://server/blob"
BLOB = bytes((i * 31 + 7) % 256 for i in range(20_000))


def rewriting_world(rewrite, params=None):
    """A sim world whose StorageApp passes every reply through
    ``rewrite(request, response)`` before sending it."""
    client, app, store, _ = davix_world(params=params)
    store.put("/blob", BLOB)
    handle = app.handle

    def rewritten(request):
        served = handle(request)
        rewrite(request, served.response)
        return served

    app.handle = rewritten
    return client


def relabel(content_range):
    """Rewrite the Content-Range of every ranged reply."""

    def rewrite(request, response):
        if "Content-Range" in response.headers:
            response.headers.set("Content-Range", content_range)

    return rewrite


def corrupt_parts(request, response):
    """Break the Content-Range line inside every multipart part."""
    if response.body:
        response.body = response.body.replace(
            b"Content-Range: bytes ", b"Content-Range: bytes x"
        )


def test_pread_rejects_reply_labelled_with_another_range():
    client = rewriting_world(relabel(f"bytes 0-4095/{len(BLOB)}"))
    with pytest.raises(RequestError):
        client.pread(URL, 2000, 4096)
    with pytest.raises(RequestError):
        client.pread_vec(URL, [(2000, 4096)])


@pytest.mark.parametrize(
    "content_range", ["bytes 0-4095", "bytes x-y/20000", "octets 0-4095/1"]
)
def test_malformed_single_range_content_range(content_range):
    client = rewriting_world(relabel(content_range))
    with pytest.raises(RequestError):
        client.pread(URL, 0, 4096)
    with pytest.raises(RequestError):
        client.pread_vec(URL, [(0, 4096)])


@pytest.mark.parametrize("content_range", ["bytes */x", "bytes 0-1", "*/9"])
def test_malformed_416_content_range(content_range):
    client = rewriting_world(relabel(content_range))
    with pytest.raises(RequestError):
        client.pread(URL, 50_000, 10)
    with pytest.raises(RequestError):
        client.pread_vec(URL, [(50_000, 10)])


def test_malformed_content_range_inside_multipart_part():
    client = rewriting_world(corrupt_parts)
    with pytest.raises(RequestError):
        client.pread_vec(URL, [(0, 100), (10_000, 100)])


def test_malformed_multipart_part_in_cache_gap_fill():
    # A pread across a cached page needs two gaps: the fill sends a
    # multi-range GET and decodes the multipart reply.
    params = RequestParams(
        transfer=TransferConfig(page_cache_bytes=1 << 20, page_size=1024)
    )
    broken = []

    def rewrite(request, response):
        if broken:
            corrupt_parts(request, response)

    client = rewriting_world(rewrite, params=params)
    assert client.pread(URL, 4096, 1024) == BLOB[4096:5120]
    broken.append(True)
    with pytest.raises(RequestError):
        client.pread(URL, 0, 10_000)

