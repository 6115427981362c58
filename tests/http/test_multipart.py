"""Tests for multipart/byteranges encode/decode."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import HttpParseError
from repro.http import (
    Headers,
    RangePart,
    Response,
    decode_byteranges,
    decode_range_response,
    encode_byteranges,
    make_boundary,
)
from repro.http.multipart import content_type_boundary


def test_roundtrip_simple():
    parts = [
        RangePart(offset=0, data=b"hello", total=100),
        RangePart(offset=50, data=b"world!", total=100),
    ]
    boundary = make_boundary()
    body = encode_byteranges(parts, boundary)
    assert decode_byteranges(body, boundary) == parts


def test_encoded_body_contains_content_range_lines():
    body = encode_byteranges(
        [RangePart(offset=5, data=b"abc", total=10)], "B"
    )
    assert b"Content-Range: bytes 5-7/10" in body
    assert body.endswith(b"--B--\r\n")


def test_empty_parts_rejected():
    with pytest.raises(ValueError):
        encode_byteranges([], "B")


def test_binary_data_with_crlf_and_boundary_like_content():
    # Data containing CRLF and even the delimiter text must survive,
    # because parts are length-delimited by Content-Range.
    tricky = b"--B\r\nContent-Range: bytes 0-1/2\r\n\r\nxx\r\n"
    parts = [RangePart(offset=3, data=tricky, total=1000)]
    body = encode_byteranges(parts, "B")
    assert decode_byteranges(body, "B") == parts


def test_decode_zero_copy_views():
    """``copy=False`` hands back memoryview slices over the body."""
    parts = [
        RangePart(offset=0, data=b"hello", total=100),
        RangePart(offset=50, data=b"world!", total=100),
    ]
    boundary = make_boundary()
    body = encode_byteranges(parts, boundary)
    decoded = decode_byteranges(body, boundary, copy=False)
    assert [(p.offset, p.total) for p in decoded] == [(0, 100), (50, 100)]
    for original, part in zip(parts, decoded):
        assert isinstance(part.data, memoryview)
        assert bytes(part.data) == original.data
        # Zero-copy: every view aliases the one response buffer.
        assert part.data.obj is body


def test_decode_copy_default_returns_bytes():
    parts = [RangePart(offset=0, data=b"data", total=4)]
    body = encode_byteranges(parts, "B")
    decoded = decode_byteranges(body, "B")
    assert all(isinstance(p.data, bytes) for p in decoded)


def test_preamble_is_ignored():
    parts = [RangePart(offset=0, data=b"data", total=4)]
    body = b"ignore this preamble\r\n" + encode_byteranges(parts, "B")
    assert decode_byteranges(body, "B") == parts


def test_missing_terminator_rejected():
    body = encode_byteranges(
        [RangePart(offset=0, data=b"data", total=4)], "B"
    )
    with pytest.raises(HttpParseError):
        decode_byteranges(body[:-6], "B")


def test_wrong_boundary_rejected():
    body = encode_byteranges(
        [RangePart(offset=0, data=b"data", total=4)], "B"
    )
    with pytest.raises(HttpParseError):
        decode_byteranges(body, "WRONG")


def test_truncated_part_rejected():
    body = (
        b"--B\r\nContent-Range: bytes 0-9/10\r\n\r\nshort\r\n--B--\r\n"
    )
    with pytest.raises(HttpParseError):
        decode_byteranges(body, "B")


def test_part_without_content_range_rejected():
    body = b"--B\r\nContent-Type: text/plain\r\n\r\nxx\r\n--B--\r\n"
    with pytest.raises(HttpParseError):
        decode_byteranges(body, "B")


def test_content_type_boundary_extraction():
    assert (
        content_type_boundary("multipart/byteranges; boundary=abc123")
        == "abc123"
    )
    assert (
        content_type_boundary('multipart/byteranges; boundary="q q"')
        == "q q"
    )


@pytest.mark.parametrize(
    "value",
    [
        "application/octet-stream",
        "multipart/byteranges",
        "multipart/byteranges; charset=utf-8",
        "multipart/byteranges; boundary=",
    ],
)
def test_content_type_boundary_failures(value):
    with pytest.raises(HttpParseError):
        content_type_boundary(value)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10**6),
            st.binary(min_size=1, max_size=2048),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_roundtrip_property(raw_parts):
    total = 10**7
    parts = [
        RangePart(offset=offset, data=data, total=total)
        for offset, data in raw_parts
    ]
    boundary = make_boundary()
    assert decode_byteranges(encode_byteranges(parts, boundary), boundary) == (
        parts
    )


# -- decode_range_response ---------------------------------------------------


def ranged(status, body=b"", **headers):
    return Response(
        status,
        Headers([(k.replace("_", "-"), v) for k, v in headers.items()]),
        body,
    )


def test_decode_range_response_200_is_the_whole_object():
    pieces, total = decode_range_response(ranged(200, b"abcdef"))
    assert pieces == [RangePart(offset=0, data=b"abcdef", total=6)]
    assert total == 6


def test_decode_range_response_single_range():
    reply = ranged(206, b"cde", Content_Range="bytes 2-4/6")
    pieces, total = decode_range_response(reply)
    assert pieces == [RangePart(offset=2, data=b"cde", total=6)]
    assert total == 6
    reply = ranged(206, b"cde", Content_Range="bytes 2-4/*")
    assert decode_range_response(reply)[1] is None


def test_decode_range_response_multipart_is_zero_copy():
    parts = [
        RangePart(offset=0, data=b"ab", total=50),
        RangePart(offset=40, data=b"yz", total=50),
    ]
    body = encode_byteranges(parts, "B")
    reply = ranged(
        206, body, Content_Type="multipart/byteranges; boundary=B"
    )
    pieces, total = decode_range_response(reply)
    assert [(p.offset, bytes(p.data), p.total) for p in pieces] == [
        (0, b"ab", 50),
        (40, b"yz", 50),
    ]
    assert all(isinstance(p.data, memoryview) for p in pieces)
    assert total == 50


def test_decode_range_response_416_has_no_pieces_and_the_size():
    reply = ranged(416, Content_Range="bytes */123")
    assert decode_range_response(reply) == ([], 123)


@pytest.mark.parametrize(
    "reply",
    [
        ranged(206, b"abc"),
        ranged(206, b"abc", Content_Range="bytes 0-2"),
        ranged(206, b"abc", Content_Range="bytes a-c/9"),
        ranged(206, b"abc", Content_Range="bytes 0-3/9"),
        ranged(206, b"abc", Content_Range="items 0-2/9"),
        ranged(416),
        ranged(416, Content_Range="bytes */x"),
        ranged(416, Content_Range="bytes */-1"),
        ranged(416, Content_Range="bytes 0-1/9"),
        ranged(404, b"missing"),
        ranged(206, b"junk", Content_Type="multipart/byteranges"),
        ranged(
            206, b"junk", Content_Type="multipart/byteranges; boundary=\xe9"
        ),
        ranged(
            206,
            b"--B\r\nContent-Range: bytes x-1/9\r\n\r\nab\r\n--B--\r\n",
            Content_Type="multipart/byteranges; boundary=B",
        ),
    ],
)
def test_decode_range_response_rejects_malformed_replies(reply):
    with pytest.raises(HttpParseError):
        decode_range_response(reply)
