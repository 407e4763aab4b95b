"""The fleet gateway's wire codec: HTTP/1.1 parsing and RFC 6455 frames."""

import asyncio
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.protocol import (
    MAX_FRAME_BYTES,
    OP_BINARY,
    OP_CLOSE,
    OP_PING,
    OP_TEXT,
    HttpRequest,
    ProtocolError,
    client_handshake_request,
    encode_ws_frame,
    read_http_request,
    read_http_response,
    read_ws_frame,
    render_json,
    render_response,
    render_ws_handshake,
    websocket_accept,
)
from tests import ws_mask_oracle as oracle


def run(coro):
    return asyncio.run(coro)


def fed_reader(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def parse_request(data: bytes, **kwargs):
    async def go():
        return await read_http_request(fed_reader(data), **kwargs)

    return run(go())


def parse_response(data: bytes):
    async def go():
        return await read_http_response(fed_reader(data))

    return run(go())


def parse_frame(data: bytes):
    async def go():
        return await read_ws_frame(fed_reader(data))

    return run(go())


# ----------------------------------------------------------------------
# HTTP request parsing
# ----------------------------------------------------------------------
class TestHttpRequests:
    def test_parses_line_query_headers_and_body(self):
        body = b'{"x": 1}'
        raw = (
            b"POST /tenants/v1/verdicts?since=3&limit=9 HTTP/1.1\r\n"
            b"Host: fleet\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        request = parse_request(raw)
        assert request.method == "POST"
        assert request.path == "/tenants/v1/verdicts"
        assert request.query == {"since": ["3"], "limit": ["9"]}
        assert request.headers["host"] == "fleet"
        assert request.body == body
        assert request.json() == {"x": 1}

    def test_trailing_slash_is_normalised(self):
        request = parse_request(b"GET /tenants/ HTTP/1.1\r\n\r\n")
        assert request.path == "/tenants"
        assert parse_request(b"GET / HTTP/1.1\r\n\r\n").path == "/"

    def test_clean_eof_between_requests_is_none(self):
        assert parse_request(b"") is None

    def test_truncated_request_raises(self):
        with pytest.raises(ProtocolError, match="mid-request"):
            parse_request(b"GET /fleet HTTP/1.1\r\nHost: x\r\n")

    def test_malformed_request_line_raises(self):
        with pytest.raises(ProtocolError, match="request line"):
            parse_request(b"NOT-HTTP\r\n\r\n")

    def test_non_numeric_content_length_raises(self):
        with pytest.raises(ProtocolError, match="Content-Length"):
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n")

    def test_oversize_body_rejected_before_reading_it(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n" + b"x" * 1000
        with pytest.raises(ProtocolError, match="Content-Length"):
            parse_request(raw, max_body=64)

    def test_keep_alive_default_and_explicit_close(self):
        assert parse_request(b"GET / HTTP/1.1\r\n\r\n").keep_alive
        request = parse_request(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert not request.keep_alive

    def test_websocket_upgrade_detection(self):
        raw = (
            b"GET /tenants/v1/stream HTTP/1.1\r\n"
            b"Connection: keep-alive, Upgrade\r\n"
            b"Upgrade: websocket\r\n"
            b"Sec-WebSocket-Key: abc\r\n\r\n"
        )
        assert parse_request(raw).is_websocket_upgrade
        assert not parse_request(b"GET / HTTP/1.1\r\n\r\n").is_websocket_upgrade

    def test_json_of_empty_or_invalid_body_raises(self):
        with pytest.raises(ProtocolError, match="empty"):
            parse_request(b"GET / HTTP/1.1\r\n\r\n").json()
        request = HttpRequest(
            method="POST", target="/", path="/", body=b"not json"
        )
        with pytest.raises(ProtocolError, match="not valid JSON"):
            request.json()


# ----------------------------------------------------------------------
# HTTP response rendering (parsed back with the client-side reader)
# ----------------------------------------------------------------------
class TestHttpResponses:
    def test_render_json_roundtrip(self):
        status, headers, body = parse_response(
            render_json(200, {"ok": True, "n": 3})
        )
        assert status == 200
        assert headers["content-type"].startswith("application/json")
        assert headers["connection"] == "keep-alive"
        assert json.loads(body) == {"ok": True, "n": 3}

    def test_connection_close_and_extra_headers(self):
        raw = render_response(
            503,
            b"busy",
            content_type="text/plain",
            keep_alive=False,
            extra_headers={"Retry-After": "1"},
        )
        status, headers, body = parse_response(raw)
        assert status == 503
        assert headers["connection"] == "close"
        assert headers["retry-after"] == "1"
        assert body == b"busy"

    def test_unknown_status_still_renders(self):
        assert b"418 Unknown" in render_response(418)


# ----------------------------------------------------------------------
# WebSocket
# ----------------------------------------------------------------------
class TestWebSocket:
    def test_accept_key_matches_rfc6455_example(self):
        # The worked example from RFC 6455 section 1.3.
        key = "dGhlIHNhbXBsZSBub25jZQ=="
        assert websocket_accept(key) == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="

    def test_handshake_response_carries_accept(self):
        raw = render_ws_handshake("dGhlIHNhbXBsZSBub25jZQ==")
        assert raw.startswith(b"HTTP/1.1 101 ")
        assert b"Sec-WebSocket-Accept: s3pPLMBiTxaQ9kYGzzhZRbK+xOo=" in raw

    def test_client_handshake_request_carries_key(self):
        raw = client_handshake_request("/tenants/v1/stream", "abc123")
        assert raw.startswith(b"GET /tenants/v1/stream HTTP/1.1")
        assert b"Sec-WebSocket-Key: abc123" in raw

    @pytest.mark.parametrize(
        "size", [0, 5, 125, 126, 1000, 1 << 16, (1 << 16) + 17]
    )
    def test_frame_roundtrip_across_length_encodings(self, size):
        payload = bytes(i % 251 for i in range(size))
        opcode, decoded = parse_frame(encode_ws_frame(payload))
        assert opcode == OP_TEXT
        assert decoded == payload

    def test_masked_client_frame_roundtrip(self):
        payload = b"masked chunk payload"
        raw = encode_ws_frame(
            payload, opcode=OP_BINARY, mask_key=b"\x01\x02\x03\x04"
        )
        assert payload not in raw  # actually masked on the wire
        opcode, decoded = parse_frame(raw)
        assert opcode == OP_BINARY
        assert decoded == payload

    def test_control_opcodes_survive(self):
        assert parse_frame(encode_ws_frame(b"hi", opcode=OP_PING)) == (
            OP_PING,
            b"hi",
        )

    def test_bad_mask_key_length_raises(self):
        with pytest.raises(ProtocolError, match="4 bytes"):
            encode_ws_frame(b"x", mask_key=b"\x01\x02")

    def test_fragmented_frames_rejected(self):
        raw = bytearray(encode_ws_frame(b"frag"))
        raw[0] &= 0x7F  # clear FIN
        with pytest.raises(ProtocolError, match="fragmented"):
            parse_frame(bytes(raw))

    def test_oversize_frame_rejected_before_reading_payload(self):
        head = bytes([0x81, 127]) + (MAX_FRAME_BYTES + 1).to_bytes(8, "big")
        with pytest.raises(ProtocolError, match="too large"):
            parse_frame(head)

    def test_bare_eof_reads_as_close(self):
        assert parse_frame(b"") == (OP_CLOSE, b"")


# ----------------------------------------------------------------------
# Masking against the per-byte oracle, and the RFC 6455 MUST checks
# ----------------------------------------------------------------------
#: Lengths where the 7/16/64-bit length encodings switch over.
BOUNDARY_LENGTHS = [0, 1, 2, 3, 4, 5, 125, 126, 127, 65_535, 65_536, 65_537, 70_000]


class TestMasking:
    # RFC 6455 section 5.7: a single-frame text message "Hello".
    HELLO_MASKED = bytes.fromhex("818537fa213d7f9f4d5158")
    HELLO_UNMASKED = bytes.fromhex("810548656c6c6f")
    HELLO_KEY = bytes.fromhex("37fa213d")

    def test_rfc6455_hello_vectors_encode_byte_for_byte(self):
        assert encode_ws_frame(b"Hello") == self.HELLO_UNMASKED
        assert encode_ws_frame(b"Hello", mask_key=self.HELLO_KEY) == self.HELLO_MASKED
        assert oracle.mask(b"Hello", self.HELLO_KEY) == self.HELLO_MASKED[6:]

    def test_rfc6455_hello_vectors_decode(self):
        assert parse_frame(self.HELLO_MASKED) == (OP_TEXT, b"Hello")
        assert parse_frame(self.HELLO_UNMASKED) == (OP_TEXT, b"Hello")

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.one_of(
            st.sampled_from(BOUNDARY_LENGTHS), st.integers(0, 70_000)
        ),
        payload_seed=st.integers(0, 2**32 - 1),
        mask_key=st.binary(min_size=4, max_size=4),
        opcode=st.sampled_from([OP_TEXT, OP_BINARY]),
    )
    def test_masking_matches_per_byte_oracle(
        self, length, payload_seed, mask_key, opcode
    ):
        payload = random.Random(payload_seed).randbytes(length)
        raw = encode_ws_frame(payload, opcode=opcode, mask_key=mask_key)
        body = len(raw) - length
        assert raw[body - 4 : body] == mask_key
        assert raw[body:] == oracle.mask(payload, mask_key)
        assert parse_frame(raw) == (opcode, payload)

    def test_reserved_bits_rejected(self):
        for bit in (0x40, 0x20, 0x10):
            raw = bytearray(encode_ws_frame(b"rsv", mask_key=b"\x01\x02\x03\x04"))
            raw[0] |= bit
            with pytest.raises(ProtocolError, match="reserved bits"):
                parse_frame(bytes(raw))

    def test_oversize_control_frame_rejected(self):
        raw = encode_ws_frame(
            b"p" * 126, opcode=OP_PING, mask_key=b"\x01\x02\x03\x04"
        )
        with pytest.raises(ProtocolError, match="control frame"):
            parse_frame(raw)
        # 125 bytes is the largest control payload the RFC allows.
        ok = encode_ws_frame(b"p" * 125, opcode=OP_PING)
        assert parse_frame(ok) == (OP_PING, b"p" * 125)

    def test_frame_cut_off_by_eof_is_a_protocol_error(self):
        raw = encode_ws_frame(b"truncated", mask_key=b"\x01\x02\x03\x04")
        with pytest.raises(ProtocolError, match="mid-frame"):
            parse_frame(raw[:-3])
