"""The HTTP reply reader, ``backends._Connection``, against ``http.client``.

Seeded replies, well-formed and mutated, go through both readers: ours over
a socket whose ``recv`` cuts the reply at random points, ``http.client.HTTPResponse``
over the whole reply. They must agree on status and body, except where the
reader differs on purpose:

* every 1xx reply is skipped, where ``http.client`` skips only 100 and
  returns any other 1xx as the reply;
* a 204 or 304 reply has no body, even one that names chunked framing;
* bytes past a reply stop the connection's reuse (not compared here: both
  readers read the same status and body);
* whitespace after ``Transfer-Encoding: chunked`` is not part of the value
  (RFC 9110 section 5.5), where ``http.client`` keeps it and reads no chunks;
* the reader refuses more than ``http.client`` does: a bare CR, a field name
  that is not a token, a chunk not ended by CRLF, a line without a colon, a
  status line other than HTTP/1.1 or HTTP/1.0, a bad ``Content-Length``.
"""

import http.client
import io
import random
import re

import pytest

from stagewise.backends import _Connection, _ProtocolError


class _ReplySocket:
    """A socket whose ``recv`` hands out ``data`` cut at ``cuts``, then b"" for the close."""

    def __init__(self, data: bytes, cuts=()):
        bounds = [0, *cuts, len(data)]
        self.data = data
        self.pieces = [data[a:b] for a, b in zip(bounds, bounds[1:]) if b > a][::-1]

    def recv(self, size):
        return self.pieces.pop() if self.pieces else b""

    def fileno(self):
        return 0  # registered with a poll object, never polled here

    def makefile(self, mode):
        return io.BytesIO(self.data)


def _ours(data, cuts=()):
    """(status, body) as ``_Connection`` reads the reply, or None if it refuses it."""
    conn = _Connection(_ReplySocket(data, cuts))
    try:
        status, headers, _ = conn.read_head()
        return status, conn.read_body(status, headers)[0]
    except (_ProtocolError, ConnectionResetError):
        return None


def _reference(data):
    """(status, body) as ``http.client`` reads the reply to a POST, or None if it refuses it."""
    reply = http.client.HTTPResponse(_ReplySocket(data), method="POST")
    try:
        reply.begin()
        return reply.status, reply.read()
    except http.client.HTTPException:
        return None


_PADDED_CHUNKED = re.compile(rb"(?im)^transfer-encoding:.*chunked[ \t]+\r?$")


def _explained(reply, ours, reference, mutated: bool) -> bool:
    """Whether the readers agree on ``reply``, or differ only in a documented way."""
    if ours == reference:
        return True
    if ours is None:
        return mutated  # a stricter refusal; a well-formed reply is always read
    if reference is not None and 100 < reference[0] < 200:
        return True  # a 1xx other than 100, which http.client takes for the reply
    return (ours[0] in (204, 304) and ours[1] == b"") or bool(_PADDED_CHUNKED.search(reply))


_NAMES = [b"Content-Type", b"Server", b"X-Request-Id", b"cache-control", b"Link"]
_VALUES = [b"application/json", b"1", b"no-cache", b"a b", b"</s>; rel=preload", b""]
_INTERIM = [b"HTTP/1.1 100 Continue\r\n\r\n", b"HTTP/1.1 103 Early Hints\r\nLink: </s>\r\n\r\n"]


def _chunks(rng, body):
    out = []
    while body:
        n = rng.randint(1, len(body))
        size = rng.choice([b"%x", b"%X"]) % n + rng.choice([b"", b";ext=1"])
        out.append(size + b"\r\n" + body[:n] + b"\r\n")
        body = body[n:]
    trailer = rng.choice([b"", b"X-Trailer: t\r\n"])
    return b"".join(out) + b"0\r\n" + trailer + b"\r\n"


def _well_formed(rng):
    body = bytes(rng.choice(b'{}":,ab01 \r\n') for _ in range(rng.randrange(40)))
    fields = [(rng.choice(_NAMES), rng.choice(_VALUES)) for _ in range(rng.randrange(4))]
    framing = rng.choice(["length", "chunked", "close"])
    if framing == "length":
        fields.append((rng.choice([b"Content-Length", b"content-length"]), b"%d" % len(body)))
    elif framing == "chunked":
        fields.append((b"Transfer-Encoding", rng.choice([b"chunked", b"Chunked"])))
        body = _chunks(rng, body)
    if rng.random() < 0.3:
        fields.append((b"Connection", rng.choice([b"close", b"keep-alive"])))
    rng.shuffle(fields)
    status = rng.choice([200, 200, 200, 201, 204, 304, 404, 429, 500])
    reply = (
        (rng.choice(_INTERIM) if rng.random() < 0.15 else b"")
        + b"%s %d Reason\r\n" % (rng.choice([b"HTTP/1.1", b"HTTP/1.1", b"HTTP/1.0"]), status)
        + b"".join(name + b": " + value + b"\r\n" for name, value in fields)
        + b"\r\n"
        + body
    )
    if framing != "close" and rng.random() < 0.2:
        reply += b"HTTP/1.1 200 OK\r\n"  # stray bytes past the reply
    return reply


# Bytes a mutation draws from most often: those that frame a reply.
_FRAMING_BYTES = b"\r\n: \x0b;0aZ"


def _mutated(rng, reply):
    data = bytearray(reply)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data))
        byte = rng.choice(_FRAMING_BYTES) if rng.random() < 0.7 else rng.randrange(256)
        action = rng.randrange(3)
        if action == 0:
            data.insert(at, byte)
        elif action == 1:
            del data[at]
        else:
            data[at] = byte
    return bytes(data)


def _cuts(rng, data):
    return sorted(rng.sample(range(1, len(data)), min(rng.randint(0, 4), len(data) - 1)))


# Replies the two readers once read apart, a header hidden or a chunk cut, and
# why each is now refused.
_READ_APART = {
    b"HTTP/1.1 200 OK\r\nX: a\rContent-Length: 2\r\n\r\nhello": "bare CR",
    b"HTTP/1.1 200 OK\r\nX: a\rTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n": "bare CR",
    b"HTTP/1.1 200 OK\r\nContent\x0bype: x\r\nContent-Length: 2\r\n\r\nhello": "bad header line",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\n0\r\n\r\n": "not ended by CRLF",
}


@pytest.mark.parametrize("reply", _READ_APART, ids=["bare-cr", "bare-cr-chunked", "non-token-name", "chunk-bare-lf"])
def test_reply_once_read_apart_from_http_client_is_a_protocol_error(reply):
    # A protocol error fails the attempt, which is retried like a connection error.
    conn = _Connection(_ReplySocket(reply))
    with pytest.raises(_ProtocolError, match=_READ_APART[reply]):
        status, headers, _ = conn.read_head()
        conn.read_body(status, headers)


def test_reader_agrees_with_http_client_on_seeded_replies():
    rng = random.Random(20241026)
    cases = [(reply, True) for reply in _READ_APART]
    for _ in range(1500):
        reply = _well_formed(rng)
        cases.append((reply, False))
        cases.extend((_mutated(rng, reply), True) for _ in range(4))
    unexplained = []
    for reply, mutated in cases:
        ours = _ours(reply, _cuts(rng, reply))
        # The recv split points change nothing.
        assert _ours(reply, _cuts(rng, reply)) == ours, reply
        reference = _reference(reply)
        if not _explained(reply, ours, reference, mutated):
            unexplained.append((reply, ours, reference))
    assert unexplained == [], f"{len(unexplained)} of {len(cases)} replies read apart"


_HI = b"Content-Length: 2\r\n\r\nhi"
_LONGEST_LINE = b"X: " + b"a" * (65536 - 5) + b"\r\n"  # http.client's and the reader's limit, with its line end


@pytest.mark.parametrize(
    "reply, want, same",
    [
        pytest.param(b"HTTP/1.1 200\r\n" + _HI, (200, b"hi"), True, id="no-reason-phrase"),
        pytest.param(b"HTTP/1.1 099 X\r\n\r\nHTTP/1.1 200 OK\r\n" + _HI, None, True, id="status-099"),
        # http.client returns the 199 as the reply (see the module docstring).
        pytest.param(b"HTTP/1.1 199 X\r\n\r\nHTTP/1.1 200 OK\r\n" + _HI, (200, b"hi"), False, id="interim-199"),
        pytest.param(b"HTTP/1.1 200 OK\r\n" + _LONGEST_LINE + _HI, (200, b"hi"), True, id="longest-line"),
        pytest.param(b"HTTP/1.1 200 OK\r\nX" + _LONGEST_LINE + _HI, None, True, id="line-one-byte-too-long"),
        # A bare CR, which http.client reads as white space.
        pytest.param(b"\rHTTP/1.1 200 OK\r\n" + _HI, None, False, id="cr-at-the-start-of-a-line"),
        pytest.param(b"HTTP/1.1 200 OK\nContent-Length: 2\n\nhi", (200, b"hi"), True, id="bare-lf-line-ends"),
    ],
)
def test_reply_at_the_edge_of_a_check_reads_as_fixed(reply, want, same):
    assert _ours(reply) == want
    assert (_reference(reply) == want) is same


def test_line_that_fills_the_limit_without_its_line_end_is_refused_before_another_read():
    # Its line end, not yet read, would take it past the limit, so the server's close after it is never read.
    conn = _Connection(_ReplySocket(b"HTTP/1.1 200 OK\r\n" + b"X" * 65536))
    with pytest.raises(_ProtocolError, match="reply line longer than 65536 bytes"):
        conn.read_head()
