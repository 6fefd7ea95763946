"""Tests for the socket gateway in front of the serving engine.

The gateway contract: anything served over the socket is
fingerprint-identical to ``detect_corpus(jobs=1)``; admission control
answers saturation with a structured reject-plus-retry-after frame
instead of queueing; and a client that cancels or disconnects
mid-stream leaves no orphaned work in the engine.
"""

import socket
import struct
import time

import pytest

from repro.pipeline import (
    GatewayClient,
    GatewayError,
    GatewayRejected,
    GatewayRequestFailed,
    GatewayServer,
    JobCancelled,
    PipelineOptions,
    detect_corpus,
)
from repro.pipeline.gateway import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    encode_frame,
    read_frame,
)
from repro.workloads import corpus_keys

KEYS = corpus_keys()

SERIAL = None


def serial_report():
    """The jobs=1 whole-corpus reference, computed once."""
    global SERIAL
    if SERIAL is None:
        SERIAL = detect_corpus(jobs=1)
    return SERIAL


def serial_subset(keys):
    """The reference digests for a corpus slice, in canonical order."""
    wanted = set(keys)
    return tuple(
        p for p in serial_report().programs if p.key in wanted
    )


@pytest.fixture(scope="module")
def server():
    options = PipelineOptions(jobs=2, granularity="function")
    with GatewayServer(options, port=0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with GatewayClient(port=server.port, timeout=180.0) as c:
        yield c


# -- frame codec --------------------------------------------------------------


def test_frame_codec_roundtrip_over_a_socketpair():
    left, right = socket.socketpair()
    try:
        payload = {"op": "submit", "id": 3, "keys": [["EP", "NAS"]],
                   "priority": "interactive"}
        left.sendall(encode_frame(payload))
        assert read_frame(right) == payload
        # Frames are canonical-form JSON: stable bytes for stable input.
        assert encode_frame(payload) == encode_frame(dict(payload))
    finally:
        left.close()
        right.close()


def test_oversized_frame_header_is_refused():
    left, right = socket.socketpair()
    try:
        left.sendall(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))
        with pytest.raises(GatewayError, match="oversized"):
            read_frame(right)
    finally:
        left.close()
        right.close()


def test_truncated_stream_is_a_clean_error():
    left, right = socket.socketpair()
    try:
        left.sendall(encode_frame({"op": "ping"})[:3])
        left.close()
        with pytest.raises(GatewayError, match="closed"):
            read_frame(right)
    finally:
        right.close()


# -- request/response basics --------------------------------------------------


def test_ping_and_corpus_keys(client):
    client.ping()
    assert client.corpus_keys() == KEYS


def test_streamed_digests_match_the_serial_run(client):
    request = client.submit(keys=KEYS[:3], priority="interactive")
    assert request.units > 0
    digests = list(client.stream(request))
    assert sorted(d.key for d in digests) == sorted(KEYS[:3])
    report = client.result(request)
    assert report.programs == serial_subset(KEYS[:3])


def test_whole_corpus_fingerprint_identical_to_serial_batch(server,
                                                            client):
    """The acceptance criterion: a gateway-served report is
    fingerprint-identical to ``detect_corpus(jobs=1)`` — the socket
    transports digests, it never perturbs them."""
    request = client.submit()
    report = client.result(request)
    assert report.fingerprint() == serial_report().fingerprint()


def test_unknown_program_fails_the_request_not_the_connection(client):
    request = client.submit(keys=[("no-such-program", "NAS")])
    with pytest.raises(GatewayRequestFailed, match="unknown program"):
        client.result(request)
    # The connection survives a failed request.
    report = client.result(client.submit(keys=KEYS[:1]))
    assert report.programs == serial_subset(KEYS[:1])


def test_unknown_priority_fails_the_request(client):
    request = client.submit(keys=KEYS[:1], priority="urgent")
    with pytest.raises(GatewayRequestFailed, match="priority"):
        client.result(request)


def next_control_frame(sock):
    """The next frame that is not a streamed program result."""
    while True:
        frame = read_frame(sock)
        if frame["type"] not in ("digest", "result"):
            return frame


def test_protocol_errors_answered_with_error_frames(server):
    sock = socket.create_connection(("127.0.0.1", server.port),
                                    timeout=60)
    try:
        sock.sendall(encode_frame({"op": "bogus"}))
        frame = read_frame(sock)
        assert frame["type"] == "error"
        assert "bogus" in frame["error"]
        sock.sendall(encode_frame({"op": "submit", "id": "not-an-int"}))
        frame = read_frame(sock)
        assert frame["type"] == "error"
        assert "integer id" in frame["error"]
        # With a request in flight, a cancel whose id is a list or an
        # object (unhashable) gets an error frame, and the connection
        # stays up.
        sock.sendall(encode_frame({"op": "submit", "id": 1,
                                   "priority": "batch"}))
        assert read_frame(sock)["type"] == "accepted"
        for bad_id in ([1], {}):
            sock.sendall(encode_frame({"op": "cancel", "id": bad_id}))
            frame = next_control_frame(sock)
            assert frame["type"] == "error"
            assert "cancel requires an integer id" in frame["error"]
            sock.sendall(encode_frame({"op": "ping"}))
            assert next_control_frame(sock)["type"] == "pong"
        sock.sendall(encode_frame({"op": "cancel", "id": 1}))
    finally:
        sock.close()


def test_duplicate_in_flight_request_id_is_refused(server):
    sock = socket.create_connection(("127.0.0.1", server.port),
                                    timeout=60)
    try:
        submit = {"op": "submit", "id": 7,
                  "keys": [list(k) for k in KEYS[:2]],
                  "priority": "batch"}
        sock.sendall(encode_frame(submit))
        frame = read_frame(sock)
        assert frame["type"] == "accepted"
        sock.sendall(encode_frame(submit))
        while True:
            frame = read_frame(sock)
            if frame["type"] == "failed":
                assert "already in flight" in frame["error"]
                break
            assert frame["type"] in ("digest", "result")
        sock.sendall(encode_frame({"op": "cancel", "id": 7}))
    finally:
        sock.close()


# -- concurrent clients -------------------------------------------------------


def test_concurrent_interactive_and_batch_clients(server):
    """Two clients, two connections, two budgets: a large batch job in
    flight does not stop a separate interactive client from being
    admitted and served — and neither perturbs the other's digests."""
    batch_keys = KEYS[:20]
    inter_keys = KEYS[20:21]
    with GatewayClient(port=server.port, timeout=300.0) as batch_client:
        with GatewayClient(port=server.port,
                           timeout=300.0) as inter_client:
            batch_request = batch_client.submit(keys=batch_keys)
            inter_request = inter_client.submit(keys=inter_keys,
                                                priority="interactive")
            inter_report = inter_client.result(inter_request)
            # The batch job is large enough that it is still being
            # served when the one-program interactive request is done
            # — the two really did overlap.
            assert server.active_requests() >= 1
        batch_report = batch_client.result(batch_request)
    assert inter_report.programs == serial_subset(inter_keys)
    assert batch_report.programs == serial_subset(batch_keys)


# -- admission control --------------------------------------------------------


def test_admission_rejects_past_budget_with_retry_after():
    options = PipelineOptions(jobs=1, granularity="function")
    with GatewayServer(options, port=0, budget=5) as srv:
        with GatewayClient(port=srv.port, timeout=300.0) as saturated:
            # An idle connection is always admitted, even past the
            # budget — the budget bounds accumulation, not size.
            big = saturated.submit(keys=KEYS[:6])
            assert big.units > 5
            with pytest.raises(GatewayRejected) as excinfo:
                saturated.submit(keys=KEYS[6:7])
            rejection = excinfo.value
            assert rejection.budget == 5
            assert rejection.retry_after > 0
            assert rejection.pending_units > 5
            assert rejection.requested_units > 0
            assert srv.stats["rejections"] == 1
            # Budgets are per connection: a second client is admitted
            # and served while the first is saturated.
            with GatewayClient(port=srv.port,
                               timeout=300.0) as interactive:
                request = interactive.submit(keys=KEYS[6:7],
                                             priority="interactive")
                report = interactive.result(request)
                assert report.programs == serial_subset(KEYS[6:7])
            # Draining the backlog restores admission.
            saturated.cancel(big)
            small = saturated.submit(keys=KEYS[6:7])
            saturated.result(small)


# -- cancellation and disconnect ----------------------------------------------


def test_cancel_mid_stream_drains_queued_units(server, client):
    request = client.submit()  # the whole corpus: plenty queued
    stream = client.stream(request)
    next(stream)
    drained = client.cancel(request)
    assert drained > 0
    with pytest.raises(JobCancelled):
        client.result(request)
    # Cancellation is idempotent.
    assert client.cancel(request) == 0
    # The engine is clean and keeps serving this same connection.
    report = client.result(client.submit(keys=KEYS[:1]))
    assert report.programs == serial_subset(KEYS[:1])
    assert server.queued_units() == 0


def test_client_disconnect_cancels_engine_side_jobs(server):
    """A consumer that vanishes mid-stream must not leak work: its
    jobs are cancelled in the engine, queued units leave the
    scheduler, and the pool keeps serving other clients."""
    before = server.stats["disconnect_cancelled"]
    abrupt = GatewayClient(port=server.port, timeout=180.0)
    request = abrupt.submit()  # the whole corpus
    next(abrupt.stream(request))  # provably in flight
    abrupt.close()  # vanish without cancelling
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if (server.active_requests() == 0
                and server.queued_units() == 0):
            break
        time.sleep(0.05)
    assert server.active_requests() == 0
    assert server.queued_units() == 0
    assert server.stats["disconnect_cancelled"] >= before + 1
    assert server.engine.running
    with GatewayClient(port=server.port, timeout=180.0) as fresh:
        report = fresh.result(fresh.submit(keys=KEYS[:1]))
    assert report.programs == serial_subset(KEYS[:1])
