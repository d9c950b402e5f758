"""Exploration service: schema, protocol resilience, server semantics.

Three layers, cheapest first:

* request-schema units — strict validation, canonical fingerprints;
* protocol fuzz — malformed / truncated / oversized / garbage frames
  must each answer a structured ERR without killing the server loop;
* server semantics — quotas, timeouts, cancellation, job surface,
  event streaming, and the bit-identity acceptance check against the
  one-shot :func:`repro.api.explore`.
"""

import random
import socket
import struct
import threading
import time

import pytest

from repro import api
from repro.dist import protocol
from repro.serve import schema
from repro.serve.client import ServiceClient, ServiceError
from repro.serve.server import ExploreServer
from repro.serve.schema import RequestError
from repro.serve.session import ScopeLane, WorkItem

#: Minimal-effort explore settings (sub-100ms per fresh fingerprint).
FAST = dict(profile="quick", iterations=8, restarts=1)


@pytest.fixture
def server():
    srv = ExploreServer(port=0)
    srv.start_in_thread()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    with ServiceClient(server.address, timeout=120.0) as c:
        yield c


# -- schema units ------------------------------------------------------------

def test_validate_applies_explore_defaults():
    req = schema.validate_request({"op": "explore", "workload": "crc32"})
    assert req["issue"] == 2 and req["ports"] == "4/2"
    assert req["profile"] == "quick" and req["seed"] == 0
    assert req["engine"] == "aco" and req["opt"] == "O3"
    assert req["jobs"] is None and req["batch"] is None


def test_validate_rejects_unknown_op():
    with pytest.raises(RequestError) as err:
        schema.validate_request({"op": "detonate"})
    assert err.value.code == "bad-op"


def test_validate_rejects_unknown_keys_and_bad_types():
    with pytest.raises(RequestError):
        schema.validate_request(
            {"op": "explore", "workload": "crc32", "bogus": 1})
    with pytest.raises(RequestError):
        schema.validate_request({"op": "explore", "workload": ""})
    with pytest.raises(RequestError):
        schema.validate_request(
            {"op": "explore", "workload": "crc32", "issue": "two"})
    with pytest.raises(RequestError):
        schema.validate_request(
            {"op": "explore", "workload": "crc32", "timeout": -1})
    with pytest.raises(RequestError):
        schema.validate_request([1, 2, 3])


def test_validate_cancel_needs_exactly_one_target():
    with pytest.raises(RequestError):
        schema.validate_request({"op": "cancel"})
    with pytest.raises(RequestError):
        schema.validate_request({"op": "cancel", "request": 1, "job": "J1"})
    assert schema.validate_request(
        {"op": "cancel", "job": "J1"})["job"] == "J1"


def test_validate_sweep_shapes():
    req = schema.validate_request({
        "op": "sweep", "workloads": ["crc32"],
        "machines": [["4/2", 2]], "budgets": [20000.0]})
    assert req["machines"] == [("4/2", 2)]
    assert "shard" not in req
    with pytest.raises(RequestError):
        schema.validate_request({"op": "sweep", "workloads": []})
    with pytest.raises(RequestError):
        schema.validate_request(
            {"op": "sweep", "workloads": ["crc32"], "machines": [[2, "4/2"]]})
    # Sweeps run on one host: a shard spec is an unknown key.
    with pytest.raises(RequestError, match="unknown key.*'shard'"):
        schema.validate_request({"op": "sweep", "workloads": ["crc32"],
                                 "shard": [0, 2]})


@pytest.mark.parametrize("issue", [True, False, 0, -1, 2.0, "2"])
def test_validate_sweep_machine_issue_is_a_positive_int(issue):
    """Each sweep machine's issue follows explore's ``issue`` rule."""
    with pytest.raises(RequestError, match="positive integer issue"):
        schema.validate_request({"op": "sweep", "workloads": ["crc32"],
                                 "machines": [["4/2", issue]]})
    with pytest.raises(RequestError):
        schema.validate_request(
            {"op": "explore", "workload": "crc32", "issue": issue})


def test_fingerprint_ignores_jobs():
    a = schema.validate_request(
        {"op": "explore", "workload": "crc32", "jobs": None})
    b = schema.validate_request(
        {"op": "explore", "workload": "crc32", "jobs": 2})
    assert schema.explore_fingerprint(a) == schema.explore_fingerprint(b)


def test_fingerprint_tracks_workload_and_opt():
    base = schema.validate_request({"op": "explore", "workload": "crc32"})
    workload = schema.validate_request(
        {"op": "explore", "workload": "bitcount"})
    opt = schema.validate_request(
        {"op": "explore", "workload": "crc32", "opt": "O0"})
    fingerprint = schema.explore_fingerprint(base)
    assert schema.explore_fingerprint(workload) != fingerprint
    assert schema.explore_fingerprint(opt) != fingerprint


def test_request_scope_is_the_machine_scope():
    a = schema.validate_request({"op": "explore", "workload": "crc32"})
    b = schema.validate_request(
        {"op": "explore", "workload": "crc32", "issue": 3, "ports": "8/4"})
    assert schema.request_scope(a) != schema.request_scope(b)
    assert schema.request_scope(a).startswith("2is|4/2|")
    sweep = schema.validate_request({"op": "sweep", "workloads": ["crc32"]})
    assert schema.request_scope(sweep) == "sweep"


def test_payload_digest_is_order_insensitive_and_content_sensitive():
    assert schema.payload_digest({"a": 1, "b": 2}) \
        == schema.payload_digest({"b": 2, "a": 1})
    assert schema.payload_digest({"a": 1}) != schema.payload_digest({"a": 2})


# -- frame codec units --------------------------------------------------------

def test_protocol_rejects_malformed_frames():
    with pytest.raises(protocol.ProtocolError):
        protocol.frame_length(b"\xff\xff\xff\xff")    # > MAX_FRAME
    with pytest.raises(protocol.ProtocolError):
        protocol.frame_length(b"\x00\x00")            # short prefix
    assert protocol.frame_length(
        protocol.pack_frame(b"abc")[:4]) == 3
    request = protocol.encode_serve_request(7, {"op": "status"})
    assert protocol.decode_serve_request(request) == (7, {"op": "status"})
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_serve_request(request + b"extra")  # trailing
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_serve_request(request[:-3])        # truncated
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_serve_response(b"Z" + request[1:])  # bad tag
    # An ERR response decodes (its code is the client's to map).
    kind, request_id, body = protocol.decode_serve_response(
        protocol.encode_serve_err(7, "boom", code="timeout"))
    assert (kind, request_id, body["code"]) == ("err", 7, "timeout")


# -- protocol fuzz: the server loop must survive every garbage frame ---------

def _raw_connection(server):
    return socket.create_connection(("127.0.0.1", server.port),
                                    timeout=30.0)


def _recv_exact(sock, n):
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise ConnectionError("server closed the connection")
        data += chunk
    return data


def _read_response(sock):
    length = protocol.frame_length(_recv_exact(sock, 4))
    return protocol.decode_serve_response(_recv_exact(sock, length))


def _assert_still_serving(sock):
    """A valid status request on ``sock`` still gets an OK answer."""
    sock.sendall(protocol.pack_frame(
        protocol.encode_serve_request(99, {"op": "status"})))
    while True:
        kind, request_id, body = _read_response(sock)
        if request_id == 99:
            assert kind == "ok" and "counters" in body
            return body


@pytest.mark.parametrize("payload", [
    b"Z-completely-unknown-op",
    b"",
    protocol.OP_SERVE + b"\x00" * 4,                      # truncated id
    protocol.OP_SERVE + b"\x00" * 8 + struct.pack("!I", 100) + b"short",
    protocol.OP_SERVE + b"\x00" * 8
    + struct.pack("!I", 8) + b"not json",
    protocol.OP_SERVE + b"\x00" * 8
    + struct.pack("!I", 6) + b"[1, 2]",                   # not an object
], ids=["garbage-op", "empty", "truncated-id", "truncated-body",
        "bad-json", "non-object"])
def test_malformed_frames_answer_err_and_loop_survives(server, payload):
    with _raw_connection(server) as sock:
        sock.sendall(protocol.pack_frame(payload))
        kind, request_id, body = _read_response(sock)
        assert kind == "err" and request_id == 0
        assert body["code"] == "protocol"
        _assert_still_serving(sock)
    assert server.counters.get("serve.protocol_errors", 0) >= 1


def test_oversized_declared_frame_answers_err_then_disconnects(server):
    with _raw_connection(server) as sock:
        sock.sendall(struct.pack("!I", protocol.MAX_FRAME + 1))
        kind, request_id, body = _read_response(sock)
        assert kind == "err" and body["code"] == "protocol"
        # No resync point exists past a corrupt prefix: the connection
        # closes, but the server itself keeps accepting clients.
        sock.settimeout(10.0)
        assert sock.recv(1) == b""
    with _raw_connection(server) as sock:
        _assert_still_serving(sock)


def test_oversized_body_answers_err_and_loop_survives(server):
    big = protocol.OP_SERVE + b"\x00" * 8 \
        + struct.pack("!I", schema.MAX_BODY + 16) \
        + b"{" * (schema.MAX_BODY + 16)
    with _raw_connection(server) as sock:
        sock.sendall(protocol.pack_frame(big))
        kind, __, body = _read_response(sock)
        assert kind == "err" and body["code"] == "protocol"
        _assert_still_serving(sock)


def test_random_garbage_never_kills_the_server(server):
    rng = random.Random(1234)
    for trial in range(20):
        with _raw_connection(server) as sock:
            payload = bytes(rng.randrange(256)
                            for __ in range(rng.randrange(1, 64)))
            try:
                sock.sendall(protocol.pack_frame(payload))
                kind, __, body = _read_response(sock)
                assert kind == "err"
            except ConnectionError:
                pass               # a drop is acceptable; a hang is not
    with _raw_connection(server) as sock:
        _assert_still_serving(sock)


def test_valid_op_with_invalid_body_is_structured_not_protocol(client):
    with pytest.raises(ServiceError) as err:
        client.request({"op": "explore"})      # workload missing
    assert err.value.code == "bad-request"
    with pytest.raises(ServiceError) as err:
        client.request({"op": "nonsense"})
    assert err.value.code == "bad-op"
    # The session is still perfectly usable afterwards.
    assert "counters" in client.status()


# -- server semantics --------------------------------------------------------

def test_served_explore_is_bit_identical_to_one_shot(server, client):
    served = client.explore("crc32", seed=11, **FAST)
    reference = schema.explore_payload(
        api.explore("crc32", seed=11, **FAST))
    assert schema.explore_digest(served) \
        == schema.explore_digest(reference)
    assert served["baseline_cycles"] == reference["baseline_cycles"]
    assert served["candidates"] == reference["candidates"]


def test_served_evaluate_matches_one_shot(server, client):
    served = client.evaluate("crc32", seed=11, max_area=80_000.0, **FAST)
    reference = api.evaluate("crc32", seed=11, max_area=80_000.0, **FAST)
    assert served["final_cycles"] == reference.final_cycles
    assert served["reduction"] == reference.reduction
    assert served["ises"] == list(reference.ises)
    assert schema.selection_digest(served) == schema.selection_digest(
        schema.selection_payload(reference))


def test_served_sweep_matches_one_shot_digest(server, client):
    served = client.sweep(["crc32"], machines=[["4/2", 2]],
                          budgets=[80_000.0], **FAST)
    reference = api.sweep(["crc32"], machines=[("4/2", 2)],
                          budgets=(80_000.0,), **FAST)
    assert served["digest"] == reference.digest
    assert served["rows"] == [row.to_payload() for row in reference.rows]


def test_memo_serves_repeat_fingerprints(server, client):
    first = client.explore("crc32", seed=5, **FAST)
    again = client.explore("crc32", seed=5, **FAST)
    assert first == again
    assert server.counters.get("serve.memo_hits", 0) >= 1


def _count_lane_calls(monkeypatch):
    """Count ``ScopeLane.submit`` and ``ScopeLane._select`` calls."""
    calls = {"submit": 0, "select": 0}
    submit, select = ScopeLane.submit, ScopeLane._select

    def counted_submit(self, item):
        calls["submit"] += 1
        return submit(self, item)

    def counted_select(*args):
        calls["select"] += 1
        return select(*args)

    monkeypatch.setattr(ScopeLane, "submit", counted_submit)
    monkeypatch.setattr(ScopeLane, "_select", staticmethod(counted_select))
    return calls


def _one_shot_selection(seed, max_area):
    return schema.selection_payload(
        api.evaluate("crc32", seed=seed, max_area=max_area, **FAST))


def test_repeats_are_answered_on_the_loop(server, client, monkeypatch):
    """A second identical explore or evaluate never reaches the lane."""
    calls = _count_lane_calls(monkeypatch)
    explored = client.explore("crc32", seed=6, **FAST)
    chosen = client.evaluate("crc32", seed=6, max_area=80_000.0, **FAST)
    assert calls == {"submit": 2, "select": 1}
    assert client.explore("crc32", seed=6, **FAST) == explored
    assert client.evaluate("crc32", seed=6, max_area=80_000.0,
                           **FAST) == chosen
    assert calls == {"submit": 2, "select": 1}
    reference = schema.explore_payload(api.explore("crc32", seed=6, **FAST))
    assert schema.explore_digest(explored) \
        == schema.explore_digest(reference)
    assert schema.selection_digest(chosen) == schema.selection_digest(
        _one_shot_selection(6, 80_000.0))
    # An equal budget of another type echoes differently, so it is a
    # different answer and is selected afresh.
    other = client.evaluate("crc32", seed=6, max_area=80_000, **FAST)
    assert calls["select"] == 2
    assert other["max_area"] == 80_000 and other["digest"] != chosen["digest"]


def test_memo_hits_count_once_on_either_path(server, client, monkeypatch):
    calls = _count_lane_calls(monkeypatch)
    explore = dict(FAST, op="explore", workload="crc32", seed=7)
    evaluate = dict(explore, op="evaluate", max_area=20_000.0)

    def hits():
        return server.counters.get("serve.memo_hits", 0)

    client.request(explore)                    # fresh: explored on the lane
    assert (hits(), calls["submit"]) == (0, 1)
    client.request(explore)                    # loop hit
    assert (hits(), calls["submit"]) == (1, 1)
    client.request(evaluate)                   # lane memo branch: selects
    assert (hits(), calls["submit"], calls["select"]) == (2, 2, 1)
    client.request(evaluate)                   # loop hit
    assert (hits(), calls["submit"], calls["select"]) == (3, 2, 1)
    # A request queued straight onto the lane (as a submit job is)
    # answers through the lane's memo branch and counts once there.
    answers = []
    lane = server.registry.lane(schema.request_scope(
        schema.validate_request(explore)))
    for body in (explore, evaluate):
        done = threading.Event()
        lane.submit(WorkItem(schema.validate_request(body),
                             lambda payload: (answers.append(payload),
                                              done.set()),
                             lambda error: done.set()))
        assert done.wait(30.0)
    assert hits() == 5 and calls["select"] == 1
    assert answers[0] == client.request(explore)
    assert answers[1] == client.request(evaluate)
    assert hits() == 7


def test_lane_events_reach_only_their_own_request():
    """Two subscribed fresh explores of different programs queued on one
    lane together: each stream names only its own program."""
    lane = ScopeLane("events-scope")
    streams = {"crc32": [], "bitcount": []}
    done = threading.Semaphore(0)
    for workload, stream in streams.items():
        req = schema.validate_request(dict(
            op="explore", workload=workload, profile="quick", seed=31,
            iterations=6, restarts=1))
        lane._queue.put(WorkItem(req, lambda payload: done.release(),
                                 lambda error: done.release(),
                                 events=stream.append))
    # An abandoned item starts the lane thread with both already queued.
    idle = WorkItem(None, None, None)
    idle.abandon()
    lane.submit(idle)
    try:
        for __ in streams:
            assert done.acquire(timeout=120.0)
    finally:
        lane.stop()
    for workload, stream in streams.items():
        programs = [record["program"] for record in stream
                    if record["kind"] in ("flow.profile", "flow.explored")]
        assert len(programs) == 2 and set(programs) == {workload}


def test_concurrent_loop_hits_race_memo_eviction(monkeypatch):
    """Clients mix memo hits with fresh fingerprints while a two-entry
    memo evicts under them; every answer matches its one-shot answer."""
    seeds = (201, 202, 203, 204)
    budgets = (20_000.0, 320_000.0)
    explores = {seed: schema.explore_digest(schema.explore_payload(
        api.explore("crc32", seed=seed, **FAST))) for seed in seeds}
    selections = {(seed, area): schema.selection_digest(
        _one_shot_selection(seed, area))
        for seed in seeds for area in budgets}
    calls = _count_lane_calls(monkeypatch)
    srv = ExploreServer(port=0, memo_entries=2)
    srv.start_in_thread()
    mismatches, errors = [], []

    def run(index):
        order = random.Random(index).sample(
            [(seed, area) for seed in seeds for area in (None,) + budgets]
            * 3, 36)
        try:
            with ServiceClient(srv.address, timeout=120.0) as c:
                for seed, area in order:
                    if area is None:
                        got = c.explore("crc32", seed=seed, **FAST)
                        got, want = schema.explore_digest(got), \
                            explores[seed]
                    else:
                        got = c.evaluate("crc32", seed=seed,
                                         max_area=area, **FAST)
                        got, want = schema.selection_digest(got), \
                            selections[(seed, area)]
                    if got != want:
                        mismatches.append((seed, area))
        except Exception as error:          # surfaced below
            errors.append(error)

    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300.0)
        assert not errors and not mismatches
        assert srv.counters.get("serve.memo_hits", 0) > 0
        (lane,) = [srv.registry.lane(scope)
                   for scope in srv.registry.scopes()]
        assert lane.memo_size() <= 2
        # Evict seed 201's entry: its evaluate answers go with it, so the
        # same evaluate is selected again, and still gives the same answer.
        with ServiceClient(srv.address, timeout=120.0) as c:
            c.evaluate("crc32", seed=201, max_area=20_000.0, **FAST)
            for seed in (202, 203):
                c.explore("crc32", seed=seed, **FAST)
            assert lane.answer(schema.validate_request(dict(
                FAST, op="evaluate", workload="crc32", seed=201,
                max_area=20_000.0))) is None
            before = calls["select"]
            again = c.evaluate("crc32", seed=201, max_area=20_000.0, **FAST)
            assert calls["select"] == before + 1
            assert schema.selection_digest(again) \
                == selections[(201, 20_000.0)]
    finally:
        srv.stop()


def test_request_multiplexing_out_of_order_waits(server, client):
    rid_a = client.send(dict(FAST, op="explore", workload="crc32", seed=21))
    rid_b = client.send({"op": "status"})
    status = client.wait(rid_b)       # answered while A still explores
    assert "counters" in status
    result = client.wait(rid_a)
    assert result["workload"] == "crc32"


def test_quota_rejects_excess_inflight_requests():
    srv = ExploreServer(port=0, max_inflight=1)
    srv.start_in_thread()
    try:
        with ServiceClient(srv.address, timeout=120.0) as c:
            rids = [c.send(dict(FAST, op="explore", workload="crc32",
                                seed=100 + i)) for i in range(4)]
            codes = []
            for rid in rids:
                try:
                    c.wait(rid)
                    codes.append("ok")
                except ServiceError as error:
                    codes.append(error.code)
            assert codes[0] == "ok"
            assert "quota" in codes
            assert srv.counters.get("serve.quota_rejections", 0) >= 1
            # The client is not poisoned: a fresh request succeeds.
            assert c.explore("crc32", seed=100, **FAST)["workload"] \
                == "crc32"
    finally:
        srv.stop()


def test_request_timeout_answers_structured_timeout(server, client):
    with pytest.raises(ServiceError) as err:
        client.explore("crc32", seed=31, timeout=0.0001, **FAST)
    assert err.value.code == "timeout"
    assert server.counters.get("serve.timeouts", 0) == 1
    # The lane finishes (and memoises) regardless; the next identical
    # request answers from the memo.
    assert client.explore("crc32", seed=31, **FAST)["workload"] == "crc32"


def test_cancel_inflight_request(server, client):
    rid = client.send(dict(op="explore", workload="crc32", seed=41,
                           profile="quick", iterations=400, restarts=4))
    ack = client.request({"op": "cancel", "request": rid})
    if ack.get("cancelled"):
        with pytest.raises(ServiceError) as err:
            client.wait(rid)
        assert err.value.code == "cancelled"
        assert server.counters.get("serve.cancelled", 0) >= 1
    else:                          # lost the race: request had finished
        client.wait(rid)


def test_submit_poll_fetch_job_surface(server, client):
    job = client.submit("crc32", seed=51, **FAST)
    state = client.poll(job)
    assert state in ("pending", "done")
    deadline = time.time() + 60.0
    while client.poll(job) != "done" and time.time() < deadline:
        time.sleep(0.02)
    assert client.poll(job) == "done"
    fetched = client.fetch(job)
    reference = schema.explore_payload(
        api.explore("crc32", seed=51, **FAST))
    assert schema.explore_digest(fetched) \
        == schema.explore_digest(reference)
    with pytest.raises(ServiceError) as err:
        client.poll("J999999")
    assert err.value.code == "unknown-job"


def test_cancel_pending_job(server, client):
    # A heavier job occupies the lane so the second stays pending long
    # enough to cancel; if the race is lost the cancel reports so.
    client.submit("crc32", seed=61, profile="quick", iterations=200,
                  restarts=3)
    victim = client.submit("bitcount", seed=62, **FAST)
    ack = client.cancel(job=victim)
    if ack["cancelled"]:
        assert client.poll(victim) == "cancelled"
        with pytest.raises(ServiceError) as err:
            client.fetch(victim)
        assert err.value.code == "cancelled"
    else:
        assert ack["state"] in ("done", "error")


def test_subscribe_streams_progress_events(server, client):
    client.subscribe()
    rid = client.send(dict(FAST, op="explore", workload="crc32", seed=71))
    client.wait(rid)
    kinds = {record.get("kind") for __, record in client.events}
    assert client.events, "no EVENT frames streamed"
    assert any(request_id == rid for request_id, __ in client.events)
    assert "round" in kinds or "block" in kinds
    assert server.counters.get("serve.events", 0) >= len(client.events)
    # Unsubscribe turns the stream back off for later requests.
    client.subscribe(events=False)
    before = len(client.events)
    client.explore("crc32", seed=72, **FAST)
    assert len(client.events) == before


def test_subscribed_evaluate_streams_its_selection(server, client):
    """A fresh evaluate streams its explore and its ``flow.evaluate``;
    a new budget on the memoised exploration streams only the latter.
    Both answers equal the one-shot answers."""
    client.subscribe()
    for area, kinds_wanted in ((80_000.0, {"flow.explored", "flow.evaluate"}),
                               (20_000.0, {"flow.evaluate"})):
        rid = client.send(dict(FAST, op="evaluate", workload="crc32",
                               seed=73, max_area=area))
        served = client.wait(rid)
        kinds = {record.get("kind") for request_id, record in client.events
                 if request_id == rid}
        assert kinds_wanted <= kinds
        assert ("flow.explored" in kinds) == ("flow.explored" in kinds_wanted)
        assert schema.selection_digest(served) == schema.selection_digest(
            _one_shot_selection(73, area))


def test_status_reports_counters_scopes_and_jobs(server, client):
    client.explore("crc32", seed=81, **FAST)
    job = client.submit("crc32", seed=81, **FAST)
    status = client.status()
    assert status["counters"]["serve.requests"] >= 2
    assert any(scope.startswith("2is|") for scope in status["scopes"])
    assert job in status["jobs"]
    assert status["sessions"] == 1
    assert status["max_inflight"] == server.max_inflight


def test_server_stop_is_idempotent(server):
    server.stop()
    server.stop()                  # second stop must be a clean no-op


def test_client_surfaces_connection_loss_as_service_error(server):
    client = ServiceClient(server.address, timeout=30.0)
    rid = client.send({"op": "status"})
    client.wait(rid)
    server.stop()
    with pytest.raises(ServiceError) as err:
        client.request({"op": "status"})
    assert err.value.code == "connection"
    client.close()


def test_cli_serve_subcommand_is_wired():
    from repro.cli import build_parser

    args = build_parser().parse_args(["serve", "--port", "0",
                                      "--max-inflight", "3"])
    assert args.func.__name__ == "_cmd_serve"
    assert args.max_inflight == 3


def test_api_serve_helper_round_trip():
    server = api.serve(port=0, max_inflight=4)
    try:
        with ServiceClient(server.address, timeout=60.0) as c:
            assert c.status()["max_inflight"] == 4
    finally:
        server.stop()


def test_stop_during_connection_cleanup_logs_nothing(monkeypatch):
    """Cancelling a handler inside its cleanup must not escape it: the
    streams callback would read the cancelled task's exception and log
    a traceback through the loop's exception handler."""
    import asyncio
    import threading

    in_cleanup = threading.Event()

    async def blocked_wait_closed(self):
        in_cleanup.set()
        await asyncio.sleep(3600)

    monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                        blocked_wait_closed)
    srv = ExploreServer(port=0)
    srv.start_in_thread()
    loop = srv._loop
    reported = []
    installed = threading.Event()

    def install():
        loop.set_exception_handler(
            lambda __, context: reported.append(context))
        installed.set()

    loop.call_soon_threadsafe(install)
    assert installed.wait(5.0)
    sock = socket.create_connection((srv.host, srv.port))
    sock.close()                   # handler hits EOF, enters cleanup
    assert in_cleanup.wait(5.0)
    srv.stop()
    assert reported == []
