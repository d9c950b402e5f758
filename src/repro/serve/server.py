"""The exploration service front end: ``repro serve``.

One asyncio process accepts framed-JSON requests (the serve extension
of :mod:`repro.dist.protocol`) and multiplexes them onto per-scope
worker lanes (:mod:`repro.serve.session`).  The event loop never
explores: a repeat explore or a repeated evaluate is answered on the
loop from its lane's memo
(:meth:`~repro.serve.session.ScopeLane.answer`), and every other
execution request becomes a :class:`WorkItem` whose completion is
marshalled back via ``loop.call_soon_threadsafe``, so the loop stays
responsive for status probes, cancels and new connections while
explorations grind on lane threads and the shared worker pool.

Each connection has one read loop that validates the length prefix
first, and two properties a service needs:

* **multiplexing** — the client chooses a ``request_id`` per request
  and any number may be in flight on one connection; responses and
  streamed ``EVENT`` frames carry the id back;
* **resilience** — a malformed *body* inside an intact frame answers a
  structured ``ERR`` and the connection keeps serving (only corrupt
  framing, where no resync point exists, drops the connection).  The
  server loop itself survives both, plus any exploration failure
  (including a pool worker dying mid-dispatch).

Per-client quotas (``max_inflight``), per-request timeouts, cancel and
a fire-and-forget ``submit``/``poll``/``fetch`` job surface round out
the contract; ``serve.*`` counters (see docs/OBSERVABILITY.md) expose
everything the status op reports.
"""

import argparse
import asyncio
import itertools
import threading

from ..dist import protocol
from . import schema
from .schema import RequestError
from .session import DEFAULT_MEMO_ENTRIES, ScopeRegistry, WorkItem

#: Default TCP port (overridden by ``--port`` / the client address).
DEFAULT_PORT = 7208

#: Default per-connection in-flight request quota.
DEFAULT_MAX_INFLIGHT = 8


class _Session:
    """Per-connection state: subscription, in-flight table, writer."""

    def __init__(self, sid, writer):
        self.sid = sid
        self.writer = writer
        self.subscribed = False
        self.alive = True
        self.inflight = {}        # request_id -> (WorkItem, cancel_fn)
        self.tasks = set()
        self.wlock = asyncio.Lock()

    def push_event(self, request_id, record):
        """Write one EVENT frame (loop thread, best-effort)."""
        if not self.alive or not self.subscribed:
            return False
        try:
            self.writer.write(protocol.pack_frame(
                protocol.encode_serve_event(request_id, record)))
        except (ConnectionError, OSError, protocol.ProtocolError):
            return False
        return True


class ExploreServer:
    """Asyncio TCP front end over the scope-lane registry.

    Lifecycle matches the evalcache server: :meth:`start_in_thread`
    from tests/benchmarks (returns the bound port), :meth:`run_blocking`
    from the CLI, :meth:`stop` for an idempotent teardown that also
    drains the lanes and releases the worker pool.
    """

    def __init__(self, host="127.0.0.1", port=0,
                 max_inflight=DEFAULT_MAX_INFLIGHT, request_timeout=None,
                 memo_entries=DEFAULT_MEMO_ENTRIES):
        self.host = host
        self.port = port
        self.max_inflight = max(1, int(max_inflight))
        self.request_timeout = request_timeout
        self.counters = {}
        self._counter_lock = threading.Lock()
        self.registry = ScopeRegistry(counters=self.bump,
                                      memo_entries=memo_entries)
        self.jobs = {}            # job id -> state dict
        self._job_seq = itertools.count(1)
        self._sid_seq = itertools.count(1)
        self._sessions = set()
        self._server = None
        self._loop = None
        self._thread = None
        self._started = threading.Event()
        self._stop_lock = threading.Lock()

    def bump(self, name, n=1):
        """Thread-safe counter increment (lanes call this too)."""
        with self._counter_lock:
            self.counters[name] = self.counters.get(name, 0) + n

    # -- connection loop ---------------------------------------------------

    async def _serve_connection(self, reader, writer):
        self.bump("serve.connections")
        loop = asyncio.get_running_loop()
        session = _Session(next(self._sid_seq), writer)
        self._sessions.add(session)
        try:
            while True:
                prefix = await reader.read(4)
                if not prefix:
                    break
                while len(prefix) < 4:
                    more = await reader.read(4 - len(prefix))
                    if not more:
                        break
                    prefix += more
                try:
                    length = protocol.frame_length(prefix)
                except protocol.ProtocolError as error:
                    # Corrupt framing: no resync point exists past an
                    # oversized/truncated prefix — answer and drop.
                    self.bump("serve.protocol_errors")
                    await self._write(session, protocol.encode_serve_err(
                        0, error, code="protocol"))
                    break
                try:
                    payload = await reader.readexactly(length)
                except asyncio.IncompleteReadError:
                    break
                if length > schema.MAX_BODY:
                    self.bump("serve.protocol_errors")
                    await self._write(session, protocol.encode_serve_err(
                        0, "request of {} bytes exceeds the {} byte "
                        "body limit".format(length, schema.MAX_BODY),
                        code="protocol"))
                    continue
                try:
                    request_id, body = protocol.decode_serve_request(payload)
                except protocol.ProtocolError as error:
                    # The frame itself was intact, so the stream is
                    # still in sync: answer ERR and keep serving.
                    self.bump("serve.protocol_errors")
                    await self._write(session, protocol.encode_serve_err(
                        0, error, code="protocol"))
                    continue
                task = loop.create_task(
                    self._handle(session, request_id, body))
                session.tasks.add(task)
                task.add_done_callback(session.tasks.discard)
        except asyncio.CancelledError:
            pass                   # server shutdown mid-connection
        except (ConnectionError, OSError):
            pass
        finally:
            session.alive = False
            for item, __ in list(session.inflight.values()):
                item.abandon()
            for task in list(session.tasks):
                task.cancel()
            self._sessions.discard(session)
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                # A shutdown that cancels this handler during cleanup
                # ends it here: a handler task ending cancelled makes
                # the streams callback log a CancelledError traceback.
                pass

    async def _write(self, session, payload):
        if not session.alive:
            return
        async with session.wlock:
            try:
                session.writer.write(protocol.pack_frame(payload))
                await session.writer.drain()
            except (ConnectionError, OSError):
                session.alive = False

    async def _err(self, session, request_id, message, code="error"):
        self.bump("serve.errors")
        await self._write(session, protocol.encode_serve_err(
            request_id, message, code=code))

    # -- request dispatch --------------------------------------------------

    async def _handle(self, session, request_id, body):
        self.bump("serve.requests")
        try:
            req = schema.validate_request(body)
        except RequestError as error:
            await self._err(session, request_id, error, code=error.code)
            return
        try:
            op = req["op"]
            if op == "status":
                await self._write(session, protocol.encode_serve_ok(
                    request_id, self._status()))
            elif op == "subscribe":
                session.subscribed = req["events"]
                await self._write(session, protocol.encode_serve_ok(
                    request_id, {"subscribed": session.subscribed}))
            elif op == "cancel":
                await self._handle_cancel(session, request_id, req)
            elif op == "poll":
                await self._handle_poll(session, request_id, req)
            elif op == "fetch":
                await self._handle_fetch(session, request_id, req)
            elif op == "submit":
                await self._handle_submit(session, request_id, req)
            else:                  # explore / evaluate / sweep
                await self._execute(session, request_id, req)
        except asyncio.CancelledError:
            raise
        except Exception as error:
            # Defensive: an unexpected failure answers this request
            # and never takes the server loop down with it.
            await self._err(session, request_id, error)

    def _item_callbacks(self, session, request_id, loop, resolve, reject):
        """Thread-safe deliver/fail/events bridges for one request."""
        def deliver(payload):
            loop.call_soon_threadsafe(resolve, payload)

        def fail(error):
            loop.call_soon_threadsafe(reject, error)

        events = None
        if session.subscribed:
            def events(record):
                loop.call_soon_threadsafe(
                    self._push_event, session, request_id, record)
        return deliver, fail, events

    def _push_event(self, session, request_id, record):
        if session.push_event(request_id, record):
            self.bump("serve.events")

    async def _execute(self, session, request_id, req):
        if len(session.inflight) >= self.max_inflight:
            self.bump("serve.quota_rejections")
            await self._err(
                session, request_id,
                "client has {} request(s) in flight (limit {})".format(
                    len(session.inflight), self.max_inflight),
                code="quota")
            return
        lane = self.registry.lane(schema.request_scope(req))
        payload = lane.answer(req)
        if payload is not None:
            self.bump("serve.memo_hits")
            self.bump("serve.responses")
            await self._write(session, protocol.encode_serve_ok(
                request_id, payload))
            return
        loop = asyncio.get_running_loop()
        future = loop.create_future()

        def resolve(payload):
            if not future.done():
                future.set_result(payload)

        def reject(error):
            if not future.done():
                future.set_exception(error)

        deliver, fail, events = self._item_callbacks(
            session, request_id, loop, resolve, reject)
        item = WorkItem(req, deliver, fail, events=events)

        def cancel_fn():
            item.abandon()
            reject(RequestError("cancelled by client", code="cancelled"))

        session.inflight[request_id] = (item, cancel_fn)
        try:
            lane.submit(item)
            timeout = req.get("timeout") or self.request_timeout
            payload = await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            item.abandon()
            self.bump("serve.timeouts")
            await self._err(session, request_id,
                            "request timed out after {}s".format(timeout),
                            code="timeout")
            return
        except asyncio.CancelledError:
            item.abandon()
            raise
        except RequestError as error:
            await self._err(session, request_id, error, code=error.code)
            return
        except Exception as error:
            await self._err(session, request_id, error,
                            code=getattr(error, "code", "error"))
            return
        finally:
            session.inflight.pop(request_id, None)
        self.bump("serve.responses")
        await self._write(session, protocol.encode_serve_ok(
            request_id, payload))

    # -- jobs: submit / poll / fetch / cancel ------------------------------

    async def _handle_submit(self, session, request_id, req):
        if len(session.inflight) >= self.max_inflight:
            self.bump("serve.quota_rejections")
            await self._err(session, request_id,
                            "client quota exhausted", code="quota")
            return
        loop = asyncio.get_running_loop()
        job_id = "J{}".format(next(self._job_seq))
        job = {"id": job_id, "state": "pending", "result": None,
               "error": None, "code": None, "item": None}

        def resolve(payload):
            if job["state"] == "pending":
                job["state"] = "done"
                job["result"] = payload

        def reject(error):
            if job["state"] == "pending":
                job["state"] = "error"
                job["error"] = str(error)
                job["code"] = getattr(error, "code", "error")

        deliver, fail, events = self._item_callbacks(
            session, request_id, loop, resolve, reject)
        run_req = dict(req, op="explore")
        item = WorkItem(run_req, deliver, fail, events=events)
        job["item"] = item
        self.jobs[job_id] = job
        self.bump("serve.jobs")
        self.registry.lane(schema.request_scope(run_req)).submit(item)
        await self._write(session, protocol.encode_serve_ok(
            request_id, {"job": job_id, "state": "pending"}))

    async def _handle_poll(self, session, request_id, req):
        job = self.jobs.get(req["job"])
        if job is None:
            await self._err(session, request_id,
                            "unknown job {!r}".format(req["job"]),
                            code="unknown-job")
            return
        await self._write(session, protocol.encode_serve_ok(
            request_id, {"job": job["id"], "state": job["state"]}))

    async def _handle_fetch(self, session, request_id, req):
        job = self.jobs.get(req["job"])
        if job is None:
            await self._err(session, request_id,
                            "unknown job {!r}".format(req["job"]),
                            code="unknown-job")
            return
        state = job["state"]
        if state == "done":
            self.bump("serve.responses")
            await self._write(session, protocol.encode_serve_ok(
                request_id, job["result"]))
        elif state == "error":
            await self._err(session, request_id, job["error"],
                            code=job["code"] or "error")
        elif state == "cancelled":
            await self._err(session, request_id,
                            "job {} was cancelled".format(job["id"]),
                            code="cancelled")
        else:
            await self._err(session, request_id,
                            "job {} is still {}".format(job["id"], state),
                            code="pending")

    async def _handle_cancel(self, session, request_id, req):
        if req["job"] is not None:
            job = self.jobs.get(req["job"])
            if job is None:
                await self._err(session, request_id,
                                "unknown job {!r}".format(req["job"]),
                                code="unknown-job")
                return
            cancelled = False
            if job["state"] == "pending":
                job["item"].abandon()
                job["state"] = "cancelled"
                cancelled = True
                self.bump("serve.cancelled")
            await self._write(session, protocol.encode_serve_ok(
                request_id,
                {"job": job["id"], "cancelled": cancelled,
                 "state": job["state"]}))
            return
        entry = session.inflight.get(req["request"])
        if entry is None:
            await self._err(session, request_id,
                            "no in-flight request {}".format(
                                req["request"]),
                            code="unknown-request")
            return
        __, cancel_fn = entry
        cancel_fn()
        self.bump("serve.cancelled")
        await self._write(session, protocol.encode_serve_ok(
            request_id, {"request": req["request"], "cancelled": True}))

    def _status(self):
        with self._counter_lock:
            counters = dict(self.counters)
        return {
            "counters": counters,
            "scopes": self.registry.scopes(),
            "jobs": {jid: job["state"] for jid, job in self.jobs.items()},
            "sessions": len(self._sessions),
            "max_inflight": self.max_inflight,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        """Bind the listening socket (records the effective port)."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started.set()
        return self.port

    async def serve_forever(self, announce=False):
        """Start listening and block until the server is stopped."""
        await self.start()
        if announce:
            print("repro serve listening on {}".format(self.address),
                  flush=True)
        async with self._server:
            await self._server.serve_forever()

    def run_blocking(self, announce=True):
        """Bind, announce and serve on the calling thread (CLI path)."""
        try:
            asyncio.run(self.serve_forever(announce=announce))
        except KeyboardInterrupt:
            pass
        finally:
            self.registry.close()

    @property
    def address(self):
        """``host:port`` once bound (the :class:`ServiceClient` target)."""
        return "{}:{}".format(self.host, self.port)

    def start_in_thread(self):
        """Run the server on a daemon thread; returns the bound port."""
        if self._thread is not None:
            return self.port

        def run():
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.serve_forever())
            except asyncio.CancelledError:
                pass
            finally:
                try:
                    loop.run_until_complete(loop.shutdown_asyncgens())
                finally:
                    loop.close()

        self._thread = threading.Thread(target=run, name="repro-serve",
                                        daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("explore server failed to start")
        return self.port

    def stop(self):
        """Stop a threaded server, drain the lanes, release the pool.

        Idempotent and safe to call concurrently (a test teardown can
        race an ``atexit`` path): the loop is cancelled once, lanes
        drain their queued work, and the worker-pool teardown is the
        ordering-safe :func:`repro.core.pool.shutdown_pools`.
        """
        with self._stop_lock:
            thread, loop = self._thread, self._loop
            self._thread = None
            self._loop = None
        if thread is not None and loop is not None:
            def cancel():
                for task in asyncio.all_tasks(loop):
                    task.cancel()

            try:
                loop.call_soon_threadsafe(cancel)
            except RuntimeError:
                pass               # loop already closed
            thread.join(timeout=10.0)
        self.registry.close()
        from ..core.pool import shutdown_pools

        shutdown_pools()


def main(argv=None):
    """``repro serve`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the exploration service daemon.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help="TCP port (0 picks a free one; default {})"
                        .format(DEFAULT_PORT))
    parser.add_argument("--max-inflight", type=int,
                        default=DEFAULT_MAX_INFLIGHT,
                        help="per-connection in-flight request quota "
                        "(default {})".format(DEFAULT_MAX_INFLIGHT))
    parser.add_argument("--timeout", type=float, default=None,
                        help="server-side per-request timeout in "
                        "seconds (default: none)")
    args = parser.parse_args(argv)
    server = ExploreServer(host=args.host, port=args.port,
                           max_inflight=args.max_inflight,
                           request_timeout=args.timeout)
    server.run_blocking()
    return 0
