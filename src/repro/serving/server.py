"""The asyncio front end: JSON-line requests over a local socket.

Protocol — one JSON object per line, one JSON reply per line:

- ``{"op": "run", "tenant": "t", "program": "name", "source": "..."}``
  (``op`` defaults to ``run``; ``source`` optional when ``program``
  names a catalog entry; an optional client ``id`` is echoed back)
- ``{"op": "ping"}`` — liveness probe.
- ``{"op": "stats"}`` — live counters: requests served, errors,
  pending, tenants seen.
- ``{"op": "shutdown"}`` — graceful stop: the reply is sent, new runs
  are refused, in-flight requests drain, workers retire and report
  their per-tenant metrics payloads, and the merged payload is
  flushed to ``metrics_out`` as JSONL before the process exits.

The server binds a unix socket (``socket_path``) or a TCP port and
routes requests to a :class:`~repro.serving.pool.WorkerPool`; with
``workers=0`` the pool runs inline (no child processes), with N > 0
each tenant's isolate lives in exactly one worker process.  A reply's
``service_cycles`` are the model cycles the tenant's engine ran for
it, never wall time.

The server is one thread.  A request is submitted to the pool on the
event loop, and :meth:`ServingServer._collect` resolves the waiting
connections from the pool's replies — after every submit, and
whenever ``loop.add_reader`` sees a worker connection readable.  An
inline pool therefore runs one request at a time, on the loop.
"""

import asyncio
import json
import queue as queue_module

from repro.serving.pool import WorkerPool
from repro.telemetry.metrics import write_metrics_jsonl


class ServingServer(object):
    """Asyncio JSON-line front end over a :class:`WorkerPool`.

    Owns the socket, the request sequence numbers, and the graceful
    shutdown protocol; execution and isolation live in the pool's
    tenant isolates (docs/SERVING.md).
    """

    def __init__(
        self,
        socket_path=None,
        host="127.0.0.1",
        port=0,
        workers=0,
        cache_mode="off",
        cache_root=None,
        shards=4,
        engine_kwargs=None,
        catalog=None,
        metrics_out=None,
    ):
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.metrics_out = metrics_out
        self.pool = WorkerPool(
            workers=workers,
            host_kwargs={
                "cache_mode": cache_mode,
                "cache_root": cache_root,
                "shards": shards,
                "engine_kwargs": dict(engine_kwargs or {}),
            },
            catalog=catalog,
        )
        self.address = None
        self.summary = None
        self._server = None
        self._loop = None
        self._next_seq = 0
        self._pending = {}
        self._draining = False
        self._closed = None
        self._readers = set()
        self._served = 0
        self._errors = 0
        self._tenants = set()

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind the socket, start the pool and watch its connections."""
        self._loop = asyncio.get_event_loop()
        self._closed = asyncio.Event()
        self.pool.start()
        for conn in self.pool.connections():
            self._loop.add_reader(conn.fileno(), self._collect)
            self._readers.add(conn.fileno())
        if self.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.socket_path
            )
            self.address = ("unix", self.socket_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            bound = self._server.sockets[0].getsockname()
            self.address = (bound[0], bound[1])
        return self.address

    async def wait_closed(self):
        await self._closed.wait()

    async def run(self):
        await self.start()
        await self.wait_closed()

    # -- response plumbing ---------------------------------------------------

    def _collect(self):
        """Resolve pending futures from every reply the pool has ready."""
        while True:
            try:
                kind, _index, payload = self.pool.next_response(timeout=0)
            except queue_module.Empty:
                break
            if kind != "response":
                continue
            if payload.get("status") == "ok":
                self._served += 1
                self._tenants.add(payload.get("tenant"))
            else:
                self._errors += 1
            future = self._pending.pop(payload.get("seq"), None)
            if future is not None and not future.done():
                future.set_result(payload)
        live = {conn.fileno() for conn in self.pool.connections()}
        self._unwatch(self._readers - live)

    def _unwatch(self, fds):
        """Stop watching worker connections (an exited worker's, or all)."""
        for fd in fds:
            self._loop.remove_reader(fd)
        self._readers -= fds

    # -- protocol ------------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line.decode("utf-8"))
                except ValueError:
                    reply = {"status": "error", "error": "bad json"}
                else:
                    reply = await self._dispatch(request)
                writer.write((json.dumps(reply, sort_keys=True) + "\n").encode())
                await writer.drain()
                if reply.get("op") == "shutdown":
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _dispatch(self, request):
        op = request.get("op", "run")
        if op == "ping":
            return {"status": "ok", "op": "ping"}
        if op == "stats":
            return self._stats()
        if op == "shutdown":
            self._draining = True
            self._loop.create_task(self._shutdown())
            return {"status": "ok", "op": "shutdown"}
        if op != "run":
            return {"status": "error", "error": "unknown op %r" % (op,)}
        if self._draining:
            return {"status": "rejected", "error": "shutting down"}
        if "tenant" not in request:
            return {"status": "error", "error": "missing tenant"}
        seq = self._next_seq
        self._next_seq += 1
        job = {
            "tenant": request["tenant"],
            "seq": seq,
        }
        if "program" in request:
            job["program"] = request["program"]
        if "source" in request:
            job["source"] = request["source"]
        future = self._loop.create_future()
        self._pending[seq] = future
        self.pool.submit(job)
        self._collect()
        response = await future
        response = dict(response)
        response.pop("seq", None)
        if "id" in request:
            response["id"] = request["id"]
        return response

    def _stats(self):
        return {
            "status": "ok",
            "op": "stats",
            "requests": self._served,
            "errors": self._errors,
            "pending": len(self._pending),
            "tenants": len(self._tenants),
        }

    # -- graceful stop -------------------------------------------------------

    async def _shutdown(self):
        """Drain in-flight work, retire workers, flush metrics, close."""
        self._server.close()
        while self._pending:
            await asyncio.sleep(0.01)
        self._unwatch(set(self._readers))
        self.summary = self.pool.shutdown()
        if self.metrics_out:
            write_metrics_jsonl(self.summary["metrics"], self.metrics_out)
        await self._server.wait_closed()
        self._closed.set()
