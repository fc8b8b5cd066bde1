"""Worker pool: tenant isolates spread over engine worker processes.

Each worker process hosts a :class:`~repro.serving.isolate.TenantHost`
with every isolate of the tenants routed to it; routing is a stable
hash of the tenant id, so a tenant's whole request stream — and all
of its speculation state — lives in exactly one process.

Each worker is one duplex ``multiprocessing.Pipe`` and one thread
(receive, execute, send); no queue and no thread sits between a
caller and a worker.  End-of-file on a connection means its worker is
gone, and every request it owed is answered with a ``WorkerExited``
error.  The requests sent to one worker and unanswered never hold more
than its socket's send buffer (:func:`_buffer_cost`); the rest wait in
that worker's backlog in the parent and go out as its replies are
read.  So sending never blocks the parent, and the parent always gets
back to reading the replies a worker may be blocked writing.
docs/SERVING.md, "Process model", has the whole protocol.

``workers=0`` runs a single in-process host behind the same submit /
next_response interface — used by tests and small deployments, and by
the asyncio server when process isolation isn't needed.

Shutdown is graceful by construction: the caller drains its in-flight
requests first, then :meth:`WorkerPool.shutdown` sends one sentinel
per live worker, and each worker replies with a final summary
(per-tenant metrics payloads, store stats) after answering everything
sent before it — a pipe is FIFO, so no response can be lost behind a
summary.
"""

import collections
import multiprocessing
import multiprocessing.connection
import queue as queue_module
import socket
import zlib
from multiprocessing.reduction import ForkingPickler

from repro.serving.isolate import TenantHost
from repro.telemetry.metrics import merge_payloads


def tenant_worker(tenant, workers):
    """Stable tenant -> worker-index routing (crc32, not PYTHONHASHSEED)."""
    if workers <= 1:
        return 0
    return zlib.crc32(str(tenant).encode("utf-8")) % workers


def _send_buffer(conn):
    """The bytes the kernel lets ``conn`` queue before a send blocks."""
    fd = conn.fileno()
    with socket.fromfd(fd, socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        return sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)


def _buffer_cost(size):
    """An upper bound on the send buffer a ``size``-byte message holds.

    Linux charges each queued buffer its allocation, rounded up to a
    power of two, plus about 0.75 KiB of bookkeeping (278 one-byte
    messages fill a 208 KiB buffer), and a message's 4-byte length
    header may go out as a buffer of its own.
    """
    return 2 * (size + 4) + 1024


def _worker_summary(host):
    return {
        "payloads": host.metrics_payloads(),
        "store_stats": host.store_stats(),
        "tenants": sorted(host.isolates),
    }


def _error_reply(request, error):
    response = {
        "tenant": request.get("tenant"),
        "status": "error",
        "error": error,
        "output": [],
    }
    if "seq" in request:
        response["seq"] = request["seq"]
    return response


def _execute(host, request):
    try:
        return host.execute_request(request)
    except Exception as exc:  # keep the worker alive on bad input
        return _error_reply(request, "%s: %s" % (type(exc).__name__, exc))


def _worker_main(index, conn, host_kwargs, catalog):
    host = TenantHost(catalog=catalog, **host_kwargs)
    while True:
        request = conn.recv()
        if request is None:
            break
        conn.send(("response", index, _execute(host, request)))
    conn.send(("summary", index, _worker_summary(host)))
    conn.close()


class WorkerPool(object):
    """Submit/next_response façade over N engine workers (or inline)."""

    def __init__(self, workers=0, host_kwargs=None, catalog=None):
        self.workers = workers
        self.host_kwargs = dict(host_kwargs or {})
        self.catalog = dict(catalog or {})
        self._inline_host = None
        self._processes = []
        self._conns = []  # the parent's end per worker; None once it exited
        self._capacity = []  # per worker: its connection's send buffer
        self._held = []  # per worker: what its in-flight requests hold of it
        self._in_flight = []  # per worker: (request, cost) sent, unanswered
        self._backlog = []  # per worker: (request, pickle) waiting for room
        self._replies = collections.deque()
        self._started = False

    def start(self):
        if self._started:
            return
        self._started = True
        if self.workers <= 0:
            self._inline_host = TenantHost(
                catalog=self.catalog, **self.host_kwargs
            )
            return
        context = multiprocessing.get_context()
        for index in range(self.workers):
            conn, child = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(index, child, self.host_kwargs, self.catalog),
                daemon=True,
            )
            process.start()
            child.close()
            self._conns.append(conn)
            self._capacity.append(_send_buffer(conn))
            self._held.append(0)
            self._in_flight.append(collections.deque())
            self._backlog.append(collections.deque())
            self._processes.append(process)

    def connections(self):
        """The live workers' connections (for ``loop.add_reader``)."""
        return [conn for conn in self._conns if conn is not None]

    def submit(self, request):
        """Queue one request; responses arrive via next_response.

        Never blocks: the request is sent at once if the worker's send
        buffer has room for it, and waits in the worker's backlog
        otherwise.  Inline mode executes synchronously (the response
        is buffered before submit returns).  A request routed to a
        worker that has exited is answered at once with a
        ``WorkerExited`` error.
        """
        if self._inline_host is not None:
            self._replies.append(
                ("response", 0, _execute(self._inline_host, request))
            )
            return
        index = tenant_worker(request.get("tenant"), self.workers)
        self._backlog[index].append((request, ForkingPickler.dumps(request)))
        self._send(index)

    def next_response(self, timeout=None):
        """The next ``(kind, worker_index, payload)`` reply tuple.

        ``kind`` is ``"response"`` or ``"summary"``; raises
        ``queue.Empty`` on timeout, or at once when nothing is buffered
        and no worker is left to answer.
        """
        while not self._replies:
            live = self.connections()
            ready = multiprocessing.connection.wait(live, timeout) if live else []
            if not ready:
                raise queue_module.Empty
            for conn in ready:
                self._receive(self._conns.index(conn))
        return self._replies.popleft()

    def _send(self, index):
        """Send worker ``index`` its backlog while its send buffer has room.

        A request sent and unanswered is still in the buffer or already
        read out of it, so the buffer never holds more than the sum of
        :func:`_buffer_cost` over the in-flight requests, and a send
        that keeps that sum within the buffer's size cannot block.  A
        request too large for an empty buffer goes out alone, when the
        worker has answered everything and is reading.
        """
        conn = self._conns[index]
        if conn is None:
            self._close(index)
            return
        backlog, in_flight = self._backlog[index], self._in_flight[index]
        while backlog:
            request, data = backlog[0]
            cost = _buffer_cost(len(data))
            if in_flight and self._held[index] + cost > self._capacity[index]:
                return
            backlog.popleft()
            in_flight.append((request, cost))
            self._held[index] += cost
            try:
                conn.send_bytes(data)
            except OSError:
                self._close(index)
                return

    def _receive(self, index):
        """Read one message from worker ``index`` into the reply buffer."""
        try:
            message = self._conns[index].recv()
        except (EOFError, OSError):
            self._close(index)
            return
        self._replies.append(message)
        if message[0] == "response":
            _request, cost = self._in_flight[index].popleft()
            self._held[index] -= cost
            self._send(index)

    def _close(self, index):
        """Close worker ``index``'s connection; answer all it still owes."""
        if self._conns[index] is not None:
            self._conns[index].close()
            self._conns[index] = None
        for owed in (self._in_flight[index], self._backlog[index]):
            while owed:
                request, _ = owed.popleft()
                reply = self._exited_reply(index, request)
                self._replies.append(("response", index, reply))
        self._held[index] = 0

    def _exited_reply(self, index, request):
        process = self._processes[index]
        process.join(timeout=1)
        return _error_reply(
            request,
            "WorkerExited: worker %d exited with code %s"
            % (index, process.exitcode),
        )

    def shutdown(self, timeout=30):
        """Stop workers and return the merged fleet summary.

        Callers must have drained their in-flight responses first.
        Workers that exited, before or during shutdown, are skipped.
        Returns ``{"payloads", "metrics", "store_stats", "tenants"}``
        with ``metrics`` the ``merge_payloads`` fold over every tenant
        of every worker.
        """
        summaries = []
        if self._inline_host is not None:
            summaries.append(_worker_summary(self._inline_host))
            self._inline_host = None
        elif self._started:
            for index, conn in enumerate(self._conns):
                if conn is None:
                    continue
                try:
                    conn.send(None)
                except OSError:
                    self._close(index)
            while self.connections():
                try:
                    kind, index, payload = self.next_response(timeout=timeout)
                except queue_module.Empty:
                    if self.connections():
                        raise
                    break  # the last live worker exited without a summary
                if kind == "summary":
                    summaries.append(payload)
                    self._close(index)
            for process in self._processes:
                process.join(timeout=timeout)
            self._processes = []
            self._conns = []
            self._capacity = []
            self._held = []
            self._in_flight = []
            self._backlog = []
        payloads = [p for summary in summaries for p in summary["payloads"]]
        return {
            "payloads": payloads,
            "metrics": merge_payloads(payloads),
            "store_stats": [
                s["store_stats"] for s in summaries if s["store_stats"]
            ],
            "tenants": sorted(t for s in summaries for t in s["tenants"]),
        }
