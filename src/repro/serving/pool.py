"""Worker pool: tenant isolates spread over engine worker processes.

Each worker process hosts a :class:`~repro.serving.isolate.TenantHost`
with every isolate of the tenants routed to it; routing is a stable
hash of the tenant id, so a tenant's whole request stream — and all
of its speculation state — lives in exactly one process.  Workers
communicate over plain ``multiprocessing`` queues: requests in, tagged
``("response", ...)`` / ``("summary", ...)`` tuples out on one shared
outbox.

``workers=0`` runs a single in-process host behind the same submit /
next_response interface — used by tests and small deployments, and by
the asyncio server when process isolation isn't needed.

Shutdown is graceful by construction: the caller drains its in-flight
requests first, then :meth:`WorkerPool.shutdown` sends one sentinel
per worker, and each worker replies with a final summary (per-tenant
metrics payloads, store stats) after finishing everything already in
its inbox — per-worker queues are FIFO, so no response can be lost
behind a summary.
"""

import multiprocessing
import queue as queue_module
import zlib

from repro.serving.isolate import TenantHost
from repro.telemetry.metrics import merge_payloads


def tenant_worker(tenant, workers):
    """Stable tenant -> worker-index routing (crc32, not PYTHONHASHSEED)."""
    if workers <= 1:
        return 0
    return zlib.crc32(str(tenant).encode("utf-8")) % workers


def _worker_summary(host):
    return {
        "payloads": host.metrics_payloads(),
        "store_stats": host.store_stats(),
        "tenants": sorted(host.isolates),
    }


def _worker_main(index, inbox, outbox, host_kwargs, catalog):
    host = TenantHost(catalog=catalog, **host_kwargs)
    while True:
        item = inbox.get()
        if item is None:
            break
        try:
            response = host.execute_request(item)
        except Exception as exc:  # keep the worker alive on bad input
            response = {
                "tenant": item.get("tenant"),
                "status": "error",
                "error": "%s: %s" % (type(exc).__name__, exc),
                "output": [],
            }
            if "seq" in item:
                response["seq"] = item["seq"]
        outbox.put(("response", index, response))
    outbox.put(("summary", index, _worker_summary(host)))


class WorkerPool(object):
    """Submit/next_response façade over N engine workers (or inline)."""

    def __init__(self, workers=0, host_kwargs=None, catalog=None):
        self.workers = workers
        self.host_kwargs = dict(host_kwargs or {})
        self.catalog = dict(catalog or {})
        self._inline_host = None
        self._inline_outbox = None
        self._processes = []
        self._inboxes = []
        self._outbox = None
        self._started = False

    def start(self):
        if self._started:
            return
        self._started = True
        if self.workers <= 0:
            self._inline_host = TenantHost(
                catalog=self.catalog, **self.host_kwargs
            )
            self._inline_outbox = queue_module.Queue()
            return
        context = multiprocessing.get_context()
        self._outbox = context.Queue()
        for index in range(self.workers):
            inbox = context.Queue()
            process = context.Process(
                target=_worker_main,
                args=(index, inbox, self._outbox, self.host_kwargs, self.catalog),
                daemon=True,
            )
            process.start()
            self._inboxes.append(inbox)
            self._processes.append(process)

    def submit(self, request):
        """Enqueue one request; responses arrive via next_response.

        Inline mode executes synchronously (the response is queued
        before submit returns).
        """
        if self._inline_host is not None:
            response = self._inline_host.execute_request(request)
            self._inline_outbox.put(("response", 0, response))
            return
        index = tenant_worker(request.get("tenant"), self.workers)
        self._inboxes[index].put(request)

    def next_response(self, timeout=None):
        """The next ``(kind, worker_index, payload)`` outbox tuple.

        ``kind`` is ``"response"`` or ``"summary"``; raises
        ``queue.Empty`` on timeout.
        """
        outbox = (
            self._inline_outbox if self._inline_host is not None else self._outbox
        )
        return outbox.get(timeout=timeout)

    def shutdown(self, timeout=30):
        """Stop workers and return the merged fleet summary.

        Callers must have drained their in-flight responses first.
        Returns ``{"payloads", "metrics", "store_stats", "tenants"}``
        with ``metrics`` the ``merge_payloads`` fold over every tenant
        of every worker.
        """
        summaries = []
        if self._inline_host is not None:
            summaries.append(_worker_summary(self._inline_host))
            self._inline_host = None
        elif self._started:
            for inbox in self._inboxes:
                inbox.put(None)
            pending = len(self._processes)
            while pending:
                kind, _index, payload = self._outbox.get(timeout=timeout)
                if kind == "summary":
                    summaries.append(payload)
                    pending -= 1
            for process in self._processes:
                process.join(timeout=timeout)
            self._processes = []
            self._inboxes = []
        payloads = [p for summary in summaries for p in summary["payloads"]]
        return {
            "payloads": payloads,
            "metrics": merge_payloads(payloads),
            "store_stats": [
                s["store_stats"] for s in summaries if s["store_stats"]
            ],
            "tenants": sorted(t for s in summaries for t in s["tenants"]),
        }
