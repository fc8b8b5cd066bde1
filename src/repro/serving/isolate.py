"""Tenant isolates: one engine and one serving-metrics registry per tenant.

The isolation contract (docs/SERVING.md) is ownership: every piece of
*speculation state* — the shape transition tree, inline caches, type
feedback, spec caches, deoptless tables — hangs off the tenant's own
:class:`~repro.engine.runtime_engine.Engine` (the shape tree off its
``Runtime``), and nothing in the process is shared between engines.
Only immutable compiled artifacts (content-addressed disk frames) cross
tenants.

Because each engine's runtime numbers its own shape tree, shape ids are
deterministic *per tenant* — bit-identical to running that tenant's
request stream alone in a dedicated engine, which is exactly what the
cross-tenant bleed test asserts.

The isolate keeps its engine (and the compiled toplevel CodeObjects of
every program it has served) alive across requests, so feedback, ICs
and spec caches warm up over a tenant's traffic — the serving-tier
payoff of the paper's premise that production traffic re-invokes the
same functions with recurring argument patterns.
"""

import os

from repro.engine.config import FULL_SPEC
from repro.engine.runtime_engine import Engine
from repro.errors import ReproError
from repro.serving.admission import QUEUE_CAPACITY, AdmissionLane
from repro.telemetry.metrics import MetricsRegistry, merge_payloads, metrics_payload

from repro.serving.shards import ShardedDiskCache, TenantCacheView


class TenantIsolate(object):
    """One tenant's engine, programs, lane and metrics."""

    def __init__(
        self,
        tenant,
        cache=None,
        engine_kwargs=None,
        queue_capacity=None,
    ):
        self.tenant = tenant
        self.cache = cache
        #: The serving rows (requests, batches, lane); the engine's rows
        #: are computed from the engine when a payload is asked for.
        self.serving = MetricsRegistry()
        kwargs = dict(engine_kwargs or {})
        kwargs.setdefault("config", FULL_SPEC)
        self.engine = Engine(code_cache=cache, **kwargs)
        self.lane = AdmissionLane(
            capacity=QUEUE_CAPACITY if queue_capacity is None else queue_capacity
        )
        #: program name -> (source, compiled toplevel CodeObject); reused
        #: across requests while the name keeps meaning the same source,
        #: so this tenant's feedback and spec caches warm up.
        self.programs = {}
        self.requests = 0
        self.serving.set_gauge("repro_serving_tenants", 1)

    def execute(self, program, source):
        """Run one request; returns ``(output_lines, service_cycles)``.

        Measures service time as the engine's deterministic cycle-clock
        delta and returns only the lines printed by *this* request (the
        runtime's ``printed`` list is truncated back — also when the
        guest raises — so long-lived isolates stay bounded).
        """
        cached = self.programs.get(program)
        if cached is None or cached[0] != source:
            if cached is not None:
                self.engine.forget(cached[1])  # a re-deploy: the old tree is dead
            cached = self.programs[program] = (source, self.engine.load_source(source))
        code = cached[1]
        runtime = self.engine.interpreter.runtime
        printed_before = len(runtime.printed)
        cycles_before = self.engine.trace_clock()
        try:
            self.engine.run_code(code)
            output = list(runtime.printed[printed_before:])
        finally:
            del runtime.printed[printed_before:]
        service_cycles = self.engine.trace_clock() - cycles_before
        self.requests += 1
        return output, service_cycles

    def serve(self, program, source, arrival=None, batch=None):
        """Admit and execute one request; returns a response dict.

        ``arrival`` is a cycle on this tenant's admission clock; None
        (serve mode) means "now", i.e. the current lane cycle.  The
        response carries status, output, and the deterministic
        latency/wait/service cycle counts; a rejected request executes
        nothing.
        """
        if arrival is None:
            arrival = self.lane.lane_cycle
        if batch is None:
            # Serve mode ships no batch ids: every request is its own
            # batch (pays the dispatch delay), deterministically keyed
            # off the lane's admission count.
            batch = ("auto", self.lane.admitted)
        new_batch = batch != self.lane.last_batch
        start = self.lane.admit(arrival, batch=batch)
        registry = self.serving
        if start is None:
            registry.inc("repro_serving_rejected_total")
            self._sample_lane()
            return {
                "tenant": self.tenant,
                "program": program,
                "status": "rejected",
                "output": [],
                "arrival": arrival,
            }
        if new_batch:
            registry.inc("repro_serving_batches_total")
        output, service_cycles = self.execute(program, source)
        done = self.lane.complete(start, service_cycles)
        registry.inc("repro_serving_requests_total")
        registry.observe("repro_serving_request_latency_cycles", done - arrival)
        registry.observe("repro_serving_queue_wait_cycles", start - arrival)
        self._sample_lane()
        return {
            "tenant": self.tenant,
            "program": program,
            "status": "ok",
            "output": output,
            "arrival": arrival,
            "dispatch": start,
            "done": done,
            "latency_cycles": done - arrival,
            "wait_cycles": start - arrival,
            "service_cycles": service_cycles,
        }

    def _sample_lane(self):
        self.serving.set_gauge(
            "repro_serving_queue_depth_high_water", self.lane.depth_high_water
        )

    def metrics_payload(self):
        """This tenant's metrics payload (full schema keys), computed now.

        The engine's rows and the serving rows are disjoint (each is zero
        in the other's payload), so merging them is their union.
        """
        return merge_payloads([metrics_payload(self.engine), self.serving.as_dict()])


def _error_response(tenant, program, message):
    return {
        "tenant": tenant,
        "program": program,
        "status": "error",
        "error": message,
        "output": [],
    }


class TenantHost(object):
    """A set of tenant isolates over one (optional) shared artifact store.

    ``cache_mode``:

    - ``"off"``: no disk cache.
    - ``"tenant"``: each isolate gets a private
      :class:`ShardedDiskCache` under ``<root>/tenant-<id>``; fully
      partition-invariant (used by deterministic fleet runs).
    - ``"shared"``: one :class:`ShardedDiskCache` at ``root``, fronted
      by a per-tenant :class:`TenantCacheView` so counters stay
      per-tenant while artifacts are shared fleet-wide.
    """

    def __init__(
        self,
        cache_mode="off",
        cache_root=None,
        shards=4,
        engine_kwargs=None,
        queue_capacity=None,
        catalog=None,
    ):
        if cache_mode not in ("off", "tenant", "shared"):
            raise ValueError("unknown cache_mode %r" % (cache_mode,))
        if cache_mode != "off" and cache_root is None:
            raise ValueError("cache_mode %r needs a cache_root" % (cache_mode,))
        self.cache_mode = cache_mode
        self.cache_root = cache_root
        self.num_shards = shards
        self.engine_kwargs = dict(engine_kwargs or {})
        self.queue_capacity = queue_capacity
        #: program name -> guest source; requests may name a catalog
        #: program instead of shipping source.
        self.catalog = dict(catalog or {})
        self.store = None
        if cache_mode == "shared":
            self.store = ShardedDiskCache(root=cache_root, shards=shards)
        self.isolates = {}

    def isolate(self, tenant):
        isolate = self.isolates.get(tenant)
        if isolate is None:
            if self.cache_mode == "shared":
                cache = TenantCacheView(self.store)
            elif self.cache_mode == "tenant":
                cache = ShardedDiskCache(
                    root=os.path.join(self.cache_root, "tenant-%s" % tenant),
                    shards=self.num_shards,
                )
            else:
                cache = None
            isolate = TenantIsolate(
                tenant,
                cache=cache,
                engine_kwargs=self.engine_kwargs,
                queue_capacity=self.queue_capacity,
            )
            self.isolates[tenant] = isolate
        return isolate

    def execute_request(self, request):
        """Serve one request dict; returns the response dict.

        Request fields: ``tenant`` (required), ``program`` (catalog
        name) or ``source`` (inline guest code; cached under
        ``program``'s name if both are given), optional ``arrival``
        and ``batch`` (virtual-clock mode), optional ``seq`` (echoed).
        A guest that fails (syntax error, uncaught runtime error) gets
        a ``status: "error"`` response naming the error class — the
        same reply from an inline pool and from a worker process.
        """
        tenant = request["tenant"]
        program = request.get("program", "<inline>")
        source = request.get("source")
        if source is None:
            source = self.catalog.get(program)
        if source is None:
            return _error_response(
                tenant, program, "unknown program %r" % (program,)
            )
        isolate = self.isolate(tenant)
        try:
            response = isolate.serve(
                program,
                source,
                arrival=request.get("arrival"),
                batch=request.get("batch"),
            )
        except ReproError as exc:
            response = _error_response(
                tenant, program, "%s: %s" % (type(exc).__name__, exc)
            )
        if "seq" in request:
            response["seq"] = request["seq"]
        return response

    # -- aggregation ---------------------------------------------------------

    def metrics_payloads(self):
        """Per-tenant finalized payloads, in sorted tenant order."""
        payloads = []
        for tenant in sorted(self.isolates):
            isolate = self.isolates[tenant]
            isolate._sample_lane()
            payloads.append(isolate.metrics_payload())
        return payloads

    def store_stats(self):
        if self.store is not None:
            return self.store.stats()
        if self.cache_mode == "tenant":
            stats = [
                i.cache.stats() for t, i in sorted(self.isolates.items())
            ]
            return {
                "shards": self.num_shards,
                "entries": sum(s["entries"] for s in stats),
                "bytes": sum(s["bytes"] for s in stats),
                "hits": sum(s["hits"] for s in stats),
                "misses": sum(s["misses"] for s in stats),
                "stores": sum(s["stores"] for s in stats),
                "evictions": sum(s["evictions"] for s in stats),
            }
        return None
