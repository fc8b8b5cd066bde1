"""Tenant isolates: one engine per tenant.

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
from repro.telemetry.metrics import metrics_payload

from repro.serving.shards import ShardedDiskCache, TenantCacheView


class TenantIsolate(object):
    """One tenant's engine and programs."""

    def __init__(self, tenant, cache=None, engine_kwargs=None):
        self.tenant = tenant
        self.cache = cache
        kwargs = dict(engine_kwargs or {})
        kwargs.setdefault("config", FULL_SPEC)
        self.engine = Engine(code_cache=cache, **kwargs)
        #: program name -> (source, compiled toplevel CodeObject); reused
        #: across requests while the name keeps meaning the same source,
        #: so this tenant's feedback and spec caches warm up.
        self.programs = {}
        self.requests = 0

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
        cycles_before = self.engine.stats.total_cycles
        try:
            self.engine.run_code(code)
            output = list(runtime.printed[printed_before:])
        finally:
            del runtime.printed[printed_before:]
        service_cycles = self.engine.stats.total_cycles - cycles_before
        self.requests += 1
        return output, service_cycles

    def serve(self, program, source):
        """Execute one request; returns a response dict.

        A request is measured by the engine cycles it ran:
        ``service_cycles``, the cycle-clock delta of :meth:`execute`.
        """
        output, service_cycles = self.execute(program, source)
        return {
            "tenant": self.tenant,
            "program": program,
            "status": "ok",
            "output": output,
            "service_cycles": service_cycles,
        }

    def metrics_payload(self):
        """This tenant's metrics payload (full schema keys), computed now:
        the engine's rows, plus its request count and one tenant."""
        payload = metrics_payload(self.engine)
        payload["counters"]["repro_serving_requests_total"] = self.requests
        payload["gauges"]["repro_serving_tenants"] = 1
        return payload


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
                tenant, cache=cache, engine_kwargs=self.engine_kwargs
            )
            self.isolates[tenant] = isolate
        return isolate

    def execute_request(self, request):
        """Serve one request dict; returns the response dict.

        Request fields: ``tenant`` (required), ``program`` (catalog
        name) or ``source`` (inline guest code; cached under
        ``program``'s name if both are given), optional ``seq``
        (echoed).
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
            response = isolate.serve(program, source)
        except ReproError as exc:
            response = _error_response(
                tenant, program, "%s: %s" % (type(exc).__name__, exc)
            )
        if "seq" in request:
            response["seq"] = request["seq"]
        return response

    # -- aggregation ---------------------------------------------------------

    def metrics_payloads(self):
        """Per-tenant payloads, computed now, in sorted tenant order."""
        return [self.isolates[t].metrics_payload() for t in sorted(self.isolates)]

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
