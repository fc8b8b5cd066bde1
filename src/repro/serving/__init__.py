"""The multi-tenant serving tier (docs/SERVING.md).

Layers, bottom up:

- :mod:`repro.serving.shards` — sharded shared disk code cache plus
  per-tenant counter views.
- :mod:`repro.serving.admission` — deterministic per-tenant
  admission/queueing lanes (``max(arrival + delay, lane_cycle)``,
  model cycles).
- :mod:`repro.serving.isolate` — one engine (which owns its shape
  tree) + metrics registry per tenant; the tenant-isolation boundary.
- :mod:`repro.serving.fleet` — seeded power-law fleet-traffic driver
  (`repro fleet`).
- :mod:`repro.serving.pool` — tenant isolates spread over worker
  processes.
- :mod:`repro.serving.server` — asyncio JSON-line front end
  (`repro serve`).
"""

from repro.serving.admission import AdmissionLane
from repro.serving.fleet import FleetProfile, generate_schedule, run_fleet
from repro.serving.isolate import TenantHost, TenantIsolate
from repro.serving.pool import WorkerPool
from repro.serving.server import ServingServer
from repro.serving.shards import ShardedDiskCache, TenantCacheView

__all__ = [
    "AdmissionLane",
    "FleetProfile",
    "generate_schedule",
    "run_fleet",
    "TenantHost",
    "TenantIsolate",
    "WorkerPool",
    "ServingServer",
    "ShardedDiskCache",
    "TenantCacheView",
]
