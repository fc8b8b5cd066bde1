"""The multi-tenant serving tier (docs/SERVING.md).

Layers, bottom up:

- :mod:`repro.serving.shards` — sharded shared disk code cache plus
  per-tenant counter views.
- :mod:`repro.serving.isolate` — one engine (which owns its shape
  tree) per tenant; the tenant-isolation boundary.  A served request
  is measured by the model cycles its tenant's engine ran.
- :mod:`repro.serving.fleet` — seeded power-law fleet-traffic driver
  (`repro fleet`).
- :mod:`repro.serving.pool` — tenant isolates spread over worker
  processes.
- :mod:`repro.serving.server` — asyncio JSON-line front end
  (`repro serve`).
"""

from repro.serving.fleet import FleetProfile, generate_schedule, run_fleet
from repro.serving.isolate import TenantHost, TenantIsolate
from repro.serving.pool import WorkerPool
from repro.serving.server import ServingServer
from repro.serving.shards import ShardedDiskCache, TenantCacheView

__all__ = [
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
