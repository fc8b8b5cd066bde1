"""Synthetic fleet traffic: power-law tenants over a program catalog.

The paper's Fig. 1–4 measurements rest on production call streams
being heavily repetitive — a few hot pages invoked over and over with
recurring argument patterns.  This driver scales the web-corpus
generator (:mod:`repro.workloads.web`) to a *fleet*: ``tenants``
tenants whose activity follows a power law (rank weight ∝ 1/rank),
each request picking a catalog program by a steeper power law
(∝ 1/rank²), so a handful of tenant×program pairs dominate — exactly
the repeat-heavy profile where warm specialization and the shared
artifact store pay off.

Everything is driven by one seeded RNG over *integer* weight tables
(no float accumulation), so a schedule is a pure function of the
profile: same seed → byte-identical JSONL schedule, and — because a
request is measured by the deterministic model cycles its tenant's
engine ran — identical merged metrics payloads whatever the
worker-process count (``--jobs``).
"""

import json
import random
import shutil
import tempfile

from repro.serving.pool import WorkerPool
from repro.workloads.web import generate_website_program

#: Seed stride separating the schedule RNG from the catalog RNGs.
FLEET_SEED_STRIDE = 7000081


class FleetProfile(object):
    """Parameters of one synthetic fleet-traffic run."""

    def __init__(
        self,
        tenants=8,
        requests=200,
        programs=6,
        seed=0,
        functions_per_program=10,
    ):
        self.tenants = tenants
        self.requests = requests
        self.programs = programs
        self.seed = seed
        self.functions_per_program = functions_per_program

    def as_dict(self):
        return {
            "tenants": self.tenants,
            "requests": self.requests,
            "programs": self.programs,
            "seed": self.seed,
            "functions_per_program": self.functions_per_program,
        }


def _power_law_weights(count, quadratic=False):
    """Integer rank weights ∝ 1/rank (or 1/rank²), scaled to avoid
    float arithmetic entirely."""
    scale = 1_000_000
    if quadratic:
        return [scale // ((rank + 1) * (rank + 1)) for rank in range(count)]
    return [scale // (rank + 1) for rank in range(count)]


def _weighted_pick(rng, cumulative, total):
    """Draw a rank from an integer cumulative-weight table."""
    point = rng.randrange(total)
    for rank, bound in enumerate(cumulative):
        if point < bound:
            return rank
    return len(cumulative) - 1


def _cumulative(weights):
    bounds = []
    running = 0
    for weight in weights:
        running += weight
        bounds.append(running)
    return bounds, running


def build_catalog(profile):
    """Program name -> guest source for this profile (seed-derived)."""
    catalog = {}
    for index in range(profile.programs):
        name = "app-%02d" % index
        catalog[name] = generate_website_program(
            "fleet_%02d" % index,
            num_functions=profile.functions_per_program,
            # Every third program is heavily polymorphic, like the
            # corpus's worst pages; the rest are repeat-friendly.
            polymorphic_fraction=0.3 if index % 3 == 2 else 0.1,
            seed=profile.seed * 1000 + index,
        )
    return catalog


def generate_schedule(profile):
    """The fleet's request schedule as a list of plain dicts.

    Each record: ``seq`` (global order), ``tenant`` (``t<NN>``),
    ``program`` (catalog name).  Pure function of the profile.
    """
    rng = random.Random(profile.seed * FLEET_SEED_STRIDE + 1)
    tenant_bounds, tenant_total = _cumulative(_power_law_weights(profile.tenants))
    program_bounds, program_total = _cumulative(
        _power_law_weights(profile.programs, quadratic=True)
    )
    records = []
    for seq in range(profile.requests):
        # Drawn and dropped (it was an arrival gap): each seed keeps its stream.
        rng.randrange(1, 4096)
        tenant = _weighted_pick(rng, tenant_bounds, tenant_total)
        program = _weighted_pick(rng, program_bounds, program_total)
        records.append(
            {"seq": seq, "tenant": "t%02d" % tenant, "program": "app-%02d" % program}
        )
    return records


def schedule_jsonl(records):
    """The schedule as canonical JSONL (sorted keys, one per line)."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def percentile(values, fraction):
    """Exact order-statistic percentile (nearest-rank, no interpolation)."""
    if not values:
        return 0
    ordered = sorted(values)
    rank = int(len(ordered) * fraction)
    if rank >= len(ordered):
        rank = len(ordered) - 1
    return ordered[rank]


def run_fleet(
    profile,
    jobs=1,
    cache_mode="tenant",
    cache_root=None,
    shards=4,
    engine_kwargs=None,
):
    """Generate and serve one fleet schedule; returns the result dict.

    The schedule goes through a :class:`~repro.serving.pool.WorkerPool`
    of ``jobs`` worker processes (``jobs=1``: one in-process host), the
    pool ``repro serve`` runs on.  It routes whole tenants, in schedule
    order, so per-tenant engines and caches see the exact same request
    stream at any job count; metrics are per-tenant and a request is
    measured in model cycles, so responses, cycles and the merged
    payload are identical across job counts and across runs with the
    same seed.  ``errors`` counts the replies whose status is not ``ok``.
    One exception: with ``cache_mode="shared"`` and ``jobs > 1`` the
    workers share one store, and which process stores an artifact first
    decides which tenants count disk hits — the disk-hit counters move,
    cycles do not.

    ``cache_root=None`` with a caching mode uses a private temporary
    root, deleted afterwards — every run starts cold.  Pass an
    existing root to measure warm-start behaviour (the cycle
    bench's ``serving`` section does exactly that).
    """
    catalog = build_catalog(profile)
    schedule = generate_schedule(profile)
    temp_root = None
    if cache_mode != "off" and cache_root is None:
        temp_root = tempfile.mkdtemp(prefix="repro-fleet-cache-")
        cache_root = temp_root
    host_kwargs = {
        "cache_mode": cache_mode,
        "cache_root": cache_root,
        "shards": shards,
        "engine_kwargs": dict(engine_kwargs or {}),
    }
    jobs = min(jobs, profile.tenants)
    pool = WorkerPool(
        workers=jobs if jobs > 1 else 0, host_kwargs=host_kwargs, catalog=catalog
    )
    try:
        pool.start()
        for record in schedule:
            pool.submit(record)
        # Nothing but responses arrives before shutdown asks for summaries.
        responses = [pool.next_response()[2] for _record in schedule]
        summary = pool.shutdown()
    finally:
        if temp_root is not None:
            shutil.rmtree(temp_root, ignore_errors=True)

    responses.sort(key=lambda r: r["seq"])
    merged = summary["metrics"]
    service = [r["service_cycles"] for r in responses if r["status"] == "ok"]
    counters = merged["counters"]
    disk_probes = (
        counters["repro_cache_disk_hits_total"]
        + counters["repro_cache_disk_misses_total"]
    )
    return {
        "profile": profile.as_dict(),
        "responses": responses,
        "metrics": merged,
        "requests": counters["repro_serving_requests_total"],
        "errors": len(responses) - len(service),
        "tenants": merged["gauges"]["repro_serving_tenants"],
        "p50_service_cycles": percentile(service, 0.50),
        "p99_service_cycles": percentile(service, 0.99),
        "total_service_cycles": sum(service),
        "warm_hit_rate": (
            counters["repro_cache_disk_hits_total"] / disk_probes
            if disk_probes
            else 0.0
        ),
        "disk_hits": counters["repro_cache_disk_hits_total"],
        "disk_misses": counters["repro_cache_disk_misses_total"],
        "store_stats": summary["store_stats"],
    }
