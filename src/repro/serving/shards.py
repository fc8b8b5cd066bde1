"""Sharded shared disk code cache for the serving tier.

A :class:`ShardedDiskCache` spreads the content-key space over N
independent :class:`~repro.cache.disk.DiskCodeCache` shards (one
subdirectory each), so concurrent workers mostly touch disjoint
directories.  Routing is pure key arithmetic — the first
eight hex digits of the SHA-256 content key modulo the shard count —
so every process sharing the root agrees on placement with no
coordination.

Tenant accounting is layered on top: a :class:`TenantCacheView` gives
each tenant isolate its own hit/miss/store counters while delegating
actual storage to the shared shards.  Only immutable content —
compiled artifacts and program entries (the bytecode of a source text)
— crosses the view boundary; speculation state (shapes, ICs, spec
caches) never does; that is the tenant-isolation contract
(docs/SERVING.md).
"""

import os

from repro.cache.disk import (
    ENTRY_KINDS,
    DiskCodeCache,
    content_key,
    default_cache_root,
)
from repro.cache.serialize import Uncacheable


class ShardedDiskCache(object):
    """N DiskCodeCache shards behind the single-cache interface.

    Drop-in for the engine's ``code_cache`` slot: ``key_for``, ``load``,
    ``store``, ``load_program`` and ``store_program`` have the same
    signatures, and the counter attributes the engine's stats read
    (``hits``/``misses``/``stores``/``corrupt``/``evictions``) are live
    sums over the shards.
    """

    def __init__(self, root=None, shards=4):
        if shards < 1:
            raise ValueError("shards must be >= 1, got %r" % (shards,))
        self.root = root if root is not None else default_cache_root()
        self.shards = tuple(
            DiskCodeCache(root=os.path.join(self.root, "shard-%02d" % index))
            for index in range(shards)
        )
        #: Probes refused at the keying stage (identity-based values);
        #: shard-independent, so counted here rather than on a shard.
        self.uncacheable = 0

    # -- routing -------------------------------------------------------------

    def shard_index(self, key):
        """Deterministic shard index for one content key."""
        return int(key[:8], 16) % len(self.shards)

    def shard_for(self, key):
        return self.shards[self.shard_index(key)]

    # -- single-cache interface ----------------------------------------------

    def key_for(self, code, config, **kwargs):
        try:
            return content_key(code, config, **kwargs)
        except Uncacheable:
            self.uncacheable += 1
            return None

    def load(self, key, code, inputs=None):
        return self.shard_for(key).load(key, code, inputs)

    def store(self, key, result, executor=None, inputs=None):
        return self.shard_for(key).store(key, result, executor=executor, inputs=inputs)

    def load_program(self, key, ids):
        return self.shard_for(key).load_program(key, ids)

    def store_program(self, key, code):
        return self.shard_for(key).store_program(key, code)

    # -- aggregated counters -------------------------------------------------

    @property
    def hits(self):
        return sum(shard.hits for shard in self.shards)

    @property
    def misses(self):
        return sum(shard.misses for shard in self.shards)

    @property
    def stores(self):
        return sum(shard.stores for shard in self.shards)

    @property
    def corrupt(self):
        return sum(shard.corrupt for shard in self.shards)

    @property
    def evictions(self):
        return sum(shard.evictions for shard in self.shards)

    # -- reporting -----------------------------------------------------------

    def stats(self):
        """Aggregate stats dict plus a ``shards`` list of per-shard stats."""
        per_shard = [shard.stats() for shard in self.shards]
        total = {
            "root": self.root,
            "shards": len(self.shards),
            "entries": sum(s["entries"] for s in per_shard),
            "bytes": sum(s["bytes"] for s in per_shard),
            "kinds": {
                kind: {
                    field: sum(s["kinds"][kind][field] for s in per_shard)
                    for field in ("entries", "bytes")
                }
                for kind in ENTRY_KINDS
            },
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "uncacheable": self.uncacheable,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "program_loads": sum(s["program_loads"] for s in per_shard),
            "program_stores": sum(s["program_stores"] for s in per_shard),
            "per_shard": per_shard,
        }
        probes = total["hits"] + total["misses"]
        total["hit_rate"] = (total["hits"] / probes) if probes else 0.0
        return total


class TenantCacheView(object):
    """Per-tenant counter façade over a shared :class:`ShardedDiskCache`.

    The engine's stats read ``cache.hits`` (etc.) live, so tenants
    sharing one store must not share counters — otherwise every
    isolate would mirror the *global* numbers and a fleet merge would multiply them by the tenant count.  The view
    keeps private counters and delegates storage; counter deltas are
    attributed by snapshotting the target shard's counters around each
    delegated call (isolates execute requests serially within a
    worker, so the deltas are exact).
    """

    def __init__(self, store):
        #: The shared ShardedDiskCache artifacts are delegated to
        #: (named ``backing`` so it cannot shadow the ``store`` method).
        self.backing = store
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.uncacheable = 0
        self.corrupt = 0
        #: Always 0: eviction is store-level maintenance, not a
        #: per-tenant event (the host reports store evictions).
        self.evictions = 0

    def key_for(self, code, config, **kwargs):
        try:
            return content_key(code, config, **kwargs)
        except Uncacheable:
            self.uncacheable += 1
            return None

    def load(self, key, code, inputs=None):
        shard = self.backing.shard_for(key)
        corrupt_before = shard.corrupt
        result = shard.load(key, code, inputs)
        if result is None:
            self.misses += 1
            self.corrupt += shard.corrupt - corrupt_before
        else:
            self.hits += 1
        return result

    def store(self, key, result, executor=None, inputs=None):
        shard = self.backing.shard_for(key)
        uncacheable_before = shard.uncacheable
        stored = shard.store(key, result, executor=executor, inputs=inputs)
        if stored:
            self.stores += 1
        else:
            self.uncacheable += shard.uncacheable - uncacheable_before
        return stored

    def load_program(self, key, ids):
        shard = self.backing.shard_for(key)
        corrupt_before = shard.corrupt
        code = shard.load_program(key, ids)
        self.corrupt += shard.corrupt - corrupt_before
        return code

    def store_program(self, key, code):
        return self.backing.store_program(key, code)
