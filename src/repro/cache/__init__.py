"""Persistent cross-run code cache.

Compilation in this reproduction is deterministic: the native binary a
compile produces is a pure function of the guest bytecode, the
optimization configuration, the type feedback, and (under parameter
specialization) the concrete argument values.  That makes compiled
artifacts content-addressable — hash the inputs, store the output —
and lets a *warm* run skip the whole MIR → LIR → codegen pipeline on
the host, the same trick every production JIT with a startup cache
plays (JSC's bytecode cache, V8's code cache, HHVM's repo-authoritative
mode).  The front half is deterministic too, so the same store keeps
each source text's rotated bytecode (a *program entry*) and a warm run
is key → load → run.

Two invariants keep the cache honest:

* **Purely a wall-clock optimization.**  The simulated cycle ledger is
  computed from the artifact's recorded work units and codegen stats,
  so ``EngineStats`` — including ``compile_cycles`` — and the printed
  output are bit-identical between a cold and a warm run.  Only host
  time changes.  (The one visible trace difference: per-pass
  ``pass.run`` events are absent on a disk hit, replaced by a
  ``cache.disk_hit`` event; see docs/TRACING.md.)
* **Refuse rather than guess.**  A plain object or array argument is
  keyed by what the compiler reads of it — class, position among the
  inputs, an array's length — and stored as a relocatable slot bound to
  the live call's value on load.  Any input the key cannot capture
  faithfully — a function argument, an unserializable constant — makes
  the compile uncacheable (:meth:`DiskCodeCache.key_for` returns
  ``None``) and the engine compiles normally.

The store lives under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro``); see docs/COMPILE_PIPELINE.md for the key anatomy
and ``python -m repro cache`` for inspection/clearing.
"""

from repro.cache.disk import DiskCodeCache, default_cache_root

__all__ = ["DiskCodeCache", "default_cache_root"]
