"""Engine telemetry: every number the paper's evaluation reports.

The stats object is the single ledger for the deterministic cost
model: interpreted bytecode ops, native cycles, compilation cycles,
bailout/invalidation penalties.  The engine counts its own facts in
it; what the interpreter, the executor and the code cache count is
read from them live, so the ledger is exact at any moment — mid-run,
and after a guest raised.  ``total_cycles`` is the "runtime"
of Figure 9 (interpretation + compilation + native execution, as the
paper measures); ``compile_cycles`` alone is the Figure 9(c,d)
compilation overhead; per-function native sizes feed Figure 10; the
specialization counters feed the §4 policy paragraphs.
"""

from bisect import bisect_left

from repro.engine.config import CostModel, interp_cycles
from repro.telemetry.metrics import COMPILE_COST_BUCKETS


#: Ledger keys that count *host-side* disk-cache traffic rather than
#: simulated work.  They legitimately differ between a cold and a warm
#: run of the same program (that is their whole point), so the
#: bit-identical round-trip checks (``tools/cache_roundtrip.py``,
#: ``tests/test_code_cache.py``) compare ledgers modulo this set.
DISK_TRAFFIC_KEYS = (
    "disk_hits",
    "disk_misses",
    "disk_stores",
    "disk_corrupt",
    "disk_evictions",
)


def _cache_counter(counter):
    """A ledger field read live from the attached code cache (0 without one)."""
    return property(
        lambda self: 0 if self._cache is None else getattr(self._cache, counter)
    )


class EngineStats(object):
    """Counters for one engine run.

    Holds the engine's interpreter, executor and code cache (never the
    engine itself) to read their counters.
    """

    def __init__(self, interpreter, executor, cache):
        self._interpreter = interpreter
        self._executor = executor
        self._cache = cache
        # -- time components (cycles) ------------------------------------
        self.interp_calls = 0
        #: Cycles spent compiling; the program waits for every compile.
        self.compile_cycles = 0
        self.bailout_cycles = 0
        self.invalidation_cycles = 0

        # -- events --------------------------------------------------------
        self.compiles = 0
        self.osr_compiles = 0
        self.bailouts = 0
        self.invalidations = 0
        #: Bailouts whose failing guard was a ``guardshape`` (a
        #: receiver arrived with a shape the site's IC had not seen
        #: when the binary was compiled).
        self.shape_guard_bailouts = 0
        #: code_id -> number of times that function was compiled.
        self.compiles_per_function = {}
        #: Compiles per ``COMPILE_COST_BUCKETS`` bucket, overflow last.
        self.compile_cost_buckets = [0] * (len(COMPILE_COST_BUCKETS) + 1)
        #: Loop back edges that entered native code (on-stack replacement).
        self.osr_enters = 0
        #: Binaries dropped so a site's IC can learn a failing shape.
        self.retrains = 0
        #: Specialization-cache traffic (docs/STATS.md).
        self.spec_cache_hits = 0
        self.spec_cache_misses = 0
        self.spec_cache_stores = 0

        # -- deoptless dispatch (docs/DEOPTLESS.md) -----------------------------
        #: Dispatched re-entries: a guard miss that would have
        #: discarded the binary was instead routed into a sibling in
        #: the specialization dispatch table (via OSR or at the next
        #: call) without bailing out to recompile.
        self.deoptless_reentries = 0
        #: Dispatch-table misses: a precondition mismatch for which no
        #: compatible sibling existed yet (the polymorphism evidence
        #: that eventually triggers a generalized compile).
        self.deoptless_misses = 0
        #: Generalized siblings compiled after repeated table misses
        #: (guards widened so the table converges).
        self.deoptless_generalized_compiles = 0

        # -- specialization policy (§4) ---------------------------------------
        #: code ids ever compiled with parameter specialization.
        self.specialized_functions = set()
        #: code ids whose specialized binary was discarded.
        self.deoptimized_functions = set()

        # -- code size (Figure 10) ----------------------------------------------
        #: code_id -> smallest native size seen (any mode).
        self.code_sizes = {}
        #: code_id -> function name (for reports).
        self.function_names = {}

        # -- misc -------------------------------------------------------------------
        self.not_compilable = set()

    # -- recording -----------------------------------------------------------

    def record_compile(self, code, native, work_units, codegen_stats, osr):
        cycles = CostModel.compile_base
        cycles += work_units * CostModel.compile_per_instruction_pass
        cycles += codegen_stats["lir_instructions"] * CostModel.compile_per_lir
        cycles += codegen_stats["intervals"] * CostModel.compile_per_interval
        self.compile_cycles += cycles
        self.compiles += 1
        self.compile_cost_buckets[bisect_left(COMPILE_COST_BUCKETS, cycles)] += 1
        if osr:
            self.osr_compiles += 1
        self.compiles_per_function[code.code_id] = (
            self.compiles_per_function.get(code.code_id, 0) + 1
        )
        size = native.size
        previous = self.code_sizes.get(code.code_id)
        if previous is None or size < previous:
            self.code_sizes[code.code_id] = size
        self.function_names[code.code_id] = code.name
        return cycles

    def record_bailout(self):
        self.bailouts += 1
        self.bailout_cycles += CostModel.bailout

    def record_invalidation(self):
        self.invalidations += 1
        self.invalidation_cycles += CostModel.invalidation

    # -- read live from the interpreter, executor and cache ------------------

    @property
    def interp_ops(self):
        return self._interpreter.ops_executed

    @property
    def ic_transitions(self):
        """Inline-cache transitions: property sites learning a new
        receiver shape (counted by the interpreter, so the count is
        backend-invariant)."""
        return self._interpreter.ic_transitions

    @property
    def native_cycles(self):
        return self._executor.cycles

    @property
    def native_instructions(self):
        return self._executor.instructions_executed

    #: The attached ``DiskCodeCache``'s counters: warm-start hit-rate
    #: telemetry in the same ledger as everything else.
    disk_hits = _cache_counter("hits")
    disk_misses = _cache_counter("misses")
    disk_stores = _cache_counter("stores")
    disk_corrupt = _cache_counter("corrupt")
    disk_evictions = _cache_counter("evictions")

    # -- reporting --------------------------------------------------------------

    @property
    def interp_cycles(self):
        return interp_cycles(self.interp_ops, self.interp_calls)

    @property
    def total_cycles(self):
        """The paper's 'time measured in each run': interpretation,
        compilation and native execution (plus transition costs).

        Every compile cycle counts: as in the paper, the program waits
        while a function compiles.
        """
        return (
            self.interp_cycles
            + self.native_cycles
            + self.compile_cycles
            + self.bailout_cycles
            + self.invalidation_cycles
        )

    @property
    def successfully_specialized(self):
        return self.specialized_functions - self.deoptimized_functions

    @property
    def recompilations(self):
        """Compilations beyond the first, summed over functions."""
        return sum(max(0, count - 1) for count in self.compiles_per_function.values())

    def as_dict(self):
        """The full ledger as a JSON-safe dict with a stable key set.

        Every counter the stats object tracks, flattened: cycle
        components, event counts, per-function maps (keyed by code id)
        and the specialization-policy sets as sorted lists.  The key
        set is documented in ``docs/STATS.md`` and schema-checked by
        the documentation tests, exactly like the trace event schema.
        """
        return {
            "total_cycles": self.total_cycles,
            "interp_cycles": self.interp_cycles,
            "native_cycles": self.native_cycles,
            "compile_cycles": self.compile_cycles,
            "bailout_cycles": self.bailout_cycles,
            "invalidation_cycles": self.invalidation_cycles,
            "interp_ops": self.interp_ops,
            "interp_calls": self.interp_calls,
            "native_instructions": self.native_instructions,
            "compiles": self.compiles,
            "osr_compiles": self.osr_compiles,
            "recompilations": self.recompilations,
            "bailouts": self.bailouts,
            "invalidations": self.invalidations,
            "ic_transitions": self.ic_transitions,
            "shape_guard_bailouts": self.shape_guard_bailouts,
            "deoptless_reentries": self.deoptless_reentries,
            "deoptless_misses": self.deoptless_misses,
            "deoptless_generalized_compiles": self.deoptless_generalized_compiles,
            "retrains": self.retrains,
            "osr_enters": self.osr_enters,
            "spec_cache_hits": self.spec_cache_hits,
            "spec_cache_misses": self.spec_cache_misses,
            "spec_cache_stores": self.spec_cache_stores,
            "compile_cost_buckets": list(self.compile_cost_buckets),
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "disk_stores": self.disk_stores,
            "disk_corrupt": self.disk_corrupt,
            "disk_evictions": self.disk_evictions,
            "specialized_functions": sorted(self.specialized_functions),
            "successfully_specialized": sorted(self.successfully_specialized),
            "deoptimized_functions": sorted(self.deoptimized_functions),
            "not_compilable": sorted(self.not_compilable),
            "compiles_per_function": dict(self.compiles_per_function),
            "code_sizes": dict(self.code_sizes),
            "function_names": dict(self.function_names),
        }

    def summary(self):
        return {
            "total_cycles": self.total_cycles,
            "interp_cycles": self.interp_cycles,
            "native_cycles": self.native_cycles,
            "compile_cycles": self.compile_cycles,
            "bailout_cycles": self.bailout_cycles,
            "compiles": self.compiles,
            "recompilations": self.recompilations,
            "bailouts": self.bailouts,
            "ic_transitions": self.ic_transitions,
            "shape_guard_bailouts": self.shape_guard_bailouts,
            "deoptless_reentries": self.deoptless_reentries,
            "deoptless_misses": self.deoptless_misses,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "specialized": len(self.specialized_functions),
            "successful": len(self.successfully_specialized),
            "deoptimized": len(self.deoptimized_functions),
        }
