"""Cycle-exact profiling: where every cycle of ``total_cycles`` went.

The tracer (:mod:`repro.telemetry.tracing`) answers *when* JIT events
happened; :class:`EngineStats` answers *how many* cycles a run cost.
This module answers *where the cycles went*: it attributes every cycle
of ``EngineStats.total_cycles`` to a ``(function, tier, block)``
triple —

* **interp** — bytecode dispatch and interpreted-call setup, charged
  per :class:`~repro.jsvm.bytecode.CodeObject` by the interpreter's
  profiled dispatch loop;
* **native** — simulated native execution, charged per basic block of
  each compiled binary.  The closure backend's block-granular counters
  make this exact by construction; the reference executor counts per
  instruction and aggregates to the same blocks, so both backends
  produce identical attributions;
* **compile** / **bailout** / **invalidate** — the engine's transition
  costs, charged per code id at the same sites that feed the stats
  ledger.

On top of the flat attribution the profiler keeps a **shadow call
tree**: one :class:`ProfileNode` per distinct guest call path, pushed
and popped on the interpreter's call boundaries.  Self cycles live on
the node where they were charged; inclusive cycles and collapsed-stack
(flamegraph) output fall out of a tree walk
(:mod:`repro.telemetry.reports`).

Per compiled binary the profiler also keeps **guard forensics**: each
bailout is recorded against the faulting native instruction with its
guard op, failure reason, and resume-point (MIR/LIR snapshot) id — the
table that identifies a deoptimization storm's exact guard site.

Design rules (shared with the tracer):

* **Zero cost when disabled.**  The engine holds
  ``cycle_profiler = None`` by default; every instrumentation site is
  a single ``is not None`` check, and the interpreter/executors only
  switch to their instrumented loops when a profiler is attached.
* **No perturbation.**  The profiler never touches the cost model or
  any counter the engine reads; enabling it leaves ``EngineStats``,
  printed output and trace streams bit-identical
  (``tests/test_profiler.py`` proves it differentially).
* **Exactness.**  ``attributed_cycles()`` and the row sum of
  :meth:`CycleProfiler.attribution` both equal
  ``EngineStats.total_cycles`` — to the cycle, on every benchmark
  suite, under both executor backends.

See ``docs/PROFILING.md`` for a worked walkthrough.
"""

import weakref

from repro.lir.closures import _TERMINATORS, _block_leaders

#: Attribution tier names, in reporting order; their cycles sum to
#: ``EngineStats.total_cycles``.
TIERS = ("interp", "native", "compile", "bailout", "invalidate")

#: Pseudo-block label for the engine's per-entry transition charge
#: (``CostModel.native_call_entry``), which belongs to no instruction.
ENTRY_BLOCK = "entry"


def block_bodies(native):
    """Basic-block partition of ``native``: {leader index: [indices]}.

    Uses the closure backend's leader computation so the partition is
    identical to the one its per-block counters are kept at; the walk
    from each leader matches ``compile_closures`` exactly (stop at a
    terminator, the next leader, or the end of the stream).
    """
    instructions = native.instructions
    leader_set = set(_block_leaders(native))
    size = len(instructions)
    bodies = {}
    for leader in leader_set:
        body = []
        index = leader
        while True:
            body.append(index)
            if instructions[index].op in _TERMINATORS:
                break
            if index + 1 >= size or index + 1 in leader_set:
                break
            index += 1
        bodies[leader] = body
    return bodies


class ProfileNode(object):
    """One distinct guest call path (a shadow-call-tree node).

    Every charge the profiler receives lands on the node that is
    current when it happens, so a node's counters are the *self* cost
    of its call path; inclusive costs are subtree sums.
    """

    __slots__ = (
        "code_id",
        "name",
        "children",
        "interp_ops",
        "interp_calls",
        "native_cycles",
        "native_instructions",
        "entry_cycles",
        "compile_cycles",
        "bailout_cycles",
        "invalidation_cycles",
    )

    def __init__(self, code_id, name):
        self.code_id = code_id
        self.name = name
        #: code_id -> child ProfileNode.
        self.children = {}
        self.interp_ops = 0
        self.interp_calls = 0
        self.native_cycles = 0
        self.native_instructions = 0
        self.entry_cycles = 0
        self.compile_cycles = 0
        self.bailout_cycles = 0
        self.invalidation_cycles = 0

    def tier_cycles(self, cost_model):
        """This node's self cycles, split by tier (see :data:`TIERS`)."""
        return {
            "interp": (
                self.interp_ops * cost_model.interp_op
                + self.interp_calls * cost_model.interp_call
            ),
            "native": self.native_cycles + self.entry_cycles,
            "compile": self.compile_cycles,
            "bailout": self.bailout_cycles,
            "invalidate": self.invalidation_cycles,
        }

    def self_cycles(self, cost_model):
        """Total self cycles charged to this node."""
        return (
            self.interp_ops * cost_model.interp_op
            + self.interp_calls * cost_model.interp_call
            + self.native_cycles
            + self.entry_cycles
            + self.compile_cycles
            + self.bailout_cycles
            + self.invalidation_cycles
        )


class NativeProfile(object):
    """Per-binary execution record: instruction counts and forensics.

    The reference executor increments ``instr_counts`` directly; the
    closure backend increments ``block_counts`` for completed blocks
    and ``instr_counts`` for the executed prefix of a faulting block.
    :meth:`resolved_counts` folds both into exact per-instruction
    execution counts, identical across backends.
    """

    __slots__ = (
        "native",
        "code_id",
        "name",
        "generation",
        "instr_counts",
        "block_counts",
        "forensics",
        "entry_count",
        "entry_cycles",
        "_bodies",
    )

    def __init__(self, native, generation):
        #: The binary without what an executor caches on it (which
        #: refers to the executor, interpreter and runtime): a profiler
        #: is read after the run and must not hold a finished engine.
        self.native = native.without_caches()
        self.code_id = native.code.code_id
        self.name = native.code.name
        #: 1-based compile ordinal of this binary for its function.
        self.generation = generation
        size = len(native.instructions)
        #: Executions charged per instruction index (reference backend,
        #: plus faulting-block prefixes under the closure backend).
        self.instr_counts = [0] * size
        #: Completed-block executions per leader index (closure backend).
        self.block_counts = [0] * size
        #: native index -> guard-failure record (guard forensics).
        self.forensics = {}
        self.entry_count = 0
        self.entry_cycles = 0
        self._bodies = None

    @property
    def specialized(self):
        """Whether this binary has parameter values baked in."""
        return bool(self.native.meta.get("specialized"))

    def bodies(self):
        """Basic-block partition of the binary, cached."""
        if self._bodies is None:
            self._bodies = block_bodies(self.native)
        return self._bodies

    def resolved_counts(self):
        """Exact per-instruction execution counts (both backends)."""
        final = list(self.instr_counts)
        block_counts = self.block_counts
        for leader, body in self.bodies().items():
            count = block_counts[leader]
            if count:
                for index in body:
                    final[index] += count
        return final

    def guard_failures(self):
        """Total guard failures recorded against this binary."""
        return sum(entry["count"] for entry in self.forensics.values())

    def record_guard_failure(self, bail):
        """Fold one :class:`~repro.lir.executor.Bailout` into forensics."""
        index = bail.native_index if bail.native_index is not None else -1
        entry = self.forensics.get(index)
        if entry is None:
            snapshot = bail.snapshot
            entry = {
                "native_index": index,
                "guard_op": bail.guard_op,
                "reason": bail.reason,
                "resume_pc": bail.pc,
                "resume_mode": bail.mode,
                "resume_point": None if snapshot is None else snapshot.snapshot_id,
                "count": 0,
            }
            self.forensics[index] = entry
        entry["count"] += 1


class CycleProfiler(object):
    """Attributes every engine cycle to (function, tier, block).

    Attach with ``Engine(cycle_profiler=CycleProfiler())`` (or
    ``run_benchmark(..., profile=True)``, or the ``repro profile
    --cycles`` / ``repro annotate`` CLI modes).  The engine binds its
    cost model at construction; the interpreter and executors charge
    into the profiler at the same points they feed the stats ledger,
    so after a run :meth:`attributed_cycles` equals
    ``EngineStats.total_cycles`` exactly.
    """

    def __init__(self, cost_model=None):
        #: Bound by the engine (:meth:`bind_cost_model`); used only for
        #: pricing reports, never consulted by instrumentation sites.
        self.cost_model = cost_model
        self.root = ProfileNode(None, "(engine)")
        self.stack = [self.root]
        #: The node charges land on; maintained by enter/exit_call.
        self.current = self.root
        #: NativeProfile records in registration order.
        self.binaries = []
        #: Live binary -> its record; weakly keyed, so a record outlives
        #: the binary it describes without keeping it (or its address).
        self._by_native = weakref.WeakKeyDictionary()
        self._generations = {}
        #: code_id -> event counts for the transition tiers.
        self.compile_counts = {}
        self.bailout_counts = {}
        self.invalidation_counts = {}

    # -- binding ------------------------------------------------------------

    def bind_cost_model(self, cost_model):
        """Use ``cost_model`` for report pricing (the engine's model)."""
        self.cost_model = cost_model

    def _cm(self):
        if self.cost_model is None:
            from repro.engine.config import CostModel

            self.cost_model = CostModel()
        return self.cost_model

    # -- call-boundary hooks (interpreter) ---------------------------------

    def enter_call(self, code):
        """Push the shadow-stack node for a guest activation of ``code``."""
        node = self.current.children.get(code.code_id)
        if node is None:
            node = ProfileNode(code.code_id, code.name)
            self.current.children[code.code_id] = node
        self.stack.append(node)
        self.current = node

    def exit_call(self):
        """Pop the shadow stack when the activation returns/unwinds."""
        self.stack.pop()
        self.current = self.stack[-1]

    def interp_call(self):
        """Charge one interpreted-call setup to the current node."""
        self.current.interp_calls += 1

    # -- charge hooks (executors and engine) --------------------------------

    def charge_native(self, cycles, instructions):
        """Charge one native run's cycles to the current node."""
        node = self.current
        node.native_cycles += cycles
        node.native_instructions += instructions

    def charge_entry(self, native, cycles):
        """Charge one native-entry transition (call or OSR enter)."""
        self.current.entry_cycles += cycles
        record = self.native_profile(native)
        record.entry_count += 1
        record.entry_cycles += cycles

    def record_compile(self, code, native, cycles):
        """Charge one compilation and register its binary."""
        self.current.compile_cycles += cycles
        self.compile_counts[code.code_id] = self.compile_counts.get(code.code_id, 0) + 1
        self.native_profile(native)

    def record_bailout(self, code, native, bail, cycles):
        """Charge one bailout penalty and file its guard forensics."""
        self.current.bailout_cycles += cycles
        self.bailout_counts[code.code_id] = self.bailout_counts.get(code.code_id, 0) + 1
        if native is not None:
            self.native_profile(native).record_guard_failure(bail)

    def record_invalidation(self, code, cycles):
        """Charge one invalidation (discarded binary) penalty."""
        self.current.invalidation_cycles += cycles
        self.invalidation_counts[code.code_id] = (
            self.invalidation_counts.get(code.code_id, 0) + 1
        )

    def native_profile(self, native):
        """Get (or create) the :class:`NativeProfile` for ``native``."""
        record = self._by_native.get(native)
        if record is None:
            code_id = native.code.code_id
            generation = self._generations.get(code_id, 0) + 1
            self._generations[code_id] = generation
            record = NativeProfile(native, generation)
            self._by_native[native] = record
            self.binaries.append(record)
        return record

    # -- aggregation ---------------------------------------------------------

    def walk(self):
        """Yield ``(path, node)`` depth-first; ``path`` is a tuple of
        function names from the root's children down to ``node``."""
        todo = [((), self.root)]
        while todo:
            path, node = todo.pop()
            yield path, node
            for child in sorted(
                node.children.values(), key=lambda n: n.code_id, reverse=True
            ):
                todo.append((path + (child.name,), child))

    def attributed_cycles(self):
        """Total cycles charged anywhere — equals ``total_cycles``."""
        cost_model = self._cm()
        return sum(node.self_cycles(cost_model) for _path, node in self.walk())

    def guard_failures(self):
        """Total guard failures recorded across all binaries."""
        return sum(record.guard_failures() for record in self.binaries)

    def functions(self):
        """Number of distinct guest functions that received charges."""
        seen = set()
        for _path, node in self.walk():
            if node.code_id is not None:
                seen.add(node.code_id)
        return len(seen)

    def attribution(self):
        """The exact (function, tier, block) cycle attribution.

        Returns a list of row dicts with keys ``code_id``, ``fn``,
        ``tier``, ``block``, ``generation``, ``count`` and ``cycles``.
        Interpreter and transition tiers attribute per function
        (``block`` is None); the native tier attributes per basic
        block of each compiled binary (``block`` is the block-leader
        instruction index, or :data:`ENTRY_BLOCK` for the per-entry
        transition charge).  The rows' cycles sum exactly to
        ``EngineStats.total_cycles``.
        """
        cost_model = self._cm()
        per_code = {}
        order = []
        for _path, node in self.walk():
            key = node.code_id
            agg = per_code.get(key)
            if agg is None:
                agg = per_code[key] = {
                    "name": node.name,
                    "ops": 0,
                    "calls": 0,
                    "compile": 0,
                    "bailout": 0,
                    "invalidate": 0,
                }
                order.append(key)
            agg["ops"] += node.interp_ops
            agg["calls"] += node.interp_calls
            agg["compile"] += node.compile_cycles
            agg["bailout"] += node.bailout_cycles
            agg["invalidate"] += node.invalidation_cycles

        rows = []

        def row(code_id, fn, tier, block, count, cycles, generation=None):
            rows.append(
                {
                    "code_id": code_id,
                    "fn": fn,
                    "tier": tier,
                    "block": block,
                    "generation": generation,
                    "count": count,
                    "cycles": cycles,
                }
            )

        for key in order:
            agg = per_code[key]
            interp_cycles = (
                agg["ops"] * cost_model.interp_op
                + agg["calls"] * cost_model.interp_call
            )
            if agg["ops"] or agg["calls"]:
                row(key, agg["name"], "interp", None, agg["ops"], interp_cycles)
            if agg["compile"]:
                row(
                    key, agg["name"], "compile", None,
                    self.compile_counts.get(key, 0), agg["compile"],
                )
            if agg["bailout"]:
                row(
                    key, agg["name"], "bailout", None,
                    self.bailout_counts.get(key, 0), agg["bailout"],
                )
            if agg["invalidate"]:
                row(
                    key, agg["name"], "invalidate", None,
                    self.invalidation_counts.get(key, 0), agg["invalidate"],
                )

        for record in self.binaries:
            costs = record.native.cost_table(cost_model)
            final = record.resolved_counts()
            for leader in sorted(record.bodies()):
                body = record.bodies()[leader]
                cycles = sum(final[index] * costs[index] for index in body)
                if final[leader] or cycles:
                    row(
                        record.code_id, record.name, "native", leader,
                        final[leader], cycles, generation=record.generation,
                    )
            if record.entry_count:
                row(
                    record.code_id, record.name, "native", ENTRY_BLOCK,
                    record.entry_count, record.entry_cycles,
                    generation=record.generation,
                )
        return rows

    def function_totals(self):
        """Per-function self/inclusive cycle totals.

        Returns ``{code_id: totals}`` where ``totals`` carries the
        function name, per-tier self cycles, total self cycles and
        inclusive cycles (self plus everything called beneath it; a
        recursive function's cycles count once per distinct stack, not
        once per nested occurrence).
        """
        totals = {}
        self._total_subtree(self.root, set(), totals, self._cm())
        return totals

    def _total_subtree(self, node, active, totals, cost_model):
        """Fold ``node`` and its callees into ``totals``; the subtree's cycles.

        A method, not a closure in :meth:`function_totals`: a nested
        function that calls itself is a reference cycle.
        """
        entry = totals.get(node.code_id)
        if entry is None:
            entry = totals[node.code_id] = {
                "code_id": node.code_id,
                "name": node.name,
                "self_cycles": 0,
                "inclusive_cycles": 0,
                "tiers": dict.fromkeys(TIERS, 0),
                "native_instructions": 0,
                "interp_ops": 0,
            }
        self_cycles = node.self_cycles(cost_model)
        entry["self_cycles"] += self_cycles
        entry["interp_ops"] += node.interp_ops
        entry["native_instructions"] += node.native_instructions
        for tier, cycles in node.tier_cycles(cost_model).items():
            entry["tiers"][tier] += cycles
        subtree = self_cycles
        topmost = node.code_id not in active
        if topmost:
            active.add(node.code_id)
        for child in node.children.values():
            subtree += self._total_subtree(child, active, totals, cost_model)
        if topmost:
            active.remove(node.code_id)
            entry["inclusive_cycles"] += subtree
        return subtree

    def summary(self):
        """Headline numbers (the ``profile.summary`` trace payload)."""
        return {
            "functions": self.functions(),
            "binaries": len(self.binaries),
            "attributed_cycles": self.attributed_cycles(),
            "guard_failures": self.guard_failures(),
        }
