"""Native code: the final, register-allocated form.

A :class:`NativeCode` is what the engine caches and the executor runs:
a linear instruction stream whose operands are physical locations
(register indices < ``NUM_REGS``, stack-slot indices above), resolved
jump targets, and per-guard snapshots with located reconstruction
values.

``len(native)`` — the instruction count — is the code-size metric of
the paper's Figure 10.
"""

import copy

from repro.engine.config import CostModel
from repro.errors import CompilerError
from repro.lir.lir_nodes import LInstruction
from repro.lir.regalloc import NUM_REGS, allocate_registers
from repro.lir.lowering import lower_graph

#: Int ops whose guard is an overflow/negative-zero check priced at
#: one extra cycle (cleared by the overflow-elimination extension).
CHECKED_ARITH = frozenset(["add_i", "sub_i", "mul_i", "neg_i", "bitop_i"])

#: Every op that can raise a :class:`~repro.lir.executor.Bailout` when
#: it carries a snapshot — the engine's notion of a *guard*.  The
#: fault injector (``repro.engine.bailout.GuardFaultInjector``) and the
#: profiler's guard forensics both identify guards by this set.
GUARD_OPS = frozenset(
    [
        "add_i",
        "sub_i",
        "mul_i",
        "neg_i",
        "bitop_i",
        "unbox",
        "typebarrier",
        "checkoverrecursed",
        "boundscheck",
        "guardshape",
    ]
)

#: ``Bailout.reason`` used for guard failures forced by the fault
#: injector (chaos deopt) rather than a genuinely failed speculation.
FAULT_INJECTED = "fault-injected"


def guard_indices(native):
    """Indices of every guard instruction in ``native``'s stream.

    A guard is an op in :data:`GUARD_OPS` carrying a snapshot; the
    returned list is in stream order, so the fault injector's "Nth
    guard of this binary" selector is stable across identical
    compilations (like snapshot ids).
    """
    return [
        index
        for index, instruction in enumerate(native.instructions)
        if instruction.snapshot is not None and instruction.op in GUARD_OPS
    ]


def static_instruction_cost(instruction):
    """Cycle price of one execution of ``instruction``.

    Every component is statically known once operands have physical
    locations: the base opcode price, the one-cycle overflow-check
    surcharge on guarded int arithmetic (an x86 ``jo`` after the
    operation), and the spill price for each operand or result living
    in a stack slot.  Negative source locations index the immediate
    pool — instruction-encoded constants, free of memory traffic.
    """
    cost = CostModel.native_costs.get(instruction.op, CostModel.native_op)
    if instruction.snapshot is not None and instruction.op in CHECKED_ARITH:
        cost += 1
    dest = instruction.dest
    if dest is not None and dest >= NUM_REGS:
        cost += CostModel.spill_access
    for loc in instruction.srcs:
        if loc >= NUM_REGS:
            cost += CostModel.spill_access
    return cost


class NativeCode(object):
    """One compiled binary for a guest function."""

    def __init__(
        self, code, instructions, entry_index, osr_index, num_slots, meta=None, immediates=()
    ):
        self.code = code
        self.instructions = instructions
        self.entry_index = entry_index
        self.osr_index = osr_index
        self.num_slots = num_slots
        #: Constant pool baked into the binary.  Operand locations that
        #: are negative index this pool from the end of the executor's
        #: value array (an x86 immediate / rip-relative constant).
        self.immediates = list(immediates)
        #: Free-form compilation metadata (specialized args, stats...).
        self.meta = meta if meta is not None else {}
        #: ``meta["specialized"]`` as a field: whether parameter values
        #: are baked in, fixed when the binary is built (the engine
        #: reads it on every call).
        self.specialized = bool(self.meta.get("specialized"))
        #: Executor caches, paid once per binary: the per-pc cycle
        #: table and the closure backend's compiled handlers (keyed by
        #: executor).  Both die with the binary, so invalidation is the
        #: engine discarding it.
        self._cost_table = None
        self.closure_cache = None
        #: The whole-function backend's compiled module, keyed by
        #: (executor, injector, profiled) — distinct instrumentation
        #: means distinct generated code (repro.lir.wholefn).
        self.whole_cache = None
        #: Persistent-cache payload for the whole-function backend: the
        #: thawed *link record* — marshalled module code, accounting
        #: tables, the origin of every bound name and the facts the
        #: emitter read.  ``compile_whole`` links it when those facts
        #: still hold of the live executor, and emits otherwise.
        self.disk_whole = None

    def cost_table(self):
        """Per-pc cycle prices, memoized per binary.

        The one place a binary is priced: operands have physical
        locations, so every cost component is static and no executor
        prices an instruction in its dispatch loop.
        """
        if self._cost_table is None:
            self._cost_table = [
                static_instruction_cost(instruction) for instruction in self.instructions
            ]
        return self._cost_table

    def without_caches(self):
        """A copy sharing everything but the executors' translations.

        Those refer to the executor, and through it to a whole engine;
        the copy is the binary as data (the profiler's record of it).
        """
        twin = copy.copy(self)
        twin.closure_cache = twin.whole_cache = None
        return twin

    @property
    def size(self):
        """Code size in native instructions (the Figure 10 metric)."""
        return len(self.instructions)

    def __len__(self):
        return len(self.instructions)

    def __repr__(self):
        return "<NativeCode %s (%d instrs%s)>" % (
            self.code.name,
            len(self.instructions),
            ", osr" if self.osr_index is not None else "",
        )

    def disassemble(self):
        lines = []
        for index, instruction in enumerate(self.instructions):
            marker = "=>" if index == self.osr_index else "  "
            lines.append("%s %4d  %r" % (marker, index, instruction))
        return "\n".join(lines)


def fold_immediates(lir):
    """Turn ``const`` definitions into a baked-in immediate pool.

    Every ``const`` instruction is removed from the stream; its uses
    (instruction sources and snapshot references) are rewritten to
    ``("imm", index)`` markers.  This mirrors real code generation —
    x86 encodes constants as instruction immediates — and it is what
    makes parameter specialization pay: baked-in argument values
    occupy no registers and no instructions.

    Returns the immediate pool (list of guest values).
    """
    pool = []
    pool_index = {}
    imm_map = {}
    for instruction in lir.instructions:
        if instruction.op != "const":
            continue
        from repro.jsvm.values import value_key

        key = value_key(instruction.extra)
        index = pool_index.get(key)
        if index is None:
            index = len(pool)
            pool.append(instruction.extra)
            pool_index[key] = index
        imm_map[instruction.dest] = index

    if not imm_map:
        return pool

    # Rebuild the stream without const instructions, remapping indices.
    kept = []
    index_map = {}
    for old_index, instruction in enumerate(lir.instructions):
        if instruction.op == "const":
            continue
        index_map[old_index] = len(kept)
        kept.append(instruction)

    def remap_start(old_start):
        # A block may start with (now removed) consts: advance to the
        # first kept instruction at or after the old start.
        probe = old_start
        while probe not in index_map and probe < len(lir.instructions):
            probe += 1
        return index_map.get(probe, len(kept))

    lir.block_starts = {
        block_id: remap_start(start) for block_id, start in lir.block_starts.items()
    }
    if lir.osr_index is not None:
        lir.osr_index = remap_start(lir.osr_index)
    lir.instructions = kept

    for instruction in kept:
        instruction.srcs = [
            ("imm", imm_map[vreg]) if vreg in imm_map else vreg
            for vreg in instruction.srcs
        ]
        if instruction.snapshot is not None:
            instruction.snapshot.vregs = [
                ("imm", imm_map[vreg]) if vreg in imm_map else vreg
                for vreg in instruction.snapshot.vregs
            ]
    return pool


def generate_native(graph):
    """Lower, register-allocate and emit native code for a MIR graph.

    Returns ``(native, codegen_stats)`` where the stats dict feeds the
    engine's compile-time cost model (LIR size, interval count, spill
    count).
    """
    lir = lower_graph(graph)
    immediates = fold_immediates(lir)
    allocation = allocate_registers(lir)

    pool_size = len(immediates)

    def _locate(vreg):
        if type(vreg) is tuple:
            return vreg[1] - pool_size  # negative: indexes the pool
        return allocation.location_of(vreg)

    # Resolve symbolic jump targets to instruction indices.
    instructions = []
    for source in lir.instructions:
        instruction = LInstruction(
            source.op,
            dest=None if source.dest is None else _locate(source.dest),
            srcs=[_locate(vreg) for vreg in source.srcs],
            extra=source.extra,
            snapshot=source.snapshot,
            targets=source.targets,
        )
        if source.snapshot is not None:
            source.snapshot.locations = [
                _locate(vreg) for vreg in source.snapshot.vregs
            ]
        instructions.append(instruction)

    # Coalesced moves (same location on both sides) become no-ops;
    # delete them and remap block starts.
    kept = []
    index_map = {}
    for old_index, instruction in enumerate(instructions):
        if (
            instruction.op == "move"
            and instruction.srcs
            and instruction.dest == instruction.srcs[0]
        ):
            continue
        index_map[old_index] = len(kept)
        kept.append(instruction)

    def remap_index(old_index):
        probe = old_index
        while probe not in index_map and probe < len(instructions):
            probe += 1
        return index_map.get(probe, len(kept) - 1)

    block_starts = {
        block_id: remap_index(start) for block_id, start in lir.block_starts.items()
    }
    osr_index = None if lir.osr_index is None else remap_index(lir.osr_index)
    instructions = kept

    for instruction in instructions:
        if instruction.targets is not None:
            resolved = []
            for target in instruction.targets:
                index = block_starts.get(target)
                if index is None:
                    raise CompilerError("unresolved jump target %r" % (target,))
                resolved.append(index)
            instruction.targets = resolved

    # Jump threading: branch straight through goto-only trampolines.
    def thread(start):
        seen = set()
        target = start
        while (
            target not in seen
            and target < len(instructions)
            and instructions[target].op == "goto"
        ):
            seen.add(target)
            target = instructions[target].targets[0]
        return target

    for instruction in instructions:
        if instruction.targets is not None:
            instruction.targets = [thread(target) for target in instruction.targets]
    if osr_index is not None:
        osr_index = thread(osr_index)

    # Fallthrough elision: a goto to the next instruction is a no-op
    # in linear code; deleting one can expose another, so iterate.
    entry_index = 0
    while True:
        removable = set(
            index
            for index, instruction in enumerate(instructions)
            if instruction.op == "goto" and instruction.targets[0] == index + 1
        )
        if not removable:
            break
        final_map = {}
        new_index = 0
        for index in range(len(instructions)):
            if index not in removable:
                final_map[index] = new_index
                new_index += 1

        def resolve(target):
            while target in removable:
                target += 1
            return final_map[target]

        for instruction in instructions:
            if instruction.targets is not None:
                instruction.targets = [resolve(target) for target in instruction.targets]
        entry_index = resolve(entry_index)
        if osr_index is not None:
            osr_index = resolve(osr_index)
        instructions = [
            instruction
            for index, instruction in enumerate(instructions)
            if index not in removable
        ]

    # Number the guard snapshots in emission order: the stable
    # "resume-point id" bailout traces report (docs/TRACING.md).
    next_snapshot_id = 0
    for instruction in instructions:
        if instruction.snapshot is not None:
            instruction.snapshot.snapshot_id = next_snapshot_id
            next_snapshot_id += 1

    native = NativeCode(
        graph.code,
        instructions,
        entry_index=entry_index,
        osr_index=osr_index,
        num_slots=allocation.num_slots,
        immediates=immediates,
        meta={
            "specialized": graph.specialized,
            "specialized_args": graph.specialized_args,
            "osr_pc": graph.osr_pc,
        },
    )
    stats = {
        "lir_instructions": len(lir.instructions),
        "intervals": allocation.num_intervals,
        "spills": allocation.num_spills,
    }
    return native, stats
