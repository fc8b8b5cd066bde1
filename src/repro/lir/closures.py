"""Closure-compiled native execution: per-block dispatch over the whole
backend's op templates.

The reference :class:`~repro.lir.executor.NativeExecutor` re-decodes
every instruction on every execution: an attribute load for the
opcode, a ~40-arm if/elif dispatch, operand-index indirection.  This
module applies the paper's thesis to our own host instead — specialize
executable code on the values known at compile time.  Here *compile
time* is native-code assembly and the known values are the instruction
stream itself: each basic block is translated once into straight-line
Python source, compiled with ``exec`` into a pre-bound closure, and
cached on the :class:`NativeCode`.  Executing the binary is then just::

    pc = handlers[pc](values, ctx)

one Python call per *block*, with zero per-instruction decoding or
dispatch inside it.

A block's statements are the whole backend's
(:class:`~repro.lir.wholeops.OpTemplates`, stepped per block the way
:mod:`repro.lir.skeleton` steps them per region), with one difference: a
register or spill slot is an element ``_v[i]`` of the value array the
driver passes in, not a local.  Guards raise the same bailout protocol
(``_bw`` with the snapshot's values), so what an opcode means is said
once for both generated backends.  This module keeps what makes it the
closure backend: the block partition and its accounting tables, the
three terminators (a block returns the next pc), the ``try``/``except``
that publishes the progress marker, and the dispatch loop.

Cycle and instruction accounting is block-granular on the fast path:
the driver adds the block's precomputed instruction count and summed
static cost (the same assembly-time per-instruction costs the
reference backend charges) after each block completes.  For exactness
under guards and guest errors, every generated block keeps the
templates' one-word progress marker (``_i``) and publishes it on any
exception, letting the driver charge exactly the instructions the
reference backend would have charged — up to and including the
faulting one — and stamp ``Bailout.native_index`` with the faulting
instruction's absolute index.  Cycles accumulate in locals folded into
the executor's counters only on frame exit, so mid-run trace timestamps
match the reference backend's too.
"""

from repro.errors import CompilerError
from repro.jsvm.values import UNDEFINED
from repro.lir.executor import Bailout, NativeExecutor
from repro.lir.hostcode import (
    CTX_FAULT,
    CTX_RESULT,
    TERMINATORS,
    ShapeGuardTracker,
    accounting_tables,
    block_bodies,
)
from repro.lir.hostkinds import BOOL, INT, HostKinds
from repro.lir.regalloc import NUM_REGS
from repro.lir.skeleton import whole_namespace
from repro.lir.wholeops import OpTemplates

#: Sentinel pc returned by ``return`` blocks; the driver loop treats
#: any negative pc as "frame finished, result in ``ctx[CTX_RESULT]``".
RETURN_PC = -1


class _ArrayTemplates(OpTemplates):
    """The op templates over the driver's value array: a register or
    spill slot ``i`` reads ``_v[i]``; immediates stay as bound."""

    def val(self, loc):
        if loc < 0:
            return OpTemplates.val(self, loc)
        return "_v[%d]" % loc


def _terminator(out, last, body, ops, kinds):
    """Append the statements that end a block: return the next pc."""
    op = last.op
    if op == "goto":
        out.append("return %d" % last.targets[0])
    elif op == "test":
        t0, t1 = last.targets
        src = last.srcs[0]
        if kinds.kind(src) in (BOOL, INT):
            # Host truthiness is ToBoolean for a bool and an int.
            out.append("return %d if %s else %d" % (t0, ops.val(src), t1))
        else:
            out.append("_t = %s" % ops.val(src))
            out.append(
                "return %d if _t is True or (_t is not False and _to_boolean(_t)) else %d"
                % (t0, t1)
            )
    elif op == "return":
        out.append("_c[%d] = %s" % (CTX_RESULT, ops.val(last.srcs[0])))
        out.append("return %d" % RETURN_PC)
    else:
        out.append("return %d" % (body[-1] + 1))


def compile_closures(native, executor):
    """Translate ``native`` into one pre-bound closure per basic block.

    Returns ``(handlers, counts, sums, prefix)``:

    - ``handlers[pc]`` for each block-leader ``pc`` is a callable
      ``block(values, ctx) -> next_pc`` executing the whole block
      (non-leader entries are ``None``; the driver never reaches them
      because every jump target is a leader);
    - ``counts[pc]``/``sums[pc]`` are the block's instruction count and
      summed static cycle cost, charged by the driver per completed
      block;
    - ``prefix[pc]`` is the block's inclusive cycle prefix-sum, used on
      exceptions to charge exactly through the faulting instruction.

    All four are cached on the :class:`NativeCode` by the caller, so
    translation is paid once per binary and invalidated exactly when
    the engine discards the binary (deoptimization drops the object).
    Nothing of it is persisted: a binary thawed from the code cache is
    translated afresh, like a compiled one.
    """
    instructions = native.instructions
    inject = executor.fault_injector is not None
    namespace = whole_namespace(native, executor)
    kinds = HostKinds(native, inject)
    ops = _ArrayTemplates(native, namespace, kinds, inject)
    shapes = executor.runtime.shapes

    bodies = block_bodies(native)
    source = []
    for leader, body in bodies.items():
        last = instructions[body[-1]]
        stmts = []
        ops.enter_region()
        # The block opens with ``_i = 0``: offset 0 needs no marker.
        ops.known_i = 0
        kinds.enter_region()
        shape_tracker = ShapeGuardTracker(shapes)
        for offset, index in enumerate(body if last.op not in TERMINATORS else body[:-1]):
            instruction = instructions[index]
            slot_offset = None
            if instruction.op in ("loadprop", "storeprop"):
                slot_offset = shape_tracker.slot_offset(instruction)
            ops.emit_instruction(stmts, index, offset, instruction, slot_offset)
            shape_tracker.observe(instruction)
            kinds.step(instruction)
        _terminator(stmts, last, body, ops, kinds)
        lines = ["def _b%d(_v, _c):" % leader, " _i = 0", " try:"]
        lines.extend("  " + stmt for stmt in stmts)
        # Publish how far the block got before re-raising: the driver
        # charges exactly through the faulting instruction, as the
        # reference backend does.
        lines.append(" except BaseException:")
        lines.append("  _c[%d] = _i" % CTX_FAULT)
        lines.append("  raise")
        source.append("\n".join(lines))

    text = "\n\n".join(source)
    exec(compile(text, "<closure-backend %s>" % native.code.name, "exec"), namespace)
    handlers = [None] * len(instructions)
    for leader in bodies:
        # Taken out of the module's globals: see ``compile_whole``.
        handlers[leader] = namespace.pop("_b%d" % leader)
    return (handlers,) + accounting_tables(native, bodies)


class ClosureExecutor(NativeExecutor):
    """The closure-compiled backend (``executor_backend="closure"``).

    Shares the cumulative cycle/instruction counters with the reference
    executor and its bailout protocol with the whole backend; only the
    dispatch strategy differs.  ``EngineStats``, cycle counts, printed
    output and trace streams are bit-identical to the reference backend.
    """

    def run(self, native, function, this_value, args, entry="entry", osr_args=None, osr_locals=None):
        """Execute ``native`` via its compiled block closures.

        Raises :class:`Bailout` when a guard fails, exactly like the
        reference backend.
        """
        # Chaos-aware blocks (fault injector armed) are distinct code:
        # the cache key includes the injector so a normal executor
        # never reuses them and vice versa.
        injector = self.fault_injector
        cache_key = self if injector is None else (self, injector)
        cache = native.closure_cache
        if cache is not None and cache[0] == cache_key:
            _, handlers, counts, sums, prefix = cache
        else:
            # Paid once per binary (per executor): translate and bind.
            handlers, counts, sums, prefix = compile_closures(native, self)
            native.closure_cache = (cache_key, handlers, counts, sums, prefix)
        # Registers and spill slots only: immediates are inlined or bound.
        values = [UNDEFINED] * (NUM_REGS + native.num_slots)
        if entry == "osr":
            if native.osr_index is None:
                raise CompilerError("native code for %s has no OSR entry" % native.code.name)
            pc = native.osr_index
        else:
            pc = native.entry_index
        ctx = [this_value, args, function, osr_args, osr_locals, None, 0]

        # A cycle profiler also counts completed blocks per leader and,
        # for a faulting block, its executed prefix per instruction (the
        # faulting one included, matching its cycle charge), so its
        # resolved per-instruction counts equal the reference backend's.
        profiler = self.cycle_profiler
        record = None if profiler is None else profiler.native_profile(native)
        cycles = 0
        executed = 0
        try:
            while True:
                next_pc = handlers[pc](values, ctx)
                executed += counts[pc]
                cycles += sums[pc]
                if record is not None:
                    record.block_counts[pc] += 1
                if next_pc >= 0:
                    pc = next_pc
                else:
                    return ctx[CTX_RESULT]
        except BaseException as exc:
            # The faulting block published its progress in CTX_FAULT;
            # charge exactly through the faulting instruction, whose
            # absolute index is the block leader plus that offset.
            fault = ctx[CTX_FAULT]
            executed += fault + 1
            cycles += prefix[pc][fault]
            if record is not None:
                for offset in range(fault + 1):
                    record.instr_counts[pc + offset] += 1
            if isinstance(exc, Bailout) and exc.native_index is None:
                exc.native_index = pc + fault
            raise
        finally:
            self.cycles += cycles
            self.instructions_executed += executed
            if profiler is not None:
                profiler.charge_native(cycles, executed)
