"""Stage 3b of the whole backend: the skeleton.

One binary becomes a single exec-generated function ``_w(_c, _pc)``.
Basic blocks become labeled regions inside one dispatch-free
control-flow skeleton.  Natural loops (:attr:`Regions.items
<repro.lir.regions.Regions>`) are rebuilt as nested Python ``while``
statements: every back edge ``continue``s the innermost generated loop,
so a hot loop header costs one integer compare per iteration.  Within a
loop, and at the top level, regions form an ordered chain of ``if _pc ==
<leader>:`` arms: a forward branch assigns ``_pc`` and falls down the
chain, and leaving a loop falls out of its ``while`` through a range
check.  Any jump the structure does not anticipate cascades out through
the range checks and is re-dispatched, so irreducible control flow stays
correct.

Accounting is region-granular: every region exit runs one ``_a += K``
with ``K`` the region's packed cost and count, and on any exception the
function publishes ``(_pc, _i, _a)`` so the executor charges exactly
through the faulting instruction.

Guardrail: the skeleton reads a :class:`~repro.lir.regions.Regions`
computed before it runs, steps the host-type map and the shape-guard
tracker once per instruction, and asks the op templates for each
instruction's text.
"""

from repro.errors import CompilerError
from repro.jsvm.values import JSFunction, NativeFunction
from repro.lir.executor import Bailout, forced_recovery_value
from repro.lir.hostcode import (
    CTX_FAULT,
    CTX_RESULT,
    TERMINATORS,
    ShapeGuardTracker,
    base_namespace,
)
from repro.lir.hostkinds import BOOL, INT, HostKinds
from repro.lir.native import FAULT_INJECTED
from repro.lir.regions import Regions
from repro.lir.wholeops import OpTemplates

#: Extra ``ctx`` slots beyond the closure backend's seven: the packed
#: cycle/instruction accumulator and the faulting region's leader pc.
#: The whole function has no per-block driver, so these are the only
#: channel from generated code back to the executor.
CTX_ACC = 7
CTX_PC = 8

#: Region accounting is packed into ONE accumulator: every region exit
#: executes a single ``_a += K`` with the precomputed literal
#: ``K = (static_cycles << _ACC_SHIFT) | instruction_count``.  Python
#: ints are unbounded so the high field cannot overflow, and the low
#: field cannot carry into it before ~2**64 executed instructions —
#: far beyond any run.  The executor splits the two fields at the end.
_ACC_SHIFT = 64
_ACC_MASK = (1 << _ACC_SHIFT) - 1

#: Longest run of chain items emitted linearly before switching to a
#: binary dispatch tree (see :meth:`_WholeEmitter._emit_items`).
_LINEAR_LIMIT = 8


def publish_bailout(snapshot, vals, reason, op, actual=None):
    """Raise the :class:`Bailout` for a guard with pre-read values.

    The whole-function backend keeps values in Python locals, so the
    generated guard passes the snapshot's reconstruction values as an
    explicit tuple (in ``snapshot.locations`` order) instead of handing
    over a value array.  Frame slicing matches
    :meth:`NativeExecutor._bail` exactly.
    """
    num_args = snapshot.num_args
    num_locals = snapshot.num_locals
    args = list(vals[:num_args])
    locals_ = list(vals[num_args : num_args + num_locals])
    stack = list(vals[num_args + num_locals :])
    if snapshot.mode == "after":
        stack.append(actual)
    raise Bailout(
        snapshot, args, locals_, stack, snapshot.pc, snapshot.mode, reason, op, actual
    )


def _bad_pc(pc):
    return CompilerError("whole backend: control reached unknown pc %d" % pc)


def whole_namespace(native, executor):
    """The globals a generated module of ``native`` resolves, emitted or
    linked: :func:`~repro.lir.hostcode.base_namespace`, the whole
    backend's own four, and a chaos translation's two injector hooks.
    Bound afresh per translation; the ``_kN`` constants of one binary
    are numbered on from ``len()`` of it."""
    namespace = base_namespace(executor)
    namespace["_bw"] = publish_bailout
    namespace["_G"] = executor.runtime.globals
    namespace["_FUNCS"] = (JSFunction, NativeFunction)
    namespace["_badpc"] = _bad_pc
    injector = executor.fault_injector
    if injector is not None:
        instructions = native.instructions

        def _fire(index, _injector=injector, _native=native):
            return _injector.should_fire(_native, index)

        def _fw(index, srcvals, snapvals, _instructions=instructions):
            instruction = _instructions[index]
            actual = forced_recovery_value(instruction.op, instruction.extra, srcvals)
            publish_bailout(
                instruction.snapshot, snapvals, FAULT_INJECTED, instruction.op, actual
            )

        namespace["_fire"] = _fire
        namespace["_fw"] = _fw
    return namespace


class _WholeEmitter(object):
    """Generates the single-function module for one binary.

    Computes the binary's :class:`~repro.lir.regions.Regions` first, then
    walks them, stepping a :class:`~repro.lir.hostkinds.HostKinds` and
    asking an :class:`~repro.lir.wholeops.OpTemplates` for each
    instruction; the map and the per-region emission state live there.
    """

    def __init__(self, native, executor, roots, profiled=False):
        inject = executor.fault_injector is not None
        self.native = native
        self.profiled = profiled
        self.regions = Regions(native, roots, inject)
        self.kinds = HostKinds(native, inject)
        self.namespace = whole_namespace(native, executor)
        self.ops = OpTemplates(native, self.namespace, self.kinds, inject)
        self.shapes = executor.runtime.shapes

    def _emit_items(self, items, out, indent):
        """Chain arms for a (sub)sequence of regions and nested loops.

        Short sequences emit as a linear chain — consecutive regions
        fall from arm to arm with one integer compare each, which is
        the straight-line hot path.  Long sequences (big functions can
        have hundreds of regions) are split into a binary dispatch tree
        so a redispatch costs O(log n) compares instead of a linear
        scan; control that falls across a split boundary cascades to
        the enclosing redispatch point (loop bottom or skeleton top)
        and descends the tree again.

        Lines are appended to ``out`` already carrying ``indent``, one
        space per nesting level: the dispatch tree nests 8-14 deep on
        big binaries, and the text is tokenised, persisted and compared
        byte for byte on every warm load, so indentation is most of
        what a wider step would add to it.
        """
        inner = indent + " "
        if len(items) > _LINEAR_LIMIT:
            mid = len(items) // 2
            out.append("%sif _pc < %d:" % (indent, items[mid][1]))
            self._emit_items(items[:mid], out, inner)
            out.append(indent + "else:")
            self._emit_items(items[mid:], out, inner)
            return
        for item in items:
            if item[0] == "region":
                label = item[1]
                out.append("%sif _pc == %d:" % (indent, label))
                out.extend(inner + line for line in self._emit_region(label))
            else:
                _, header, end, sub_items = item
                out.append("%sif %d <= _pc <= %d:" % (indent, header, end))
                out.append(inner + "while True:")
                body = inner + " "
                self._emit_items(sub_items, out, body)
                # Falling past every arm means a jump left this loop
                # (break out to the enclosing chain) — unless a nested
                # break cascaded up with the header as target, in which
                # case re-enter.  Back edges never reach here: they
                # ``continue`` directly at the jump site.
                out.append("%sif %d <= _pc <= %d:" % (body, header, end))
                out.append(body + " continue")
                out.append(body + "break")

    def generate(self):
        """Build the module source; returns ``(source, counts, sums, prefix)``.

        Only the regions reachable from the roots are translated; the
        tables are filled for exactly those (``prefix[label]`` is None for
        a leader that was not).
        """
        regions = self.regions
        val = self.ops.val
        lines = ["def _w(_c, _pc):"]
        reads = regions.init_reads
        for start in range(0, len(reads), 12):
            chunk = reads[start : start + 12]
            lines.append(" %s = _UNDEF" % " = ".join(val(loc) for loc in chunk))
        lines.append(" _a = 0")
        lines.append(" _i = 0")
        lines.append(" try:")
        lines.append("  while True:")
        self._emit_items(regions.items, lines, "   ")
        # Falling past every arm is either a redispatch (control
        # crossed a split or loop boundary; rescan from the top) or a
        # fall off the end of the instruction stream (malformed
        # binary).
        lines.append("   if _pc < %d:" % regions.size)
        lines.append("    continue")
        lines.append("   raise _badpc(_pc)")
        lines.append(" except BaseException:")
        lines.append("  _c[%d] = _i" % CTX_FAULT)
        lines.append("  _c[%d] = _a" % CTX_ACC)
        lines.append("  _c[%d] = _pc" % CTX_PC)
        lines.append("  raise")
        return "\n".join(lines), regions.counts, regions.sums, regions.prefix

    def _region_k(self, label):
        """The packed ``_a`` increment of one execution of region ``label``."""
        return (self.regions.sums[label] << _ACC_SHIFT) | self.regions.counts[label]

    def _emit_region(self, label):
        """Statements for one region (indented relative to its arm)."""
        instructions = self.native.instructions
        ops = self.ops
        kinds = self.kinds
        body = self.regions.bodies[label]
        last = instructions[body[-1]]
        out = []
        ops.enter_region()
        kinds.enter_region()
        shape_tracker = ShapeGuardTracker(self.shapes, ops.shape_answers)
        for offset, index in enumerate(body if last.op not in TERMINATORS else body[:-1]):
            instruction = instructions[index]
            slot_offset = None
            if instruction.op in ("loadprop", "storeprop"):
                slot_offset = shape_tracker.slot_offset(instruction)
            ops.emit_instruction(out, index, offset, instruction, slot_offset)
            shape_tracker.observe(instruction)
            kinds.step(instruction)
        if self.profiled:
            out.append("_bc[%d] += 1" % label)
        region_k = self._region_k(label)
        if last.op == "goto":
            out.extend(self._jump_lines(last.targets[0], label, base=region_k))
        elif last.op == "return":
            # The region's own charge folds into the final publish (no
            # accumulator update on the return path).
            out.append("_c[%d] = %s" % (CTX_RESULT, ops.val(last.srcs[0])))
            out.append("_c[%d] = _a + %d" % (CTX_ACC, region_k))
            out.append("return")
        elif last.op == "test":
            out.append("_a += %d" % region_k)
            src = last.srcs[0]
            if kinds.kind(src) in (BOOL, INT):
                # Host truthiness is ToBoolean for a bool and an int.
                out.append("if %s:" % ops.val(src))
            else:
                out.append("_t = %s" % ops.val(src))
                out.append("if _t is True or (_t is not False and _to_boolean(_t)):")
            out.extend(" " + line for line in self._jump_lines(last.targets[0], label))
            out.append("else:")
            out.extend(" " + line for line in self._jump_lines(last.targets[1], label))
        else:
            # The region flows into the next label: charge it and fall
            # down the chain to that label's arm (resolving through any
            # trampoline that happens to sit there).
            out.extend(self._jump_lines(body[-1] + 1, label, base=region_k))
        return out

    def _jump_lines(self, target, label, base=0):
        """Statements for a jump from region ``label`` to ``target``.

        Trivial trampoline regions on the way are inlined: their moves
        execute at the splice point and their region constants fold
        into a single accumulator add (``base`` carries the source
        region's own constant when the caller wants it folded too).
        The jump then dispatches to the resolved final label — or
        returns directly when the chain ends in a trivial return.
        """
        splice, final, ret_src = self.regions.resolve(target)
        val = self.ops.val
        lines = []
        total = base
        instructions = self.native.instructions
        for tramp in splice:
            if self.profiled:
                lines.append("_bc[%d] += 1" % tramp)
            for index in self.regions.bodies[tramp][:-1]:
                ins = instructions[index]
                lines.append("%s = %s" % (val(ins.dest), val(ins.srcs[0])))
            total += self._region_k(tramp)
        if ret_src is not None:
            lines.append("_c[%d] = %s" % (CTX_RESULT, val(ret_src)))
            lines.append("_c[%d] = _a + %d" % (CTX_ACC, total))
            lines.append("return")
            return lines
        if total:
            lines.append("_a += %d" % total)
        lines.append("_pc = %d" % final)
        if final <= label:
            lines.append("continue")
        return lines
