"""Bytecode → MIR (SSA) graph construction.

The builder abstractly interprets the stack bytecode, turning stack
slots, argument slots and local slots into SSA values.  Every basic
block gets a full complement of phis (maximal SSA); a trivial-phi
simplification afterwards prunes the redundant ones.

Three features of the paper's system live here:

* **Parameter specialization (§3.2)** — when ``param_values`` is
  given, the builder creates :class:`MConstant` nodes holding the
  actual runtime arguments *instead of* :class:`MParameter` nodes, in
  both the function entry block and the OSR block.  As in the paper,
  this happens while the graph is built and therefore costs nothing.
* **Two entry points (Figure 6)** — the function entry block and the
  on-stack-replacement block, the latter created when the compilation
  was triggered by a hot loop back edge.
* **Type speculation** — monomorphic type feedback becomes
  ``typebarrier`` + ``unbox`` guard chains on parameters, loads and
  call results, mirroring IonMonkey's use of type inference.

Functions that capture or provide closure variables are rejected with
:class:`~repro.errors.NotCompilable` and stay interpreted (see
DESIGN.md, "Honest limits").
"""

from repro.errors import CompilerError, NotCompilable
from repro.jsvm.bytecode import JUMP_OPS, Op, is_binary_op, is_unary_op
from repro.jsvm.values import UNDEFINED
from repro.mir.graph import MIRGraph
from repro.mir.instructions import (
    MCall,
    MCheckOverRecursed,
    MConstant,
    MGetElemV,
    MGetPropV,
    MGoto,
    MGuardShape,
    MLambda,
    MLoadGlobal,
    MLoadProperty,
    MNew,
    MNewArray,
    MNewObject,
    MNot,
    MOsrValue,
    MParameter,
    MPhi,
    MReturn,
    MSelf,
    MSetElemV,
    MSetPropV,
    MStoreGlobal,
    MStoreProperty,
    MTest,
    MTypeBarrier,
    MTypeOf,
    MUnaryV,
    MUnbox,
    MBinaryV,
    ResumePoint,
)
from repro.mir.types import MIRType, tag_to_mirtype

#: MIR types a feedback tag may be unboxed to.
_UNBOXABLE = frozenset(
    [
        MIRType.INT32,
        MIRType.DOUBLE,
        MIRType.BOOLEAN,
        MIRType.STRING,
        MIRType.ARRAY,
        MIRType.OBJECT,
        MIRType.FUNCTION,
    ]
)

_NOT_COMPILABLE_OPS = frozenset(
    [Op.GETCELL, Op.SETCELL, Op.GETFREE, Op.SETFREE, Op.DELPROP]
)


class _State(object):
    """Abstract frame state: SSA values for args, locals and the stack."""

    __slots__ = ("args", "locals", "stack")

    def __init__(self, args, locals_, stack):
        self.args = args
        self.locals = locals_
        self.stack = stack

    def copy(self):
        return _State(list(self.args), list(self.locals), list(self.stack))


class _BlockInfo(object):
    """Bookkeeping for one bytecode-leader basic block."""

    __slots__ = ("block", "entry_state", "phis", "processed")

    def __init__(self, block, entry_state, phis):
        self.block = block
        self.entry_state = entry_state
        self.phis = phis  # flat list aligned with args+locals+stack
        self.processed = False


class MIRBuilder(object):
    """Builds one function's MIR graph from its bytecode."""

    def __init__(
        self,
        code,
        feedback=None,
        param_values=None,
        this_value=None,
        osr_pc=None,
        osr_args=None,
        osr_locals=None,
        generic=False,
        shape_guards=True,
    ):
        if code.has_frees or code.has_cells:
            raise NotCompilable("%s uses closure variables" % code.name)
        self.code = code
        self.feedback = feedback
        self.param_values = param_values
        self.this_value = this_value
        self.osr_pc = osr_pc
        self.osr_args = osr_args
        self.osr_locals = osr_locals
        self.generic = generic
        #: When False, property ops ignore the shape ICs and compile to
        #: their generic (guard-free) forms while value/type speculation
        #: stays on — the "widened" shape of a deoptless generalized
        #: sibling (docs/DEOPTLESS.md).
        self.shape_guards = shape_guards
        self.graph = MIRGraph(code)
        self.block_infos = {}
        self.queue = []
        self.current = None  # current MIR block during simulation
        self.leaders = self._find_leaders()

    # -- leaders ----------------------------------------------------------------

    def _find_leaders(self):
        instructions = self.code.instructions
        leaders = set([0])
        for index, instr in enumerate(instructions):
            if instr.op in JUMP_OPS:
                leaders.add(instr.arg)
                if index + 1 < len(instructions):
                    leaders.add(index + 1)
            elif instr.op in (Op.RETURN, Op.RETURN_UNDEF):
                if index + 1 < len(instructions):
                    leaders.add(index + 1)
        if self.osr_pc is not None:
            leaders.add(self.osr_pc)
        return leaders

    def _block_end(self, start):
        """First pc after ``start`` that begins a new block (or len)."""
        instructions = self.code.instructions
        pc = start + 1
        while pc < len(instructions) and pc not in self.leaders:
            pc += 1
        return pc

    # -- emission helpers ----------------------------------------------------------

    def emit(self, instruction):
        self.current.append(instruction)
        return instruction

    def make_resume(self, pc, mode, state):
        return ResumePoint(pc, mode, state.args, state.locals, state.stack)

    def constant(self, value):
        return self.emit(MConstant(value))

    # -- type speculation ------------------------------------------------------------

    def speculate_result(self, definition, pc, state_after):
        """Wrap a boxed result in barrier+unbox guards per feedback."""
        if self.generic or self.feedback is None:
            return definition
        tag = self.feedback.site_speculation(pc)
        if tag is None:
            return definition
        mirtype = tag_to_mirtype(tag)
        if mirtype not in _UNBOXABLE:
            return definition
        barrier = MTypeBarrier(definition, mirtype)
        barrier.attach_resume_point(self.make_resume(pc, ResumePoint.MODE_AFTER, state_after))
        self.emit(barrier)
        unbox = MUnbox(barrier, mirtype)
        unbox.attach_resume_point(self.make_resume(pc, ResumePoint.MODE_AFTER, state_after))
        self.emit(unbox)
        return unbox

    def speculate_receiver(self, definition, pc, state_before):
        """Unbox an access receiver to its observed type when boxed."""
        if definition.type != MIRType.VALUE or self.generic or self.feedback is None:
            return definition
        tag = self.feedback.recv_speculation(pc)
        if tag is None:
            return definition
        mirtype = tag_to_mirtype(tag)
        if mirtype not in (MIRType.ARRAY, MIRType.OBJECT, MIRType.STRING):
            return definition
        unbox = MUnbox(definition, mirtype)
        unbox.attach_resume_point(self.make_resume(pc, ResumePoint.MODE_AT, state_before))
        self.emit(unbox)
        return unbox

    def _ic_shape_ids(self, pc, receiver):
        """The property site's cached receiver shapes, or ``()``.

        Non-empty only when speculation is on, the receiver is known to
        be a plain OBJECT (unboxed by :meth:`speculate_receiver` or an
        object allocation), and the site's inline cache is mono- or
        polymorphic — megamorphic and unvisited sites stay generic.
        """
        if self.generic or not self.shape_guards or self.feedback is None:
            return ()
        if receiver.type != MIRType.OBJECT:
            return ()
        return self.feedback.shape_ids(pc)

    def _guard_shape(self, receiver, shape_ids, pc, pre_state):
        """Emit the shape guard protecting a property fast path.

        The resume point re-executes the property bytecode *at* ``pc``:
        the interpreter handler performs the generic access and records
        the offending shape into the IC, so the next recompilation
        either widens the guard (poly) or gives up (mega).
        """
        guard = MGuardShape(receiver, shape_ids)
        guard.attach_resume_point(self.make_resume(pc, ResumePoint.MODE_AT, pre_state))
        self.emit(guard)

    # -- entry construction --------------------------------------------------------------

    def build(self):
        graph = self.graph
        code = self.code

        entry = graph.new_block()
        graph.entry = entry
        self.current = entry

        # Parameters (or their specialized constant values, §3.2).
        if self.param_values is not None:
            graph.specialized = True
            graph.specialized_args = list(self.param_values)
            args = [self.emit(MConstant(value)) for value in self.param_values]
            this_def = self.emit(MConstant(self.this_value if self.this_value is not None else UNDEFINED))
        else:
            args = [self.emit(MParameter(index)) for index in range(code.num_params)]
            this_def = self.emit(MParameter(-1))
        locals_ = [self.emit(MConstant(UNDEFINED)) for _ in range(code.num_locals)]
        self.this_def = this_def

        entry_state = _State(args, locals_, [])

        check = MCheckOverRecursed()
        check.attach_resume_point(self.make_resume(0, ResumePoint.MODE_AT, entry_state))
        self.emit(check)

        # Unbox guards on parameters per observed argument types.
        if self.param_values is None and not self.generic and self.feedback is not None:
            typed_args = []
            for index, arg in enumerate(args):
                tag = self.feedback.arg_speculation(index)
                if tag is None:
                    typed_args.append(arg)
                    continue
                mirtype = tag_to_mirtype(tag)
                if mirtype not in _UNBOXABLE:
                    typed_args.append(arg)
                    continue
                unbox = MUnbox(arg, mirtype)
                unbox.attach_resume_point(self.make_resume(0, ResumePoint.MODE_AT, entry_state))
                self.emit(unbox)
                typed_args.append(unbox)
            entry_state = _State(typed_args, list(locals_), [])

        entry_goto = MGoto(None)
        self.emit(entry_goto)
        entry_goto.successors[0] = self._connect(entry, entry_state, 0)

        # The OSR entry block (Figure 6's second entry point).
        if self.osr_pc is not None:
            self._build_osr_entry()

        self._drain_queue()
        self._simplify_phis()
        graph.osr_pc = self.osr_pc
        return graph

    def _build_osr_entry(self):
        graph = self.graph
        code = self.code
        osr_block = graph.new_block()
        graph.osr_entry = osr_block
        self.current = osr_block

        if self.param_values is not None:
            # Specialize OSR inputs too: both the arguments and the
            # current values of the locals (paper Figure 7(a), where
            # the OSR block's i1 becomes the constant 2).
            args = [self.emit(MConstant(value)) for value in self.param_values]
            locals_ = [self.emit(MConstant(value)) for value in self.osr_locals]
        else:
            args = []
            state_stub = None
            raw_args = [self.emit(MOsrValue("arg", index)) for index in range(code.num_params)]
            raw_locals = [self.emit(MOsrValue("local", index)) for index in range(code.num_locals)]
            osr_state = _State(raw_args, raw_locals, [])
            for index, raw in enumerate(raw_args):
                args.append(self._osr_unbox(raw, self.osr_args[index], osr_state))
            locals_ = []
            for index, raw in enumerate(raw_locals):
                locals_.append(self._osr_unbox(raw, self.osr_locals[index], osr_state))
        osr_goto = MGoto(None)
        self.emit(osr_goto)
        osr_goto.successors[0] = self._connect(
            osr_block, _State(args, locals_, []), self.osr_pc
        )

    def _osr_unbox(self, raw, runtime_value, osr_state):
        """Unbox an OSR input to the type of its value at OSR time."""
        if self.generic:
            return raw
        from repro.mir.types import mirtype_of_value

        mirtype = mirtype_of_value(runtime_value)
        if mirtype not in _UNBOXABLE:
            return raw
        unbox = MUnbox(raw, mirtype)
        unbox.attach_resume_point(
            self.make_resume(self.osr_pc, ResumePoint.MODE_AT, osr_state)
        )
        self.emit(unbox)
        return unbox

    # -- CFG plumbing ---------------------------------------------------------------------

    def _connect(self, pred_block, exit_state, target_pc):
        """Wire an edge from ``pred_block`` (with ``exit_state``) to the
        bytecode block starting at ``target_pc``."""
        info = self.block_infos.get(target_pc)
        if info is None:
            block = self.graph.new_block()
            phis = []
            layout = (
                [("arg", i) for i in range(len(exit_state.args))]
                + [("local", i) for i in range(len(exit_state.locals))]
                + [("stack", i) for i in range(len(exit_state.stack))]
            )
            for slot in layout:
                phi = MPhi(MIRType.VALUE, slot)
                block.add_phi(phi)
                phis.append(phi)
            num_args = len(exit_state.args)
            num_locals = len(exit_state.locals)
            entry_state = _State(
                phis[:num_args],
                phis[num_args : num_args + num_locals],
                phis[num_args + num_locals :],
            )
            info = _BlockInfo(block, entry_state, phis)
            self.block_infos[target_pc] = info
            self.queue.append(target_pc)
        flat = exit_state.args + exit_state.locals + exit_state.stack
        if len(flat) != len(info.phis):
            raise CompilerError(
                "inconsistent frame depth entering pc %d of %s"
                % (target_pc, self.code.name)
            )
        info.block.add_predecessor(pred_block)
        for phi, value in zip(info.phis, flat):
            phi.add_input(value)
        return info.block

    def _drain_queue(self):
        while self.queue:
            pc = self.queue.pop(0)
            info = self.block_infos[pc]
            if info.processed:
                continue
            info.processed = True
            self._process_block(pc, info)

    # -- per-block simulation ---------------------------------------------------------------

    def _process_block(self, start_pc, info):
        self.current = info.block
        state = info.entry_state.copy()
        end_pc = self._block_end(start_pc)
        pc = start_pc
        instructions = self.code.instructions
        while pc < end_pc:
            instr = instructions[pc]
            terminated = self._simulate(instr, pc, state)
            if terminated:
                return
            pc += 1
        # Fall through into the next block.
        self.emit(MGoto(None))
        target = self._connect(self.current, state, end_pc)
        self.current.terminator.successors[0] = target

    def _goto(self, state, target_pc):
        goto = MGoto(None)
        self.emit(goto)
        goto.successors[0] = self._connect(self.current, state, target_pc)

    def _test(self, condition, state, true_pc, false_pc):
        if true_pc == false_pc:
            self._goto(state, true_pc)
            return
        test = MTest(condition, None, None)
        self.emit(test)
        test.successors[0] = self._connect(self.current, state, true_pc)
        test.successors[1] = self._connect(self.current, state, false_pc)

    def _simulate(self, instr, pc, state):
        """Simulate one bytecode instruction; True if block terminated."""
        op = instr.op
        code = self.code
        stack = state.stack

        if op in _NOT_COMPILABLE_OPS:
            raise NotCompilable("%s uses %s" % (code.name, op))

        if op == Op.CONST:
            stack.append(self.constant(code.constants[instr.arg]))
        elif op == Op.UNDEF:
            stack.append(self.constant(UNDEFINED))
        elif op == Op.GETARG:
            stack.append(state.args[instr.arg])
        elif op == Op.SETARG:
            state.args[instr.arg] = stack.pop()
        elif op == Op.GETLOCAL:
            stack.append(state.locals[instr.arg])
        elif op == Op.SETLOCAL:
            state.locals[instr.arg] = stack.pop()
        elif op == Op.GETGLOBAL:
            load = MLoadGlobal(code.names[instr.arg])
            self.emit(load)
            stack.append(self.speculate_result(load, pc, state))
        elif op == Op.SETGLOBAL:
            value = stack.pop()
            self.emit(MStoreGlobal(value, code.names[instr.arg]))
        elif op == Op.GETTHIS:
            stack.append(self.this_def)
        elif op == Op.POP:
            stack.pop()
        elif op == Op.DUP:
            stack.append(stack[-1])
        elif op == Op.NOT:
            stack.append(self.emit(MNot(stack.pop())))
        elif op == Op.TYPEOF:
            stack.append(self.emit(MTypeOf(stack.pop())))
        elif is_unary_op(op):
            operand = stack.pop()
            unary = MUnaryV(op, operand)
            unary.attach_resume_point(self.make_resume(pc, ResumePoint.MODE_AFTER, state))
            self.emit(unary)
            stack.append(unary)
        elif is_binary_op(op):
            rhs = stack.pop()
            lhs = stack.pop()
            binary = MBinaryV(op, lhs, rhs)
            binary.attach_resume_point(self.make_resume(pc, ResumePoint.MODE_AFTER, state))
            self.emit(binary)
            stack.append(binary)
        elif op == Op.JUMP:
            self._goto(state, instr.arg)
            return True
        elif op == Op.IFFALSE:
            condition = stack.pop()
            self._test(condition, state, pc + 1, instr.arg)
            return True
        elif op == Op.IFTRUE:
            condition = stack.pop()
            self._test(condition, state, instr.arg, pc + 1)
            return True
        elif op == Op.NEWARRAY:
            count = instr.arg
            elements = stack[len(stack) - count :] if count else []
            del stack[len(stack) - count :]
            stack.append(self.emit(MNewArray(elements)))
        elif op == Op.NEWOBJECT:
            count = instr.arg
            flat = stack[len(stack) - 2 * count :] if count else []
            del stack[len(stack) - 2 * count :]
            keys = []
            values = []
            for index in range(count):
                key_def = flat[2 * index]
                if not isinstance(key_def, MConstant):
                    raise CompilerError("object literal key is not constant")
                keys.append(key_def.value)
                values.append(flat[2 * index + 1])
            stack.append(self.emit(MNewObject(keys, values)))
        elif op == Op.GETPROP:
            receiver = stack.pop()
            pre_state = _State(state.args, state.locals, stack + [receiver])
            receiver = self.speculate_receiver(receiver, pc, pre_state)
            name = code.names[instr.arg]
            shape_ids = self._ic_shape_ids(pc, receiver)
            if shape_ids:
                # Shape-guarded fast path: a raw dict read replaces the
                # generic property lookup.
                self._guard_shape(receiver, shape_ids, pc, pre_state)
                load = self.emit(MLoadProperty(receiver, name))
            else:
                load = MGetPropV(receiver, name)
                load.attach_resume_point(
                    self.make_resume(pc, ResumePoint.MODE_AT, pre_state)
                )
                self.emit(load)
            stack.append(self.speculate_result(load, pc, state))
        elif op == Op.SETPROP:
            value = stack.pop()
            receiver = stack.pop()
            pre_state = _State(state.args, state.locals, stack + [receiver, value])
            receiver = self.speculate_receiver(receiver, pc, pre_state)
            name = code.names[instr.arg]
            shape_ids = self._ic_shape_ids(pc, receiver)
            if shape_ids:
                self._guard_shape(receiver, shape_ids, pc, pre_state)
                self.emit(MStoreProperty(receiver, value, name))
            else:
                store = MSetPropV(receiver, value, name)
                store.attach_resume_point(
                    self.make_resume(pc, ResumePoint.MODE_AT, pre_state)
                )
                self.emit(store)
            stack.append(value)
        elif op == Op.GETELEM:
            index = stack.pop()
            receiver = stack.pop()
            pre_state = _State(state.args, state.locals, stack + [receiver, index])
            receiver = self.speculate_receiver(receiver, pc, pre_state)
            load = MGetElemV(receiver, index)
            load.attach_resume_point(self.make_resume(pc, ResumePoint.MODE_AT, pre_state))
            self.emit(load)
            stack.append(self.speculate_result(load, pc, state))
        elif op == Op.SETELEM:
            value = stack.pop()
            index = stack.pop()
            receiver = stack.pop()
            pre_state = _State(state.args, state.locals, stack + [receiver, index, value])
            receiver = self.speculate_receiver(receiver, pc, pre_state)
            store = MSetElemV(receiver, index, value)
            store.attach_resume_point(self.make_resume(pc, ResumePoint.MODE_AT, pre_state))
            self.emit(store)
            stack.append(value)
        elif op == Op.SELF:
            stack.append(self.emit(MSelf()))
        elif op == Op.CLOSURE:
            nested = code.constants[instr.arg]
            if nested.has_frees:
                raise NotCompilable(
                    "%s creates closure %s with free variables" % (code.name, nested.name)
                )
            stack.append(self.emit(MLambda(nested)))
        elif op == Op.CALL:
            count = instr.arg
            args = stack[len(stack) - count :] if count else []
            del stack[len(stack) - count :]
            this_value = stack.pop()
            callee = stack.pop()
            call = MCall(callee, this_value, args)
            # Mode "at" with the un-popped stack: the inliner reuses
            # this snapshot so a bailout inside an inlined body can
            # restart the whole CALL in the interpreter (§3.7).
            pre_state = _State(
                state.args, state.locals, stack + [callee, this_value] + args
            )
            call.attach_resume_point(self.make_resume(pc, ResumePoint.MODE_AT, pre_state))
            self.emit(call)
            stack.append(self.speculate_result(call, pc, state))
        elif op == Op.NEW:
            count = instr.arg
            args = stack[len(stack) - count :] if count else []
            del stack[len(stack) - count :]
            callee = stack.pop()
            new = MNew(callee, args)
            pre_state = _State(state.args, state.locals, stack + [callee] + args)
            new.attach_resume_point(self.make_resume(pc, ResumePoint.MODE_AT, pre_state))
            self.emit(new)
            stack.append(self.speculate_result(new, pc, state))
        elif op == Op.RETURN:
            self.emit(MReturn(stack.pop()))
            return True
        elif op == Op.RETURN_UNDEF:
            self.emit(MReturn(self.constant(UNDEFINED)))
            return True
        else:
            raise CompilerError("MIR builder cannot handle opcode %r" % op)
        return False

    # -- phi cleanup -----------------------------------------------------------------------

    def _simplify_phis(self):
        """Remove trivial phis (all inputs equal, or self plus one input).

        Maximal SSA construction creates a phi per slot per block; most
        are redundant.  Iterates to a fixed point because removing one
        phi can make another trivial.
        """
        changed = True
        while changed:
            changed = False
            for block in self.graph.blocks:
                for phi in list(block.phis):
                    inputs = set(
                        operand for operand in phi.operands if operand is not phi
                    )
                    if len(inputs) == 1:
                        replacement = inputs.pop()
                        phi.replace_all_uses_with(replacement)
                        block.remove_phi(phi)
                        changed = True


def build_mir(
    code,
    feedback=None,
    param_values=None,
    this_value=None,
    osr_pc=None,
    osr_args=None,
    osr_locals=None,
    generic=False,
    shape_guards=True,
):
    """Build the MIR graph for ``code``.  See :class:`MIRBuilder`."""
    builder = MIRBuilder(
        code,
        feedback=feedback,
        param_values=param_values,
        this_value=this_value,
        osr_pc=osr_pc,
        osr_args=osr_args,
        osr_locals=osr_locals,
        generic=generic,
        shape_guards=shape_guards,
    )
    try:
        return builder.build()
    except NotCompilable:
        # A refusal leaves a half-built graph nobody is handed: unlinked
        # here, it is freed by reference count like a finished compile's.
        builder.graph.release()
        raise
