"""Closure-compiled native execution: the fast executor backend.

The reference :class:`~repro.lir.executor.NativeExecutor` re-decodes
every instruction on every execution: an attribute load for the
opcode, a ~40-arm if/elif dispatch, operand-index indirection.  This
module applies the paper's thesis to our own host instead — specialize
executable code on the values known at compile time.  Here *compile
time* is native-code assembly and the known values are the instruction
stream itself: each basic block is translated once into straight-line
Python source — operand locations, immediates, property names, guard
constants and jump targets inlined as literals — compiled with
``exec`` into a pre-bound closure, and cached on the
:class:`NativeCode`.  Executing the binary is then just::

    pc = handlers[pc](values, ctx)

one Python call per *block*, with zero per-instruction decoding or
dispatch inside it.

Cycle and instruction accounting is block-granular on the fast path:
the driver adds the block's precomputed instruction count and summed
static cost (the same assembly-time per-instruction costs the
reference backend charges) after each block completes.  For exactness
under guards and guest errors, every generated block maintains a
one-word progress marker (``_i``) and publishes it on any exception,
letting the driver charge exactly the instructions the reference
backend would have charged — up to and including the faulting one —
and stamp ``Bailout.native_index`` with the faulting instruction's
absolute index.

Semantics are bit-identical to the reference backend by construction:
every generated statement is a transliteration of the corresponding
if/elif arm, guards raise the same :class:`Bailout` with the same
frame reconstruction, and cycles accumulate in locals folded into the
executor's counters only on frame exit, so mid-run trace timestamps
match too (``python3 hostbench/run.py --report`` measures the
wall-clock difference; the differential test suite proves stats,
cycles, printed output and trace streams match).
"""

from repro.errors import CompilerError
from repro.jsvm.interpreter import MAX_CALL_DEPTH
from repro.jsvm.values import UNDEFINED
from repro.lir.executor import Bailout, NativeExecutor, forced_bailout
from repro.lir.hostcode import (
    COMPARE_PY,
    CTX_FAULT,
    CTX_OSR_ARGS,
    CTX_OSR_LOCALS,
    CTX_RESULT,
    PRIMITIVE_TYPE_FAILS,
    TERMINATORS,
    Binder,
    ShapeGuardTracker,
    accounting_tables,
    base_namespace,
    block_bodies,
)
from repro.lir.native import GUARD_OPS
from repro.lir.regalloc import NUM_REGS
from repro.mir.types import MIRType

#: Sentinel pc returned by ``return`` blocks; the driver loop treats
#: any negative pc as "frame finished, result in ``ctx[CTX_RESULT]``".
RETURN_PC = -1


def _emit(out, index, instruction, binder, inject=False, slot_offset=None):
    """Append the statement(s) for one instruction to ``out``.

    Each emitted fragment is a transliteration of the matching if/elif
    arm of :meth:`NativeExecutor.run` with every operand location
    inlined (negative locations index the immediate pool, exactly as
    in the reference executor's value array).  Scratch names ``_t``,
    ``_x``, ``_y`` are block-local and never live across instructions.

    ``inject`` (set only when the executor carries an armed fault
    injector at translation time) prefixes every guard with a consult
    of the injector — the closure-backend twin of the reference
    backend's pre-dispatch check, so forced bailouts fire at the same
    point with the same partial cycle charge.

    ``slot_offset`` (loadprop/storeprop only) is the constant slot
    index proven by a dominating ``guardshape`` in the same block
    (:class:`~repro.lir.hostcode.ShapeGuardTracker`): the access compiles to a direct
    ``.slots[offset]`` read/write with no name lookup.
    """
    op = instruction.op
    srcs = instruction.srcs
    dest = instruction.dest
    extra = instruction.extra
    snap = instruction.snapshot

    if inject and snap is not None and op in GUARD_OPS:
        out.append("if _fire(%d):" % index)
        out.append("    _forced(_v, %d)" % index)

    def v(loc):
        return "_v[%d]" % loc

    def d():
        return "_v[%d]" % dest

    def snap_name():
        return binder.bind(snap)

    if op == "move":
        out.append("%s = %s" % (d(), v(srcs[0])))
    elif op == "const":
        # Normally folded into the immediate pool; kept for unfolded
        # streams (hand-built natives in tests).
        out.append("%s = %s" % (d(), binder.lit(extra)))
    elif op == "getarg":
        if extra == -1:
            out.append("%s = _c[0]" % d())
        else:
            out.append("_t = _c[1]")
            out.append(
                "%s = _t[%d] if %d < len(_t) else _UNDEF" % (d(), extra, extra)
            )
    elif op == "osrvalue":
        kind, arg_index = extra
        slot = CTX_OSR_ARGS if kind == "arg" else CTX_OSR_LOCALS
        out.append("%s = _c[%d][%d]" % (d(), slot, arg_index))
    elif op == "self":
        out.append("%s = _c[2]" % d())
    elif op in ("add_i", "sub_i"):
        sign = "+" if op == "add_i" else "-"
        if snap is None:
            out.append("%s = %s %s %s" % (d(), v(srcs[0]), sign, v(srcs[1])))
        else:
            out.append("_t = %s %s %s" % (v(srcs[0]), sign, v(srcs[1])))
            out.append("if _t > 2147483647 or _t < -2147483648:")
            out.append(
                "    _bail(_v, %s, 'overflow', %r, float(_t))" % (snap_name(), op)
            )
            out.append("%s = _t" % d())
    elif op == "mul_i":
        if snap is None:
            out.append("%s = %s * %s" % (d(), v(srcs[0]), v(srcs[1])))
        else:
            name = snap_name()
            out.append("_x = %s" % v(srcs[0]))
            out.append("_y = %s" % v(srcs[1]))
            out.append("_t = _x * _y")
            out.append("if _t > 2147483647 or _t < -2147483648:")
            out.append("    _bail(_v, %s, 'overflow', 'mul_i', float(_t))" % name)
            out.append("if _t == 0 and (_x < 0 or _y < 0):")
            # JS: (-n) * 0 is -0, a double; the int path bails.
            out.append("    _bail(_v, %s, 'negative zero', 'mul_i', -0.0)" % name)
            out.append("%s = _t" % d())
    elif op == "neg_i":
        if snap is None:
            out.append("%s = -%s" % (d(), v(srcs[0])))
        else:
            name = snap_name()
            out.append("_t = %s" % v(srcs[0]))
            out.append("if _t == 0:")
            out.append("    _bail(_v, %s, 'negative zero', 'neg_i', -0.0)" % name)
            out.append("if _t == -2147483648:")
            out.append("    _bail(_v, %s, 'overflow', 'neg_i', -float(_t))" % name)
            out.append("%s = -_t" % d())
    elif op in ("add_d", "sub_d", "mul_d"):
        sign = {"add_d": "+", "sub_d": "-", "mul_d": "*"}[op]
        out.append(
            "%s = _normalize(%s %s %s)" % (d(), v(srcs[0]), sign, v(srcs[1]))
        )
    elif op == "div_d":
        out.append("%s = _js_div(%s, %s)" % (d(), v(srcs[0]), v(srcs[1])))
    elif op == "mod_d":
        out.append("%s = _js_mod(%s, %s)" % (d(), v(srcs[0]), v(srcs[1])))
    elif op == "neg_d":
        out.append("%s = -%s" % (d(), v(srcs[0])))
    elif op == "bitop_i":
        call = "_binary(%s, %s, %s)" % (binder.lit(extra), v(srcs[0]), v(srcs[1]))
        if snap is None:
            out.append("%s = %s" % (d(), call))
        else:
            out.append("_t = %s" % call)
            out.append("if type(_t) is not int:")
            # ">>>" producing a value beyond int32.
            out.append(
                "    _bail(_v, %s, 'uint32 overflow', 'bitop_i', _t)" % snap_name()
            )
            out.append("%s = _t" % d())
    elif op == "toint32":
        out.append("%s = _to_int32(%s)" % (d(), v(srcs[0])))
    elif op == "todouble":
        out.append("%s = float(%s)" % (d(), v(srcs[0])))
    elif op == "concat":
        out.append("%s = %s + %s" % (d(), v(srcs[0]), v(srcs[1])))
    elif op == "compare":
        cmp_op, kind = extra
        py = COMPARE_PY.get(cmp_op)
        if py is not None:
            # Python's operators agree with _compare for every kind,
            # including doubles: NaN makes <,<=,>,>=,== false and !=
            # true under both semantics.
            out.append("%s = %s %s %s" % (d(), v(srcs[0]), py, v(srcs[1])))
        else:
            out.append(
                "%s = _cmp(%s, %s, %s, %s)"
                % (d(), binder.lit(cmp_op), binder.lit(kind), v(srcs[0]), v(srcs[1]))
            )
    elif op == "binary_v":
        out.append(
            "%s = _binary(%s, %s, %s)" % (d(), binder.lit(extra), v(srcs[0]), v(srcs[1]))
        )
    elif op == "unary_v":
        out.append("%s = _unary(%s, %s)" % (d(), binder.lit(extra), v(srcs[0])))
    elif op == "not":
        out.append("%s = not _to_boolean(%s)" % (d(), v(srcs[0])))
    elif op == "typeof":
        out.append("%s = _type_of(%s)" % (d(), v(srcs[0])))
    elif op == "unbox" and extra == MIRType.DOUBLE:
        name = snap_name()
        out.append("_t = %s" % v(srcs[0]))
        out.append("_x = type(_t)")
        out.append("if _x is not float and _x is not int:")
        out.append("    _bail(_v, %s, 'type guard', 'unbox', _t)" % name)
        out.append("%s = float(_t) if _x is int else _t" % d())
    elif op in ("unbox", "typebarrier"):
        out.append("_t = %s" % v(srcs[0]))
        if op == "unbox" or extra != MIRType.VALUE:
            name = snap_name()
            test = PRIMITIVE_TYPE_FAILS.get(extra) or "not _matches(_t, %s)" % binder.bind(extra)
            reason = "type guard" if op == "unbox" else "type barrier"
            out.append("if %s:" % test)
            out.append("    _bail(_v, %s, %r, %r, _t)" % (name, reason, op))
        out.append("%s = _t" % d())
    elif op == "checkoverrecursed":
        out.append("if _interp.call_depth >= %d:" % MAX_CALL_DEPTH)
        out.append(
            "    _bail(_v, %s, 'over-recursed', 'checkoverrecursed')" % snap_name()
        )
    elif op == "arraylength":
        out.append("%s = len(%s.elements)" % (d(), v(srcs[0])))
    elif op == "stringlength":
        out.append("%s = len(%s)" % (d(), v(srcs[0])))
    elif op == "boundscheck":
        out.append("_t = %s" % v(srcs[0]))
        out.append("if _t < 0 or _t >= %s:" % v(srcs[1]))
        out.append(
            "    _bail(_v, %s, 'bounds check', 'boundscheck')" % snap_name()
        )
    elif op == "guardshape":
        out.append(
            "if %s.shape.shape_id not in %s:" % (v(srcs[0]), binder.lit(extra))
        )
        # Observed shape id as the bailout ``actual`` (engine-side
        # retrain-noop detection; never pushed by "at"-mode resume).
        out.append(
            "    _bail(_v, %s, 'shape guard', 'guardshape', %s.shape.shape_id)"
            % (snap_name(), v(srcs[0]))
        )
    elif op == "loadelement":
        out.append("%s = %s.elements[%s]" % (d(), v(srcs[0]), v(srcs[1])))
    elif op == "storeelement":
        out.append("%s.elements[%s] = %s" % (v(srcs[0]), v(srcs[1]), v(srcs[2])))
    elif op == "getelem_v":
        out.append(
            "%s = _get_element(%s, %s, _runtime)" % (d(), v(srcs[0]), v(srcs[1]))
        )
    elif op == "setelem_v":
        out.append(
            "_set_element(%s, %s, %s)" % (v(srcs[0]), v(srcs[1]), v(srcs[2]))
        )
    elif op == "loadprop":
        if slot_offset is not None:
            out.append("%s = %s.slots[%d]" % (d(), v(srcs[0]), slot_offset))
        else:
            out.append("%s = %s.get(%s)" % (d(), v(srcs[0]), binder.lit(extra)))
    elif op == "storeprop":
        if slot_offset is not None:
            out.append("%s.slots[%d] = %s" % (v(srcs[0]), slot_offset, v(srcs[1])))
        else:
            out.append("%s.set(%s, %s)" % (v(srcs[0]), binder.lit(extra), v(srcs[1])))
    elif op == "getprop_v":
        out.append("%s = _get_property(%s, %s)" % (d(), v(srcs[0]), binder.lit(extra)))
    elif op == "setprop_v":
        out.append(
            "_set_property(%s, %s, %s)" % (v(srcs[0]), binder.lit(extra), v(srcs[1]))
        )
    elif op == "loadglobal":
        out.append("%s = _get_global(%s)" % (d(), binder.lit(extra)))
    elif op == "storeglobal":
        out.append("_set_global(%s, %s)" % (binder.lit(extra), v(srcs[0])))
    elif op == "newarray":
        out.append("%s = _JSArray(_root, [%s])" % (d(), ", ".join(v(loc) for loc in srcs)))
    elif op == "newobject":
        out.append("_t = _JSObject(_root)")
        for key, loc in zip(extra, srcs):
            out.append("_t.set(%s, %s)" % (binder.lit(key), v(loc)))
        out.append("%s = _t" % d())
    elif op == "lambda":
        out.append("%s = _JSFunction(%s, ())" % (d(), binder.bind(extra)))
    elif op == "call":
        out.append(
            "%s = _call_value(%s, %s, [%s])"
            % (d(), v(srcs[0]), v(srcs[1]), ", ".join(v(loc) for loc in srcs[2:]))
        )
    elif op == "new":
        out.append(
            "%s = _construct(%s, [%s])"
            % (d(), v(srcs[0]), ", ".join(v(loc) for loc in srcs[1:]))
        )
    elif op == "goto":
        out.append("return %d" % instruction.targets[0])
    elif op == "test":
        t0, t1 = instruction.targets
        out.append("_t = %s" % v(srcs[0]))
        out.append("if _t is True:")
        out.append("    return %d" % t0)
        out.append("if _t is False:")
        out.append("    return %d" % t1)
        out.append("return %d if _to_boolean(_t) else %d" % (t0, t1))
    elif op == "return":
        out.append("_c[%d] = %s" % (CTX_RESULT, v(srcs[0])))
        out.append("return %d" % RETURN_PC)
    else:
        raise CompilerError("closure backend: unknown op %r" % op)


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
    runtime = executor.runtime
    injector = executor.fault_injector

    namespace = base_namespace(executor)
    namespace["_bail"] = executor._bail
    namespace["_set_global"] = runtime.set_global
    if injector is not None:

        def _fire(index, _injector=injector, _native=native):
            return _injector.should_fire(_native, index)

        def _forced(values, index, _executor=executor, _instructions=instructions):
            forced_bailout(_executor, _instructions[index], values)

        namespace["_fire"] = _fire
        namespace["_forced"] = _forced
    binder = Binder(namespace)

    bodies = block_bodies(native)
    source = []
    for leader, body in bodies.items():
        lines = ["def _b%d(_v, _c):" % leader, "    _i = 0", "    try:"]
        shape_tracker = ShapeGuardTracker(runtime.shapes)
        for offset, instr_index in enumerate(body):
            if offset:
                lines.append("        _i = %d" % offset)
            instruction = instructions[instr_index]
            slot_offset = None
            if instruction.op in ("loadprop", "storeprop"):
                slot_offset = shape_tracker.slot_offset(instruction)
            stmts = []
            _emit(
                stmts,
                instr_index,
                instruction,
                binder,
                inject=injector is not None,
                slot_offset=slot_offset,
            )
            shape_tracker.observe(instruction)
            lines.extend("        " + stmt for stmt in stmts)
        if instructions[body[-1]].op not in TERMINATORS:
            lines.append("        return %d" % (body[-1] + 1))
        # Publish how far the block got before re-raising: the driver
        # charges exactly through the faulting instruction, as the
        # reference backend does.
        lines.append("    except BaseException:")
        lines.append("        _c[%d] = _i" % CTX_FAULT)
        lines.append("        raise")
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

    Shares bailout reconstruction and the cumulative cycle/instruction
    counters with the reference executor; only the dispatch strategy
    differs.  ``EngineStats``, cycle counts, printed output and trace
    streams are bit-identical to the reference backend.
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
        values = [UNDEFINED] * (NUM_REGS + native.num_slots) + native.immediates
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
