"""Shared utilities for JIT-level tests."""

import os

from repro.jsvm.bytecode import Op
from repro.jsvm.bytecompiler import compile_source
from repro.jsvm.feedback import TypeFeedback
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.objects import ShapeTree

#: Root shape of a standalone tree, for tests that build heap values by
#: hand rather than through a Runtime.
ROOT = ShapeTree().root


def all_function_codes(toplevel):
    found = []

    def walk(c):
        for constant in c.constants:
            if hasattr(constant, "instructions"):
                found.append(constant)
                walk(constant)

    walk(toplevel)
    return found


def compile_and_profile(source, name=None):
    """Compile a script, interpret it once recording full type feedback.

    Returns (toplevel_code, target_code).  The target is the first
    nested function, or the one matching ``name``.
    """
    toplevel = compile_source(source)
    functions = all_function_codes(toplevel)
    if name is None:
        target = functions[0]
    else:
        target = [c for c in functions if c.name == name][0]
    for code in functions:
        code.feedback = TypeFeedback(code.num_params)
    interp = Interpreter()
    original_call = interp.call_function

    def recording_call(function, this_value, args):
        if function.code.feedback is not None:
            function.code.feedback.record_args(args)
        return original_call(function, this_value, args)

    interp.call_function = recording_call
    interp.run_code(toplevel)
    return toplevel, target


def backward_jump_target(code):
    """The bytecode pc of the first loop header (backward JUMP target)."""
    for index, instr in enumerate(code.instructions):
        if instr.op == Op.JUMP and instr.arg < index:
            return instr.arg
        if instr.op == Op.IFTRUE and instr.arg < index:
            return instr.arg
    raise AssertionError("no loop in %s" % code.name)


def count(graph, cls):
    return sum(1 for i in graph.all_instructions() if isinstance(i, cls))


def instrs(graph, cls):
    return [i for i in graph.all_instructions() if isinstance(i, cls)]


def nightly_shard(items):
    """Filter a nightly sweep to this CI shard (``REPRO_NIGHTLY_SHARD=k/n``).

    A nightly sweep (every benchmark under chaos, thousands of fuzz
    programs under ``node``) takes minutes to tens of minutes in one
    process, so CI shards it across a job matrix: shard ``k`` of ``n``
    takes the items whose index is congruent to ``k`` modulo ``n``, a
    deterministic partition that stays balanced as the list grows and
    covers every item exactly once across the matrix.  Unset (local
    runs), the whole list is kept.
    """
    spec = os.environ.get("REPRO_NIGHTLY_SHARD")
    if not spec:
        return items
    shard, _, count = spec.partition("/")
    shard, count = int(shard), int(count)
    return [item for index, item in enumerate(items) if index % count == shard]
