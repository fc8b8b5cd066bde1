"""Function inlining of specialization constants (paper §3.7).

IonMonkey's baseline inliner is profile-guided and waits for tens of
thousands of calls; closures passed as parameters are especially hard
for it because inlining them needs identity guards.  Parameter
specialization changes the game: an actual-parameter closure becomes an
``MConstant`` holding a concrete ``JSFunction``, so the callee's
identity is certain and *no guard is needed* — if the host function is
ever called with different arguments the whole binary is discarded
anyway.

We inline a constant callee when its body is *re-executable*: it
contains no store-class effects and no nested calls, so bailing out
anywhere inside it can simply restart the whole call in the
interpreter.  Every guard inside the inlined body therefore adopts the
caller's resume point at the call bytecode (mode "at"), which re-runs
the CALL op.  Pure loads and guards are fine anywhere.

The paper's "methods from objects passed as parameters" are not
covered: constant propagation folds no property load (``MLoadProperty``
is not among ``constprop._EVALUATED_KINDS``; ``MGetPropV`` folds only a
constant string's ``length``), so a method read from a constant object
stays a load — a promise the persistent cache's key relies on
(docs/COMPILE_PIPELINE.md).  The pass manager runs inlining again after
constant propagation, for a callee that only then becomes a constant.
"""

from repro.jsvm.values import UNDEFINED, JSFunction
from repro.mir.instructions import (
    EFFECT_STORE,
    MCall,
    MCheckOverRecursed,
    MConstant,
    MGoto,
    MParameter,
    MPhi,
    MReturn,
    ResumePoint,
)
from repro.mir.types import MIRType

#: Instruction-count ceiling for one inlining candidate.
MAX_CALLEE_SIZE = 60
#: Total instructions a single graph may gain from inlining.
MAX_TOTAL_GROWTH = 240


def run_inlining(graph):
    """Inline eligible constant-callee calls; returns number inlined.

    Each callee's MIR graph is built fresh by
    :func:`repro.mir.builder.build_mir` with the callee's own type
    feedback (imported here: the builder imports this module's package).
    """
    inlined = 0
    growth = 0
    # Snapshot candidates first: splicing invalidates iteration order.
    candidates = []
    for block in graph.blocks:
        for instruction in block.instructions:
            if _is_candidate(instruction):
                candidates.append(instruction)
    for call in candidates:
        if call.block is None:
            continue  # removed by an earlier splice
        if growth >= MAX_TOTAL_GROWTH:
            break
        size = _try_inline(graph, call)
        if size:
            inlined += 1
            growth += size
    return inlined


def _is_candidate(instruction):
    if not isinstance(instruction, MCall):
        return False
    callee = instruction.callee
    return isinstance(callee, MConstant) and isinstance(callee.value, JSFunction)


def _body_is_reexecutable(sub):
    """True when bailing anywhere in the body may restart the call."""
    for instruction in sub.all_instructions():
        if isinstance(instruction, (MCheckOverRecursed, MReturn)):
            continue
        if instruction.effect == EFFECT_STORE:
            return False
    return True


def _try_inline(graph, call):
    """Attempt one inline; returns the spliced size or 0."""
    from repro.errors import NotCompilable
    from repro.mir.builder import build_mir

    function = call.callee.value
    code = function.code
    if code.has_frees or code.has_cells:
        return 0
    try:
        sub = build_mir(code, feedback=code.feedback)
    except NotCompilable:
        return 0
    graph.callee_graphs.append(sub)
    size = sub.num_instructions()
    if size > MAX_CALLEE_SIZE:
        return 0
    if sub.osr_entry is not None or not _body_is_reexecutable(sub):
        return 0
    if not any(isinstance(b.terminator, MReturn) for b in sub.blocks):
        return 0  # degenerate body (infinite loop): nothing to wire up

    caller_resume = call.resume_point
    block = call.block

    # 1. Split the caller block: everything after the call moves to a
    #    fresh continuation block, which inherits the old terminator.
    continuation = graph.new_block()
    call_index = block.instructions.index(call)
    moved = block.instructions[call_index + 1 :]
    del block.instructions[call_index + 1 :]
    for instruction in moved:
        instruction.block = continuation
    continuation.instructions = moved
    old_terminator = continuation.terminator
    if old_terminator is not None:
        for successor in old_terminator.successors:
            for index, predecessor in enumerate(successor.predecessors):
                if predecessor is block:
                    successor.predecessors[index] = continuation

    # 2. Adopt the callee blocks into the caller graph.
    for sub_block in sub.blocks:
        sub_block.graph = graph
        sub_block.id = graph._next_block_id
        graph._next_block_id += 1
        for definition in list(sub_block.phis) + sub_block.instructions:
            definition.id = -1
            graph.assign_id(definition)

    # 3. Rebind parameters / `this` / entry boilerplate, and retarget
    #    every resume point at the caller's call site.
    args = list(call.call_args)
    entry = sub.entry
    for sub_block in sub.blocks:
        for instruction in list(sub_block.instructions):
            if isinstance(instruction, MParameter):
                if instruction.index == -1:
                    replacement = call.this_value
                elif instruction.index < len(args):
                    replacement = args[instruction.index]
                else:
                    replacement = block.insert_before(call, MConstant(UNDEFINED))
                instruction.replace_all_uses_with(replacement)
                sub_block.remove_instruction(instruction)
            elif isinstance(instruction, MCheckOverRecursed):
                sub_block.remove_instruction(instruction)
            elif instruction.resume_point is not None:
                instruction.resume_point.discard()
                instruction.resume_point = None
                if caller_resume is not None:
                    clone = ResumePoint(
                        caller_resume.pc,
                        ResumePoint.MODE_AT,
                        caller_resume.args,
                        caller_resume.locals,
                        caller_resume.stack,
                    )
                    instruction.attach_resume_point(clone)

    # 4. Merge the callee entry block into the caller block.
    for instruction in entry.instructions:
        instruction.block = block
    block.instructions.extend(entry.instructions)
    entry.instructions = []
    entry_terminator = block.terminator
    if entry_terminator is not None:
        for successor in entry_terminator.successors:
            for index, predecessor in enumerate(successor.predecessors):
                if predecessor is entry:
                    successor.predecessors[index] = block

    # 5. Rewrite returns into edges to the continuation block.
    merged_blocks = [block] + [b for b in sub.blocks if b is not entry]
    return_values = []
    for merged in merged_blocks:
        terminator = merged.terminator
        if isinstance(terminator, MReturn):
            value = terminator.operands[0]
            merged.remove_instruction(terminator)
            goto = MGoto(continuation)
            merged.append(goto)
            continuation.add_predecessor(merged)
            return_values.append(value)

    if len(return_values) == 1:
        result = return_values[0]
    else:
        result = MPhi(MIRType.VALUE, ("inline", 0))
        continuation.add_phi(result)
        for value in return_values:
            result.add_input(value)

    # 6. Replace the call and finish the splice.
    call.replace_all_uses_with(result)
    block.remove_instruction(call)
    for sub_block in sub.blocks:
        if sub_block is not entry:
            graph.blocks.append(sub_block)
    return size
