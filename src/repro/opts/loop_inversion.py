"""Loop inversion (paper §3.4): while-loops become guarded repeat-loops.

The transformation replaces

.. code-block:: none

    H:  <test>            H:  <test>                ; wrapping guard
        iffalse E             iffalse E
        <body>            B:  <body>
        jump H            T:  <test>                ; duplicated test
    E:                        iftrue B
                          E:

so each iteration executes one conditional branch at the bottom instead
of a conditional plus an unconditional jump at the top.  As the paper
notes, the win compounds: parameter specialization often proves the
wrapping guard's condition true at compile time, constant propagation
folds it, and dead-code elimination removes it (Figure 8(a)); the
do-while shape also unlocks more loop-invariant code motion.

Implementation note (see DESIGN.md): we rotate the *bytecode* before
MIR construction rather than performing CFG surgery on SSA.  The MIR
built from rotated bytecode is exactly the rotated graph of Figure
7(c), and because the same bytecode feeds the interpreter, OSR entries
and bailout resume points need no translation layer.  The engine still
charges the pass's compile-time cost when it JIT-compiles the function.

The pass is linear: :func:`_plan` judges every loop once on the original
stream, last latch first, and :func:`_emit` builds the new list once.
The order is observable (DESIGN.md, "Loop inversion as bytecode
rotation"): an enclosing loop's new bottom ``IFTRUE body`` enters the
body's first instruction from outside, so ``while (a) { while (b) {} }``
rotates one loop only.
"""

from repro.jsvm.bytecode import JUMP_OPS, CodeObject, Instr, Op

_RETURNS = (Op.RETURN, Op.RETURN_UNDEF)


def _test_end(instructions, header, latch, retarget):
    """The IFFALSE closing the test region that starts at ``header``, or None.

    The region is straight-line code or inner jumps only, and its
    closing IFFALSE targets the loop exit, ``latch + 1`` (the shape our
    bytecode compiler emits for while/for loops).
    """
    for index in range(header, latch):
        probe = instructions[index]
        if probe.op == Op.IFFALSE and probe.arg == latch + 1:
            return index
        if probe.op in _RETURNS:
            return None
        if probe.op in JUMP_OPS and (
            index in retarget or not header <= probe.arg <= latch + 1
        ):
            return None
    return None


def _safe(instructions, header, test_end, latch, jumpers, entered):
    """Whether duplicating ``[header, test_end]`` after ``latch`` is sound.

    Every jump to the header must be a backward JUMP from inside the
    body (the latch or a `continue`), and nothing outside the loop may
    jump into the middle of the test region: it would be re-executed
    incorrectly after duplication.
    """
    for target in range(header, test_end + 1):
        if target in entered:
            return False
        for position in jumpers.get(target, ()):
            if target != header:
                inside = header <= position <= latch
            else:
                inside = test_end < position <= latch and instructions[position].op == Op.JUMP
            if not inside:
                return False
    return True


def _plan(instructions):
    """Choose the loops to rotate: ``(loops, retarget)``.

    ``loops`` maps a latch (the final backward JUMP of a canonical
    while-loop) to ``(header, test_end)``; ``retarget`` maps every
    backward ``JUMP header`` of a chosen loop (the latch and each
    `continue`) to that loop's latch.
    """
    jumpers = {}  # target -> positions of the jumps still aimed at it
    latches = []
    for position, instr in enumerate(instructions):
        if instr.op in JUMP_OPS:
            jumpers.setdefault(instr.arg, []).append(position)
            if instr.op == Op.JUMP and instr.arg < position:
                latches.append(position)
    loops = {}
    retarget = {}
    entered = set()  # body starts the planned bottom tests jump to
    for latch in reversed(latches):
        if latch in retarget:
            continue
        header = instructions[latch].arg
        test_end = _test_end(instructions, header, latch, retarget)
        if test_end is None or not _safe(instructions, header, test_end, latch, jumpers, entered):
            continue
        loops[latch] = (header, test_end)
        entered.add(test_end + 1)
        for position in jumpers.pop(header):
            retarget[position] = latch
    return loops, retarget


def _emit(instructions, loops, retarget):
    """The rotated stream: each planned loop's test copied after its latch."""
    count = len(instructions)
    # shift[i]: how far original index i moves, i.e. the length of
    # every tail inserted at or before it.
    shift = [0] * (count + 1)
    for latch, (header, test_end) in loops.items():
        shift[latch + 1] += test_end - header + 1
    moved = 0
    for index in range(count + 1):
        moved += shift[index]
        shift[index] = moved
    rotated = []
    append = rotated.append
    for position, instr in enumerate(instructions):
        if instr.op in JUMP_OPS:
            if position in retarget:
                # Backward jumps (latch, `continue`) now reach the tail.
                latch = retarget[position]
                target = latch + shift[latch] + 1
            else:
                target = instr.arg + shift[instr.arg]
            append(Instr(instr.op, target, instr.line))
        else:
            append(instr)
        if position in loops:
            header, test_end = loops[position]
            # Inner test jumps stay within the tail copy.
            rebase = len(rotated) - header
            for index in range(header, test_end):
                source = instructions[index]
                arg = source.arg
                if source.op in JUMP_OPS:
                    arg += rebase
                append(Instr(source.op, arg, source.line))
            # IFFALSE exit  ->  IFTRUE body (falls through to exit).
            body_start = test_end + 1
            append(
                Instr(Op.IFTRUE, body_start + shift[body_start], instructions[test_end].line)
            )
    return rotated


def rotate_loops(code, recursive=True):
    """Invert every canonical while-loop in ``code`` (in place).

    Returns the number of loops rotated.  With ``recursive``, nested
    function code objects in the constant pool are processed too.  A
    code object is rotated once: calling again (a served program runs
    its cached code per request) finds ``loops_rotated`` and returns 0.
    """
    rotated = 0
    if not code.loops_rotated:
        loops, retarget = _plan(code.instructions)
        if loops:
            code.instructions = _emit(code.instructions, loops, retarget)
            # The interpreter's threaded handler table is positional and
            # the cache digest covers the stream: both rebuild lazily.
            code.threaded = code.fingerprint = None
            rotated = len(loops)
        code.validate()
        code.loops_rotated = True
    if recursive:
        for constant in code.constants:
            if isinstance(constant, CodeObject):
                rotated += rotate_loops(constant, recursive=True)
    return rotated
