"""Reference loop inversion: the fixpoint the one-pass planner replaced.

Kept verbatim (test-only) so ``test_front_half_identity.py`` can
require the one-pass planner in ``repro.opts.loop_inversion`` to emit
the exact ``(op, arg, line)`` stream — order-dependent verdicts
included — that this rotate-one-loop-and-rescan fixpoint produces.
"""

from repro.jsvm.bytecode import JUMP_OPS, Instr, Op


def _find_candidate(instructions):
    """Find one canonical while-loop: returns (header, test_end, latch).

    ``header`` starts the test region, ``test_end`` is the IFFALSE
    closing it, ``latch`` is the final backward JUMP.  The loop-exit
    target must be ``latch + 1`` (the shape our bytecode compiler emits
    for while/for loops).  Returns None when no loop qualifies.
    """
    for latch in range(len(instructions) - 1, -1, -1):
        instr = instructions[latch]
        if instr.op != Op.JUMP or instr.arg >= latch:
            continue
        header = instr.arg
        # Scan the test region: straight-line or inner jumps only,
        # ending at an IFFALSE whose target is the loop exit.
        test_end = None
        index = header
        while index < latch:
            probe = instructions[index]
            if probe.op == Op.IFFALSE and probe.arg == latch + 1:
                test_end = index
                break
            if probe.op in (Op.RETURN, Op.RETURN_UNDEF):
                break
            if probe.op in JUMP_OPS and not header <= probe.arg <= latch + 1:
                break
            index += 1
        if test_end is None or test_end >= latch:
            continue
        # Every jump to the header must be a backward jump from inside
        # the body (the latch or a `continue`); anything else makes the
        # rotation unsafe.
        safe = True
        for position, other in enumerate(instructions):
            if other.op in JUMP_OPS and other.arg == header:
                inside = test_end < position <= latch and other.op == Op.JUMP
                if not inside:
                    safe = False
                    break
            # Jumps from outside into the middle of the test region
            # would be re-executed incorrectly after duplication.
            if (
                other.op in JUMP_OPS
                and header < other.arg <= test_end
                and not header <= position <= latch
            ):
                safe = False
                break
        if not safe:
            continue
        return header, test_end, latch
    return None


def _rotate_once(code):
    """Rotate one candidate loop; returns True if a rotation happened."""
    instructions = code.instructions
    candidate = _find_candidate(instructions)
    if candidate is None:
        return False
    header, test_end, latch = candidate
    tail_len = test_end - header + 1
    tail_start = latch + 1  # the duplicated test goes where the exit was
    body_start = test_end + 1

    def remap(target):
        """Old jump target -> new index after inserting the tail."""
        if target >= tail_start:
            return target + tail_len
        return target

    new_instructions = []
    for position, instr in enumerate(instructions):
        if position == tail_start:
            # Insert the duplicated bottom test.
            for offset in range(tail_len):
                source = instructions[header + offset]
                if header + offset == test_end:
                    # IFFALSE exit  ->  IFTRUE body (falls through to exit).
                    new_instructions.append(Instr(Op.IFTRUE, body_start, source.line))
                else:
                    arg = source.arg
                    if source.op in JUMP_OPS:
                        # Inner test jumps stay within the tail copy.
                        arg = tail_start + (arg - header)
                    new_instructions.append(Instr(source.op, arg, source.line))
        if instr.op in JUMP_OPS:
            if instr.op == Op.JUMP and instr.arg == header and test_end < position <= latch:
                # Backward jumps (latch, `continue`) now reach the tail.
                new_instructions.append(Instr(Op.JUMP, tail_start, instr.line))
            else:
                new_instructions.append(Instr(instr.op, remap(instr.arg), instr.line))
        else:
            new_instructions.append(Instr(instr.op, instr.arg, instr.line))
    if tail_start == len(instructions):
        # Loop exit was the end of the function (cannot happen after
        # validate(), which requires a terminator, but stay safe).
        for offset in range(tail_len):
            source = instructions[header + offset]
            if header + offset == test_end:
                new_instructions.append(Instr(Op.IFTRUE, body_start, source.line))
            else:
                new_instructions.append(Instr(source.op, source.arg, source.line))
    code.instructions = new_instructions
    # The interpreter's threaded handler table is positional; rebuild
    # it lazily against the rotated stream.
    code.threaded = None
    return True


def rotate_loops(code, recursive=True):
    """Invert every canonical while-loop in ``code`` (in place).

    Returns the number of loops rotated.  With ``recursive``, nested
    function code objects in the constant pool are processed too.
    """
    rotated = 0
    while _rotate_once(code):
        rotated += 1
    code.validate()
    if recursive:
        from repro.jsvm.bytecode import CodeObject

        for constant in code.constants:
            if isinstance(constant, CodeObject):
                rotated += rotate_loops(constant, recursive=True)
    return rotated
