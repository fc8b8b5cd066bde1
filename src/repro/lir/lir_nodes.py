"""LIR: linear, virtual-register code between MIR and native emission.

Unlike MIR, LIR is machine-shaped: phis are gone (replaced by explicit
moves on edges), every value lives in a numbered virtual register, and
guards carry :class:`Snapshot` records that name the virtual registers
holding the interpreter frame's reconstruction values.
"""


class Snapshot(object):
    """Bailout metadata for one guard.

    ``mode`` is ``"at"`` or ``"after"`` (see
    :class:`repro.mir.instructions.ResumePoint`).  ``vregs`` lists the
    virtual registers of ``[args..., locals..., stack...]``; after
    register allocation :attr:`locations` holds their assigned places.
    """

    __slots__ = ("pc", "mode", "num_args", "num_locals", "vregs", "locations", "snapshot_id")

    def __init__(self, pc, mode, num_args, num_locals, vregs):
        self.pc = pc
        self.mode = mode
        self.num_args = num_args
        self.num_locals = num_locals
        self.vregs = vregs
        self.locations = None
        #: Emission-order id within the owning binary, assigned by
        #: ``generate_native``; bailout traces report it so a guard can
        #: be cross-referenced against the disassembly.
        self.snapshot_id = None

    def __repr__(self):
        return "Snapshot(pc=%d, %s, %d vregs)" % (self.pc, self.mode, len(self.vregs))


class LInstruction(object):
    """One LIR instruction.

    ``dest`` is a virtual register or None; ``srcs`` are virtual
    registers; ``extra`` carries immediate data (a constant value, a
    property name, an operator, jump targets...); ``snapshot`` is set
    on guards.
    """

    __slots__ = ("op", "dest", "srcs", "extra", "snapshot", "targets")

    def __init__(self, op, dest=None, srcs=(), extra=None, snapshot=None, targets=None):
        self.op = op
        self.dest = dest
        self.srcs = list(srcs)
        self.extra = extra
        self.snapshot = snapshot
        self.targets = targets  # block ids for goto/test

    @property
    def is_guard(self):
        return self.snapshot is not None

    def __repr__(self):
        parts = [self.op]
        if self.dest is not None:
            parts.append("v%d =" % self.dest)
        if self.srcs:
            parts.append(",".join("v%d" % s for s in self.srcs))
        if self.extra is not None:
            parts.append(repr(self.extra))
        if self.targets is not None:
            parts.append("->%s" % (self.targets,))
        return "<L %s>" % " ".join(str(p) for p in parts)


class LIRFunction(object):
    """The lowered function: a linear stream plus block metadata."""

    def __init__(self, code):
        self.code = code
        self.instructions = []
        #: block id -> index of the block's first instruction.
        self.block_starts = {}
        #: index of the function entry (always 0) and the OSR entry.
        self.entry_index = 0
        self.osr_index = None
        self.num_vregs = 0

    def append(self, instruction):
        self.instructions.append(instruction)
        return instruction

    def __len__(self):
        return len(self.instructions)
