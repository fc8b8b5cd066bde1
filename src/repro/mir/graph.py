"""The MIR control-flow graph.

A graph has one *function entry* block and, optionally, one *OSR
(on-stack replacement) entry* block — the two entry points of the
paper's Figure 6.  Blocks hold phis (aligned with the predecessor
list) followed by instructions, the last of which is a control
instruction.
"""

from repro.mir.instructions import MPhi


class MBasicBlock(object):
    """One basic block: phis, body instructions, and a terminator."""

    __slots__ = (
        "id", "graph", "phis", "instructions", "predecessors", "loop_depth", "__weakref__"
    )

    def __init__(self, graph, block_id):
        self.graph = graph
        self.id = block_id
        self.phis = []
        self.instructions = []
        self.predecessors = []
        self.loop_depth = 0

    # -- structure ----------------------------------------------------------

    @property
    def terminator(self):
        if self.instructions and self.instructions[-1].is_control:
            return self.instructions[-1]
        return None

    @property
    def successors(self):
        terminator = self.terminator
        return list(terminator.successors) if terminator is not None else []

    def add_phi(self, phi):
        phi.block = self
        self.graph.assign_id(phi)
        self.phis.append(phi)
        return phi

    def append(self, instruction):
        instruction.block = self
        self.graph.assign_id(instruction)
        self.instructions.append(instruction)
        return instruction

    def insert_before(self, anchor, instruction):
        instruction.block = self
        self.graph.assign_id(instruction)
        self.instructions.insert(self.instructions.index(anchor), instruction)
        return instruction

    def remove_instruction(self, instruction):
        instruction.release_operands()
        self.instructions.remove(instruction)
        instruction.block = None

    def remove_phi(self, phi):
        phi.release_operands()
        self.phis.remove(phi)
        phi.block = None

    # -- predecessor/phi bookkeeping ---------------------------------------

    def add_predecessor(self, predecessor):
        """Register an incoming edge; phis must gain a matching operand."""
        self.predecessors.append(predecessor)

    def remove_predecessor(self, predecessor):
        """Drop an incoming edge, trimming every phi's matching operand."""
        index = self.predecessors.index(predecessor)
        self.predecessors.pop(index)
        for phi in self.phis:
            operand = phi.operands[index]
            operand.remove_use(phi, index)
            phi.operands.pop(index)
            # Re-register the remaining uses with shifted indices.
            for later_index in range(index, len(phi.operands)):
                phi.operands[later_index].remove_use(phi, later_index + 1)
                phi.operands[later_index].add_use(phi, later_index)

    def __repr__(self):
        return "<Block B%d (%d phis, %d instrs)>" % (self.id, len(self.phis), len(self.instructions))


class MIRGraph(object):
    """A whole function's MIR: blocks plus entry metadata."""

    def __init__(self, code):
        self.code = code
        self.blocks = []
        self.entry = None
        self.osr_entry = None
        #: Bytecode pc of the OSR loop header, if compiled with OSR.
        self.osr_pc = None
        self._next_block_id = 0
        self._next_def_id = 0
        #: Set True by the parameter-specialization pass; telemetry uses it.
        self.specialized = False
        #: Argument values baked in by specialization (for the cache).
        self.specialized_args = None
        #: Callee graphs the inliner built for this one, spliced in or
        #: rejected: this graph's to release.
        self.callee_graphs = []

    # -- construction ----------------------------------------------------------

    def new_block(self):
        block = MBasicBlock(self, self._next_block_id)
        self._next_block_id += 1
        self.blocks.append(block)
        return block

    def assign_id(self, definition):
        if definition.id == -1:
            definition.id = self._next_def_id
            self._next_def_id += 1

    # -- traversal ----------------------------------------------------------------

    def entries(self):
        result = [self.entry]
        if self.osr_entry is not None:
            result.append(self.osr_entry)
        return result

    def reverse_postorder(self):
        """Blocks in reverse postorder from all entries."""
        visited = set()
        order = []

        for root in self.entries():
            stack = [(root, iter(root.successors))]
            if root.id in visited:
                continue
            visited.add(root.id)
            while stack:
                block, successor_iter = stack[-1]
                advanced = False
                for successor in successor_iter:
                    if successor.id not in visited:
                        visited.add(successor.id)
                        stack.append((successor, iter(successor.successors)))
                        advanced = True
                        break
                if not advanced:
                    order.append(block)
                    stack.pop()
        order.reverse()
        return order

    def reachable_blocks(self):
        return set(block.id for block in self.reverse_postorder())

    def all_instructions(self):
        """Iterate every phi and instruction in every block."""
        for block in self.blocks:
            for phi in block.phis:
                yield phi
            for instruction in block.instructions:
                yield instruction

    def num_instructions(self):
        return sum(len(block.phis) + len(block.instructions) for block in self.blocks)

    def num_guards(self):
        """Count instructions that may bail out (the pass-trace metric)."""
        return sum(
            1
            for block in self.blocks
            for instruction in block.instructions
            if instruction.is_guard
        )

    # -- surgery ---------------------------------------------------------------------

    def remove_block(self, block):
        """Delete an unreachable block, fixing successors' phi inputs."""
        for successor in block.successors:
            if block in successor.predecessors:
                successor.remove_predecessor(block)
        for phi in list(block.phis):
            block.remove_phi(phi)
        for instruction in list(block.instructions):
            block.remove_instruction(instruction)
        self.blocks.remove(block)

    def compact(self):
        """Remove all blocks unreachable from the entries."""
        reachable = self.reachable_blocks()
        removed = 0
        # Iterate until stable: removing a block may orphan another.
        changed = True
        while changed:
            changed = False
            for block in list(self.blocks):
                if block.id not in reachable and block is not self.entry:
                    self.remove_block(block)
                    removed += 1
                    changed = True
            if changed:
                reachable = self.reachable_blocks()
        return removed

    def release(self):
        """Unlink the graph so that reference counting frees it.

        A MIR graph is reference cycles all through — definition and
        use, block and instruction, block and graph, the edges of every
        loop — so dropping the last reference to one frees nothing until
        the cycle collector runs.  This cuts each kind of cycle once:
        the use lists (leaving operands, which point only backwards
        except through phis), the phis' operands, and each block's
        lists; also in the callee graphs built on the way.  The graph is
        not usable afterwards.
        """
        for callee in self.callee_graphs:
            callee.release()
        for block in self.blocks:
            for phi in block.phis:
                phi.operands.clear()
                phi.uses.clear()
            for instruction in block.instructions:
                instruction.uses.clear()
            block.phis.clear()
            block.instructions.clear()
            block.predecessors.clear()
        self.blocks.clear()
        self.entry = self.osr_entry = None

    def __repr__(self):
        return "<MIRGraph %s (%d blocks, %d defs)>" % (
            self.code.name,
            len(self.blocks),
            self._next_def_id,
        )
