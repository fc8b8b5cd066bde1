"""Linear-scan register allocation (Poletto–Sarkar style).

The simulated target has eight general-purpose registers.  Liveness is
computed with a standard backward dataflow over the linearized LIR
(loops handled by iteration), live intervals are built per virtual
register, and the linear scan assigns registers, spilling the interval
with the furthest end point to a stack slot when pressure exceeds the
register file.

Snapshot (bailout-metadata) references count as uses: a value the
interpreter would need after a bailout must survive in *some* location
until its guard executes.  This is the register-pressure cost of
guards — and why parameter specialization, which deletes parameter
values and guards wholesale, "improves the time of the register
allocator, given that it reduces register pressure substantially"
(paper §4).
"""

NUM_REGS = 8


class _Region(object):
    """One straight-line region of the LIR stream (a lowered block)."""

    __slots__ = ("block_id", "start", "end", "successor_ids", "live_in", "live_out")

    def __init__(self, block_id, start, end):
        self.block_id = block_id
        self.start = start
        self.end = end  # exclusive
        self.successor_ids = []
        self.live_in = set()
        self.live_out = set()


def _build_regions(lir):
    starts = sorted(lir.block_starts.items(), key=lambda item: item[1])
    regions = []
    for index, (block_id, start) in enumerate(starts):
        end = starts[index + 1][1] if index + 1 < len(starts) else len(lir.instructions)
        regions.append(_Region(block_id, start, end))
    by_id = {region.block_id: region for region in regions}
    for region in regions:
        if region.end == region.start:
            # Empty region: falls through to the next one.
            continue
        last = lir.instructions[region.end - 1]
        if last.targets is not None:
            region.successor_ids = list(last.targets)
        elif last.op != "return":
            # Fallthrough (shouldn't happen in well-formed streams, but
            # stay conservative).
            position = regions.index(region)
            if position + 1 < len(regions):
                region.successor_ids = [regions[position + 1].block_id]
    return regions, by_id


def _instruction_uses(instruction):
    """Virtual registers an instruction reads (immediates excluded).

    After immediate folding some sources are ``("imm", index)`` tuples
    — baked-in constants that never occupy a register.
    """
    uses = [vreg for vreg in instruction.srcs if type(vreg) is int]
    if instruction.snapshot is not None:
        uses.extend(vreg for vreg in instruction.snapshot.vregs if type(vreg) is int)
    return uses


def _compute_liveness(regions, by_id, defs_uses):
    """Backward liveness fixpoint over the region graph.

    ``defs_uses`` is the per-position ``(dest, uses)`` table.  Each
    region's transfer function ``live_in = gen ∪ (live_out − kill)`` is
    precomputed once (gen = upward-exposed uses, kill = definitions),
    so fixpoint rounds are pure set operations instead of re-walking
    every instruction's operand lists each iteration.
    """
    transfers = []
    for region in regions:
        gen = set()
        kill = set()
        for position in range(region.end - 1, region.start - 1, -1):
            dest, uses = defs_uses[position]
            if dest is not None:
                kill.add(dest)
                gen.discard(dest)
            for use in uses:
                gen.add(use)
        transfers.append((region, gen, kill))
    transfers.reverse()
    changed = True
    while changed:
        changed = False
        for region, gen, kill in transfers:
            live_out = set()
            for successor_id in region.successor_ids:
                successor = by_id.get(successor_id)
                if successor is not None:
                    live_out |= successor.live_in
            live = gen | (live_out - kill)
            if live_out != region.live_out or live != region.live_in:
                region.live_out = live_out
                region.live_in = live
                changed = True
    return regions


class Interval(object):
    """Live interval of one virtual register over linear positions."""

    __slots__ = ("vreg", "start", "end")

    def __init__(self, vreg, start, end):
        self.vreg = vreg
        self.start = start
        self.end = end

    def __repr__(self):
        return "v%d:[%d,%d]" % (self.vreg, self.start, self.end)


def snapshot_only_vregs(lir):
    """Virtual registers referenced *only* by guard snapshots.

    These values exist purely so a bailout can rebuild the interpreter
    frame; they are never read on the fast path.  A real engine keeps
    them in spill slots without letting them compete for registers —
    we do the same (they are written once and read only by the bailout
    machinery, which is off the cycle-counted fast path).
    """
    real = set()
    snap = set()
    for instruction in lir.instructions:
        for vreg in instruction.srcs:
            if type(vreg) is int:
                real.add(vreg)
        if instruction.snapshot is not None:
            snap.update(v for v in instruction.snapshot.vregs if type(v) is int)
    return snap - real


def build_intervals(lir):
    """Compute one conservative live interval per virtual register."""
    regions, by_id = _build_regions(lir)
    defs_uses = [
        (instruction.dest, _instruction_uses(instruction))
        for instruction in lir.instructions
    ]
    _compute_liveness(regions, by_id, defs_uses)
    ranges = {}

    def extend(vreg, start, end):
        found = ranges.get(vreg)
        if found is None:
            ranges[vreg] = [start, end]
        else:
            if start < found[0]:
                found[0] = start
            if end > found[1]:
                found[1] = end

    for region in regions:
        for vreg in region.live_out:
            extend(vreg, region.start, region.end)
        for position in range(region.end - 1, region.start - 1, -1):
            dest, uses = defs_uses[position]
            if dest is not None:
                extend(dest, position, position)
            for use in uses:
                extend(use, region.start, position)
    intervals = [Interval(vreg, span[0], span[1]) for vreg, span in ranges.items()]
    intervals.sort(key=lambda interval: (interval.start, interval.end))
    return intervals


class Allocation(object):
    """Result of register allocation."""

    def __init__(self, locations, num_slots, num_intervals, num_spills):
        #: vreg -> location (0..NUM_REGS-1 registers, >=NUM_REGS slots).
        self.locations = locations
        self.num_slots = num_slots
        self.num_intervals = num_intervals
        self.num_spills = num_spills

    def location_of(self, vreg):
        return self.locations[vreg]


def _move_hints(lir):
    """Copy-coalescing hints: vregs connected by ``move``s prefer to
    share a register, which turns the move into a no-op the code
    generator deletes.  Phi webs (loop-carried variables) are exactly
    such chains."""
    hints = {}
    for instruction in lir.instructions:
        if instruction.op != "move" or not instruction.srcs:
            continue
        src = instruction.srcs[0]
        dest = instruction.dest
        if type(src) is not int or dest is None:
            continue
        hints.setdefault(dest, []).append(src)
        hints.setdefault(src, []).append(dest)
    return hints


def allocate_registers(lir):
    """Run linear scan over ``lir``; returns an :class:`Allocation`."""
    intervals = build_intervals(lir)
    locations = {}
    active = []  # sorted by end
    free_registers = list(range(NUM_REGS))
    next_slot = NUM_REGS
    spills = 0
    hints = _move_hints(lir)

    # Bailout-snapshot-only values go straight to slots; they never
    # compete with fast-path values for registers.
    shadow = snapshot_only_vregs(lir)
    remaining = []
    for interval in intervals:
        if interval.vreg in shadow:
            locations[interval.vreg] = next_slot
            next_slot += 1
        else:
            remaining.append(interval)
    intervals = remaining

    def pick_register(vreg):
        """Prefer a hint partner's register when it is free."""
        for partner in hints.get(vreg, ()):
            partner_location = locations.get(partner)
            if partner_location is not None and partner_location in free_registers:
                free_registers.remove(partner_location)
                return partner_location
        return free_registers.pop()

    for interval in intervals:
        # Expire intervals that end where this one starts: sources are
        # read before the destination is written, so an interval whose
        # last use *is* this definition's instruction can hand over its
        # register (this is what lets move coalescing fire on the
        # adjacent intervals of a phi web).
        still_active = []
        for old in active:
            if old.end <= interval.start:
                location = locations[old.vreg]
                if location < NUM_REGS:
                    free_registers.append(location)
            else:
                still_active.append(old)
        active = still_active

        if free_registers:
            locations[interval.vreg] = pick_register(interval.vreg)
            active.append(interval)
            active.sort(key=lambda item: item.end)
        else:
            # Classic Poletto–Sarkar choice: spill the interval with
            # the furthest end point.
            victim = active[-1]
            if victim.end > interval.end:
                locations[interval.vreg] = locations[victim.vreg]
                locations[victim.vreg] = next_slot
                next_slot += 1
                active.pop()
                active.append(interval)
                active.sort(key=lambda item: item.end)
            else:
                locations[interval.vreg] = next_slot
                next_slot += 1
            spills += 1

    # Virtual registers that never appeared (dead defs) get slots so
    # lookups stay total.
    for vreg in range(lir.num_vregs):
        if vreg not in locations:
            locations[vreg] = next_slot
            next_slot += 1

    return Allocation(locations, next_slot - NUM_REGS, len(intervals), spills)
