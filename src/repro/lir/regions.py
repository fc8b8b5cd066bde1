"""Stage 1 of the whole backend: the shape of one binary's control flow.

Everything :mod:`repro.lir.skeleton` needs to know about a binary's
control-flow graph is computed here, once, into a :class:`Regions`
value before any text is emitted: the region partition and which of it
is reachable from the translation roots, the accounting tables, the
trampoline regions and where each jump resolves through them, the
nesting of natural loops, and which locations must be pre-set to
undefined.  Nothing here reads the host-type map or writes text.

Guardrail: a :class:`Regions` is a pure function of the native stream,
the roots and whether the translation is chaos-instrumented; the
emitter only reads it.
"""

from repro.lir.hostcode import TERMINATORS, accounting_tables, block_bodies

#: Deepest ``while`` nesting the loop tree may materialize.  CPython's
#: compiler refuses functions with more than 20 statically nested
#: blocks (``CO_MAXBLOCKS``), and the generated function already
#: spends two on its ``try`` and redispatch loop.  Loops past the cap
#: are emitted as flat region arms: their back edges ``continue`` the
#: nearest materialized enclosing loop and re-dispatch from there —
#: the nesting is a pure optimization, so only speed is lost.
MAX_LOOP_DEPTH = 14


def region_labels(native):
    """Leaders that start an addressable region: the entry, the OSR
    entry, and every jump target.  This is the closure backend's block
    partition minus its post-terminator leaders (a block that follows a
    terminator and is not a jump target can never execute), so region
    bodies — and the per-region accounting tables — coincide with the
    per-block ones.  It is a *partition*, not a reachability claim: a
    jump target may itself sit in dead code; :class:`Regions` keeps the
    regions that are actually translated.
    """
    labels = set(entries(native))
    for instruction in native.instructions:
        if instruction.targets is not None:
            labels.update(instruction.targets)
    return sorted(
        label for label in labels if 0 <= label < len(native.instructions)
    )


def entries(native):
    """Both entry points of ``native`` (the OSR one only if present)."""
    if native.osr_index is None:
        return (native.entry_index,)
    return (native.entry_index, native.osr_index)


def translation_roots(native, executor):
    """Entry points the translation of ``native`` is rooted at.

    Only regions reachable from a root are translated.  A script's code
    object is run once by ``Interpreter.run_code`` and never reaches
    ``Engine.try_native_call``, so its binary — compiled at a loop back
    edge — is only ever entered at the OSR entry, and everything
    reachable from ``entry_index`` alone (the script's whole
    straight-line prologue) is dead.  Function binaries keep both
    entries; so does any chaos-instrumented translation, whose injector
    addresses instructions by index.

    The store path (:func:`~repro.lir.wholefn.whole_artifact`) and the
    run path (:meth:`~repro.lir.wholefn.WholeExecutor.run`) both get
    their roots here, so the module persisted at store time is rooted
    where a warm load asks (a link record names its roots; other roots
    refuse it).
    """
    if (
        native.code.is_script
        and native.osr_index is not None
        and executor.fault_injector is None
    ):
        return (native.osr_index,)
    return entries(native)


def _region_successors(instructions, body, labels):
    """Labels control can reach from the region ``body``: its
    terminator's targets, or the label it falls through into."""
    last = instructions[body[-1]]
    if last.op in TERMINATORS:
        return last.targets or ()
    fall = body[-1] + 1
    return (fall,) if fall in labels else ()


def _reachable_labels(instructions, bodies, roots):
    """The labels of ``bodies`` reachable from ``roots``, sorted."""
    seen = set(roots)
    work = list(roots)
    while work:
        for target in _region_successors(instructions, bodies[work.pop()], bodies):
            if target in bodies and target not in seen:
                seen.add(target)
                work.append(target)
    return sorted(seen)


class Regions(object):
    """The regions of one translation and everything derived from them.

    - ``bodies``: ``{label: [instruction indices]}`` for the translated
      regions (those reachable from ``roots``), in label order;
    - ``counts``, ``sums``, ``prefix``: the accounting tables, filled for
      the translated labels only (``prefix[label]`` is None elsewhere);
    - ``resolved``: ``{label: (splice, final, ret_src)}`` for every
      translated label, through the trampoline regions
      (:func:`_trampolines`, :meth:`resolve`);
    - ``items``: the loop tree over the labels the dispatch chain keeps
      (:func:`_loop_tree`);
    - ``init_reads``: the locations pre-set to undefined on entry
      (:func:`_init_reads`).
    """

    def __init__(self, native, roots, inject):
        instructions = native.instructions
        self.size = len(instructions)
        self.roots = roots
        partition = block_bodies(native, region_labels(native))
        labels = _reachable_labels(instructions, partition, roots)
        self.bodies = bodies = dict((label, partition[label]) for label in labels)
        translated_entries = [pc for pc in entries(native) if pc in bodies]
        self.counts, self.sums, self.prefix = accounting_tables(native, bodies)
        trivial = {} if inject else _trampolines(instructions, bodies)
        self.resolved = dict((label, _resolve(trivial, label)) for label in labels)
        # Trampolines are inlined at every jump to them, so they leave
        # the dispatch chain — except the translated entries (dispatched
        # by pc at call time) and any cycle-stopping label a resolution
        # targets.
        kept = set(label for label in labels if label not in trivial)
        kept.update(translated_entries)
        kept.update(final for _, final, _ in self.resolved.values() if final is not None)
        self.items = _loop_tree(
            instructions, self, [label for label in labels if label in kept]
        )
        self.init_reads = _init_reads(instructions, labels, bodies, translated_entries)

    def resolve(self, target):
        """``(splice, final, ret_src)`` for a jump to ``target``: the
        trampoline labels to inline at the jump site (in execution
        order), then either the label to dispatch to (``ret_src`` None)
        or the location to return (``final`` None)."""
        resolved = self.resolved.get(target)
        return ((), target, None) if resolved is None else resolved


def _trampolines(instructions, bodies):
    """Map of *trivial* regions: pure move runs ending in a jump.

    The lowering splits critical edges into tiny phi-resolution
    regions — a few register moves and a ``goto`` (or ``return``)
    — and places them at the *bottom* of the binary.  Dispatching
    to them is pure overhead, and worse, it makes every back edge
    look like it originates at the end of the instruction stream,
    fusing all loop intervals into one giant nest.  These regions
    are instead inlined at their jump sites (they cannot fault, so
    charging their region constant at the splice point is exact),
    and the loop tree is computed over the *effective* edges.
    Chaos-instrumented translations skip the whole scheme: the
    injector addresses trampoline instructions by index, so they
    must stay dispatchable.
    """
    trivial = {}
    for label, body in bodies.items():
        if any(instructions[i].op != "move" for i in body[:-1]):
            continue
        terminator = instructions[body[-1]]
        if terminator.op == "goto":
            trivial[label] = ("goto", terminator.targets[0])
        elif terminator.op == "return":
            trivial[label] = ("return", terminator.srcs[0])
    return trivial


def _resolve(trivial, target):
    """Resolve a jump to ``target`` through the ``trivial`` regions
    (:meth:`Regions.resolve`).  A cyclic trampoline chain (an empty
    guest infinite loop) stops at the first revisited label, which
    stays dispatchable."""
    splice = []
    seen = set()
    cur = target
    while True:
        kind_target = trivial.get(cur)
        if kind_target is None:
            return (tuple(splice), cur, None)
        if cur in seen:
            if cur in splice:
                splice = splice[: splice.index(cur)]
            return (tuple(splice), cur, None)
        seen.add(cur)
        splice.append(cur)
        kind, where = kind_target
        if kind == "return":
            return (tuple(splice), None, where)
        cur = where


def _loop_tree(instructions, regions, labels):
    """Group the region sequence into a tree of natural loops.

    A back edge from region ``L`` to target ``T <= L`` makes ``T``
    a loop header whose interval spans the labels ``[T, max L]``.
    Edges are the *effective* ones — jump targets resolved through
    inlined trampolines, including the fallthrough into a
    trampoline — so phi-resolution regions at the bottom of the
    binary do not stretch every interval.  Crossing intervals
    (irreducible flow) are merged by extension until the set
    nests, then the label sequence is folded into items:
    ``("region", label)`` or ``("loop", header, end, sub)``.
    """
    bodies = regions.bodies
    intervals = {}
    for label in labels:
        for target in _region_successors(instructions, bodies[label], bodies):
            _splice, final, _ret = regions.resolve(target)
            if final is None:
                continue
            if final <= label:
                end = intervals.get(final)
                if end is None or label > end:
                    intervals[final] = label
    changed = True
    while changed:
        changed = False
        headers = sorted(intervals)
        for position, header in enumerate(headers):
            for other in headers[position + 1 :]:
                if other <= intervals[header] < intervals[other]:
                    intervals[header] = intervals[other]
                    changed = True
    return _fold_items(labels, intervals, frozenset(), 1)


def _fold_items(labels, intervals, open_headers, depth):
    items = []
    position = 0
    total = len(labels)
    while position < total:
        label = labels[position]
        if (
            label in intervals
            and label not in open_headers
            and depth < MAX_LOOP_DEPTH
        ):
            end = intervals[label]
            stop = position
            while stop < total and labels[stop] <= end:
                stop += 1
            sub = _fold_items(
                labels[position:stop], intervals, open_headers | {label}, depth + 1
            )
            items.append(("loop", label, end, sub))
            position = stop
        else:
            items.append(("region", label))
            position += 1
    return items


def _init_reads(instructions, labels, bodies, entries):
    """Locations that must be pre-set to undefined on entry.

    The other backends allocate a value array initialized to
    undefined, so any location can be read (a snapshot naming a
    not-yet-assigned guest local, a merge where only one branch
    writes).  Materializing that as a per-call assignment chain over
    *every* read location would tax small hot functions, so a
    definitely-assigned forward dataflow over the region graph
    prunes it: a location needs the ``_UNDEF`` init only if some
    region can read it (as a source or a snapshot reconstruction
    value) without every path from an entry having written it
    first.  Reads of immediates are literals and never counted.
    ``labels`` are the translated regions and ``entries`` the entry
    points among them (every label is reachable from one).
    """
    exposed = {}
    writes = {}
    successors = {}
    for label in labels:
        body = bodies[label]
        written = set()
        naked = set()
        for index in body:
            instruction = instructions[index]
            for loc in instruction.srcs:
                if loc >= 0 and loc not in written:
                    naked.add(loc)
            if instruction.snapshot is not None:
                for loc in instruction.snapshot.locations:
                    if loc >= 0 and loc not in written:
                        naked.add(loc)
            dest = instruction.dest
            if dest is not None and dest >= 0:
                written.add(dest)
        exposed[label] = naked
        writes[label] = written
        successors[label] = _region_successors(instructions, body, bodies)

    # Definitely-assigned-on-entry per region: intersection over
    # predecessors, empty at the function entries.
    assigned = dict((entry, set()) for entry in entries)
    changed = True
    while changed:
        changed = False
        for label in labels:
            if label not in assigned:
                continue
            flowing = assigned[label] | writes[label]
            for target in successors[label]:
                known = assigned.get(target)
                if known is None:
                    assigned[target] = set(flowing)
                    changed = True
                elif not known <= flowing:
                    known &= flowing
                    changed = True

    needs = set()
    for label in labels:
        needs |= exposed[label] - assigned[label]
    return sorted(needs)
