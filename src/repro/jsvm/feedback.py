"""Type feedback: the profiling data the JIT speculates on.

IonMonkey leans on SpiderMonkey's type inference [Hackett & Shu 2012]
to know which unbox guards and type barriers to emit.  Our analogue is
call-site recording done by the interpreter once the engine attaches a
:class:`TypeFeedback` to a hot function's code object:

* argument type tags per parameter slot,
* result type tags per bytecode site (element/property/global loads
  and calls).

The MIR builder turns monomorphic observations into typed unbox guards;
polymorphic sites stay boxed and generic.  Bailouts feed the observed
type back in, so recompilation stops speculating at that site.
"""

from repro.jsvm.values import type_tag

#: Sites never get more tags recorded than this; beyond it they are
#: treated as "anything" (megamorphic).
MAX_TAGS_PER_SITE = 4

#: Inline caches hold at most this many receiver shapes before the
#: site degrades to megamorphic (the classic PIC chain length).
MAX_IC_SHAPES = MAX_TAGS_PER_SITE

#: Sentinel stored in ``shape_ics`` once a site has overflowed: the
#: site is megamorphic and records (and speculates on) nothing further.
MEGAMORPHIC = "megamorphic"

#: Distinct call shapes (the exact Python type of each argument) one
#: :class:`TypeFeedback` remembers having recorded; past it, calls of
#: new shapes simply take the full walk every time.
MAX_SEEN_CALL_SHAPES = 16

#: Key marking "a recorded call shape ends here" in the seen-shapes trie
#: (every other key is a type).
_SHAPE_END = None


def shape_ic_fingerprint(shape_ics):
    """Canonical snapshot of a per-site shape inline-cache table.

    Sites are sorted by pc, but each site's shape-id list keeps its
    recording order — the builder bakes the ids into ``guardshape``
    extras in exactly that order, so two ICs holding the same shapes
    in a different order are different compiles.  A megamorphic site
    fingerprints as its sentinel string.  This is both a component of
    the disk-cache content key (``cache/disk.py``) and, stamped into
    ``native.meta["ic_fingerprint"]``, the engine's retrain-noop
    detector (docs/DEOPTLESS.md).
    """
    return tuple(
        sorted(
            (pc, entries if isinstance(entries, str) else tuple(entries))
            for pc, entries in shape_ics.items()
        )
    )


class TypeFeedback(object):
    """Per-code-object profile of observed types."""

    __slots__ = (
        "arg_tags",
        "site_tags",
        "recv_tags",
        "shape_ics",
        "_seen_calls",
        "_seen_count",
        "__weakref__",
    )

    def __init__(self, num_params):
        self.arg_tags = [set() for _ in range(num_params)]
        self.site_tags = {}
        #: Receiver types observed at element/property access sites.
        self.recv_tags = {}
        #: Per-site inline caches: pc -> ordered list of receiver shape
        #: ids (mono/poly), or :data:`MEGAMORPHIC` once overflowed.
        self.shape_ics = {}
        #: Call shapes :meth:`record_args` has already walked, as a trie
        #: of exact types: ``type(args[0])`` → ``type(args[1])`` → … →
        #: ``_SHAPE_END``.
        self._seen_calls = {}
        self._seen_count = 0

    # -- recording (called from the interpreter's hot loop) -----------------

    def record_args(self, args):
        """Record one call's argument tags.

        Runs for every guest call for the function's whole lifetime, and
        almost every call repeats a shape already recorded.  Tag sets
        only grow, and a tag is a function of the value's exact Python
        type — except for an ``int``, which tags ``double`` outside the
        int32 range — so a call whose types were all walked before, with
        every int in range, cannot add anything: one pass over the
        arguments establishes that and returns.  Anything else takes
        :meth:`_walk_args`.
        """
        node = self._seen_calls
        for value in args:
            kind = type(value)
            if kind is int and not -2147483648 <= value <= 2147483647:
                break
            node = node.get(kind)
            if node is None:
                break
        else:
            if _SHAPE_END in node:
                return
        self._walk_args(args)

    def _walk_args(self, args):
        """The full recording walk; remembers the call's shape after it."""
        nargs = len(args)
        tag = type_tag
        index = 0
        # Numeric tags are computed inline: arguments are overwhelmingly
        # numbers.
        for slot in self.arg_tags:
            if len(slot) < MAX_TAGS_PER_SITE:
                if index < nargs:
                    value = args[index]
                    kind = type(value)
                    if kind is int:
                        slot.add(
                            "int" if -2147483648 <= value <= 2147483647 else "double"
                        )
                    elif kind is float:
                        slot.add("double")
                    else:
                        slot.add(tag(value))
                else:
                    slot.add("undefined")
            index += 1
        if self._seen_count < MAX_SEEN_CALL_SHAPES:
            node = self._seen_calls
            for value in args:
                kind = type(value)
                if kind is int and not -2147483648 <= value <= 2147483647:
                    # Its tag was ``double``; an in-range int of the
                    # same shape would still add ``int``.
                    return
                node = node.setdefault(kind, {})
            if _SHAPE_END not in node:
                node[_SHAPE_END] = True
                self._seen_count += 1

    def record_site(self, pc, value):
        tags = self.site_tags.get(pc)
        if tags is None:
            tags = set()
            self.site_tags[pc] = tags
        if len(tags) < MAX_TAGS_PER_SITE:
            tags.add(type_tag(value))

    def record_recv(self, pc, value):
        tags = self.recv_tags.get(pc)
        if tags is None:
            tags = set()
            self.recv_tags[pc] = tags
        if len(tags) < MAX_TAGS_PER_SITE:
            tags.add(type_tag(value))

    def record_shape(self, pc, shape_id):
        """Feed one receiver shape into the site's inline cache.

        Returns the IC outcome, which the interpreter turns into an
        ``ic.*`` trace event:

        * ``"hit"`` — the shape was already cached;
        * ``"transition"`` — the IC learned it (including the final
          learning step that tips the site into megamorphic);
        * ``"miss"`` — the site is megamorphic; nothing is recorded.
        """
        entries = self.shape_ics.get(pc)
        if entries is None:
            self.shape_ics[pc] = [shape_id]
            return "transition"
        if entries is MEGAMORPHIC:
            return "miss"
        if shape_id in entries:
            return "hit"
        if len(entries) < MAX_IC_SHAPES:
            entries.append(shape_id)
            return "transition"
        self.shape_ics[pc] = MEGAMORPHIC
        return "transition"

    def shape_record_would_change(self, pc, shape_id):
        """Whether :meth:`record_shape` at ``pc`` would alter the IC.

        False only when the recording is provably a no-op: the site is
        already megamorphic, or ``shape_id`` is already cached there.
        Unknown sites and an unknown shape (``None``) conservatively
        report True.  The engine's shape-retrain path uses this to
        skip discarding a binary the enriched IC would reproduce
        bit-identically (``retrain_noops`` in docs/STATS.md).
        """
        if shape_id is None:
            return True
        entries = self.shape_ics.get(pc)
        if entries is None:
            return True
        if entries is MEGAMORPHIC:
            return False
        return shape_id not in entries

    # -- queries (used by the MIR builder) ------------------------------------

    @staticmethod
    def _monomorphic(tags):
        """Reduce a tag set to a single speculation target, or None.

        ``{int}`` → int; ``{double}`` and ``{int, double}`` → double
        (numbers widen); anything else mixed → None.
        """
        if len(tags) == 1:
            tag = next(iter(tags))
            if tag in ("undefined", "null"):
                return None  # nothing useful to unbox
            return tag
        if tags and tags <= {"int", "double"}:
            return "double"
        return None

    def arg_speculation(self, index):
        if index >= len(self.arg_tags):
            return None
        return self._monomorphic(self.arg_tags[index])

    def site_speculation(self, pc):
        tags = self.site_tags.get(pc)
        if not tags:
            return None
        return self._monomorphic(tags)

    def recv_speculation(self, pc):
        tags = self.recv_tags.get(pc)
        if not tags:
            return None
        return self._monomorphic(tags)

    def ic_state(self, pc):
        """The site's IC state: None, ``"mono"``, ``"poly"`` or ``"mega"``."""
        entries = self.shape_ics.get(pc)
        if entries is None:
            return None
        if entries is MEGAMORPHIC:
            return "mega"
        return "mono" if len(entries) == 1 else "poly"

    def shape_ids(self, pc):
        """The cached shape ids at ``pc``, in observation order.

        Empty for unvisited and megamorphic sites — the builder only
        emits a shape guard when this is non-empty.
        """
        entries = self.shape_ics.get(pc)
        if entries is None or entries is MEGAMORPHIC:
            return ()
        return tuple(entries)
