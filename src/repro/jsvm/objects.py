"""Heap objects: plain objects and arrays — with hidden-class shapes.

Objects are property maps; arrays add a dense element store.  The JIT's
``checkarray`` (bounds check), ``ld`` and ``st`` MIR instructions
operate directly on :class:`JSArray` element stores, matching how the
paper's Figure 6 accesses ``s[i]``.

Every object additionally carries a :class:`Shape` — a node in the
transition tree of the :class:`~repro.jsvm.runtime.Runtime` that
allocated it (``runtime.shapes``), describing *which* properties the
object has, in insertion order.  Two objects built by the same code
path share a shape, so a single integer comparison (``shape.shape_id``)
stands in for "same property layout": the inline caches in the
interpreter and the ``guardshape`` LIR op in the JIT key on it.  Shape
ids are assigned in creation order from the tree's root (id 0).  A tree
belongs to exactly one runtime and every object starts from that
tree's root, so the numbering is a pure function of the guest program
the runtime executes — identical across executor backends, cache-cold
vs cache-warm runs, separate processes, and whatever other engines the
process holds — which makes ids safe to embed in persisted binaries and
compare in stats.
"""

import weakref

from repro.jsvm.values import UNDEFINED, normalize_number
from repro.errors import JSRangeError


class Shape(object):
    """One node of the hidden-class transition tree.

    A shape records the ordered property set of the objects that carry
    it.  ``transitions`` maps a property name to the child shape an
    add reaches; deleted layouts get their own nodes too (keyed in
    ``deletions``), so delete is not a silent wildcard — an object that
    loses a property moves to a distinct, equally cacheable shape.

    Because ``names`` is immutable, the *slot offset* of a property
    under a given shape is a compile-time constant: ``offset_of`` is
    what lets the executor backends replace a guarded name lookup with
    a direct index into the object's slot vector.
    """

    __slots__ = (
        "ids", "shape_id", "names", "transitions", "deletions", "_offsets", "__weakref__"
    )

    def __init__(self, ids, names):
        #: The :class:`ShapeIds` of the tree this shape belongs to;
        #: transitions out of it allocate their ids there.  It owns no
        #: shape, so the pointer pins nothing: a shape is owned by its
        #: parent's transition table, the root by the tree.
        self.ids = ids
        self.shape_id = ids.register(self)
        self.names = names
        self.transitions = {}
        self.deletions = {}
        self._offsets = None

    def offset_of(self, name):
        """Slot index of ``name`` under this shape, or None.

        Shapes are immutable, so the answer never changes: backends may
        bake it into generated code guarded by this shape's id.
        """
        offsets = self._offsets
        if offsets is None:
            offsets = self._offsets = {
                slot_name: index for index, slot_name in enumerate(self.names)
            }
        return offsets.get(name)

    def transition_add(self, name):
        """The child shape after adding ``name``; created on demand."""
        child = self.transitions.get(name)
        if child is None:
            child = self.transitions[name] = Shape(self.ids, self.names + (name,))
        return child

    def transition_delete(self, name):
        """The child shape after deleting ``name``; created on demand."""
        child = self.deletions.get(name)
        if child is None:
            names = tuple(n for n in self.names if n != name)
            child = self.deletions[name] = Shape(self.ids, names)
        return child

    def __repr__(self):
        return "<Shape %d {%s}>" % (self.shape_id, ", ".join(self.names))


class ShapeIds(object):
    """One tree's deterministic id numbering, shared by all its shapes.

    Ids count up from the root's 0 in creation order.  ``by_id`` is
    every live shape keyed by id — the JIT resolves the ids recorded in
    inline caches back to layouts at codegen time
    (:func:`common_slot_offset`) — and holds its shapes *weakly*:
    every shape points here, so a strong table would make each shape
    part of a reference cycle and leave a finished runtime's tree to the
    cycle collector.
    """

    __slots__ = ("next_id", "by_id")

    def __init__(self):
        self.next_id = 0
        self.by_id = weakref.WeakValueDictionary()

    def register(self, shape):
        """Issue the next id to ``shape``."""
        shape_id = self.next_id
        self.next_id = shape_id + 1
        self.by_id[shape_id] = shape
        return shape_id


class ShapeTree(object):
    """One runtime's transition tree: the root, and the id numbering.

    Because guest programs create properties deterministically, the
    numbering is a pure function of the executed guest code — the
    property that lets shape ids round-trip through the persistent code
    cache and stay bit-identical across backends.  The tree owns the
    root, each shape owns its children, and every :class:`Shape` shares
    the tree's :class:`ShapeIds`, so an id is only ever resolved in the
    id space it was allocated from.
    """

    __slots__ = ("root", "ids", "__weakref__")

    def __init__(self):
        self.ids = ShapeIds()
        self.root = Shape(self.ids, ())

    @property
    def next_id(self):
        return self.ids.next_id

    @property
    def by_id(self):
        return self.ids.by_id


def common_slot_offset(tree, shape_ids, name):
    """Slot offset of ``name`` shared by every ``tree`` shape in ``shape_ids``.

    The codegen backends call this when emitting a ``loadprop`` or
    ``storeprop`` protected by a ``guardshape`` over ``shape_ids``: a
    non-None result means every admissible layout stores ``name`` at
    the same index, so the guarded access compiles to a constant-offset
    slot read/write with no name lookup at all.  Returns None when the
    shapes disagree, when any shape lacks the property (a store that
    transitions), or when an id is unknown to ``tree`` (a binary thawed
    before this run created the shape) — all of which fall back to the
    generic named path, never to wrong code: the result is only ever
    used under the matching shape guard, and shapes are immutable.
    """
    offset = None
    by_id = tree.by_id
    for shape_id in shape_ids:
        shape = by_id.get(shape_id)
        if shape is None:
            return None
        this_offset = shape.offset_of(name)
        if this_offset is None:
            return None
        if offset is None:
            offset = this_offset
        elif this_offset != offset:
            return None
    return offset


class JSObject(object):
    """A plain JavaScript object: shape-indexed slot storage.

    Property values live in ``slots``, a list parallel to the shape's
    ``names`` tuple — the property at ``shape.names[i]`` is stored at
    ``slots[i]``.  The shape *is* the property map: name lookups go
    through the shape's cached offset table, and JIT code that has
    already guarded the shape skips even that, indexing ``slots``
    directly at a baked-in constant offset.
    """

    __slots__ = ("slots", "shape")

    def __init__(self, root, properties=None):
        #: ``root`` is the root shape of the allocating runtime's tree.
        self.shape = root
        self.slots = []
        if properties:
            for name, value in properties.items():
                self.set(name, value)

    @property
    def properties(self):
        """The property map as a dict (diagnostics / generic callers)."""
        return dict(zip(self.shape.names, self.slots))

    def get(self, name):
        """Read property ``name``; missing properties read as undefined."""
        # Inlined Shape.offset_of — property reads are the hottest
        # object operation and the extra method call is measurable.
        shape = self.shape
        offsets = shape._offsets
        if offsets is None:
            offsets = shape._offsets = {
                slot_name: index for index, slot_name in enumerate(shape.names)
            }
        offset = offsets.get(name)
        if offset is None:
            return UNDEFINED
        return self.slots[offset]

    def set(self, name, value):
        """Write property ``name``, transitioning shape on a new key."""
        shape = self.shape
        offset = shape.offset_of(name)
        if offset is None:
            self.shape = shape.transition_add(name)
            self.slots.append(value)
        else:
            self.slots[offset] = value

    def has(self, name):
        """True when the object owns property ``name``."""
        return self.shape.offset_of(name) is not None

    def delete(self, name):
        """Remove property ``name``, transitioning shape if it existed."""
        shape = self.shape
        offset = shape.offset_of(name)
        if offset is not None:
            del self.slots[offset]
            self.shape = shape.transition_delete(name)

    def __repr__(self):
        inner = ", ".join(
            "%s: %r" % kv for kv in sorted(zip(self.shape.names, self.slots))
        )
        return "{%s}" % inner


class JSArray(JSObject):
    """A JavaScript array with a dense element store.

    Out-of-bounds reads return ``undefined`` (JS semantics); the JIT
    relies on explicit bounds checks to stay on the fast path, and the
    bounds-check-elimination pass (paper §3.6) removes those checks when
    range analysis proves the index in ``[0, length)``.
    """

    __slots__ = ("elements",)

    def __init__(self, root, elements=None):
        super().__init__(root)
        self.elements = list(elements) if elements is not None else []

    @property
    def length(self):
        return len(self.elements)

    def get_element(self, index):
        """Read ``a[index]``.  Non-integer or out-of-range → undefined."""
        if type(index) is float:
            if not index.is_integer():
                return UNDEFINED
            index = int(index)
        if type(index) is not int:
            return UNDEFINED
        if 0 <= index < len(self.elements):
            return self.elements[index]
        return UNDEFINED

    def set_element(self, index, value):
        """Write ``a[index] = value``, growing the array with holes."""
        if type(index) is float:
            if not index.is_integer():
                raise JSRangeError("non-integer array index: %r" % index)
            index = int(index)
        if index < 0:
            raise JSRangeError("negative array index: %d" % index)
        if index >= len(self.elements):
            self.elements.extend([UNDEFINED] * (index + 1 - len(self.elements)))
        self.elements[index] = value

    def set_length(self, new_length):
        """Implement assignment to ``a.length``."""
        if type(new_length) is float and new_length.is_integer():
            new_length = int(new_length)
        if type(new_length) is not int or new_length < 0:
            raise JSRangeError("invalid array length: %r" % (new_length,))
        if new_length < len(self.elements):
            del self.elements[new_length:]
        else:
            self.elements.extend([UNDEFINED] * (new_length - len(self.elements)))

    def push(self, value):
        self.elements.append(value)
        return normalize_number(len(self.elements))

    def pop(self):
        if not self.elements:
            return UNDEFINED
        return self.elements.pop()

    def get(self, name):
        if name == "length":
            return len(self.elements)
        return super().get(name)

    def set(self, name, value):
        if name == "length":
            self.set_length(value)
        else:
            super().set(name, value)

    def __repr__(self):
        return "[%s]" % ", ".join(repr(e) for e in self.elements)
