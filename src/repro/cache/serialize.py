"""Artifact (de)serialization for the persistent code cache.

A cached artifact is a plain-data snapshot of one
:class:`~repro.engine.jit.CompileResult`: the finalized native
instruction stream (physical operand locations, resolved jump targets,
guard snapshots), the immediate pool, the compile-cost inputs (pass
work units, codegen stats, MIR size) and, when the ``whole`` backend
produced one, its link record (:func:`repro.lir.wholefn.whole_artifact`)
— the one persisted module format; the closure backend stores none and
re-translates a thawed binary.  Everything is encoded to structures
:mod:`marshal` handles natively — no pickle, no executable state beyond
the linked module code (which links only while the facts its emitter
read still hold, see :func:`repro.lir.wholefn._link`).

Guest values that appear in artifacts (immediates, specialized-args
metadata, instruction extras) are encoded with a small tagged scheme.
A plain object or array among the compile's inputs
(:func:`repro.cache.disk.compile_inputs`) is stored as a *relocatable
slot* ``("r", p)``, its first position among them, and a load binds
``p`` to the live call's value, as a linker patches an address.
Anything else the scheme cannot represent faithfully — other object
references, live functions — raises :class:`Uncacheable` and the
compile is simply not cached.  Nested
:class:`~repro.jsvm.bytecode.CodeObject` references (the ``lambda``
instruction's payload) are encoded as constant-pool indices and
re-resolved against the live code object at load time, so a thawed
binary creates closures over the *current* run's code objects.

The second artifact is the *program entry*: the bytecode tree of one
source text (:func:`freeze_program` / :func:`thaw_program`), which lets
a cached program skip the lexer, parser, bytecompiler and loop rotation.
"""

import marshal
import zlib

from repro.jsvm.bytecode import CodeObject, Instr
from repro.jsvm.objects import JSArray, JSObject
from repro.jsvm.values import NULL, UNDEFINED
from repro.lir.lir_nodes import LInstruction, Snapshot
from repro.lir.native import NativeCode
from repro.lir.wholefn import checked_link_record


class Uncacheable(Exception):
    """Raised when a value cannot be faithfully serialized.

    The caller treats this as "do not cache this compile" — never as an
    error surfaced to the user.
    """


#: Bump when the artifact layout changes — or when the same key would
#: now name different content (a front-end change moves what a source
#: text's program entry should hold); part of every cache key, so a
#: bump simply misses instead of misreading old entries.
#: v2: added the whole-function backend's module artifact ("whole").
#: v3: guardshape bails carry the observed shape id (changes the
#: generated closure/whole sources) and meta gained "ic_fingerprint".
#: v4: generated newobject/newarray take the runtime's root shape
#: (``_JSObject(_root)``), changing the closure/whole sources.
#: v5: the whole source is one space per nesting level and covers only
#: the regions reachable from the binary's translation roots.
#: v6: the key names a code object by the digest of its fingerprint
#: (nested functions by theirs) instead of embedding the fingerprint.
#: v7: the whole source is host-typed (tests and helper calls the
#: emitter can decide are gone; globals are dict subscripts).
#: v8: a payload opens with its entry kind, and there is a second kind —
#: the program entry (:func:`freeze_program`).
#: v9: the ``whole`` sub-artifact is a link record, with no source text.
#: v10: a plain object or array input is keyed by class and position and
#: stored as a relocatable slot ``("r", p)``.
#: v11: the link record has no ``prices`` (the emitter digest covers the
#: native price list), and the closure backend's module (``"closure"``)
#: is no longer stored — ``whole``'s link record is the one module format.
FORMAT_VERSION = 11

#: The heap classes a cached compile's inputs may hold (exact classes):
#: the key names one by position, the artifact relocates it.
RELOCATABLE = (JSObject, JSArray)

_PRIMITIVES = (int, float, bool, str)


def encode_value(value, code, positions=None):
    """Encode one guest value (or instruction payload) as plain data.

    ``code`` is the function being compiled; nested code objects are
    encoded as indices into its constant pool.  ``positions`` maps the
    ``id`` of each relocatable input to its position (encoded as the
    slot ``("r", position)``).  Raises :class:`Uncacheable` for anything
    else identity-based.
    """
    if value is None:
        return ("n",)
    if value is True or value is False:
        # Before int: bool is an int subtype and marshal keeps the
        # distinction, but tagging explicitly keeps decode trivial.
        return ("b", bool(value))
    kind = type(value)
    if kind in (int, float, str):
        return ("p", value)
    if value is UNDEFINED:
        return ("u",)
    if value is NULL:
        return ("z",)
    if kind is tuple:
        return ("t", [encode_value(item, code, positions) for item in value])
    if kind is list:
        return ("l", [encode_value(item, code, positions) for item in value])
    if kind is dict:
        items = []
        for key in value:
            if type(key) is not str:
                raise Uncacheable("non-string dict key %r" % (key,))
            items.append((key, encode_value(value[key], code, positions)))
        items.sort()
        return ("d", items)
    if kind is CodeObject:
        for index, constant in enumerate(code.constants):
            if constant is value:
                return ("c", index)
        raise Uncacheable("code object %r not in the constant pool" % value.name)
    if positions:
        position = positions.get(id(value))
        if position is not None:
            return ("r", position)
    raise Uncacheable("unserializable value %r" % (value,))


def decode_value(encoded, code, inputs=()):
    """Invert :func:`encode_value` against the live ``code`` object.

    ``inputs`` are the live call's compile inputs, in the order the
    slots were numbered; a slot naming a position they do not have, or
    one that does not hold a relocatable value, raises.
    """
    tag = encoded[0]
    if tag == "n":
        return None
    if tag == "b":
        return encoded[1]
    if tag == "p":
        return encoded[1]
    if tag == "u":
        return UNDEFINED
    if tag == "z":
        return NULL
    if tag == "t":
        return tuple(decode_value(item, code, inputs) for item in encoded[1])
    if tag == "l":
        return [decode_value(item, code, inputs) for item in encoded[1]]
    if tag == "d":
        return {key: decode_value(item, code, inputs) for key, item in encoded[1]}
    if tag == "c":
        return code.constants[encoded[1]]
    if tag == "r":
        position = encoded[1]
        if not 0 <= position < len(inputs) or type(inputs[position]) not in RELOCATABLE:
            raise ValueError("slot %r is no relocatable input of this call" % (position,))
        return inputs[position]
    raise ValueError("unknown value tag %r" % (tag,))


def _encode_snapshot(snapshot):
    if snapshot.locations is None:
        raise Uncacheable("snapshot without located values")
    return (
        snapshot.pc,
        snapshot.mode,
        snapshot.num_args,
        snapshot.num_locals,
        list(snapshot.locations),
        snapshot.snapshot_id,
    )


def _decode_snapshot(encoded):
    pc, mode, num_args, num_locals, locations, snapshot_id = encoded
    snapshot = Snapshot(pc, mode, num_args, num_locals, list(locations))
    snapshot.locations = list(locations)
    snapshot.snapshot_id = snapshot_id
    return snapshot


def _encode_instruction(instruction, code, positions):
    return (
        instruction.op,
        instruction.dest,
        list(instruction.srcs),
        encode_value(instruction.extra, code, positions),
        None if instruction.snapshot is None else _encode_snapshot(instruction.snapshot),
        None if instruction.targets is None else list(instruction.targets),
    )


def _decode_instruction(encoded, code, inputs):
    op, dest, srcs, extra, snapshot, targets = encoded
    return LInstruction(
        op,
        dest=dest,
        srcs=srcs,
        extra=decode_value(extra, code, inputs),
        snapshot=None if snapshot is None else _decode_snapshot(snapshot),
        targets=None if targets is None else list(targets),
    )


def freeze_result(result, code, inputs=()):
    """Encode a :class:`CompileResult` as a plain-data artifact dict.

    ``inputs`` are the compile's input values in key order; a
    relocatable one baked into the binary is stored as its slot.
    Raises :class:`Uncacheable` when any component resists faithful
    serialization (the caller then skips the store).
    """
    native = result.native
    positions = {}
    for position, value in enumerate(inputs):
        if type(value) in RELOCATABLE:
            positions.setdefault(id(value), position)
    return {
        "format": FORMAT_VERSION,
        "fn": code.name,
        "native": {
            "entry_index": native.entry_index,
            "osr_index": native.osr_index,
            "num_slots": native.num_slots,
            "immediates": [encode_value(value, code, positions) for value in native.immediates],
            "meta": encode_value(dict(native.meta), code, positions),
            "instructions": [
                _encode_instruction(instruction, code, positions)
                for instruction in native.instructions
            ],
        },
        "work_units": result.work.total_units,
        "codegen_stats": dict(result.codegen_stats),
        "mir_instructions": result.mir_instructions,
        "whole": None,
    }


class ReplayedPassWork(object):
    """Stand-in for :class:`~repro.opts.pass_manager.PassWork`.

    A thawed artifact only needs the total work units the original
    pass pipeline reported — the engine charges compile cycles from
    ``total_units`` and nothing else — so the per-pass breakdown is
    not persisted.
    """

    __slots__ = ("total_units",)

    def __init__(self, total_units):
        self.total_units = total_units


def thaw_result(artifact, code, inputs=()):
    """Rebuild a :class:`CompileResult` from an artifact dict.

    ``code`` must be the same guest function the artifact was frozen
    from, and ``inputs`` the live call's input values in key order (the
    cache key guarantees both fit): each relocatable slot is bound to
    the value at its position.  A ``whole`` link record is
    checked against the rebuilt stream here
    (:func:`repro.lir.wholefn.checked_link_record`), so a malformed one
    raises — a corrupt entry, a miss — instead of surfacing at the
    binary's first call.
    """
    from repro.engine.jit import CompileResult

    blob = artifact["native"]
    instructions = [
        _decode_instruction(encoded, code, inputs) for encoded in blob["instructions"]
    ]
    native = NativeCode(
        code,
        instructions,
        entry_index=blob["entry_index"],
        osr_index=blob["osr_index"],
        num_slots=blob["num_slots"],
        meta=decode_value(blob["meta"], code, inputs),
        immediates=[decode_value(value, code, inputs) for value in blob["immediates"]],
    )
    whole = artifact.get("whole")
    if whole is not None:
        native.disk_whole = checked_link_record(native, whole)
    return CompileResult(
        native,
        ReplayedPassWork(artifact["work_units"]),
        dict(artifact["codegen_stats"]),
        None,
        mir_instructions=artifact["mir_instructions"],
    )


# -- program entries: the bytecode tree of one source text ---------------------

#: Pool stand-ins for the two guest singletons.  Every other tuple in a
#: frozen pool is a nested code object (the compiler pools no tuples).
_FROZEN_UNDEFINED = ("u",)
_FROZEN_NULL = ("z",)


def _freeze_code(code, base, seen):
    """One code object (and, recursively, its nested ones) as plain data."""
    offset = code.code_id - base
    seen.append(offset)
    instructions = code.instructions
    args = [instr.arg for instr in instructions]
    if not {int, type(None)}.issuperset(map(type, args)):
        raise Uncacheable("operand of %s is not a plain int" % code.name)
    pool = []
    for constant in code.constants:
        kind = type(constant)
        if kind is CodeObject:
            constant = _freeze_code(constant, base, seen)
        elif constant is UNDEFINED:
            constant = _FROZEN_UNDEFINED
        elif constant is NULL:
            constant = _FROZEN_NULL
        elif kind not in _PRIMITIVES:
            raise Uncacheable("constant %r of %s" % (constant, code.name))
        pool.append(constant)
    return (
        code.name,
        code.params,
        code.local_names,
        code.cell_names,
        code.free_names,
        code.names,
        code.uses_this,
        code.is_script,
        code.self_name,
        code.loops_rotated,
        offset,
        [instr.op for instr in instructions],
        args,
        [instr.line for instr in instructions],
        pool,
    )


def freeze_program(root):
    """Encode the sealed code tree under ``root`` as a program artifact.

    Code ids are stored as offsets from the root's, with their count:
    the compiler makes the root first and pools every object it makes,
    so the tree's ids are the block the compile consumed.  Not stored:
    ``feedback``, ``threaded`` and ``fingerprint`` — run-time state that
    a freshly compiled tree does not have either.  Raises
    :class:`Uncacheable` for a tree the encoding would not bring back
    exactly (hand-built operands, ids that are not one block).
    """
    seen = []
    tree = _freeze_code(root, root.code_id, seen)
    if sorted(seen) != list(range(len(seen))):
        raise Uncacheable("code ids of %s are not one compile's" % root.name)
    # Deflated: the streams are one small object per instruction, which
    # marshal spells at 16 bytes each and zlib's fastest level at 2.
    return {
        "format": FORMAT_VERSION,
        "ids": len(seen),
        "code": zlib.compress(marshal.dumps(tree), 1),
    }


def _thaw_code(fields, base, seen):
    """One code object (and, recursively, its nested ones) of a program."""
    (
        name,
        params,
        local_names,
        cell_names,
        free_names,
        names,
        uses_this,
        is_script,
        self_name,
        loops_rotated,
        offset,
        ops,
        args,
        lines,
        pool,
    ) = fields
    if not len(ops) == len(args) == len(lines):
        raise ValueError("ragged instruction streams")
    code = CodeObject(name, params, base + offset)
    code.local_names = local_names
    code.cell_names = cell_names
    code.free_names = free_names
    code.constants = [
        constant
        if type(constant) is not tuple
        else UNDEFINED
        if constant == _FROZEN_UNDEFINED
        else NULL
        if constant == _FROZEN_NULL
        else _thaw_code(constant, base, seen)
        for constant in pool
    ]
    code.names = names
    code.instructions = list(map(Instr, ops, args, lines))
    code.uses_this = uses_this
    code.is_script = is_script
    code.self_name = self_name
    code.loops_rotated = loops_rotated
    code.seal()
    seen.append(offset)
    code.validate()
    return code


def thaw_program(artifact, ids):
    """Rebuild the code tree of a program artifact, as if just compiled.

    Code ids continue from ``ids`` (the loading runtime's counter), which
    advances by the count the original compile consumed — only once the
    tree is accepted, so a refused entry leaves it where the fallback
    compile expects it.  Objects come from the constructor, so they have
    the layout and defaults (``feedback``, ``threaded``, ``fingerprint``)
    of compiled ones.
    """
    base = ids.next_id
    seen = []
    root = _thaw_code(marshal.loads(zlib.decompress(artifact["code"])), base, seen)
    if sorted(seen) != list(range(artifact["ids"])):
        raise ValueError("code ids are not one compile's")
    ids.next_id = base + len(seen)
    return root
