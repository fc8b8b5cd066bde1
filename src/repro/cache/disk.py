"""The on-disk, content-addressed code store.

Layout (under ``$REPRO_CACHE_DIR``, default ``~/.cache/repro``)::

    <root>/code/<key[:2]>/<key>.bin

where ``key`` is the SHA-256 over every input that determines the
entry's content — see :meth:`DiskCodeCache.key_for` (compile artifacts)
and :func:`program_key` (program entries) for the full anatomy, also
documented in docs/COMPILE_PIPELINE.md.  Entries are
written atomically (temp file + ``os.replace``) so concurrent runs
sharing a cache directory never observe torn artifacts; corrupt or
version-skewed entries read as misses, never as errors.

Every entry is integrity-framed on disk: a magic tag, the payload
length, and a SHA-256 digest precede the payload — one byte naming the
entry kind (:data:`ENTRY_KINDS`), then the marshalled artifact (see
:data:`ENTRY_MAGIC`).  A read verifies the frame
*before* unmarshalling, so a truncated, bit-flipped or
foreign-format file — e.g. a reader racing a non-atomic copy of the
cache directory, or a crashed writer on a filesystem without atomic
rename — is detected as a miss instead of being fed to ``marshal``
(which happily decodes some prefixes of valid input).
"""

import hashlib
import marshal
import os
import sys
import tempfile

from repro.cache.serialize import (
    FORMAT_VERSION,
    Uncacheable,
    freeze_program,
    freeze_result,
    thaw_program,
    thaw_result,
)
from repro.jsvm.bytecode import CodeObject
from repro.jsvm.feedback import shape_ic_fingerprint
from repro.jsvm.objects import JSArray, JSObject
from repro.jsvm.values import value_key


#: First bytes of every cache entry.  The trailing version digit is
#: bumped whenever the framing itself changes (the artifact format has
#: its own ``FORMAT_VERSION`` inside the payload).
ENTRY_MAGIC = b"RPC1"

#: Frame layout: magic, 8-byte big-endian payload length, 32-byte
#: SHA-256 of the payload, then the payload itself.
_FRAME_HEADER_SIZE = len(ENTRY_MAGIC) + 8 + 32


#: Entry kind -> the payload's first byte.  A compile artifact is one
#: function's native binary; a program entry is the rotated bytecode
#: tree of one source text.  ``stats`` tells them apart by this byte.
ENTRY_KINDS = {"compile": b"C", "program": b"P"}


def _frame_entry(payload):
    """Wrap a payload (kind byte + marshalled artifact) in the integrity frame."""
    return b"".join(
        [
            ENTRY_MAGIC,
            len(payload).to_bytes(8, "big"),
            hashlib.sha256(payload).digest(),
            payload,
        ]
    )


def _unframe_entry(blob):
    """Return the verified payload of a framed entry, or None.

    None means the blob is not a complete, intact entry written by
    this code: wrong magic (foreign or pre-framing file), short or
    over-long data (torn or concatenated write), or digest mismatch
    (corruption).  Callers treat all of these as cache misses.
    """
    if len(blob) < _FRAME_HEADER_SIZE or not blob.startswith(ENTRY_MAGIC):
        return None
    offset = len(ENTRY_MAGIC)
    length = int.from_bytes(blob[offset : offset + 8], "big")
    digest = blob[offset + 8 : offset + 40]
    payload = blob[_FRAME_HEADER_SIZE:]
    if len(payload) != length:
        return None
    if hashlib.sha256(payload).digest() != digest:
        return None
    return payload


def default_cache_root():
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return root
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _key_value(value):
    """A hashable, repr-stable stand-in for one fingerprint component.

    Raises :class:`Uncacheable` for identity-based values — their
    content cannot be named across runs.
    """
    from repro.jsvm.values import NULL, UNDEFINED

    if value is None or value is True or value is False:
        return value
    kind = type(value)
    if kind in (int, float, str):
        return value
    if value is UNDEFINED:
        return ("undefined",)
    if value is NULL:
        return ("null",)
    if kind in (tuple, list):
        return tuple(_key_value(item) for item in value)
    raise Uncacheable("cannot fingerprint %r" % (value,))


def _code_fingerprint(code):
    """Content digest of one guest code object, memoised on it.

    Covers everything the MIR builder reads: the instruction stream
    (post any bytecode rewriting, since the digest is taken at compile
    time), the name tables, and the constant pool with each nested
    function body named by its own digest.  Only the digest is kept
    (``rotate_loops`` resets it with the stream), so a code object is
    walked once however many keys cover it and pins no fingerprint.
    """
    digest = code.fingerprint
    if digest is None:
        instructions = code.instructions
        args = [instr.arg for instr in instructions]
        if not {int, type(None)}.issuperset(map(type, args)):  # hand-built code
            args = [_key_value(arg) for arg in args]
        structure = (
            code.name,
            tuple(code.params),
            tuple(code.local_names),
            tuple(code.cell_names),
            tuple(code.free_names),
            tuple(code.names),
            code.uses_this,
            code.self_name,
            [instr.op for instr in instructions],
            args,
            tuple(
                ("code", _code_fingerprint(constant))
                if type(constant) is CodeObject
                else _key_value(constant)
                for constant in code.constants
            ),
        )
        digest = code.fingerprint = hashlib.sha256(repr(structure).encode("utf-8")).hexdigest()
    return digest


def compile_inputs(
    this_value=None, param_values=None, osr_args=None, osr_locals=None, **_options
):
    """One compile's input values in key order, and where each group ends.

    Returns ``(layout, values)``: ``values`` is ``this``, the arguments,
    the OSR arguments and the OSR locals, flattened; ``layout`` is each
    group's length, None when the compile has no such group.  The key,
    a stored artifact and a load all name a heap reference by its first
    position in ``values`` — the one ordering of the three.
    ``_options`` takes the rest of a ``key_for`` keyword set, so a
    caller passes ``load``/``store`` the dict it keyed with.
    """
    groups = (
        None if this_value is None else (this_value,),
        param_values,
        osr_args,
        osr_locals,
    )
    layout = tuple(None if group is None else len(group) for group in groups)
    return layout, [value for group in groups if group is not None for value in group]


def _input_keys(values):
    """The key of each compile input; :class:`Uncacheable` on a refusal.

    Primitives by ``value_key``; a plain ``JSObject`` as ``("object", p)``
    and a ``JSArray`` as ``("array", p, length)``, ``p`` the first
    position holding the same object — its class, aliasing and length
    are all the compiler reads of it (docs/COMPILE_PIPELINE.md).  Any
    other reference has no such name.
    """
    first = {}
    keys = []
    for position, value in enumerate(values):
        key = value_key(value)
        if key[0] == "ref":
            kind = type(value)
            if kind is JSObject:
                key = ("object", first.setdefault(id(value), position))
            elif kind is JSArray:
                key = ("array", first.setdefault(id(value), position), len(value.elements))
            else:
                raise Uncacheable("object-reference value %r" % (value,))
        keys.append(key)
    return tuple(keys)


# Canonical shape-IC fingerprint: shared with the engine's
# retrain-noop detector, so the definition lives next to the IC itself.
_shape_ic_fingerprint = shape_ic_fingerprint


def _feedback_fingerprint(feedback):
    """Canonical (sorted) snapshot of a :class:`TypeFeedback`, or None."""
    if feedback is None:
        return None
    return (
        tuple(tuple(sorted(tags)) for tags in feedback.arg_tags),
        tuple(sorted(feedback.this_tags)),
        tuple(sorted((pc, tuple(sorted(tags))) for pc, tags in feedback.site_tags.items())),
        tuple(sorted((pc, tuple(sorted(tags))) for pc, tags in feedback.recv_tags.items())),
        _shape_ic_fingerprint(feedback.shape_ics),
    )


def _digest(kind, *inputs):
    """The key over ``inputs`` for an entry of ``kind``.

    Every key opens with the entry kind, the artifact format and the
    host Python / marshal versions, so skew in any of them is a miss.
    """
    structure = (
        "repro-code-cache",
        kind,
        FORMAT_VERSION,
        tuple(sys.version_info[:2]),
        marshal.version,
    ) + inputs
    return hashlib.sha256(repr(structure).encode("utf-8")).hexdigest()


def content_key(
    code,
    config,
    feedback=None,
    param_values=None,
    this_value=None,
    osr_pc=None,
    osr_args=None,
    osr_locals=None,
    generic=False,
    shape_guards=True,
):
    """The content key for one compile; raises :class:`Uncacheable`.

    Pure keying logic shared by :meth:`DiskCodeCache.key_for` and the
    per-tenant cache views in ``repro.serving.shards`` (which keep
    their own ``uncacheable`` counters).  See ``key_for`` for the key
    anatomy.
    """
    if not config.param_spec:
        param_values = None
        this_value = None
    layout, values = compile_inputs(this_value, param_values, osr_args, osr_locals)
    return _digest(
        "compile",
        _code_fingerprint(code),
        tuple((slot, getattr(config, slot)) for slot in config.__slots__),
        bool(generic),
        bool(shape_guards),
        osr_pc,
        layout,
        _input_keys(values),
        _feedback_fingerprint(feedback),
    )


def program_key(source, config):
    """The content key of the program entry for one source text.

    Covers the entry kind, the artifact format and host marshal format,
    the SHA-256 of the source and ``config.loop_inversion`` — the one
    option that decides what the stored bytecode looks like (rotated or
    not).  Nothing here can be identity-based, so every source has a key.
    """
    return _digest(
        "program",
        hashlib.sha256(source.encode("utf-8")).hexdigest(),
        bool(config.loop_inversion),
    )


class DiskCodeCache(object):
    """Content-addressed store of compiled artifacts across runs.

    Two kinds of entry share the layout, the frame and the maintenance
    (``evict``/``clear``).  *Compile artifacts*: the engine probes
    inside ``_produce`` — :meth:`key_for` names the compile (or
    refuses), :meth:`load` returns a thawed
    :class:`~repro.engine.jit.CompileResult` on a hit, and
    :meth:`store` persists a fresh compile, with the link record of
    its generated module when the ``whole`` backend ran it.
    *Program entries*: ``Engine.load_source`` asks :meth:`load_program`
    for the bytecode of a source text (key: :func:`program_key`) and
    hands a fresh compile to :meth:`store_program`.  The in-process
    counters ``hits``/``misses``/``stores``/``uncacheable`` count
    compile probes only and feed the CLI's ``repro cache`` report and
    the bench harness; program traffic has its own pair.
    """

    def __init__(self, root=None):
        self.root = root if root is not None else default_cache_root()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.uncacheable = 0
        #: Program entries thawed / published by this process.
        self.program_loads = 0
        self.program_stores = 0
        #: Reads of a *present but unusable* entry of either kind — torn
        #: or bit-flipped frame, unmarshalable payload, version skew, or
        #: a thaw failure.  A corruption-degraded compile probe also
        #: counts as a miss; this counter says how many reads were
        #: degradations rather than absences.
        self.corrupt = 0
        #: Entries removed by :meth:`evict` (size/entry pressure).
        self.evictions = 0

    # -- keying --------------------------------------------------------------

    def key_for(
        self,
        code,
        config,
        feedback=None,
        param_values=None,
        this_value=None,
        osr_pc=None,
        osr_args=None,
        osr_locals=None,
        generic=False,
        shape_guards=True,
    ):
        """The content key for one compile, or None if uncacheable.

        The key covers, in order: the entry kind (``"compile"``), the
        artifact format version and host
        marshal format (so incompatible stores read as misses), the
        recursive code digest, the optimization configuration, the
        generic and shape-guard flags, the OSR pc, the input values
        (:func:`compile_inputs`: ``this`` and the arguments when
        parameter specialization will bake them in, the live frame's
        arguments and locals for OSR) with their layout, and the
        type-feedback snapshot.  A plain object or array input is keyed
        by class and position (:func:`_input_keys`); any other
        identity-based component — a function argument, a constant with
        no content name — makes the whole compile uncacheable.
        """
        try:
            return content_key(
                code,
                config,
                feedback=feedback,
                param_values=param_values,
                this_value=this_value,
                osr_pc=osr_pc,
                osr_args=osr_args,
                osr_locals=osr_locals,
                generic=generic,
                shape_guards=shape_guards,
            )
        except Uncacheable:
            self.uncacheable += 1
            return None

    # -- storage -------------------------------------------------------------

    def _path(self, key):
        return os.path.join(self.root, "code", key[:2], key + ".bin")

    def _thawed(self, key, kind, thaw):
        """``thaw(artifact)`` of the intact ``kind`` entry under ``key``, or None.

        An absent file is simply None.  A present one that is not a
        complete frame of this kind and format, or that ``thaw``
        refuses, also counts ``corrupt`` — never an exception.
        """
        try:
            with open(self._path(key), "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        try:
            payload = _unframe_entry(blob)
            if payload is None or payload[:1] != ENTRY_KINDS[kind]:
                raise ValueError("not an intact %s entry" % kind)
            artifact = marshal.loads(memoryview(payload)[1:])
            if artifact["format"] != FORMAT_VERSION:
                raise ValueError("format skew")
            return thaw(artifact)
        except Exception:
            self.corrupt += 1
            return None

    def _publish(self, key, kind, artifact):
        """Write ``artifact`` under ``key``; False if the disk refused."""
        path = self._path(key)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            # Atomic publish: frame into a private temp file in the
            # destination directory (same filesystem), then rename over
            # the final name.  Concurrent writers race benignly — the
            # last complete frame wins — and readers only ever see
            # either no file or a complete frame.
            handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(handle, "wb") as out:
                    out.write(_frame_entry(ENTRY_KINDS[kind] + marshal.dumps(artifact)))
                os.replace(temp_path, path)
            except BaseException:
                try:
                    os.unlink(temp_path)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    def load(self, key, code, inputs=None):
        """Thaw the artifact stored under ``key`` for ``code``, or None.

        ``inputs`` is the keyword set the key was computed from; its
        relocatable values are bound into the thawed binary.  Anything
        unexpected — missing file, version skew, a torn or corrupted
        frame, a slot the call has no value for — is a miss; the engine
        then compiles (and re-stores) normally.
        """
        values = compile_inputs(**inputs)[1] if inputs else ()
        result = self._thawed(
            key, "compile", lambda artifact: thaw_result(artifact, code, values)
        )
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def store(self, key, result, executor=None, inputs=None):
        """Persist ``result`` under ``key``; returns True on success.

        ``inputs`` is the keyword set the key was computed from: a
        relocatable value of it baked into the binary is stored as its
        slot.  When ``executor`` is the ``whole`` backend, its link record
        for this binary rides along (:func:`repro.lir.wholefn.whole_artifact`),
        so a warm run skips the emitter and host ``compile()`` as well.
        """
        values = compile_inputs(**inputs)[1] if inputs else ()
        try:
            artifact = freeze_result(result, result.native.code, values)
        except Uncacheable:
            self.uncacheable += 1
            return False
        if executor is not None:
            from repro.lir.wholefn import whole_artifact

            whole = whole_artifact(result.native, executor)
            if whole is not None:
                artifact["whole"] = whole
        stored = self._publish(key, "compile", artifact)
        self.stores += stored
        return stored

    def load_program(self, key, ids):
        """The bytecode tree stored under a :func:`program_key`, or None.

        Trusted as far as a thawed native stream: intact frame,
        matching format, and ``validate()`` passing on every code
        object.  The result stands in for ``compile_source(source, ids)``
        (plus ``rotate_loops`` when the key says so), code ids included.
        """
        code = self._thawed(
            key, "program", lambda artifact: thaw_program(artifact, ids)
        )
        if code is not None:
            self.program_loads += 1
        return code

    def store_program(self, key, code):
        """Persist the sealed tree under ``code``; returns True on success."""
        try:
            artifact = freeze_program(code)
        except Uncacheable:
            return False
        stored = self._publish(key, "program", artifact)
        self.program_stores += stored
        return stored

    # -- maintenance ---------------------------------------------------------

    def stats(self):
        """Store-wide stats dict: location, entry count/bytes, counters.

        ``kinds`` splits entries and bytes by entry kind, read from
        each file's kind byte (a file too short to have one is in the
        totals only).
        """
        entries = 0
        total_bytes = 0
        kinds = {kind: {"entries": 0, "bytes": 0} for kind in ENTRY_KINDS}
        names = {tag: kind for kind, tag in ENTRY_KINDS.items()}
        for _mtime, path, size in self._entries():
            entries += 1
            total_bytes += size
            try:
                with open(path, "rb") as handle:
                    handle.seek(_FRAME_HEADER_SIZE)
                    kind = names.get(handle.read(1))
            except OSError:
                continue
            if kind is not None:
                kinds[kind]["entries"] += 1
                kinds[kind]["bytes"] += size
        return {
            "root": self.root,
            "entries": entries,
            "bytes": total_bytes,
            "kinds": kinds,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "uncacheable": self.uncacheable,
            "corrupt": self.corrupt,
            "evictions": self.evictions,
            "program_loads": self.program_loads,
            "program_stores": self.program_stores,
        }

    def _entries(self):
        """Every stored artifact as ``(mtime, path, size)``, sorted.

        Oldest first; ties break on path so eviction order is
        deterministic for a given directory state.
        """
        found = []
        code_root = os.path.join(self.root, "code")
        if not os.path.isdir(code_root):
            return found
        for dirpath, _dirnames, filenames in os.walk(code_root):
            for filename in filenames:
                if not filename.endswith(".bin"):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    status = os.stat(path)
                except OSError:
                    continue
                found.append((status.st_mtime, path, status.st_size))
        found.sort()
        return found

    def evict(self, max_bytes=None, max_entries=None):
        """Prune oldest entries until the store fits the given bounds.

        LRU-by-mtime (``load`` leaves mtimes untouched, so "oldest"
        means least-recently *written*; a warm artifact that keeps
        getting re-stored stays young).  Either bound may be None
        (unbounded); with both None this is a no-op.  Returns the
        number of entries removed and adds it to ``evictions``.

        Safe against a concurrent writer racing the prune: the victim
        is first renamed aside to a ``.evict`` tombstone (atomic, and
        excluded from ``_entries``/``stats`` by the ``.bin`` filter),
        then unlinked.  A writer re-publishing the same key via
        ``store``'s ``os.replace`` either lands before the rename — its
        complete frame becomes the victim, which is correct LRU
        behaviour and never tears the file — or after it, in which case
        the fresh artifact survives untouched under the final name.  An
        entry that vanished between the directory walk and the rename
        (another evictor, a ``clear``) is skipped without being
        counted.
        """
        if max_bytes is None and max_entries is None:
            return 0
        entries = self._entries()
        total_bytes = sum(size for _mtime, _path, size in entries)
        total_entries = len(entries)
        removed = 0
        for _mtime, path, size in entries:
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            over_entries = max_entries is not None and total_entries > max_entries
            if not over_bytes and not over_entries:
                break
            tombstone = path + ".evict"
            try:
                os.replace(path, tombstone)
            except FileNotFoundError:
                # Gone already (concurrent evictor or clear): it no
                # longer occupies the store, so drop it from the
                # running totals, but it is not our eviction.
                total_bytes -= size
                total_entries -= 1
                continue
            except OSError:
                continue
            try:
                os.unlink(tombstone)
            except OSError:
                # A crash here merely leaks a tombstone; the next
                # evict pass sweeps it (below) and readers never look
                # at non-``.bin`` names.
                pass
            removed += 1
            total_bytes -= size
            total_entries -= 1
        self.evictions += removed
        self._sweep_tombstones()
        return removed

    def _sweep_tombstones(self):
        """Remove ``.evict`` tombstones left by an interrupted prune."""
        code_root = os.path.join(self.root, "code")
        if not os.path.isdir(code_root):
            return
        for dirpath, _dirnames, filenames in os.walk(code_root):
            for filename in filenames:
                if not filename.endswith(".evict"):
                    continue
                try:
                    os.unlink(os.path.join(dirpath, filename))
                except OSError:
                    pass

    def clear(self):
        """Delete every stored artifact; returns the number removed."""
        removed = 0
        code_root = os.path.join(self.root, "code")
        if not os.path.isdir(code_root):
            return removed
        for dirpath, _dirnames, filenames in os.walk(code_root, topdown=False):
            for filename in filenames:
                try:
                    os.unlink(os.path.join(dirpath, filename))
                    if filename.endswith(".bin"):
                        removed += 1
                except OSError:
                    pass
            try:
                os.rmdir(dirpath)
            except OSError:
                pass
        return removed
