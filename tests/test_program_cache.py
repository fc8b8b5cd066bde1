"""Program entries: a cached source never crosses the front half again.

The code cache's second kind of entry holds the sealed, rotated bytecode
tree of one source text (docs/COMPILE_PIPELINE.md, "Program entries").
Its contract is that nobody can tell: a thawed tree equals the compiled
one field by field, code ids included, so a run from it counts the same
cycles and writes the same trace; and anything on disk the loader does
not fully recognise is a miss that recompiles and re-stores.
"""

import marshal
import struct
import zlib

import pytest

from repro.cache import DiskCodeCache
from repro.cache import disk as cache_disk
from repro.cache import serialize
from repro.cache.disk import ENTRY_KINDS, _FRAME_HEADER_SIZE, _frame_entry, program_key
from repro.cache.serialize import FORMAT_VERSION, freeze_program, thaw_program
from repro.engine.config import FULL_SPEC, OptConfig
from repro.engine.runtime_engine import Engine
from repro.engine.stats import DISK_TRAFFIC_KEYS
from repro.errors import JSSyntaxError
from repro.jsvm import bytecompiler
from repro.jsvm.bytecode import CodeIds, CodeObject, Op
from repro.jsvm.bytecompiler import compile_source
from repro.jsvm.values import NULL, UNDEFINED
from repro.opts import loop_inversion
from repro.opts.loop_inversion import rotate_loops
from repro.serving.isolate import TenantHost, TenantIsolate
from repro.serving.shards import ShardedDiskCache
from repro.telemetry.tracing import Tracer, to_jsonl
from tests.conftest import FAST
from tests.front_half_corpus import programs


def variant(**changed):
    """FULL_SPEC with some options set differently."""
    options = {slot: getattr(FULL_SPEC, slot) for slot in OptConfig.__slots__}
    options.update(changed)
    return OptConfig(**options)


UNROTATED = variant(name="unrotated", loop_inversion=False)

HOT = """
function poly(a) { var s = 0; while (a) { s += a * a; a--; } return s; }
var flags = [true, false, null, undefined, 1, 1.5, "one"];
var s = 0;
for (var i = 0; i < 80; i++) s += poly(i % 4);
print(s, flags.length);
"""


def constant_identity(constant):
    """A pool slot as ``(type, exact value)``: ``1``/``1.0``/``True``, ``0.0``/``-0.0`` and NaNs stay apart."""
    kind = type(constant)
    if kind is CodeObject:
        return ("code", describe(constant))
    if kind is float:
        return ("float", struct.pack("<d", constant))
    if constant is UNDEFINED or constant is NULL:
        return ("singleton", repr(constant))
    return (kind.__name__, constant)


def describe(code):
    """Every field of a code tree in instance-dict order, nested objects in pool order."""
    fields = dict(vars(code))
    fields["instructions"] = [
        (instr.op, instr.arg, instr.line) for instr in fields["instructions"]
    ]
    fields["constants"] = [constant_identity(c) for c in fields["constants"]]
    return list(fields.items())


def compiled(source, ids=None):
    """The tree exactly as ``Engine.load_source`` makes it on a miss."""
    code = compile_source(source, ids)
    rotate_loops(code)
    return code


def stored_and_recomputed_fingerprints(code):
    """Each tree object's digest as stored, then as a fresh walk takes it after clearing it."""
    tree = [code] + _nested(code)
    stored = [each.fingerprint for each in tree]
    for each in tree:
        each.fingerprint = None
    return stored, [cache_disk._code_fingerprint(each) for each in tree]


def ids_from(base):
    """A runtime's code id counter after it issued ``base - 1`` ids."""
    ids = CodeIds()
    ids.next_id = base
    return ids


def assert_round_trips(cache, name, source, base=1):
    """Compile at ``base``; store; load at ``base`` again; compare everything."""
    ids = ids_from(base)
    code = compiled(source, ids)
    after_compile = ids.next_id
    key = program_key(source, FULL_SPEC)
    assert cache.store_program(key, code), name
    ids = ids_from(base)
    thawed = cache.load_program(key, ids)
    assert thawed is not None, name
    assert ids.next_id == after_compile, name
    assert describe(thawed) == describe(code), name
    stored, recomputed = stored_and_recomputed_fingerprints(thawed)
    assert stored == recomputed, name
    assert thawed.threaded is None and thawed.feedback is None


# -- a thawed tree is the compiled tree ---------------------------------------------


def test_every_corpus_program_round_trips_field_by_field(tmp_path):
    cache = DiskCodeCache(root=str(tmp_path))
    names = [name for name, _source in programs()]
    assert sum(name.startswith("page/1/") for name in names) == 16
    assert sum("/" in name and not name.startswith(("page/", "fuzz/", "catalog/", "corpus/", "shape/")) for name in names) == 38
    for index, (name, source) in enumerate(programs()):
        assert_round_trips(cache, name, source, base=1 + 1000 * (index % 3))
    assert cache.program_loads == cache.program_stores == len(names)
    assert cache.corrupt == 0 and cache.hits == cache.misses == cache.stores == 0


def test_hostbench_pages_round_trip_field_by_field(tmp_path):
    """The pages ``pageload-warm`` loads (seed 1).  With the corpus and the
    suites above, every fingerprint a warm run keys on is checked against
    the digest a fresh walk of the thawed object takes."""
    from hostbench import workloads

    cache = DiskCodeCache(root=str(tmp_path))
    pages = workloads.page_operations(1)
    assert len(pages) == 16
    for name, source in pages:
        assert_round_trips(cache, name, source)
    assert cache.program_loads == 16 and cache.corrupt == 0


def test_pool_types_survive_exactly():
    """``1``/``1.0``/``True``, ``-0.0`` and NaN payloads are not literals the
    compiler pools today; the codec must still keep them apart."""
    nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]
    code = compiled("function f() { return 1; } f();")
    pool = [1, 1.0, True, False, 0.0, -0.0, nan, float("inf"), "1", "", UNDEFINED, NULL, 2**40]
    code.constants.extend(pool)
    thawed = thaw_program(marshal.loads(marshal.dumps(freeze_program(code))), CodeIds())
    assert describe(thawed) == describe(code)
    tail = thawed.constants[-len(pool):]
    assert [type(c) for c in tail] == [type(c) for c in pool]
    assert tail[2] is True and tail[10] is UNDEFINED and tail[11] is NULL
    assert struct.pack("<d", tail[5]) == struct.pack("<d", -0.0)
    assert struct.pack("<d", tail[6]) == struct.pack("<d", nan)


def test_flags_and_names_survive(tmp_path):
    source = (
        "var o = {m: function named(n) { return n ? named(n - 1) : this; }};"
        "function outer(a) { var c = a; return function () { return c++; }; }"
        "o.m(2); outer(1)();"
    )
    cache = DiskCodeCache(root=str(tmp_path))
    assert_round_trips(cache, "flags", source)
    thawed = cache.load_program(program_key(source, FULL_SPEC), CodeIds())
    by_name = {c.name: c for c in [thawed] + _nested(thawed)}
    assert thawed.is_script and thawed.loops_rotated
    assert by_name["named"].self_name == "named" and by_name["named"].uses_this
    assert by_name["outer"].cell_names == ["c"]
    assert not by_name["outer"].is_script


def _nested(code):
    found = []
    for constant in code.constants:
        if type(constant) is CodeObject:
            found.append(constant)
            found.extend(_nested(constant))
    return found


# -- seeded mutations: the comparison above has teeth -------------------------------


def test_ids_assigned_in_thaw_order_are_caught(tmp_path, monkeypatch):
    """A thaw that numbers objects as it finishes them (pool first, children
    before their parent) instead of by stored offset moves every id."""
    real = serialize.thaw_program

    def finished(code):
        for constant in code.constants:
            if type(constant) is CodeObject:
                yield from finished(constant)
        yield code

    def in_thaw_order(artifact, ids):
        base = ids.next_id
        root = real(artifact, ids)
        for offset, code in enumerate(finished(root)):
            code.code_id = base + offset
        return root

    monkeypatch.setattr(cache_disk, "thaw_program", in_thaw_order)
    cache = DiskCodeCache(root=str(tmp_path))
    with pytest.raises(AssertionError):
        assert_round_trips(cache, "hot", HOT)


def test_true_thawed_as_one_is_caught(tmp_path, monkeypatch):
    real = serialize.freeze_program

    def bools_as_ints(root):
        artifact = real(root)

        def flatten(fields):
            pool = [
                flatten(c) if type(c) is tuple and len(c) > 1 else int(c) if type(c) is bool else c
                for c in fields[-1]
            ]
            return fields[:-1] + (pool,)

        tree = flatten(marshal.loads(zlib.decompress(artifact["code"])))
        artifact["code"] = zlib.compress(marshal.dumps(tree), 1)
        return artifact

    monkeypatch.setattr(cache_disk, "freeze_program", bools_as_ints)
    cache = DiskCodeCache(root=str(tmp_path))
    with pytest.raises(AssertionError):
        assert_round_trips(cache, "hot", HOT)


# -- a run from a thawed tree is the run from source --------------------------------


def observed_run(source, root, base, config=FULL_SPEC):
    tracer = Tracer()
    cache = DiskCodeCache(root=str(root))
    engine = Engine(config=config, code_cache=cache, tracer=tracer, **FAST)
    code_ids = engine.interpreter.runtime.code_ids
    code_ids.next_id = base
    printed = engine.run_source(source)
    counters = {
        name: getattr(cache, name) for name in ("hits", "misses", "stores", "uncacheable")
    }
    return {
        "printed": printed,
        "stats": engine.stats.as_dict(),
        "trace": to_jsonl(tracer.events),
        "counters": counters,
        "next_id": code_ids.next_id,
        "modules": (engine.executor.modules_linked, engine.executor.modules_emitted),
    }, cache


def program_path(root, source, config=FULL_SPEC):
    return DiskCodeCache(root=str(root))._path(program_key(source, config))


RUN_PROGRAMS = [
    (name, source)
    for name, source in programs()
    if name.startswith(("page/1/", "catalog/")) or name in ("sunspider/bitops-bits-in-byte", "objects/poly-records")
]


@pytest.mark.parametrize("base", [1, 7001])
def test_run_from_thawed_tree_equals_run_from_source(tmp_path, base):
    """Same compile artifacts on disk both times; only the program entry differs.

    ``base`` 7001 is a runtime whose earlier programs already moved its
    code-id counter (a serving tenant's): ids key stats and trace
    events, so they have to continue from wherever the counter stands.
    """
    import os

    assert len(RUN_PROGRAMS) >= 24
    for name, source in RUN_PROGRAMS[:: 1 if base == 1 else 3]:
        root = tmp_path / name.replace("/", "_")
        cold, _ = observed_run(source, root, base)
        os.unlink(program_path(root, source))
        from_source, cache = observed_run(source, root, base)
        assert (cache.program_loads, cache.program_stores) == (0, 1), name
        from_thaw, cache = observed_run(source, root, base)
        assert (cache.program_loads, cache.program_stores) == (1, 0), name
        assert from_thaw == from_source, name
        assert from_thaw["counters"]["misses"] == 0, name
        # and against the cold run: everything but disk traffic
        assert from_thaw["printed"] == cold["printed"], name
        assert from_thaw["next_id"] == cold["next_id"], name
        for field, value in cold["stats"].items():
            if field not in DISK_TRAFFIC_KEYS:
                assert from_thaw["stats"][field] == value, (name, field)


def test_runtime_error_blames_the_same_line(tmp_path):
    from repro.errors import ReproError

    source = "var a = 1;\nvar b = 2;\nfunction f() {\n  return missing(a);\n}\nf();\n"
    messages = []
    for _ in range(2):
        cache = DiskCodeCache(root=str(tmp_path))
        with pytest.raises(ReproError) as raised:
            Engine(config=FULL_SPEC, code_cache=cache).run_source(source)
        messages.append(str(raised.value))
    assert cache.program_loads == 1
    assert messages[0] == messages[1]


# -- what the loader does not recognise is a miss ------------------------------------


def rewrite(path, mutate):
    blob = bytearray(path.read_bytes())
    path.write_bytes(bytes(mutate(blob)))


def reframed(mutate_artifact):
    """An intact frame around an artifact the test has tampered with."""

    def mutate(blob):
        artifact = marshal.loads(bytes(blob[_FRAME_HEADER_SIZE + 1 :]))
        tree = marshal.loads(zlib.decompress(artifact["code"]))
        tree = mutate_artifact(artifact, list(tree))
        artifact["code"] = zlib.compress(marshal.dumps(tuple(tree)), 1)
        return _frame_entry(ENTRY_KINDS["program"] + marshal.dumps(artifact))

    return mutate


OPS, ARGS, LINES = 11, 12, 13


def jump_out_of_range(artifact, tree):
    index = next(i for i, op in enumerate(tree[OPS]) if op in (Op.JUMP, Op.IFFALSE, Op.IFTRUE))
    tree[ARGS] = list(tree[ARGS])
    tree[ARGS][index] = len(tree[OPS]) + 5
    return tree


def no_terminator(artifact, tree):
    tree[OPS] = tree[OPS][:-1] + [Op.POP]
    return tree


def ragged_streams(artifact, tree):
    tree[LINES] = tree[LINES][:-1]
    return tree


def old_format(artifact, tree):
    artifact["format"] = FORMAT_VERSION - 1
    return tree


def wrong_id_count(artifact, tree):
    artifact["ids"] += 1
    return tree


def fingerprints_short(artifact, tree):
    artifact["fingerprints"] = artifact["fingerprints"][:-1]
    return tree


def fingerprints_long(artifact, tree):
    artifact["fingerprints"] = artifact["fingerprints"] + artifact["fingerprints"][:1]
    return tree


def fingerprint_not_a_string(artifact, tree):
    artifact["fingerprints"][-1] = artifact["fingerprints"][-1].encode("ascii")
    return tree


#: Intact entries whose fingerprint table does not have the shape of one.
MALFORMED_FINGERPRINTS = {
    "fingerprints-short": fingerprints_short,
    "fingerprints-long": fingerprints_long,
    "fingerprint-not-a-string": fingerprint_not_a_string,
}


HOSTILE = {
    "empty": lambda blob: blob[:0],
    "header-only": lambda blob: blob[:_FRAME_HEADER_SIZE],
    "truncated": lambda blob: blob[:-1],
    "bit-flip": lambda blob: blob[:-9] + bytes([blob[-9] ^ 0x40]) + blob[-8:],
    "foreign-magic": lambda blob: b"XXXX" + blob[4:],
    "compile-kind": lambda blob: _frame_entry(b"C" + bytes(blob[_FRAME_HEADER_SIZE + 1 :])),
    "not-marshal": lambda blob: _frame_entry(b"P" + b"\xff" * 40),
    "not-a-dict": lambda blob: _frame_entry(b"P" + marshal.dumps([1, 2, 3])),
    "old-format": reframed(old_format),
    "jump-out-of-range": reframed(jump_out_of_range),
    "no-terminator": reframed(no_terminator),
    "ragged-streams": reframed(ragged_streams),
    "wrong-id-count": reframed(wrong_id_count),
}
HOSTILE.update((name, reframed(damage)) for name, damage in MALFORMED_FINGERPRINTS.items())


@pytest.mark.parametrize("damage", sorted(HOSTILE))
def test_hostile_entry_is_a_miss_that_heals(tmp_path, damage):
    clean, _ = observed_run(HOT, tmp_path, 1)
    path = program_path(tmp_path, HOT)
    intact = path_bytes = open(path, "rb").read()
    import pathlib

    rewrite(pathlib.Path(path), HOSTILE[damage])
    assert open(path, "rb").read() != intact

    probe = DiskCodeCache(root=str(tmp_path))
    ids = ids_from(50)
    assert probe.load_program(program_key(HOT, FULL_SPEC), ids) is None
    assert probe.corrupt == 1 and probe.program_loads == 0
    assert ids.next_id == 50  # a refused entry consumes no ids

    hurt, cache = observed_run(HOT, tmp_path, 1)
    assert (cache.corrupt, cache.program_loads, cache.program_stores) == (1, 0, 1)
    assert hurt["printed"] == clean["printed"]
    assert hurt["counters"] == {"hits": clean["counters"]["stores"], "misses": 0, "stores": 0, "uncacheable": 0}
    assert open(path, "rb").read() == path_bytes  # replaced by the re-store

    healed, cache = observed_run(HOT, tmp_path, 1)
    assert (cache.corrupt, cache.program_loads, cache.program_stores) == (0, 1, 0)
    assert healed["trace"] == hurt["trace"]
    assert hurt["stats"].pop("disk_corrupt") == 1 and healed["stats"].pop("disk_corrupt") == 0
    assert healed["stats"] == hurt["stats"]


@pytest.mark.parametrize("damage", sorted(MALFORMED_FINGERPRINTS))
def test_malformed_fingerprint_table_falls_back_to_fresh_keys(tmp_path, monkeypatch, damage):
    """No digest of a refused table is used: the fallback compile takes the
    keys a run from source takes, so every compile artifact still hits."""
    import os
    import pathlib

    keys = []
    key_for = DiskCodeCache.key_for

    def recording(cache, *args, **kwargs):
        keys.append(key_for(cache, *args, **kwargs))
        return keys[-1]

    monkeypatch.setattr(DiskCodeCache, "key_for", recording)
    observed_run(HOT, tmp_path, 1)
    path = program_path(tmp_path, HOT)
    os.unlink(path)
    del keys[:]
    observed_run(HOT, tmp_path, 1)
    from_source = keys[:]
    del keys[:]
    rewrite(pathlib.Path(path), reframed(MALFORMED_FINGERPRINTS[damage]))

    hurt, cache = observed_run(HOT, tmp_path, 1)
    assert (cache.corrupt, cache.program_loads, cache.program_stores) == (1, 0, 1)
    assert from_source and None not in from_source
    assert keys == from_source
    assert hurt["counters"]["misses"] == 0


# The same for the link record a compile artifact carries (``whole``,
# docs/CODEGEN.md): one that does not fit its stream is refused at load;
# one whose module is not a module defining ``_w`` over bound names is
# refused at link.  Either way the binary runs, emitted.


def drop_last(record, artifact):
    record["bindings"] = record["bindings"][:-1]


def cut_last_short(record, artifact):
    record["bindings"] = record["bindings"][:-1] + [record["bindings"][-1][:2]]


def index_past_stream(record, artifact):
    name, kind, _index = record["bindings"][-1]
    record["bindings"][-1] = (name, kind, 1 << 20)


def snapshot_of_a_plain_instruction(record, artifact):
    plain = next(
        index
        for index, encoded in enumerate(artifact["native"]["instructions"])
        if encoded[4] is None
    )
    record["bindings"].append(("_k999", "snapshot", plain))


def unknown_kind(record, artifact):
    name, _kind, index = record["bindings"][-1]
    record["bindings"][-1] = (name, "closure cell", index)


def foreign_name(record, artifact):
    _name, kind, index = record["bindings"][-1]
    record["bindings"][-1] = ("_interp", kind, index)


def table_for_a_non_leader(record, artifact):
    label, region = record["prefix"][-1]
    record["prefix"][-1] = (label + 1, region[1:])


def table_past_the_stream(record, artifact):
    label, region = record["prefix"][-1]
    record["prefix"][-1] = (label, region + [region[-1]] * 4096)


def root_that_is_no_entry(record, artifact):
    record["roots"] = record["roots"] + (3,)


def code_is_not_code(record, artifact):
    record["code"] = marshal.dumps("raise SystemExit('executed a string')")


def module_without_w(record, artifact):
    record["code"] = marshal.dumps(compile("_v = 1", "<no _w>", "exec"))


REFUSED_AT_LOAD = {
    "binding-cut-short": cut_last_short,
    "index-past-stream": index_past_stream,
    "snapshot-of-plain-instruction": snapshot_of_a_plain_instruction,
    "unknown-kind": unknown_kind,
    "foreign-name": foreign_name,
    "table-for-non-leader": table_for_a_non_leader,
    "table-past-stream": table_past_the_stream,
    "root-not-an-entry": root_that_is_no_entry,
}
REFUSED_AT_LINK = {
    "binding-dropped": drop_last,
    "code-is-not-code": code_is_not_code,
    "module-without-w": module_without_w,
}


def damage_link_records(root, mutate):
    """Apply ``mutate`` to the link record of every compile entry under ``root``."""
    damaged = 0
    for path in sorted(root.rglob("*.bin")):
        blob = path.read_bytes()
        if blob[_FRAME_HEADER_SIZE : _FRAME_HEADER_SIZE + 1] != ENTRY_KINDS["compile"]:
            continue
        artifact = marshal.loads(blob[_FRAME_HEADER_SIZE + 1 :])
        if not artifact["whole"]["bindings"]:
            continue  # a binary with no guard: nothing to mis-bind
        mutate(artifact["whole"], artifact)
        path.write_bytes(_frame_entry(ENTRY_KINDS["compile"] + marshal.dumps(artifact)))
        damaged += 1
    return damaged


@pytest.mark.parametrize("damage", sorted(REFUSED_AT_LOAD))
def test_malformed_link_record_is_a_miss_that_heals(tmp_path, damage):
    clean, cache = observed_run(HOT, tmp_path, 1)
    stored = cache.stores
    damaged = damage_link_records(tmp_path, REFUSED_AT_LOAD[damage])
    assert damaged >= 1

    hurt, cache = observed_run(HOT, tmp_path, 1)
    assert cache.corrupt == damaged
    assert hurt["counters"] == {
        "hits": stored - damaged, "misses": damaged, "stores": damaged, "uncacheable": 0
    }
    assert hurt["printed"] == clean["printed"]
    assert hurt["modules"] == (stored - damaged, damaged)

    healed, cache = observed_run(HOT, tmp_path, 1)
    assert cache.corrupt == 0 and healed["counters"]["hits"] == stored
    assert healed["modules"] == (stored, 0)
    for run in (hurt, healed):
        for field, value in clean["stats"].items():
            if field not in DISK_TRAFFIC_KEYS:
                assert run["stats"][field] == value, field


@pytest.mark.parametrize("damage", sorted(REFUSED_AT_LINK))
def test_unlinkable_module_is_emitted_instead(tmp_path, damage):
    clean, cache = observed_run(HOT, tmp_path, 1)
    stored = cache.stores
    damaged = damage_link_records(tmp_path, REFUSED_AT_LINK[damage])
    assert damaged >= 1

    hurt, cache = observed_run(HOT, tmp_path, 1)
    # Well-formed on disk: a hit — and no exception at the first call.
    assert cache.corrupt == 0
    assert hurt["counters"] == {"hits": stored, "misses": 0, "stores": 0, "uncacheable": 0}
    assert hurt["modules"] == (stored - damaged, damaged)
    assert hurt["printed"] == clean["printed"]
    for field, value in clean["stats"].items():
        if field not in DISK_TRAFFIC_KEYS:
            assert hurt["stats"][field] == value, field


def test_syntax_error_stores_nothing_and_repeats(tmp_path):
    source = "var ok = 1;\nfunction f( { return 1; }\n"
    messages = []
    for _ in range(2):
        cache = DiskCodeCache(root=str(tmp_path))
        with pytest.raises(JSSyntaxError) as raised:
            Engine(config=FULL_SPEC, code_cache=cache).run_source(source)
        messages.append(str(raised.value))
        assert cache.program_stores == cache.program_loads == 0
        assert cache.stats()["entries"] == 0
    assert messages[0] == messages[1]
    with pytest.raises(JSSyntaxError) as raised:
        Engine(config=FULL_SPEC).run_source(source)
    assert str(raised.value) == messages[0] and "line 2, column 13" in messages[0]


def test_one_changed_source_byte_misses(tmp_path):
    observed_run(HOT, tmp_path, 1)
    _, cache = observed_run(HOT.replace("80", "81"), tmp_path, 1)
    assert (cache.program_loads, cache.program_stores) == (0, 1)
    _, cache = observed_run(HOT + " ", tmp_path, 1)
    assert (cache.program_loads, cache.program_stores) == (0, 1)
    assert cache.stats()["kinds"]["program"]["entries"] == 3


def test_loop_inversion_off_never_reads_a_rotated_entry(tmp_path):
    assert program_key(HOT, FULL_SPEC) != program_key(HOT, UNROTATED)
    # Options that do not shape the bytecode share the entry.
    assert program_key(HOT, FULL_SPEC) == program_key(HOT, variant(name="no-dce", dce=False))
    observed_run(HOT, tmp_path, 1)
    plain, cache = observed_run(HOT, tmp_path, 1, config=UNROTATED)
    assert (cache.program_loads, cache.program_stores) == (0, 1)
    again, cache = observed_run(HOT, tmp_path, 1, config=UNROTATED)
    assert (cache.program_loads, cache.program_stores) == (1, 0)
    assert again["printed"] == plain["printed"]
    assert again["stats"]["total_cycles"] == plain["stats"]["total_cycles"]
    engine = Engine(config=UNROTATED, code_cache=DiskCodeCache(root=str(tmp_path)))
    tree = engine.load_source(HOT)
    assert not any(code.loops_rotated for code in [tree] + _nested(tree))
    engine = Engine(config=FULL_SPEC, code_cache=DiskCodeCache(root=str(tmp_path)))
    tree = engine.load_source(HOT)
    assert all(code.loops_rotated for code in [tree] + _nested(tree))


def test_engine_without_a_cache_takes_the_old_path(monkeypatch):
    calls = []
    monkeypatch.setattr(cache_disk, "program_key", lambda *a: calls.append(a))
    engine = Engine(config=FULL_SPEC)
    tree = engine.load_source(HOT)
    assert not tree.loops_rotated  # run_code rotates, as before
    assert engine.run_code(tree) and tree.loops_rotated
    assert calls == []


# -- the front half is not crossed ----------------------------------------------------


class FrontHalfCalls(object):
    """Counts calls into ``parse``, ``compile_program`` and the rotation planner."""

    def __init__(self, monkeypatch):
        self.counts = {"parse": 0, "compile_program": 0, "_plan": 0}
        for module, name in (
            (bytecompiler, "parse"),
            (bytecompiler, "compile_program"),
            (loop_inversion, "_plan"),
        ):
            monkeypatch.setattr(module, name, self._counting(name, getattr(module, name)))

    def _counting(self, name, function):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return function(*args, **kwargs)

        return counted


def test_warm_run_crosses_no_front_half_stage(tmp_path, monkeypatch):
    observed_run(HOT, tmp_path, 1)
    calls = FrontHalfCalls(monkeypatch)
    observed_run(HOT, tmp_path, 1)
    assert calls.counts == {"parse": 0, "compile_program": 0, "_plan": 0}
    observed_run(HOT + "//", tmp_path, 1)
    assert calls.counts["parse"] == calls.counts["compile_program"] == 1
    assert calls.counts["_plan"] == 2  # the script and ``poly``


def test_second_tenant_first_touch_does_no_parse(tmp_path, monkeypatch):
    host = TenantHost(cache_mode="shared", cache_root=str(tmp_path), catalog={"hot": HOT})
    first = host.execute_request({"tenant": "a", "program": "hot"})
    assert first["status"] == "ok"
    calls = FrontHalfCalls(monkeypatch)
    second = host.execute_request({"tenant": "b", "program": "hot"})
    assert second["status"] == "ok" and second["output"] == first["output"]
    assert calls.counts == {"parse": 0, "compile_program": 0, "_plan": 0}
    assert host.isolates["a"].engine is not host.isolates["b"].engine
    a_tree = host.isolates["a"].programs["hot"][1]
    b_tree = host.isolates["b"].programs["hot"][1]
    assert a_tree is not b_tree  # content crossed the view, not objects
    stats = host.store_stats()
    assert (stats["program_loads"], stats["program_stores"]) == (1, 1)
    assert stats["kinds"]["program"]["entries"] == 1
    # a corrupt program entry is charged to the tenant that read it
    path = host.store.shard_for(program_key(HOT, FULL_SPEC))._path(program_key(HOT, FULL_SPEC))
    with open(path, "wb") as handle:
        handle.write(b"torn")
    third = host.execute_request({"tenant": "c", "program": "hot"})
    assert third["output"] == first["output"]
    assert host.isolates["c"].cache.corrupt == 1 and host.isolates["b"].cache.corrupt == 0


# -- the cache can say what it holds -----------------------------------------------------


@pytest.mark.parametrize("make", [DiskCodeCache, ShardedDiskCache], ids=["single", "sharded"])
def test_stats_by_kind_through_selective_loss(tmp_path, make):
    import glob
    import os

    def program_traffic(cache):
        info = cache.stats()
        return info["program_loads"], info["program_stores"]

    def run():
        cache = make(root=str(tmp_path))
        printed = Engine(config=FULL_SPEC, code_cache=cache, **FAST).run_source(HOT)
        return printed, cache

    printed, cache = run()
    full = cache.stats()
    kinds = full["kinds"]
    assert kinds["program"]["entries"] == 1 and kinds["compile"]["entries"] == cache.stores > 0
    assert kinds["program"]["bytes"] + kinds["compile"]["bytes"] == full["bytes"]
    assert kinds["program"]["entries"] + kinds["compile"]["entries"] == full["entries"]
    assert program_traffic(cache) == (0, 1)

    files = glob.glob(os.path.join(str(tmp_path), "**", "*.bin"), recursive=True)
    key = program_key(HOT, FULL_SPEC)
    program_files = [path for path in files if os.path.basename(path) == key + ".bin"]
    assert len(program_files) == 1

    # only the program entry gone: recompiled from source, every binary still hits
    os.unlink(program_files[0])
    assert make(root=str(tmp_path)).stats()["kinds"]["program"] == {"entries": 0, "bytes": 0}
    again, cache = run()
    assert again == printed
    assert program_traffic(cache) == (0, 1)
    assert (cache.hits, cache.misses, cache.stores) == (kinds["compile"]["entries"], 0, 0)
    assert cache.stats()["kinds"] == kinds

    # only the native artifacts gone: bytecode thawed, every binary recompiled
    for path in files:
        if path != program_files[0]:
            os.unlink(path)
    assert make(root=str(tmp_path)).stats()["kinds"]["compile"] == {"entries": 0, "bytes": 0}
    again, cache = run()
    assert again == printed
    assert program_traffic(cache) == (1, 0)
    assert (cache.hits, cache.misses, cache.stores) == (0, kinds["compile"]["entries"], kinds["compile"]["entries"])
    assert cache.stats()["kinds"] == kinds

    assert cache.evict(max_entries=0) == full["entries"]
    assert cache.stats()["kinds"] == {kind: {"entries": 0, "bytes": 0} for kind in ENTRY_KINDS}
    run()
    assert cache.clear() == full["entries"]


def test_stats_schemas_did_not_grow():
    from repro.telemetry.metrics import METRIC_SCHEMA

    assert len(METRIC_SCHEMA) == 38
    assert not [key for key in Engine(config=FULL_SPEC).stats.as_dict() if "program" in key]


# -- a re-deployed program does not pin its predecessors ------------------------------------


def test_redeploying_a_program_leaves_engine_state_bounded(tmp_path):
    isolate = TenantIsolate("t", engine_kwargs=dict(FAST))
    sizes = []
    for version in range(50):
        source = HOT.replace("80", str(80 + version))
        output, _cycles = isolate.execute("page", source)
        expected = sum(sum(k * k for k in range(1, i % 4 + 1)) for i in range(80 + version))
        assert output == ["%d 7" % expected]
        sizes.append(len(isolate.engine.states))
    assert max(sizes) == sizes[0] and sizes[0] > 0
    # the live deployment still warms up across requests
    before = isolate.engine.stats.compiles
    isolate.execute("page", source)
    assert isolate.engine.stats.compiles == before
    assert len(isolate.engine.states) == sizes[0]
