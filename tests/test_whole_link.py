"""The ``whole`` backend's link record (docs/CODEGEN.md, "Caching").

A binary thawed from the persistent cache does not run the emitter: the
stored module is *linked* — names re-bound to the thawed native's own
objects — once the facts the emitter read are seen to hold.  What the
old byte-for-byte source comparison proved on every load is proved here
once, as properties:

1. **equivalence** — what a link builds is what the emitter would have
   built on the same thawed native (code object, tables, namespace);
2. **each check refuses alone** — emitter digest (which covers the
   native prices), roots, shape numbering — and a refused link still
   prints the right answer with the right cycles;
3. **recovery** — a linked binary bails out exactly as an emitted one,
   through the thawed native's own snapshots.
"""

import contextlib
import marshal

import pytest

from repro.cache import DiskCodeCache
from repro.cache.serialize import freeze_result, thaw_result
from repro.engine.config import BASELINE, CostModel, FULL_SPEC
from repro.engine.jit import compile_function
from repro.engine.runtime_engine import Engine
from repro.engine.stats import DISK_TRAFFIC_KEYS
from repro.jsvm.interpreter import MAX_CALL_DEPTH, Interpreter
from repro.jsvm.objects import JSArray, JSObject, common_slot_offset
from repro.jsvm.values import UNDEFINED
from repro.lir import skeleton, wholefn
from repro.lir.executor import Bailout
from repro.lir.native import GUARD_OPS
from repro.lir.wholefn import WholeExecutor, whole_artifact
from repro.serving.isolate import TenantHost
from repro.workloads import ALL_SUITES

from tests.conftest import FAST
from tests.front_half_corpus import PAGE_SEEDS, _page_sources
from tests.helpers import compile_and_profile
from tests.test_wholefn import SCRIPT_WITH_PROLOGUE, _script_native, _translated

SUITE_SAMPLE = [
    ("objects", "poly-records"),
    ("churn", "shape-flip"),
    ("churn", "polymorphic-dispatch"),
    ("sunspider", "crypto-md5"),
    ("v8", "splay"),
    ("kraken", "stanford-crypto-sha256-iterative"),
]


def _suite_programs(wanted=None):
    return [
        ("%s/%s" % (suite_name, benchmark.name), benchmark.source)
        for suite_name, suite in ALL_SUITES.items()
        for benchmark in suite
        if wanted is None or (suite_name, benchmark.name) in wanted
    ]


def _pages(per_seed=None):
    return [page for seed in PAGE_SEEDS for page in _page_sources(seed)[:per_seed]]


def _run(source, root=None, **engine_kwargs):
    """One fresh engine over ``source`` (with the cache at ``root``, if given)."""
    cache = None if root is None else DiskCodeCache(root=str(root))
    engine = Engine(config=FULL_SPEC, code_cache=cache, **engine_kwargs)
    return engine, list(engine.run_source(source))


def _clock(engine):
    """What must not depend on how a binary's module came to be."""
    stats = engine.stats.as_dict()
    return (
        {key: value for key, value in stats.items() if key not in DISK_TRAFFIC_KEYS},
        engine.executor.cycles,
        engine.executor.instructions_executed,
        engine.interpreter.ops_executed,
    )


# -- (1) equivalence --------------------------------------------------------------


class _EmitBesideEveryLink(object):
    """Wraps ``wholefn._link``: re-derives each linked module with the emitter."""

    def __init__(self, monkeypatch):
        self.checked = 0
        self.refused = 0
        self._link = wholefn._link
        monkeypatch.setattr(wholefn, "_link", self)

    def __call__(self, native, executor, roots, record):
        linked = self._link(native, executor, roots, record)
        if linked is None:
            self.refused += 1
            return None
        fn, counts, sums, prefix = linked
        emitter = skeleton._WholeEmitter(native, executor, roots)
        source, e_counts, e_sums, e_prefix = emitter.generate()
        namespace = emitter.namespace
        exec(compile(source, fn.__code__.co_filename, "exec"), namespace)
        emitted = namespace.pop("_w")
        # Code objects, not marshal blobs: dumps() of one is not byte-stable.
        assert fn.__code__ == emitted.__code__
        assert (counts, sums, prefix) == (e_counts, e_sums, e_prefix)
        assert fn.__globals__ == namespace
        for name, kind, index in record["bindings"]:
            assert fn.__globals__[name] is wholefn.bound_value(native, kind, index)
        self.checked += 1
        return linked


def _assert_links_equal_emissions(programs, tmp_path, monkeypatch):
    beside = _EmitBesideEveryLink(monkeypatch)
    hits = bailouts = 0
    for index, (name, source) in enumerate(programs):
        root = tmp_path / str(index)
        cold, cold_printed = _run(source, root)
        warm, warm_printed = _run(source, root)
        assert warm_printed == cold_printed, name
        assert _clock(warm) == _clock(cold), name
        assert warm.code_cache.hits == cold.code_cache.stores, name
        assert warm.executor.modules_linked == warm.code_cache.hits, name
        hits += warm.code_cache.hits
        bailouts += warm.stats.as_dict()["bailouts"]
    assert beside.refused == 0
    assert beside.checked == hits
    return hits, bailouts


def test_a_link_builds_what_the_emitter_would(tmp_path, monkeypatch):
    programs = _suite_programs(SUITE_SAMPLE) + _pages(per_seed=2)
    assert len(programs) == 12
    hits, bailouts = _assert_links_equal_emissions(programs, tmp_path, monkeypatch)
    # The sample reaches the paths a link must not disturb.
    assert hits > 150 and bailouts > 50


@pytest.mark.nightly
def test_a_link_builds_what_the_emitter_would_everywhere(tmp_path, monkeypatch):
    programs = _suite_programs() + _pages()
    assert len(programs) == 38 + 48
    _assert_links_equal_emissions(programs, tmp_path, monkeypatch)


# -- (2) each check refuses alone -------------------------------------------------

#: Enough compiled functions, calls and loop iterations for every fact.
HOT = SCRIPT_WITH_PROLOGUE


def test_an_edited_emitter_refuses_every_link(tmp_path, monkeypatch):
    cold, cold_printed = _run(HOT, tmp_path, **FAST)
    assert cold.code_cache.stores > 0
    monkeypatch.setattr(wholefn, "_emitter_digest", lambda: b"edited since the store")
    warm, warm_printed = _run(HOT, tmp_path, **FAST)
    assert warm.code_cache.hits == cold.code_cache.stores
    assert (warm.executor.modules_linked, warm.executor.modules_emitted) == (
        0,
        warm.code_cache.hits,
    )
    assert warm_printed == cold_printed
    assert _clock(warm) == _clock(cold)


def test_unreadable_emitter_source_persists_and_links_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(wholefn, "_emitter_digest", lambda: None)
    cold, cold_printed = _run(HOT, tmp_path, **FAST)
    warm, warm_printed = _run(HOT, tmp_path, **FAST)
    assert warm.code_cache.hits == cold.code_cache.stores > 0
    assert warm.executor.modules_linked == 0
    assert warm_printed == cold_printed and _clock(warm) == _clock(cold)


@contextlib.contextmanager
def _native_prices(monkeypatch, **prices):
    """``CostModel.native_costs`` with ``prices`` changed, inside the block.

    The emitter digest is computed once per process, so it is dropped on
    the way in and on the way out: each side sees the prices it runs under.
    """
    with monkeypatch.context() as patch:
        patch.setattr(CostModel, "native_costs", dict(CostModel.native_costs, **prices))
        wholefn._emitter_digest.cache_clear()
        try:
            yield
        finally:
            patch.undo()
            wholefn._emitter_digest.cache_clear()


def test_the_emitter_digest_covers_native_prices(monkeypatch):
    before = wholefn._emitter_digest()
    with _native_prices(monkeypatch, add_i=5):
        dearer = wholefn._emitter_digest()
    assert dearer is not None and before is not None
    assert dearer != before
    assert wholefn._emitter_digest() == before


def test_a_changed_native_price_refuses_every_link(tmp_path, monkeypatch):
    cold, cold_printed = _run(HOT, tmp_path, **FAST)
    with _native_prices(monkeypatch, add_i=5):
        reference, _ = _run(HOT, **FAST)
        warm, warm_printed = _run(HOT, tmp_path, **FAST)
    assert warm.code_cache.hits > 0
    assert warm.executor.modules_linked == 0
    assert warm_printed == cold_printed
    # The cycles of the model it runs under, not of the one it was stored under.
    assert _clock(warm) == _clock(reference)
    assert warm.executor.cycles != cold.executor.cycles


def test_widened_roots_refuse_the_link(tmp_path):
    reference, _ = _run(HOT, **FAST)
    _run(HOT, tmp_path, **FAST)
    warm, _printed = _run(HOT, tmp_path, **FAST)
    native = _script_native(warm)
    assert native.disk_whole["roots"] == (native.osr_index,)
    assert warm.executor.modules_emitted == 0
    assert native.entry_index not in _translated(native)
    # Entering at ``entry`` widens the translation: other roots, no link.
    for engine in (reference, warm):
        engine.executor.run(_script_native(engine), None, UNDEFINED, [])
    assert warm.executor.modules_emitted == 1
    assert native.entry_index in _translated(native)
    assert _clock(warm) == _clock(reference)
    assert warm.interpreter.runtime.printed == reference.interpreter.runtime.printed


#: ``get`` is the same function — same bytecode, same feedback, shape id
#: and all — in both pages, so it has one cache key; but the page before
#: it numbered another tree, and the id means another layout.
READER = """
function get(k) { var o = pool[k]; return o.y; }
var s = 0;
for (var i = 0; i < 40; i++) s += get(0);
print(s);
"""
PAGE_XY = "var pool = [{x: 1, y: 2}];" + READER
PAGE_YX = "var pool = [{y: 2, x: 1}];" + READER


def test_another_shape_numbering_refuses_the_link(tmp_path, monkeypatch):
    refused = []
    link = wholefn._link

    def spy(native, executor, roots, record):
        linked = link(native, executor, roots, record)
        if linked is None:
            refused.append((native.code.name, record["shapes"], executor.runtime.shapes))
        return linked

    monkeypatch.setattr(wholefn, "_link", spy)
    first, first_printed = _run(PAGE_XY, tmp_path, **FAST)
    assert first_printed == ["80"] and first.code_cache.stores == 2
    second, second_printed = _run(PAGE_YX, tmp_path, **FAST)
    # The second page hit the first one's ``get`` and did not trust it.
    assert second.code_cache.hits == 1 and second.executor.modules_linked == 0
    [(name, shapes, tree)] = refused
    assert name == "get"
    [(ids, prop, offset)] = shapes
    assert (prop, offset) == ("y", 1)
    assert common_slot_offset(tree, ids, prop) == 0
    reference, reference_printed = _run(PAGE_YX, **FAST)
    assert second_printed == reference_printed == ["80"]  # ``.slots[1]`` holds 1
    assert _clock(second) == _clock(reference)


def test_tenants_of_one_shared_store_do_not_share_a_numbering(tmp_path):
    def serve(host):
        replies = [
            host.execute_request({"tenant": tenant, "program": "page", "source": source})
            for tenant, source in (("xy", PAGE_XY), ("yx", PAGE_YX))
        ]
        assert [reply["status"] for reply in replies] == ["ok", "ok"]
        return [(reply["output"], reply["service_cycles"]) for reply in replies]

    shared = TenantHost(cache_mode="shared", cache_root=str(tmp_path), engine_kwargs=FAST)
    alone = TenantHost(engine_kwargs=FAST)
    assert serve(shared) == serve(alone)
    assert serve(alone)[0][0] == ["80"]
    second = shared.isolates["yx"]
    assert second.cache.hits == 1
    assert second.engine.executor.modules_linked == 0


# -- (3) recovery through a linked binary ---------------------------------------------


def _other_shape(runtime):
    ordinary = JSObject(runtime.shapes.root)
    ordinary.set("x", 1)
    other = JSObject(runtime.shapes.root)
    other.set("y", 1)
    other.set("x", 2)
    return other


#: guard op -> (program, arguments failing that guard, reason, set-up).
GUARD_FAILURES = {
    "add_i": ("function f(a, b) { return a + b; } f(1, 2);", [2147483647, 1], "overflow"),
    "sub_i": ("function f(a, b) { return a - b; } f(1, 2);", [-2147483648, 1], "overflow"),
    "mul_i": ("function f(a, b) { return a * b; } f(3, 2);", [0, -1], "negative zero"),
    "neg_i": ("function f(a) { return -a; } f(3);", [0], "negative zero"),
    "bitop_i": ("function f(a, b) { return a >>> b; } f(3, 1);", [-1, 0], "uint32 overflow"),
    "unbox": ("function f(a) { return a + 1; } f(3);", ["s"], "type guard"),
    "typebarrier": ("var g = 1; function f() { return g + 1; } f();", [], "type barrier"),
    "boundscheck": (
        "function f(a, i) { return a[i]; } f([1, 2, 3], 1);",
        lambda runtime: [JSArray(runtime.shapes.root, [1, 2, 3]), 99],
        "bounds check",
    ),
    "guardshape": (
        "function f(o) { return o.x; } f({x: 1});",
        lambda runtime: [_other_shape(runtime)],
        "shape guard",
    ),
    "checkoverrecursed": ("function f(a) { return a + 1; } f(3);", [3], "over-recursed"),
}


def _failing_run(kind, native):
    """Run ``native`` into its ``kind`` guard on a fresh executor."""
    _source, args, _reason = GUARD_FAILURES[kind]
    executor = WholeExecutor(Interpreter())
    if callable(args):
        args = args(executor.runtime)
    if kind == "typebarrier":
        executor.runtime.globals["g"] = "a string now"
    if kind == "checkoverrecursed":
        executor.interpreter.call_depth = MAX_CALL_DEPTH
    with pytest.raises(Bailout) as raised:
        executor.run(native, None, UNDEFINED, args)
    return executor, raised.value


@pytest.mark.parametrize("kind", sorted(GUARD_OPS))
def test_a_linked_guard_fails_as_an_emitted_one(kind):
    source, _args, reason = GUARD_FAILURES[kind]
    _top, code = compile_and_profile(source)
    result = compile_function(code, BASELINE, feedback=code.feedback)
    store = WholeExecutor(Interpreter())
    _other_shape(store.runtime)
    artifact = freeze_result(result, code)
    artifact["whole"] = whole_artifact(result.native, store)
    assert artifact["whole"] is not None
    artifact = marshal.loads(marshal.dumps(artifact))
    linked_native = thaw_result(artifact, code).native
    emitted_native = thaw_result(dict(artifact, whole=None), code).native

    linked, linked_bail = _failing_run(kind, linked_native)
    emitted, emitted_bail = _failing_run(kind, emitted_native)
    assert (linked.modules_linked, linked.modules_emitted) == (1, 0)
    assert (emitted.modules_linked, emitted.modules_emitted) == (0, 1)

    assert (linked_bail.guard_op, linked_bail.reason) == (kind, reason)
    guard = linked_native.instructions[linked_bail.native_index]
    assert guard.op == kind
    # The checkpoint the engine resumes from is the thawed binary's own.
    assert linked_bail.snapshot is guard.snapshot
    for field in ("guard_op", "reason", "pc", "mode", "native_index", "frame_locals"):
        assert getattr(linked_bail, field) == getattr(emitted_bail, field), field
    assert len(linked_bail.frame_args) == len(emitted_bail.frame_args)
    assert len(linked_bail.frame_stack) == len(emitted_bail.frame_stack)
    assert repr(linked_bail.actual) == repr(emitted_bail.actual)
    assert (linked.cycles, linked.instructions_executed) == (
        emitted.cycles,
        emitted.instructions_executed,
    )
