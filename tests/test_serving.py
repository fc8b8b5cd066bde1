"""The multi-tenant serving tier: isolation, shards, fleet, transport.

The tier's contract (docs/SERVING.md) in test form:

* **isolation** — a tenant served from a multi-tenant host is
  bit-identical (outputs, service cycles, metrics payload, shape
  numbering) to the same request stream served by a dedicated
  single-tenant engine, whatever ran in the process before or beside
  it — including a builtin (``Math``) and a guest object whose shapes
  would collide in a shared id space;
* **measure** — a reply carries the engine cycles its request ran and
  nothing else on a clock, and the serving rows of a payload are
  computed from the isolates;
* **sharding** — the shared artifact store routes by content key,
  keeps per-tenant counters exact, and prunes per shard;
* **fleet determinism** — same seed, same schedule bytes (each seed's
  request stream pinned by digest); merged metrics identical across
  ``--jobs`` counts and across repeat runs;
* **serving front end** — the asyncio server round-trips JSON lines,
  reports live stats, and drains gracefully into a metrics JSONL;
* **transport** — a worker's replies equal an in-process replay,
  inline requests never interleave, a schedule submitted before any
  read all arrives, and a killed worker is a typed error, not a hang.
"""

import asyncio
import hashlib
import json
import os
import signal
import sys

import pytest

from repro.errors import ReproError
from repro.jsvm.interpreter import Interpreter
from repro.jsvm.runtime import Runtime
from repro.serving.fleet import (
    FleetProfile,
    build_catalog,
    generate_schedule,
    percentile,
    run_fleet,
    schedule_jsonl,
)
from repro.serving.isolate import TenantHost, TenantIsolate
from repro.serving.pool import WorkerPool, tenant_worker
from repro.serving.server import ServingServer
from repro.serving.shards import ShardedDiskCache, TenantCacheView
from repro.telemetry.metrics import merge_payloads
from repro.telemetry.tracing import Tracer

from tests.conftest import FAST

# Two programs with *conflicting* shape histories: same property
# names, opposite insertion orders, so a tree shared between engines
# would hand the second tenant different shape ids than its own does.
PROGRAM_XY = """
function get(o) { return o.x + o.y; }
var s = 0;
for (var i = 0; i < 20; i = i + 1) { s = (s + get({x: i, y: 2 * i})) & 65535; }
print(s);
"""

PROGRAM_YX = """
function get(o) { return o.x - o.y; }
var s = 0;
for (var i = 0; i < 20; i = i + 1) { s = (s + get({y: i, x: 3 * i})) & 65535; }
print(s);
"""

#: Prints a line, then calls a non-function.
GUEST_FAULT = "print(1); var notfn = 3; notfn();"

#: Forty lines per request: interleaved requests would tear them.
PRINT_40 = "for (var i = 0; i < 40; i = i + 1) { print(i); }"

#: Busy for a few tenths of a second, then a reply larger than a
#: socket's send buffer (about 390 KB pickled).
SPIN_THEN_PRINT_50K = (
    "var s = 0; for (var j = 0; j < 300000; j = j + 1) { s = s + j; }"
    " for (var i = 0; i < 50000; i = i + 1) { print(i); }"
)

#: A request line near the server's 64 KiB line limit.
LARGE_SOURCE = "/*" + "x" * 60000 + "*/ print(1);"

#: Small but JIT-exercising fleet profile (seconds, not minutes).
SMALL_FLEET = {
    "tenants": 3,
    "requests": 18,
    "programs": 2,
    "seed": 11,
    "functions_per_program": 3,
}


def _strip_responses(responses):
    """Responses without the partition-dependent ``seq`` echo."""
    cleaned = []
    for response in responses:
        response = dict(response)
        response.pop("seq", None)
        cleaned.append(response)
    return cleaned


CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS = sorted(name for name in os.listdir(CORPUS_DIR) if name.endswith(".js"))


def _shapes(isolate):
    return isolate.engine.interpreter.runtime.shapes


class TestTenantIsolation:
    def _serve_stream(self, target, program, source, count):
        return [target.serve(program, source) for _ in range(count)]

    def test_hosted_tenant_is_bit_identical_to_a_dedicated_engine(self):
        host = TenantHost(engine_kwargs=FAST)
        # Tenant a carries a tracer of its own; its neighbour b does not.
        traced = dict(FAST, tracer=Tracer())
        host.isolates["a"] = TenantIsolate("a", engine_kwargs=traced)
        hosted = []
        # Interleave two tenants with conflicting shape histories.
        for _ in range(4):
            hosted.append(
                host.execute_request(
                    {"tenant": "a", "program": "xy", "source": PROGRAM_XY}
                )
            )
            host.execute_request(
                {"tenant": "b", "program": "yx", "source": PROGRAM_YX}
            )
        solo = TenantIsolate("a", engine_kwargs=dict(FAST, tracer=Tracer()))
        expected = self._serve_stream(solo, "xy", PROGRAM_XY, 4)
        assert _strip_responses(hosted) == _strip_responses(expected)
        # The full speculation state lines up, not just the outputs:
        # identical shape numbering and identical metrics payloads, and
        # the ledger and every trace event, code ids and keys included.
        tenant = host.isolates["a"]
        assert _shapes(tenant).next_id == _shapes(solo).next_id
        assert tenant.metrics_payload() == solo.metrics_payload()
        assert tenant.engine.stats.as_dict() == solo.engine.stats.as_dict()
        events = tenant.engine.tracer.events
        assert events == solo.engine.tracer.events
        assert any("('ref', 1)" in event.get("key", "") for event in events)

    def test_conflicting_shape_orders_number_independently(self):
        host = TenantHost(engine_kwargs=FAST)
        host.execute_request({"tenant": "a", "source": PROGRAM_XY})
        host.execute_request({"tenant": "b", "source": PROGRAM_YX})
        # Each tenant's runtime numbered its own shapes right after its
        # builtins'; with a tree shared between engines tenant b's ids
        # would start after tenant a's.
        first = Runtime().shapes.next_id
        tree_a = _shapes(host.isolates["a"])
        tree_b = _shapes(host.isolates["b"])
        assert tree_a is not tree_b
        assert tree_a.next_id == tree_b.next_id == first + 2
        assert tree_a.by_id[first + 1].names == ("x", "y")
        assert tree_b.by_id[first + 1].names == ("y", "x")

    @pytest.mark.parametrize("backend", ["simple", "closure", "whole"])
    def test_builtin_and_guest_shapes_share_one_id_space(self, backend):
        # One guest shape per id below Math's, then {sqrt}: in a tree
        # that does not also hold Math, {sqrt} takes Math's id and the
        # slot offset baked under the guard reads the wrong builtin.
        math_id = Runtime().globals["Math"].shape.shape_id
        lines = ["var o%d = {p%d: 1};" % (n, n) for n in range(1, math_id)]
        lines += [
            "var trap = {sqrt: 1};",
            "function f(x) { return Math.sqrt(x); }",
            "var s = 0;",
            "for (var i = 0; i < 200; i = i + 1) { s = s + f(16.5); }",
            "print(s);",
        ]
        source = "\n".join(lines)
        host = TenantHost(engine_kwargs={"executor_backend": backend})
        response = host.execute_request({"tenant": "t", "source": source})
        assert response["output"] == Interpreter().run_source(source)

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus_program_served_behind_a_decoy_matches_the_interpreter(
        self, name
    ):
        with open(os.path.join(CORPUS_DIR, name)) as handle:
            source = handle.read()
        expected = Interpreter().run_source(source)
        host = TenantHost(engine_kwargs=FAST)
        host.execute_request({"tenant": "decoy", "source": PROGRAM_YX})
        # Twice: the second request runs on the warmed-up isolate.
        for _ in range(2):
            response = host.execute_request(
                {"tenant": "t", "program": name, "source": source}
            )
            assert response["status"] == "ok"
            assert response["output"] == expected

    def test_a_reused_program_name_runs_the_source_it_was_sent_with(self):
        host = TenantHost(engine_kwargs=FAST)
        first = host.execute_request({"tenant": "a", "source": "print(1);"})
        second = host.execute_request({"tenant": "a", "source": "print(2);"})
        assert (first["output"], second["output"]) == (["1"], ["2"])

    def test_a_served_reply_is_engine_cycles_only(self):
        host = TenantHost(engine_kwargs=FAST)
        replies = [
            host.execute_request(
                {"tenant": tenant, "program": "xy", "source": PROGRAM_XY, "seq": seq}
            )
            for seq, tenant in enumerate("aba")
        ]
        assert set(replies[0]) == {
            "tenant",
            "program",
            "status",
            "output",
            "service_cycles",
            "seq",
        }
        payloads = host.metrics_payloads()
        for payload in payloads:
            assert list(payload["histograms"]) == ["repro_compile_cycles_per_compile"]
        merged = merge_payloads(payloads)
        assert merged["counters"]["repro_serving_requests_total"] == sum(
            i.requests for i in host.isolates.values()
        ) == 3
        assert merged["gauges"]["repro_serving_tenants"] == len(host.isolates) == 2
        tenant_a = host.isolates["a"].metrics_payload()
        assert tenant_a["counters"]["repro_serving_requests_total"] == 2
        # Computed, not accumulated: asking again reads the same.
        assert host.metrics_payloads() == payloads

    def test_every_engine_cycle_is_some_replys_service_cycles(self):
        # No clock beside the engine's: a tenant's replies account for
        # its engine's whole cycle clock, compiles and cold loads included.
        isolate = TenantIsolate("a", engine_kwargs=FAST)
        replies = self._serve_stream(isolate, "xy", PROGRAM_XY, 6)
        replies += self._serve_stream(isolate, "yx", PROGRAM_YX, 2)
        assert all(r["service_cycles"] > 0 for r in replies)
        assert sum(r["service_cycles"] for r in replies) == (
            isolate.engine.stats.total_cycles
        )

    def test_the_payload_reads_the_engine_even_after_a_guest_raised(self):
        # The payload is computed from the engine when asked for, so a
        # guest that raised (and never reached finish()) is counted too.
        isolate = TenantIsolate("a", engine_kwargs=FAST)
        for _ in range(5):
            isolate.serve("xy", PROGRAM_XY)
        engine = isolate.engine
        assert engine.metrics is None
        before = engine.stats.total_cycles
        with pytest.raises(ReproError):
            isolate.serve("fault", GUEST_FAULT)
        assert engine.stats.total_cycles > before
        payload = isolate.metrics_payload()
        assert payload["gauges"]["repro_engine_total_cycles"] == engine.stats.total_cycles
        assert payload["counters"]["repro_serving_requests_total"] == 5

    def test_unknown_catalog_program_is_an_error_response(self):
        host = TenantHost()
        response = host.execute_request({"tenant": "a", "program": "nope"})
        assert response["status"] == "error"
        assert "unknown program" in response["error"]


class TestShardedCache:
    def test_routing_is_pure_key_arithmetic(self, tmp_path):
        store = ShardedDiskCache(root=str(tmp_path), shards=4)
        keys = [
            hashlib.sha256(b"key-%d" % value).hexdigest() for value in range(30)
        ]
        for key in keys:
            index = int(key[:8], 16) % 4
            assert store.shard_index(key) == index
            assert store.shard_for(key) is store.shards[index]
        assert len({store.shard_index(key) for key in keys}) > 1

    def test_rejects_zero_shards(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedDiskCache(root=str(tmp_path), shards=0)

    def _warm_store(self, root, tenant="a"):
        host = TenantHost(
            cache_mode="tenant", cache_root=root, engine_kwargs=FAST
        )
        for _ in range(3):
            host.execute_request(
                {"tenant": tenant, "program": "xy", "source": PROGRAM_XY}
            )
        return host

    def test_artifacts_roundtrip_through_the_shards(self, tmp_path):
        cold = self._warm_store(str(tmp_path))
        stats = cold.store_stats()
        assert stats["stores"] > 0 and stats["entries"] > 0
        warm = self._warm_store(str(tmp_path))
        cache = warm.isolates["a"].cache
        assert cache.hits > 0
        assert cache.stores == 0

    def test_per_shard_stats(self, tmp_path):
        self._warm_store(str(tmp_path))
        store = ShardedDiskCache(
            root=os.path.join(str(tmp_path), "tenant-a"), shards=4
        )
        stats = store.stats()
        assert stats["entries"] > 0
        assert len(stats["per_shard"]) == 4
        assert sum(s["entries"] for s in stats["per_shard"]) == stats["entries"]

    def test_shared_mode_tenant_counters_sum_to_store_counters(self, tmp_path):
        host = TenantHost(
            cache_mode="shared", cache_root=str(tmp_path), engine_kwargs=FAST
        )
        for _ in range(3):
            host.execute_request({"tenant": "a", "source": PROGRAM_XY})
            host.execute_request({"tenant": "b", "source": PROGRAM_XY})
        views = [host.isolates[t].cache for t in ("a", "b")]
        assert all(isinstance(view, TenantCacheView) for view in views)
        store = host.store
        assert sum(v.hits for v in views) == store.hits
        assert sum(v.misses for v in views) == store.misses
        assert sum(v.stores for v in views) == store.stores
        # Tenant b arrived second: the shared store serves it tenant
        # a's artifacts, so its very first compile probes can hit.
        assert store.hits > 0


class TestFleetDeterminism:
    def test_same_seed_means_byte_identical_schedules(self):
        profile = FleetProfile(**SMALL_FLEET)
        again = FleetProfile(**SMALL_FLEET)
        first = schedule_jsonl(generate_schedule(profile))
        assert first == schedule_jsonl(generate_schedule(again))
        assert first.count("\n") == SMALL_FLEET["requests"]

    def test_different_seeds_diverge(self):
        base = generate_schedule(FleetProfile(**SMALL_FLEET))
        moved = dict(SMALL_FLEET, seed=SMALL_FLEET["seed"] + 1)
        assert schedule_jsonl(base) != schedule_jsonl(
            generate_schedule(FleetProfile(**moved))
        )

    def test_the_schedule_stream_is_pinned(self):
        # Every seed's (seq, tenant, program) stream, as generated before
        # the schedule lost its arrival and batch fields: the draws that
        # made them are still taken, so hostbench's serve-mixed traffic
        # and the cycle bench's serving profile do not move.
        from hostbench import workloads

        from repro.bench.cycles import SERVING_PROFILE

        def digest(schedule):
            text = "".join(
                "%d %s %s\n" % (r["seq"], r["tenant"], r["program"]) for r in schedule
            )
            return hashlib.sha256(text.encode()).hexdigest()

        assert digest(generate_schedule(FleetProfile(**SERVING_PROFILE))) == (
            "4176f177a75b6a79f8b78965be9193312bb7f1e17d8d28ba02d12864339a08f3"
        )
        pinned = {
            1: "a52d6806fdd682c8eddd63fb4abd77c56ec2e3b54558020bba6b7a4142297a41",
            2: "04a42fa39b2228efb23784a8219debd5ab25eebc50e75adac70c43f35a6f76af",
            20130223: "32e629e3ee30fbd662c5632401ba743322a27e7e75abe46ffd0a4cea6b8a44a9",
        }
        for seed, expected in pinned.items():
            assert digest(workloads.fleet(seed)[2]) == expected, seed

    def test_a_schedule_record_is_order_tenant_and_program(self):
        schedule = generate_schedule(FleetProfile(**SMALL_FLEET))
        assert [r["seq"] for r in schedule] == list(
            range(SMALL_FLEET["requests"])
        )
        for record in schedule:
            assert set(record) == {"seq", "tenant", "program"}

    def test_the_service_total_is_the_fleets_engine_clock(self):
        # The gated service rows read the engines' own clocks: summed
        # over every reply, they equal the merged total-cycles gauge.
        result = run_fleet(
            FleetProfile(**SMALL_FLEET), cache_mode="off", engine_kwargs=FAST
        )
        assert result["errors"] == 0
        assert result["total_service_cycles"] == sum(
            r["service_cycles"] for r in result["responses"]
        )
        assert result["total_service_cycles"] == (
            result["metrics"]["gauges"]["repro_engine_total_cycles"]
        )

    def test_repeat_runs_merge_to_identical_metrics(self):
        profile = FleetProfile(**SMALL_FLEET)
        first = run_fleet(profile, cache_mode="off", engine_kwargs=FAST)
        second = run_fleet(profile, cache_mode="off", engine_kwargs=FAST)
        assert first["metrics"] == second["metrics"]
        assert first["responses"] == second["responses"]
        assert first["requests"] == len(first["responses"]) > 0

    def test_jobs_partitioning_does_not_move_the_merged_metrics(self):
        profile = FleetProfile(**SMALL_FLEET)
        serial = run_fleet(profile, jobs=1, cache_mode="tenant", engine_kwargs=FAST)
        fanned = run_fleet(profile, jobs=3, cache_mode="tenant", engine_kwargs=FAST)
        assert serial["metrics"] == fanned["metrics"]
        assert serial["responses"] == fanned["responses"]
        assert serial["p99_service_cycles"] == fanned["p99_service_cycles"]
        assert serial["errors"] == fanned["errors"] == 0

    def test_warm_shared_root_hits_and_keeps_cycles_identical(self, tmp_path):
        profile = FleetProfile(**SMALL_FLEET)
        kwargs = dict(
            cache_mode="shared", cache_root=str(tmp_path), engine_kwargs=FAST
        )
        cold = run_fleet(profile, **kwargs)
        warm = run_fleet(profile, **kwargs)
        assert warm["warm_hit_rate"] == 1.0
        assert warm["disk_misses"] == 0
        # The cache is a host-time optimization: the model cycles must
        # not move between cold and warm runs.
        assert warm["total_service_cycles"] == cold["total_service_cycles"]
        assert [r["output"] for r in warm["responses"]] == [
            r["output"] for r in cold["responses"]
        ]

    def test_percentile_is_nearest_rank(self):
        assert percentile([], 0.5) == 0
        assert percentile([7], 0.99) == 7
        values = list(range(1, 101))
        assert percentile(values, 0.50) == 51
        assert percentile(values, 0.99) == 100

    def test_catalog_is_a_pure_function_of_the_profile(self):
        profile = FleetProfile(**SMALL_FLEET)
        assert build_catalog(profile) == build_catalog(profile)
        assert len(build_catalog(profile)) == SMALL_FLEET["programs"]


class TestWorkerPool:
    def test_tenant_routing_is_stable_and_in_range(self):
        for workers in (1, 2, 5):
            for tenant in ("t00", "t01", "alpha", "beta"):
                index = tenant_worker(tenant, workers)
                assert 0 <= index < max(workers, 1)
                assert index == tenant_worker(tenant, workers)

    def test_inline_pool_round_trip_and_summary(self):
        pool = WorkerPool(workers=0, host_kwargs={"engine_kwargs": FAST})
        pool.start()
        pool.submit({"tenant": "a", "source": PROGRAM_XY, "seq": 0})
        kind, _index, response = pool.next_response(timeout=5)
        assert kind == "response"
        assert response["status"] == "ok"
        assert response["seq"] == 0
        summary = pool.shutdown()
        assert summary["tenants"] == ["a"]
        counters = summary["metrics"]["counters"]
        assert counters["repro_serving_requests_total"] == 1

    def test_process_pool_isolates_tenants_and_merges_metrics(self):
        pool = WorkerPool(workers=2, host_kwargs={"engine_kwargs": FAST})
        pool.start()
        expect = {}
        for seq, tenant in enumerate(["a", "b", "a", "b", "c", "a"]):
            pool.submit({"tenant": tenant, "source": PROGRAM_XY, "seq": seq})
            expect[seq] = tenant
        seen = {}
        for _ in range(len(expect)):
            kind, _index, response = pool.next_response(timeout=30)
            assert kind == "response"
            assert response["status"] == "ok"
            seen[response["seq"]] = response["tenant"]
        assert seen == expect
        summary = pool.shutdown()
        assert summary["tenants"] == ["a", "b", "c"]
        counters = summary["metrics"]["counters"]
        assert counters["repro_serving_requests_total"] == len(expect)
        assert summary["metrics"]["gauges"]["repro_serving_tenants"] == 3

    def test_bad_request_keeps_the_worker_alive(self):
        pool = WorkerPool(workers=0)
        pool.start()
        pool.submit({"tenant": "a", "seq": 0})  # no source, no catalog
        _kind, _index, response = pool.next_response(timeout=5)
        assert response["status"] == "error"
        pool.submit({"tenant": "a", "source": "print(2);", "seq": 1})
        _kind, _index, response = pool.next_response(timeout=5)
        assert response["status"] == "ok"
        assert response["output"] == ["2"]
        pool.shutdown()

    @pytest.mark.parametrize("workers", [0, 1])
    def test_guest_error_is_an_error_response_not_an_exception(self, workers):
        pool = WorkerPool(workers=workers, host_kwargs={"engine_kwargs": FAST})
        pool.start()
        pool.submit({"tenant": "a", "source": GUEST_FAULT, "seq": 0})
        _kind, _index, response = pool.next_response(timeout=30)
        assert response["status"] == "error"
        assert response["error"].startswith("JSTypeError")
        assert response["seq"] == 0
        # The isolate survives, and the faulting request's output did
        # not leak into the next response.
        pool.submit({"tenant": "a", "source": "print(2);", "seq": 1})
        _kind, _index, response = pool.next_response(timeout=30)
        assert response["status"] == "ok"
        assert response["output"] == ["2"]
        pool.shutdown()

    def test_a_long_schedule_submitted_before_any_read_all_arrives(self):
        # Without the in-flight window both directions of the pipe fill
        # and the pool and its worker wait on each other forever.
        pool = WorkerPool(workers=1, host_kwargs={"engine_kwargs": FAST})
        pool.start()
        for seq in range(3000):
            pool.submit({"tenant": "a", "source": "print(1);", "seq": seq})
        replies = [pool.next_response(timeout=30) for _ in range(3000)]
        assert [r[2]["seq"] for r in replies] == list(range(3000))
        assert all(r[2]["output"] == ["1"] for r in replies)
        pool.shutdown()


class TestServingServer:
    def _run(self, coroutine):
        return asyncio.run(coroutine)

    async def _call(self, reader, writer, request):
        writer.write((json.dumps(request) + "\n").encode())
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=30)
        return json.loads(line.decode())

    async def _drive(self, tmp_path):
        socket_path = os.path.join(str(tmp_path), "serve.sock")
        metrics_out = os.path.join(str(tmp_path), "metrics.jsonl")
        server = ServingServer(
            socket_path=socket_path,
            workers=0,
            engine_kwargs=FAST,
            catalog={"xy": PROGRAM_XY},
            metrics_out=metrics_out,
        )
        await server.start()
        reader, writer = await asyncio.open_unix_connection(socket_path)
        assert (await self._call(reader, writer, {"op": "ping"}))["status"] == "ok"
        ran = await self._call(
            reader, writer, {"tenant": "a", "program": "xy", "id": "req-1"}
        )
        assert ran["status"] == "ok"
        assert ran["id"] == "req-1"
        assert len(ran["output"]) == 1
        assert ran["service_cycles"] > 0
        inline = await self._call(
            reader, writer, {"tenant": "b", "source": "print(41 + 1);"}
        )
        assert inline["output"] == ["42"]
        stats = await self._call(reader, writer, {"op": "stats"})
        assert stats["requests"] == 2
        assert stats["tenants"] == 2
        bye = await self._call(reader, writer, {"op": "shutdown"})
        assert bye["status"] == "ok"
        writer.close()
        await asyncio.wait_for(server.wait_closed(), timeout=30)
        return server, metrics_out

    def test_end_to_end_over_a_unix_socket(self, tmp_path):
        server, metrics_out = self._run(self._drive(tmp_path))
        counters = server.summary["metrics"]["counters"]
        assert counters["repro_serving_requests_total"] == 2
        with open(metrics_out) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        assert lines, "graceful shutdown must flush a metrics JSONL"
        assert lines[0]["counters"]["repro_serving_requests_total"] == 2

    async def _reject_after_drain(self, tmp_path):
        socket_path = os.path.join(str(tmp_path), "serve.sock")
        server = ServingServer(socket_path=socket_path, workers=0)
        await server.start()
        reader, writer = await asyncio.open_unix_connection(socket_path)
        await self._call(reader, writer, {"op": "shutdown"})
        writer.close()
        await asyncio.wait_for(server.wait_closed(), timeout=30)
        assert server.summary is not None

    def test_shutdown_without_traffic_still_reports_a_summary(self, tmp_path):
        self._run(self._reject_after_drain(tmp_path))

    async def _guest_fault(self, tmp_path):
        socket_path = os.path.join(str(tmp_path), "serve.sock")
        server = ServingServer(
            socket_path=socket_path, workers=0, engine_kwargs=FAST
        )
        await server.start()
        reader, writer = await asyncio.open_unix_connection(socket_path)
        failed = await self._call(
            reader, writer, {"tenant": "a", "source": GUEST_FAULT}
        )
        assert failed["status"] == "error"
        assert failed["error"].startswith("JSTypeError")
        # Same connection, same tenant: the next request is served.
        ran = await self._call(reader, writer, {"tenant": "a", "source": "print(2);"})
        assert ran["status"] == "ok"
        assert ran["output"] == ["2"]
        stats = await self._call(reader, writer, {"op": "stats"})
        assert stats["pending"] == 0
        assert stats["errors"] == 1
        await self._call(reader, writer, {"op": "shutdown"})
        writer.close()
        await asyncio.wait_for(server.wait_closed(), timeout=30)
        assert server.summary["tenants"] == ["a"]

    def test_guest_error_keeps_the_connection_and_drains(self, tmp_path):
        self._run(self._guest_fault(tmp_path))

    async def _serve(self, tmp_path, test, workers):
        socket_path = os.path.join(str(tmp_path), "serve.sock")
        server = ServingServer(
            socket_path=socket_path, workers=workers, engine_kwargs=FAST
        )
        await server.start()

        async def connect():
            # Room for a reply line of a few hundred thousand bytes.
            return await asyncio.open_unix_connection(socket_path, limit=1 << 21)

        await test(server, connect)
        reader, writer = await connect()
        await self._call(reader, writer, {"op": "shutdown"})
        writer.close()
        await asyncio.wait_for(server.wait_closed(), timeout=30)
        return server

    def test_inline_requests_run_one_at_a_time(self, tmp_path):
        async def test(_server, connect):
            async def client():
                reader, writer = await connect()
                outputs = []
                for _ in range(25):
                    reply = await self._call(
                        reader, writer, {"tenant": "a", "source": PRINT_40}
                    )
                    outputs.append(reply["output"])
                writer.close()
                return outputs

            replies = await asyncio.gather(client(), client())
            expected = [str(i) for i in range(40)]
            assert [o for outputs in replies for o in outputs] == [expected] * 50

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            self._run(self._serve(tmp_path, test, workers=0))
        finally:
            sys.setswitchinterval(interval)

    def test_a_worker_reply_equals_the_in_process_replay(self, tmp_path):
        programs = [PROGRAM_XY, PROGRAM_YX, PROGRAM_XY, GUEST_FAULT, PROGRAM_XY]
        served = {}

        async def test(_server, connect):
            async def client(tenant):
                reader, writer = await connect()
                served[tenant] = [
                    await self._call(
                        reader, writer, {"tenant": tenant, "source": source}
                    )
                    for source in programs
                ]
                writer.close()

            await asyncio.gather(client("a"), client("b"))

        self._run(self._serve(tmp_path, test, workers=1))
        host = TenantHost(engine_kwargs=FAST)
        fields = ("status", "output", "service_cycles")
        for tenant in ("a", "b"):
            replay = [
                host.execute_request({"tenant": tenant, "source": source})
                for source in programs
            ]
            assert [[r.get(f) for f in fields] for r in served[tenant]] == [
                [r.get(f) for f in fields] for r in replay
            ]

    def test_a_killed_worker_is_a_typed_error_not_a_hang(self, tmp_path):
        async def test(server, connect):
            reader, writer = await connect()
            probe = await connect()
            spin = {"tenant": "a", "source": "while (true) {}"}
            writer.write(json.dumps(spin).encode() + b"\n")
            await writer.drain()
            while (await self._call(*probe, {"op": "stats"}))["pending"] != 1:
                await asyncio.sleep(0.01)
            os.kill(server.pool._processes[0].pid, signal.SIGKILL)
            line = await asyncio.wait_for(reader.readline(), timeout=10)
            reply = json.loads(line.decode())
            assert reply["status"] == "error"
            assert reply["error"].startswith("WorkerExited")
            assert reply["tenant"] == "a"
            assert (await self._call(*probe, {"op": "ping"}))["status"] == "ok"
            later = await self._call(reader, writer, {"tenant": "a", "source": "1;"})
            assert later["error"].startswith("WorkerExited")
            writer.close()
            probe[1].close()

        async def bounded():
            return await asyncio.wait_for(
                self._serve(tmp_path, test, workers=1), timeout=60
            )

        server = self._run(bounded())
        assert server.summary["tenants"] == []

    def test_large_requests_beside_a_large_reply_do_not_block_the_loop(
        self, tmp_path
    ):
        # Five ~60 KiB requests overfill the pool's send buffer while
        # the worker writes a reply larger than its own.  A pool that
        # sent them all would block the event loop in ``send``, and the
        # loop is the only reader of the reply the worker is blocked
        # writing.  ``asyncio.wait_for`` cannot fire on a blocked loop,
        # so an alarm kills the worker instead: a hang then fails as
        # ``WorkerExited`` replies.
        async def test(server, connect):
            reader, writer = await connect()
            probe = await connect()
            spin = {"tenant": "a", "source": SPIN_THEN_PRINT_50K}
            writer.write(json.dumps(spin).encode() + b"\n")
            await writer.drain()
            while (await self._call(*probe, {"op": "stats"}))["pending"] != 1:
                await asyncio.sleep(0.01)

            async def client(tenant):
                large = await connect()
                reply = await self._call(
                    *large, {"tenant": tenant, "source": LARGE_SOURCE}
                )
                large[1].close()
                return reply

            def kill_worker(_signum, _frame):
                os.kill(server.pool._processes[0].pid, signal.SIGKILL)

            previous = signal.signal(signal.SIGALRM, kill_worker)
            signal.alarm(30)
            try:
                replies = await asyncio.gather(
                    *[client("t%d" % n) for n in range(5)]
                )
                line = await asyncio.wait_for(reader.readline(), timeout=30)
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, previous)
            assert [r["output"] for r in replies] == [["1"]] * 5
            assert json.loads(line.decode())["output"] == [
                str(i) for i in range(50000)
            ]
            assert (await self._call(*probe, {"op": "ping"}))["status"] == "ok"
            writer.close()
            probe[1].close()

        self._run(self._serve(tmp_path, test, workers=1))
