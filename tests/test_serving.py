"""The multi-tenant serving tier: isolation, admission, shards, fleet.

The tier's contract (docs/SERVING.md) in test form:

* **isolation** — a tenant served from a multi-tenant host is
  bit-identical (outputs, latencies, metrics payload, shape
  numbering) to the same request stream served by a dedicated
  single-tenant engine, whatever ran in the process before or beside
  it — including a builtin (``Math``) and a guest object whose shapes
  would collide in a shared id space;
* **admission** — per-tenant lanes are deterministic virtual
  timelines: batching amortizes the dispatch delay, capacity bounds
  in-flight depth, rejections execute nothing;
* **sharding** — the shared artifact store routes by content key,
  keeps per-tenant counters exact, and prunes per shard;
* **fleet determinism** — same seed, same schedule bytes; merged
  metrics identical across ``--jobs`` counts and across repeat runs;
* **serving front end** — the asyncio server round-trips JSON lines,
  reports live stats, and drains gracefully into a metrics JSONL.
"""

import asyncio
import json
import os

import pytest

from repro.jsvm.interpreter import Interpreter
from repro.jsvm.runtime import Runtime
from repro.serving.admission import DISPATCH_DELAY, AdmissionLane
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


class TestAdmissionLane:
    def test_first_request_pays_dispatch_delay(self):
        lane = AdmissionLane()
        start = lane.admit(100, batch=0)
        assert start == 100 + DISPATCH_DELAY
        assert lane.complete(start, 500) == start + 500
        assert lane.lane_cycle == start + 500

    def test_batch_followers_skip_the_delay_but_queue_behind_the_lane(self):
        lane = AdmissionLane(dispatch_delay=30)
        first = lane.admit(0, batch=7)
        lane.complete(first, 1000)
        # Same batch, arrives while the lane is busy: no delay, but
        # dispatch waits for the lane clock.
        follower = lane.admit(10, batch=7)
        assert follower == 1030
        lane.complete(follower, 50)
        # New batch id: the delay is charged again.
        fresh = lane.admit(2000, batch=8)
        assert fresh == 2030

    def test_busy_lane_absorbs_a_new_batchs_dispatch_delay(self):
        lane = AdmissionLane(dispatch_delay=30)
        lane.complete(lane.admit(0, batch=1), 1000)
        # start = max(100 + 30, 1030): the delay runs while the lane is
        # busy, so it is not added on top of the wait.
        assert lane.admit(100, batch=2) == 1030

    def test_idle_lane_restarts_from_the_arrival_not_its_stale_clock(self):
        lane = AdmissionLane(dispatch_delay=30)
        lane.complete(lane.admit(50, batch=1), 10)
        assert lane.lane_cycle == 90
        assert lane.admit(5000, batch=2) == 5000 + 30

    def test_a_request_done_at_the_arrival_is_no_longer_in_flight(self):
        lane = AdmissionLane(dispatch_delay=0, capacity=1)
        lane.complete(lane.admit(0, batch=0), 100)
        assert lane.admit(99, batch=0) is None
        assert lane.admit(100, batch=0) == 100

    def test_a_rejection_moves_neither_the_clock_nor_the_batch(self):
        lane = AdmissionLane(dispatch_delay=30, capacity=1)
        lane.complete(lane.admit(0, batch=1), 500)
        assert lane.admit(10, batch=2) is None
        assert lane.lane_cycle == 530 and lane.admitted == 1
        # Batch 2 never dispatched, so its first admitted request still
        # pays the delay.
        assert lane.admit(600, batch=2) == 630

    def test_capacity_rejections_and_high_water(self):
        lane = AdmissionLane(dispatch_delay=0, capacity=2)
        for _ in range(2):
            start = lane.admit(0, batch=0)
            lane.complete(start, 10_000)  # both still in flight at t=1
        assert lane.admit(1, batch=0) is None
        assert lane.rejected == 1
        assert lane.depth_high_water == 2
        # Once the in-flight work completes, admission resumes.
        assert lane.admit(50_000, batch=1) is not None

    def test_lane_timeline_is_deterministic(self):
        def drive():
            lane = AdmissionLane()
            marks = []
            for arrival, batch in ((0, 0), (5, 0), (5, 1), (900, 1), (300, 2)):
                start = lane.admit(arrival, batch=batch)
                marks.append(lane.complete(start, 100))
            return marks

        marks = drive()
        assert marks == drive()
        # The last request arrives at 300, behind the lane clock (1000):
        # it starts at the clock, so time never runs backwards.
        assert marks == sorted(marks) and marks[-1] == 1000 + 100


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

    def test_snapshot_count_does_not_grow_with_requests(self):
        # snapshot_interval=0 (the isolate's registry default): each
        # request's Engine.finish() finalizes the same registry.
        isolate = TenantIsolate("a", engine_kwargs=FAST)
        for _ in range(5):
            isolate.serve("xy", PROGRAM_XY)
        assert isolate.metrics.snapshot_interval == 0
        assert len(isolate.metrics_payload()["snapshots"]) == 1

    def test_rejected_requests_execute_nothing(self):
        isolate = TenantIsolate("a", engine_kwargs=FAST, queue_capacity=1)
        # Pin an in-flight completion far in the future, then arrive
        # before it: capacity 1 means rejection.
        start = isolate.lane.admit(0, batch=0)
        isolate.lane.complete(start, 10_000_000)
        response = isolate.serve("xy", PROGRAM_XY, arrival=5)
        assert response["status"] == "rejected"
        assert response["output"] == []
        assert isolate.requests == 0
        payload = isolate.metrics_payload()
        assert payload["counters"]["repro_serving_rejected_total"] == 1
        assert payload["counters"]["repro_serving_requests_total"] == 0

    def test_unknown_catalog_program_is_an_error_response(self):
        host = TenantHost()
        response = host.execute_request({"tenant": "a", "program": "nope"})
        assert response["status"] == "error"
        assert "unknown program" in response["error"]


class TestShardedCache:
    def test_routing_is_pure_key_arithmetic(self, tmp_path):
        store = ShardedDiskCache(root=str(tmp_path), shards=4)
        import hashlib

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

    def test_per_shard_eviction_and_stats(self, tmp_path):
        self._warm_store(str(tmp_path))
        store = ShardedDiskCache(
            root=os.path.join(str(tmp_path), "tenant-a"), shards=4
        )
        before = store.stats()
        assert before["entries"] > 0
        removed = store.evict(max_entries=0)
        assert removed == before["entries"]
        assert store.evictions == removed
        after = store.stats()
        assert after["entries"] == 0
        assert len(after["per_shard"]) == 4

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

    def test_batches_cap_at_the_limit_and_follow_tenant_runs(self):
        profile = FleetProfile(**dict(SMALL_FLEET, requests=60, batch_limit=3))
        schedule = generate_schedule(profile)
        by_batch = {}
        for record in schedule:
            by_batch.setdefault(record["batch"], []).append(record["tenant"])
        for tenants in by_batch.values():
            assert len(set(tenants)) == 1  # a batch never mixes tenants
            assert len(tenants) <= 3

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
        assert serial["p99_latency_cycles"] == fanned["p99_latency_cycles"]

    def test_warm_shared_root_hits_and_keeps_cycles_identical(self, tmp_path):
        profile = FleetProfile(**SMALL_FLEET)
        kwargs = dict(
            cache_mode="shared", cache_root=str(tmp_path), engine_kwargs=FAST
        )
        cold = run_fleet(profile, **kwargs)
        warm = run_fleet(profile, **kwargs)
        assert warm["warm_hit_rate"] == 1.0
        assert warm["disk_misses"] == 0
        # The cache is a host-time optimization: the simulated
        # timeline must not move between cold and warm runs.
        assert warm["total_latency_cycles"] == cold["total_latency_cycles"]
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
        assert ran["latency_cycles"] > 0
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
