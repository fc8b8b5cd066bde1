"""The ``serve-mixed`` workload: a real ``python -m repro serve`` subprocess.

Closed loop: :data:`workloads.CONNECTIONS` connections from this one generator
process, each sending its next request only when the previous reply arrived
(independent callers that each wait for a reply).  Tenants are partitioned
across connections by index, so every tenant's request order is fixed.

With tracing on, the same schedule is also replayed sequentially three ways —
``TenantHost.execute_request`` in-process, ``WorkerPool(workers=1)``, and the
socket — so the layers between a caller and the engine can be told apart.
"""

import contextlib
import json
import os
import socket
import subprocess
import sys
import threading
import time

from hostbench import hostspeed, trace, workloads

clock = time.perf_counter

START_TIMEOUT = 60.0
REPLY_TIMEOUT = 60.0
SHUTDOWN_TIMEOUT = 60.0
SOCKET_NAME = "serve.sock"
SHARDS = 4
KERNEL_RUNS = 6


class Server(object):
    """A ``repro serve`` child bound to ``<directory>/serve.sock``.

    ``directory`` is relative to the generator's working directory (the
    lifetime's scratch directory) and the server binds a path relative to its
    own, because a checkout can sit deeper than a unix socket address is long.
    """

    def __init__(self, directory, catalog_seed):
        self.address = os.path.join(directory, SOCKET_NAME)
        os.makedirs(directory)
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--socket",
                SOCKET_NAME,
                "--workers",
                "1",
                "--cache",
                "shared",
                "--cache-dir",
                "cache",
                "--shards",
                str(SHARDS),
                "--catalog-programs",
                str(workloads.PROGRAMS),
                "--catalog-seed",
                str(catalog_seed),
                "--catalog-functions",
                str(workloads.FUNCTIONS_PER_PROGRAM),
            ],
            cwd=directory,
            stdout=subprocess.DEVNULL,
        )

    def connect(self):
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.settimeout(REPLY_TIMEOUT)
        client.connect(self.address)
        return client

    def ask(self, payload):
        """One request on a connection of its own."""
        with self.connect() as client, client.makefile("rb") as reader:
            return request(client, reader, payload)[0]

    def wait_ready(self):
        deadline = clock() + START_TIMEOUT
        while clock() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("server exited with %d before binding" % self.process.returncode)
            try:
                if self.ask({"op": "ping"}).get("status") == "ok":
                    return
            except OSError:
                pass  # not bound yet, or bound and not yet listening
            time.sleep(0.01)
        raise RuntimeError("server did not answer ping within %ds" % START_TIMEOUT)

    def peak_rss_mb(self):
        """Σ ``VmHWM`` of the server and its worker processes, from ``/proc``."""
        family = {self.process.pid}
        total_kb = 0
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open("/proc/%s/status" % entry) as handle:
                    fields = dict(line.split(":", 1) for line in handle if ":" in line)
            except OSError:
                continue
            if int(entry) in family or int(fields.get("PPid", "0")) in family:
                total_kb += int(fields.get("VmHWM", "0 kB").split()[0])
        return total_kb / 1024.0

    def shutdown(self):
        """Graceful ``shutdown``; True if the server drained and exited 0."""
        try:
            self.ask({"op": "shutdown"})
            return self.process.wait(timeout=SHUTDOWN_TIMEOUT) == 0
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return False
        finally:
            self.kill()

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


def request(client, reader, payload):
    """One JSON-line round trip; returns ``(reply, reply_bytes)``."""
    client.sendall((json.dumps(payload) + "\n").encode("utf-8"))
    line = reader.readline()
    if not line:
        raise OSError("server closed the connection")
    return json.loads(line), len(line)


def check(reply, expected):
    """Whether a reply is ``ok`` and prints what the reference interpreter printed."""
    return reply.get("status") == "ok" and workloads.digest(
        reply.get("output", [])
    ) == expected.get(reply.get("program"))


def job_for(record, echo):
    """A ``run`` job; the schedule position rides in ``echo`` (``id`` on the wire, ``seq`` inside)."""
    return {"tenant": record["tenant"], "program": record["program"], echo: record["seq"]}


def drive(server, records, samples):
    """One connection's closed loop over its share of the schedule."""
    with server.connect() as client, client.makefile("rb") as reader:
        for record in records:
            start = clock()
            try:
                reply, size = request(client, reader, job_for(record, "id"))
            except (OSError, ValueError) as error:
                reply, size = {"status": "error", "error": str(error)}, 0
            samples.append((record["seq"], clock() - start, reply, size))


def closed_loop(server, schedule, connections):
    """Drive ``schedule`` over ``connections`` connections; ``(wall_s, samples)``."""
    shares = [[] for _ in range(connections)]
    for record in schedule:
        shares[int(record["tenant"][1:]) % connections].append(record)
    samples = [[] for _ in range(connections)]
    threads = [
        threading.Thread(target=drive, args=(server, share, out))
        for share, out in zip(shares, samples)
    ]
    begin = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = clock() - begin
    return wall, sorted(sample for out in samples for sample in out)


def socket_pass(directory, profile, schedule, expected, connections):
    """One server lifetime: spawn, closed loop, peak memory, graceful stop."""
    server = Server(directory, profile.seed)
    try:
        server.wait_ready()
        ready = clock()
        # The generator idles during the loop; the host's speed is sampled around it.
        kernel_s = [hostspeed.kernel() for _ in range(KERNEL_RUNS)]
        wall, samples = closed_loop(server, schedule, connections)
        kernel_s += [hostspeed.kernel() for _ in range(KERNEL_RUNS)]
        rss = server.peak_rss_mb()
        # A server that does not drain fails every request of its lifetime.
        drained = server.shutdown()
    finally:
        server.kill()
    good = [sample for sample in samples if drained and check(sample[2], expected)]
    return {
        "ready": ready,
        "wall_s": wall,
        "op_s": [sample[1] for sample in samples],
        "ok": len(good),
        "model_cycles": sum(sample[2]["service_cycles"] for sample in good),
        "reply_bytes": [sample[3] for sample in samples],
        "peak_rss_mb": rss,
        "kernel_s": kernel_s,
    }


def host_kwargs(directory):
    return {
        "cache_mode": "shared",
        "cache_root": os.path.join(directory, "cache"),
        "shards": SHARDS,
        "engine_kwargs": {},
    }


def direct_pass(directory, catalog, schedule, expected, tracer=None):
    """The schedule through ``TenantHost.execute_request``, in this process."""
    from repro.serving.isolate import TenantHost

    os.makedirs(directory)
    host = TenantHost(catalog=catalog, **host_kwargs(directory))
    seconds = []
    replies = []
    begin = clock()
    for record in schedule:
        span = contextlib.nullcontext() if tracer is None else tracer.operation_span(record["seq"])
        start = clock()
        with span:
            replies.append(host.execute_request(job_for(record, "seq")))
        seconds.append(clock() - start)
    wall = clock() - begin
    totals = dict.fromkeys(workloads.OBSERVED[2:], 0)
    for isolate in host.isolates.values():
        counts = workloads.engine_counts(isolate.engine.stats, isolate.cache)
        for field, count in zip(workloads.OBSERVED[2:], counts):
            totals[field] += count
    seen = set()
    cold = []
    for record in schedule:
        pair = (record["tenant"], record["program"])
        cold.append(pair not in seen)
        seen.add(pair)
    return {
        "wall_s": wall,
        "op_s": seconds,
        "cold": cold,
        "ok": sum(check(reply, expected) for reply in replies),
        "rejected": sum(reply.get("status") == "rejected" for reply in replies),
        "observed": [
            [workloads.digest(reply.get("output", [])), reply.get("service_cycles", 0)]
            for reply in replies
        ],
        "totals": totals,
        "cache_bytes": host.store_stats()["bytes"],
    }


def pool_pass(directory, catalog, schedule):
    """The schedule through ``WorkerPool(workers=1)``: one queue hop each way."""
    from repro.serving.pool import WorkerPool

    os.makedirs(directory)
    pool = WorkerPool(workers=1, host_kwargs=host_kwargs(directory), catalog=catalog)
    pool.start()
    seconds = []
    try:
        for record in schedule:
            start = clock()
            pool.submit(job_for(record, "seq"))
            pool.next_response(timeout=REPLY_TIMEOUT)
            seconds.append(clock() - start)
    finally:
        pool.shutdown()
    return seconds


def run_lifetime(spec):
    """Untraced: one server lifetime.  Traced: the three sequential rungs."""
    profile, catalog, schedule = workloads.fleet(spec["seed"])
    schedule = schedule[: spec.get("limit")]
    expected = spec["expected"]
    os.chdir(spec["scratch"])
    result = {"operations": sorted(catalog), "attempted": len(schedule), "mismatches": []}
    if not spec.get("trace_path"):
        sample = socket_pass("socket", profile, schedule, expected, workloads.CONNECTIONS)
        result.update(
            setup_s=sample["ready"] - spec["started"],
            passes=[{"wall_s": sample["wall_s"], "op_s": sample["op_s"]}],
            observed=[sample["model_cycles"]],
            failed=len(schedule) - sample["ok"],
            peak_rss_mb=sample["peak_rss_mb"],
            kernel_s=sample["kernel_s"],
        )
        return result

    from repro.engine.runtime_engine import resolve_executor_backend

    # The traced replay sits between the two untraced ones it is compared with.
    direct = direct_pass("direct", catalog, schedule, expected)
    tracer = trace.Tracer()
    with tracer.installed():
        traced = direct_pass("traced", catalog, schedule, expected, tracer)
    again = direct_pass("again", catalog, schedule, expected)
    for label, other in (("traced", traced), ("second untraced", again)):
        if (other["observed"], other["totals"]) != (direct["observed"], direct["totals"]):
            result["mismatches"].append("%s direct rung differs from the first" % label)
    direct["wall_s"] = min(direct["wall_s"], again["wall_s"])
    direct["op_s"] = [min(pair) for pair in zip(direct["op_s"], again["op_s"])]
    counts = dict(tracer.counts)
    counts["cache.bytes_on_disk"] = traced["cache_bytes"]
    trace.write(spec["trace_path"], spec["workload"], tracer.spans, counts)
    pool_s = pool_pass("pool", catalog, schedule)
    sequential = socket_pass("socket", profile, schedule, expected, 1)
    if sequential["model_cycles"] != sum(row[1] for row in direct["observed"]):
        result["mismatches"].append("socket rung's model cycles differ from the direct rung's")
    result.update(
        observed=[sequential["model_cycles"]],
        failed=len(schedule) - min(direct["ok"], traced["ok"], sequential["ok"]),
        backend=resolve_executor_backend(None),
        direct=direct,
        traced={
            "wall_s": traced["wall_s"],
            "op_s": traced["op_s"],
            "layers": trace.summarize(tracer.spans),
            "counts": counts,
            "spans": len(tracer.spans),
        },
        pool_s=pool_s,
        socket=sequential,
    )
    return result
