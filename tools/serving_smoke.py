#!/usr/bin/env python
"""CI smoke check: the serving tier survives real multi-tenant traffic.

Starts ``python -m repro serve`` as a subprocess (unix socket, two
engine worker processes, shared sharded cache, preloaded catalog),
drives a fixed request mix over the JSON-line protocol — 200 ``run``
requests spread across 8 tenants by default — then asserts the
contract the serving tier documents (docs/SERVING.md):

- every request gets an ``ok`` reply that echoes its client ``id``
  and carries its ``service_cycles``, the model cycles its tenant's
  engine ran for it;
- the ``stats`` op agrees with what the client observed (requests
  served, tenants seen);
- ``shutdown`` drains gracefully: the server exits 0 and writes the
  merged metrics payload as JSONL (uploaded as a CI artifact), whose
  request counter matches what we actually sent.

The server is ready when it *answers* ``ping``, not when its socket
path appears (bound is not yet listening).  It runs in its own process
group, and the group is killed on every way out, so a failed run leaves
no orphan server or worker; a phase that hangs (``start``, ``requests``,
``shutdown``) fails the run by name.

Deterministic on purpose: tenants and programs are picked round-robin
(no randomness), so two runs issue byte-identical traffic.

Usage::

    PYTHONPATH=src python tools/serving_smoke.py \
        [--requests 200] [--tenants 8] [--metrics-out PATH]

Exit status 1 on any contract violation, 0 otherwise.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

CATALOG_PROGRAMS = 4
CATALOG_FUNCTIONS = 3
START_TIMEOUT = 30.0
REPLY_TIMEOUT = 60.0
SHUTDOWN_TIMEOUT = 60.0


class PhaseTimeout(Exception):
    """A phase of the smoke run did not finish in its time."""


class LineClient(object):
    """Blocking JSON-line client over a unix socket."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.settimeout(REPLY_TIMEOUT)
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def request(self, payload):
        self.sock.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        line = self.reader.readline()
        if not line:
            raise SystemExit("server closed the connection mid-request")
        return json.loads(line)

    def close(self):
        try:
            self.reader.close()
        finally:
            self.sock.close()


def wait_until_serving(path, proc, timeout=START_TIMEOUT):
    """Connect and ``ping`` until the server answers; returns the client."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "server exited before serving (exit %d)" % proc.returncode
            )
        try:
            client = LineClient(path)
        except OSError:
            time.sleep(0.05)  # not bound yet, or bound and not yet listening
            continue
        try:
            if client.request({"op": "ping"}).get("status") == "ok":
                return client
        except OSError:
            pass
        client.close()
        time.sleep(0.05)
    raise PhaseTimeout("server did not answer ping within %ds" % timeout)


def kill_group(proc):
    """Kill the server's whole process group (it leads one); reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # every member already exited
    proc.wait()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--tenants", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="merged metrics JSONL path (default: <tempdir>/metrics.jsonl)",
    )
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="repro-serving-smoke-")
    socket_path = os.path.join(workdir, "serve.sock")
    metrics_path = args.metrics_out or os.path.join(workdir, "metrics.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")

    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            socket_path,
            "--workers",
            str(args.workers),
            "--cache",
            "shared",
            "--cache-dir",
            os.path.join(workdir, "cache"),
            "--catalog-programs",
            str(CATALOG_PROGRAMS),
            "--catalog-functions",
            str(CATALOG_FUNCTIONS),
            "--metrics-out",
            metrics_path,
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,  # its own process group: see kill_group
    )

    failures = []
    served = 0
    phase = "start"
    try:
        client = wait_until_serving(socket_path, proc)

        phase = "requests"
        for index in range(args.requests):
            tenant = "t%02d" % (index % args.tenants)
            program = "app-%02d" % (index % CATALOG_PROGRAMS)
            reply = client.request(
                {
                    "op": "run",
                    "tenant": tenant,
                    "program": program,
                    "id": "req-%04d" % index,
                }
            )
            if reply.get("status") != "ok" or type(reply.get("service_cycles")) is not int:
                failures.append("request %d: bad reply %r" % (index, reply))
                continue
            served += 1
            if reply.get("id") != "req-%04d" % index:
                failures.append("request %d: id not echoed: %r" % (index, reply))

        stats = client.request({"op": "stats"})
        if stats.get("status") != "ok":
            failures.append("stats op failed: %r" % (stats,))
        if stats.get("requests") != served:
            failures.append(
                "stats served %r != client-observed %d" % (stats.get("requests"), served)
            )
        if stats.get("tenants") != min(args.tenants, served or args.tenants):
            failures.append(
                "stats tenants %r != expected %d" % (stats.get("tenants"), args.tenants)
            )
        if served == 0:
            failures.append("no request was served")

        phase = "shutdown"
        down = client.request({"op": "shutdown"})
        if down.get("status") != "ok":
            failures.append("shutdown op failed: %r" % (down,))
        client.close()
        proc.wait(timeout=SHUTDOWN_TIMEOUT)
    except (PhaseTimeout, socket.timeout, subprocess.TimeoutExpired) as error:
        failures.append("timed out in phase %r: %s" % (phase, error))
    finally:
        kill_group(proc)

    output = proc.stdout.read() if proc.stdout else ""
    if proc.returncode != 0:
        failures.append(
            "server exit code %r; output:\n%s" % (proc.returncode, output)
        )

    if not os.path.exists(metrics_path):
        failures.append("metrics JSONL missing: %s" % metrics_path)
    else:
        with open(metrics_path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
        if not lines:
            failures.append("metrics JSONL is empty")
        else:
            total = lines[0].get("counters", {}).get("repro_serving_requests_total")
            if total != served:
                failures.append(
                    "metrics requests_total %r != served %d" % (total, served)
                )

    if failures:
        print("SERVING SMOKE FAILED:")
        for failure in failures:
            print("  " + failure)
        print("server output:\n" + output)
        return 1
    print(
        "serving smoke OK: %d served over %d tenants; clean exit; metrics at %s"
        % (served, args.tenants, metrics_path)
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
