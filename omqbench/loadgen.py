"""The serve-mixed phase: an open-loop load generator against a server process.

This module runs in the generator process.  The server runs in a second
process (``server.py``), so server and client never share an interpreter
lock.  Traffic is open loop: request ``i`` is due at ``start + i / rate``
whatever happened before, at most two keep-alive connections carry it
(``nproc`` on the reference host), and every latency is timed from the
request's due time, so a stall also counts against the requests queued
behind it.  How late the generator itself dispatched is reported apart.

The mix is 90% ``POST /tenants/{t}/query`` and 10% single-fact
``POST /tenants/{t}/facts`` batches.  Per tenant, writes alternate: add a
``HasAdvisor`` fact, then remove it, so every state a read can see is the
initial database or the initial database plus one known fact.  Writes of one
tenant are sent one at a time (the next waits for the previous response),
so their order is the schedule's order.

Correctness: the first and last answers of each tenant must be
byte-identical to an in-process engine on an equal database, every read's
answer count must lie inside the write stream's envelope, and every write
must report exactly one added or removed fact.
"""

from __future__ import annotations

import asyncio
import gc
import json
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import fmean, median

from common import HERE, at_reference, child_env, probe, quantile, run_child

QUERY = "q(s, a, d) :- HasAdvisor(s, a), WorksFor(a, d)"
READY_PREFIX = "repro-server listening on "
WRITE_EVERY = 10
REFERENCE_RPS = 100.0
#: Keep-alive connections the generator uses (nproc of the reference host).
CONNECTIONS = 2

perf = time.perf_counter


class Connection:
    """One keep-alive HTTP/1.1 connection (just enough client for this server)."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, method: str, path: str, payload=None) -> tuple[int, bytes]:
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self.writer.write(head.encode("ascii") + body)
        await self.writer.drain()
        raw = await self.reader.readuntil(b"\r\n\r\n")
        lines = raw.decode("ascii").split("\r\n")
        status = int(lines[0].split(" ")[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def _count(body: bytes) -> int:
    """The ``count`` field of a query response without decoding the answers."""
    tail = body[body.rfind(b'"count": ') + 9 :]
    return int(tail[: tail.index(b",")])


def expected_answers(size: int, seed: int, facts: int) -> dict:
    """One tenant's expected answers, from an in-process engine on an equal database.

    Runs in a child process (the ``serve-expect`` phase), so the generator
    process stays small.  Also returns the write stream's facts and the
    envelope of answer counts a read may see: the initial count and the
    count with each fact added.
    """
    from repro.data.facts import Fact
    from repro.engine import QueryEngine
    from repro.workloads import get_workload

    scenario = get_workload("university").scenario(size=size, seed=seed)
    database = scenario.database
    engine = QueryEngine(scenario.ontology, database)
    initial = engine.execute(QUERY)
    rng = random.Random(seed)
    professors = sorted({fact.args[0] for fact in database.relation("WorksFor")})
    stream = [["HasAdvisor", [f"benchw{index}", rng.choice(professors)]] for index in range(facts)]
    counts = [len(initial)]
    for relation, args in stream:
        fact = Fact(relation, tuple(args))
        database.add(fact)
        counts.append(len(engine.execute(QUERY)))
        database.discard(fact)
    return {
        "answers": _encode(initial),
        "restored": _encode(engine.execute(QUERY)) == _encode(initial),
        "facts": stream,
        "low": min(counts),
        "high": max(counts),
    }


def _encode(rows) -> str:
    return json.dumps(sorted([str(term) for term in row] for row in rows))


class Expectation:
    """One tenant's expected answers, facts and envelope (see expected_answers)."""

    def __init__(self, data: dict) -> None:
        self.answers = data["answers"]
        self.restored = data["restored"]
        self.facts = data["facts"]
        self.low, self.high = data["low"], data["high"]

    def matches(self, body: bytes) -> bool:
        return json.dumps(json.loads(body)["answers"]) == self.answers


class Server:
    """The server process, started and stopped by the generator."""

    def __init__(self, tenants, trace: bool, report: str, spans_out: str | None) -> None:
        payload = {"tenants": tenants, "trace": trace, "report": report, "spans_out": spans_out}
        self.report_path = report
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), json.dumps(payload)],
            env=child_env(),
            cwd=str(HERE.parent),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )

    def wait_ready(self, timeout: float = 60.0) -> tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith(READY_PREFIX):
                hostport = line[len(READY_PREFIX) :].strip().split("//", 1)[1]
                host, port = hostport.rsplit(":", 1)
                return host, int(port)
        raise RuntimeError("server did not announce its address")

    def stop(self) -> dict:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        try:
            with open(self.report_path, encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return {}


class Traffic:
    """The 90/10 read/write stream, pooled over every window sent in a run.

    Windows are separate ``asyncio.run`` calls, so a run can interleave them
    with other phases; what must persist between windows (samples, and each
    tenant's position in its add/remove sequence) lives here.
    """

    def __init__(self, expectations: dict, seed: int) -> None:
        self.expectations = expectations
        self.names = sorted(expectations)
        self.rng = random.Random(seed)
        self.steps = {name: 0 for name in self.names}
        self.index = 0
        self.reads: list[float] = []
        self.writes: list[float] = []
        self.late: list[float] = []
        self.failures: list[str] = []
        self.requests = 0
        self.saturation: list[tuple[int, float]] = []

    def _next(self) -> tuple[str, str]:
        """The next request of the mix: ("read" | "write", tenant)."""
        self.index += 1
        if self.index % WRITE_EVERY == 0:
            return "write", self.names[(self.index // WRITE_EVERY) % len(self.names)]
        return "read", self.names[self.rng.randrange(len(self.names))]

    async def _send(self, pool: asyncio.Queue, method: str, path: str, payload) -> tuple[int, bytes]:
        connection = await pool.get()
        try:
            return await connection.request(method, path, payload)
        finally:
            pool.put_nowait(connection)

    async def _one(self, pool, locks, kind: str, tenant: str, due: float, sink: bool) -> float:
        """Send one request; returns its completion time."""
        self.requests += 1
        if kind == "read":
            status, body = await self._send(pool, "POST", f"/tenants/{tenant}/query", {"query": QUERY})
            done = perf()
            expectation = self.expectations[tenant]
            if status != 200:
                self.failures.append(f"read {tenant}: HTTP {status}")
            elif not expectation.low <= _count(body) <= expectation.high:
                self.failures.append(
                    f"read {tenant}: count outside [{expectation.low}, {expectation.high}]"
                )
            if sink:
                self.reads.append(done - due)
            return done
        async with locks[tenant]:
            step = self.steps[tenant]
            self.steps[tenant] += 1
            facts = self.expectations[tenant].facts
            fact = facts[(step // 2) % len(facts)]
            key = "add" if step % 2 == 0 else "remove"
            status, body = await self._send(pool, "POST", f"/tenants/{tenant}/facts", {key: [fact]})
        done = perf()
        if status != 200:
            self.failures.append(f"write {tenant}: HTTP {status}")
        elif json.loads(body).get("added" if key == "add" else "removed") != 1:
            self.failures.append(f"write {tenant}: {key} did not change exactly one fact")
        if sink:
            self.writes.append(done - due)
        return done

    async def _connect(self, host: str, port: int, count: int):
        pool: asyncio.Queue = asyncio.Queue()
        connections = [await Connection.open(host, port) for _ in range(count)]
        for connection in connections:
            pool.put_nowait(connection)
        locks = {name: asyncio.Lock() for name in self.names}
        return pool, connections, locks

    async def open_loop(self, host: str, port: int, rate: float, seconds: float) -> float:
        """Requests due every ``1 / rate`` s; returns the backlog at the end (s)."""
        pool, connections, locks = await self._connect(host, port, CONNECTIONS)
        try:
            tasks = []
            start = perf() + 0.05
            total = max(1, int(rate * seconds))
            for index in range(total):
                due = start + index / rate
                pause = due - perf()
                if pause > 0:
                    await asyncio.sleep(pause)
                self.late.append(perf() - due)
                kind, tenant = self._next()
                tasks.append(asyncio.create_task(self._one(pool, locks, kind, tenant, due, True)))
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        finally:
            for connection in connections:
                await connection.close()
        done = [outcome for outcome in outcomes if not isinstance(outcome, BaseException)]
        self.failures += [f"{type(o).__name__}: {o}" for o in outcomes if isinstance(o, BaseException)]
        return max(0.0, max(done, default=start) - (start + (total - 1) / rate))

    async def closed_loop(self, host: str, port: int, seconds: float) -> None:
        """Each connection sends its next request as soon as the last returns."""
        pool, connections, locks = await self._connect(host, port, CONNECTIONS)
        completed = 0
        started = perf()
        deadline = started + seconds

        async def worker() -> None:
            nonlocal completed
            while perf() < deadline:
                kind, tenant = self._next()
                await self._one(pool, locks, kind, tenant, perf(), False)
                completed += 1

        try:
            await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
        finally:
            for connection in connections:
                await connection.close()
        self.saturation.append((completed, perf() - started))

    async def settle(self, host: str, port: int) -> None:
        """Close any open add, so every tenant is back at its initial database."""
        pool, connections, locks = await self._connect(host, port, 1)
        try:
            for name in self.names:
                if self.steps[name] % 2:
                    await self._one(pool, locks, "write", name, perf(), False)
        finally:
            for connection in connections:
                await connection.close()


async def _query(host: str, port: int, tenant: str) -> tuple[int, bytes]:
    connection = await Connection.open(host, port)
    try:
        return await connection.request("POST", f"/tenants/{tenant}/query", {"query": QUERY})
    finally:
        await connection.close()


async def _probe(host: str, port: int) -> float:
    """The host-speed probe, run in the server process (see server.py)."""
    return (await _get(host, port, "/bench/probe"))["probe_s"]


async def _get(host: str, port: int, path: str) -> dict:
    connection = await Connection.open(host, port)
    try:
        _status, body = await connection.request("GET", path)
        return json.loads(body)
    finally:
        await connection.close()


@contextmanager
def _collector_paused():
    """No garbage-collector pauses in the generator while it sends load."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class ServeSession:
    """The serve-mixed phase, driven window by window from the run's process.

    Start-up computes the expected answers in-process, then starts the
    server ``starts`` times (each start until both tenants have answered
    once is one set-up sample) and keeps the last one running.
    """

    def __init__(self, size: int, seed: int, out_dir: Path, *, starts: int, trace: bool,
                 load_seconds: float) -> None:
        tenants = [["t0", size, 2 * seed + 1], ["t1", size, 2 * seed + 2]]
        # Each fact of a tenant's stream is added and then removed; the
        # stream cycles, so this only sizes the envelope's sample of facts.
        writes = load_seconds * REFERENCE_RPS / WRITE_EVERY
        facts = max(2, int(writes / len(tenants) / 2))
        expected = run_child("phases.py", {"phase": "serve-expect", "tenants": tenants, "facts": facts})
        self.expectations = {name: Expectation(data) for name, data in expected.items()}
        self.identical: list[bool] = [e.restored for e in self.expectations.values()]
        self.traffic = Traffic(self.expectations, seed)
        self.setups: list[float] = []
        self.backlogs: list[float] = []
        # At the reference host speed (see common.probe): each set-up and
        # each burst scaled by the probes right next to it, in the server
        # and in this process.  Open-loop latencies are not scaled (see
        # README.md).
        self.setups_ref: list[float] = []
        self.saturation_ref: list[float] = []
        self.probes: list[float] = []
        self.server = None
        for index in range(starts):
            last = index == starts - 1
            started = perf()
            self.server = Server(
                tenants,
                trace=trace and last,
                report=str(out_dir / f"server-{index}.json"),
                spans_out=str(out_dir / "spans-server.jsonl") if trace and last else None,
            )
            self.host, self.port = self.server.wait_ready()
            bodies = {name: asyncio.run(_query(self.host, self.port, name)) for name, _, _ in tenants}
            elapsed = perf() - started
            self.setups.append(elapsed)
            self.setups_ref.append(at_reference(elapsed, self._probe_both()))
            self._compare(bodies)
            if not last:
                self.server.stop()

    def _compare(self, bodies: dict) -> None:
        self.identical += [
            status == 200 and self.expectations[name].matches(body)
            for name, (status, body) in bodies.items()
        ]

    def _probe_both(self) -> float:
        """Mean of a probe in the server process and one in this process:
        a request's latency is spent in both."""
        server = asyncio.run(_probe(self.host, self.port))
        client = probe()
        self.probes += [server, client]
        return (server + client) / 2

    def window(self, seconds: float) -> None:
        with _collector_paused():
            self.backlogs.append(
                asyncio.run(self.traffic.open_loop(self.host, self.port, REFERENCE_RPS, seconds))
            )

    def saturate(self, seconds: float) -> None:
        before = self._probe_both()
        with _collector_paused():
            asyncio.run(self.traffic.closed_loop(self.host, self.port, seconds))
        probe_s = (before + self._probe_both()) / 2
        done, elapsed = self.traffic.saturation[-1]
        self.saturation_ref.append(done / at_reference(elapsed, probe_s))

    def close(self) -> None:
        """Stop the server if it still runs (safe to call twice)."""
        if self.server is not None:
            self.server.stop()
            self.server = None

    def finish(self) -> dict:
        asyncio.run(self.traffic.settle(self.host, self.port))
        bodies = {name: asyncio.run(_query(self.host, self.port, name)) for name in self.traffic.names}
        self._compare(bodies)
        metrics = asyncio.run(_get(self.host, self.port, "/metrics"))
        report = self.server.stop()
        self.server = None
        traffic = self.traffic
        failed = len(traffic.failures) + self.identical.count(False)
        return {
            "setup_s": median(self.setups),
            "setup_ref_s": median(self.setups_ref),
            "setup_samples": self.setups,
            "probe_ms": [round(1000 * value, 2) for value in self.probes],
            "max_rps_ref": median(self.saturation_ref),
            "reads": len(traffic.reads),
            "writes": len(traffic.writes),
            "read_p50_ms": 1000 * quantile(traffic.reads, 0.50),
            "read_p90_ms": 1000 * quantile(traffic.reads, 0.90),
            "read_p95_ms": 1000 * quantile(traffic.reads, 0.95),
            "read_p99_ms": 1000 * quantile(traffic.reads, 0.99),
            "write_p50_ms": 1000 * quantile(traffic.writes, 0.50),
            "write_p90_ms": 1000 * quantile(traffic.writes, 0.90),
            "late_p50_ms": 1000 * quantile(traffic.late, 0.50),
            "late_p99_ms": 1000 * quantile(traffic.late, 0.99),
            "backlog_s": self.backlogs,
            "saturation_rps": [done / elapsed for done, elapsed in traffic.saturation],
            "max_rps": sum(done for done, _ in traffic.saturation)
            / sum(elapsed for _, elapsed in traffic.saturation),
            "attempted": traffic.requests + len(self.identical),
            "failed": failed,
            "failures": traffic.failures[:5],
            "envelope": {name: [e.low, e.high] for name, e in self.expectations.items()},
            "work_s": fmean(traffic.reads),
            "rss_mb": report.get("rss_mb", 0.0),
            "server_trace": report.get("trace"),
            "engine": metrics.get("engine", {}),
            "tenants": {
                name: tenant.get("counters", {}) for name, tenant in metrics.get("tenants", {}).items()
            },
            "service": metrics.get("service", {}).get("counters", {}),
        }
