"""Server process control and the asyncio JSON-lines client.

One :func:`launch` spawns a real ``cimflow serve`` process (optionally the
traced launcher), answers the workload's warm-up requests, and, when asked
to measure, drives each stream of the workload over its own connection
from this single client process: open-loop streams send on their
schedule, closed-loop streams send when the previous reply arrives.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

from workloads import Request, Stream, Workload

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
#: A request unanswered this long after it was due counts as failed.
TIMEOUT_S = 10.0
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
LINE_LIMIT = 64 * 1024 * 1024
READY = re.compile(rb"listening on ([\d.]+):(\d+)")
#: One BLAS thread for the server.  Its matrices are tiny, so extra BLAS
#: threads add no speed; on a 2-core host they spin on the core the
#: client needs, which made explore-closed job latency both slower and
#: far less repeatable (p50 206-321 ms vs 180-188 ms over equal runs).
SERVER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed request)."""


@dataclass
class Record:
    """One measured request: when it was due or sent, and its reply."""

    stream: int
    index: int
    request: Request
    open_loop: bool
    ref: float                        # due time (open loop) or send time
    sent: float = 0.0
    recv: Optional[float] = None
    response: Optional[Dict[str, Any]] = None
    outstanding: int = 0              # replies pending on the connection at send

    @property
    def rid(self) -> str:
        return f"s{self.stream}:{self.index}"

    @property
    def latency(self) -> Optional[float]:
        return None if self.recv is None else self.recv - self.ref

    @property
    def failed(self) -> bool:
        """Refused, errored, or not answered within :data:`TIMEOUT_S`."""
        return (
            self.response is None
            or not self.response.get("ok")
            or self.latency > TIMEOUT_S
        )


@dataclass
class Launch:
    """What one server launch measured."""

    setup_s: float
    records: List[Record] = field(default_factory=list)
    window_s: float = 0.0
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    rss_peak_mb: float = 0.0
    connections: int = 0
    stats_before: Dict[str, Any] = field(default_factory=dict)
    stats_after: Dict[str, Any] = field(default_factory=dict)
    spans_path: Optional[Path] = None


class Server:
    """A running ``cimflow serve`` process."""

    def __init__(self, proc: asyncio.subprocess.Process, host: str, port: int, log) -> None:
        self.proc, self.host, self.port, self._log = proc, host, port, log

    @classmethod
    async def spawn(cls, spans: Optional[Path] = None) -> "Server":
        OUT_DIR.mkdir(exist_ok=True)
        if spans is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        else:
            cmd = [sys.executable, str(ROOT / "bench" / "traced_server.py"),
                   "--spans", str(spans), "--port", "0"]
        path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        log = open(OUT_DIR / "server.log", "ab")
        try:
            proc = await asyncio.create_subprocess_exec(
                *cmd, cwd=ROOT, env={**os.environ, **SERVER_ENV, "PYTHONPATH": path},
                stdout=asyncio.subprocess.PIPE, stderr=log,
            )
        except OSError:
            log.close()
            raise
        server = cls(proc, "", 0, log)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), START_TIMEOUT_S)
        except asyncio.TimeoutError:
            line = b""
        match = READY.search(line)
        if match is None:
            await server.stop()
            raise BenchError(
                f"server did not report a listening address (got {line!r}); "
                f"see {OUT_DIR / 'server.log'}"
            )
        server.host, server.port = match.group(1).decode(), int(match.group(2))
        return server

    def rss_peak_mb(self) -> float:
        """Peak resident set size (``VmHWM``) so far."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """User plus system CPU time of every thread of the server."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()     # fields 3 onwards
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    async def stop(self) -> None:
        """SIGINT (the traced server writes its spans then), then wait."""
        try:
            if self.proc.returncode is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
                except asyncio.TimeoutError:
                    self.proc.kill()
                    await self.proc.wait()
        finally:
            self._log.close()


class Connection:
    """One JSON-lines connection with many requests in flight."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader, self._writer = reader, writer
        self.pending: Dict[str, "asyncio.Future[None]"] = {}
        self._records: Dict[str, Record] = {}
        self._task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port, limit=LINE_LIMIT)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        while True:
            line = await self._reader.readline()
            now = perf_counter()
            if not line:
                return
            response = json.loads(line)
            rid = response.get("id")
            future = self.pending.pop(rid, None)
            record = self._records.pop(rid, None)
            if record is not None:
                record.recv, record.response = now, response
            if future is not None and not future.done():
                future.set_result(None)

    async def send(self, rid: str, line: bytes, record: Optional[Record] = None) -> "asyncio.Future[None]":
        future = asyncio.get_running_loop().create_future()
        self.pending[rid] = future
        if record is not None:
            record.outstanding = len(self.pending) - 1
            self._records[rid] = record
            record.sent = perf_counter()
        self._writer.write(line)
        await self._writer.drain()
        return future

    async def call(self, rid: str, request: Request) -> Dict[str, Any]:
        """Send one request and wait for its reply (warm-up and stats)."""
        record = Record(-1, 0, request, False, perf_counter())
        future = await self.send(rid, encode(rid, request), record)
        await asyncio.wait_for(future, START_TIMEOUT_S)
        return record.response

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass  # the server already went away
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


def encode(rid: str, request: Request) -> bytes:
    return (json.dumps({"id": rid, "kind": request.kind, "params": request.params}) + "\n").encode()


async def _run_open(conn: Connection, k: int, stream: Stream, t0: float) -> List[Record]:
    records = [
        Record(k, i, r, True, t0 + r.due) for i, r in enumerate(stream.requests)
    ]
    lines = [encode(rec.rid, rec.request) for rec in records]
    futures = []
    for rec, line in zip(records, lines):
        delay = rec.ref - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        futures.append(await conn.send(rec.rid, line, rec))
    remaining = records[-1].ref + TIMEOUT_S - perf_counter()
    if futures:
        await asyncio.wait(futures, timeout=max(remaining, 0.0))
    return records


async def _run_closed(conn: Connection, k: int, stream: Stream) -> List[Record]:
    records = []
    for i, request in enumerate(stream.requests):
        rec = Record(k, i, request, False, 0.0)
        future = await conn.send(rec.rid, encode(rec.rid, request), rec)
        rec.ref = rec.sent
        try:
            await asyncio.wait_for(future, TIMEOUT_S)
        except asyncio.TimeoutError:
            pass  # counted as failed; later replies are ignored
        records.append(rec)
    return records


async def launch(workload: Workload, measure: bool = True, spans: Optional[Path] = None) -> Launch:
    """Spawn a server, warm it up, and (if ``measure``) run the workload."""
    t_spawn = perf_counter()
    server = await Server.spawn(spans)
    conns: List[Connection] = []
    try:
        conns.append(await Connection.open(server.host, server.port))
        for i, request in enumerate(workload.warmup):
            response = await conns[0].call(f"w{i}", request)
            if not response.get("ok"):
                raise BenchError(f"warm-up {request.kind} failed: {response.get('error')}")
        out = Launch(setup_s=perf_counter() - t_spawn, spans_path=spans)
        if not measure:
            return out
        out.stats_before = (await conns[0].call("stats0", Request("stats", {})))["result"]
        for _ in workload.streams[1:]:
            conns.append(await Connection.open(server.host, server.port))
        out.connections = len(conns)
        cpu0, client0 = server.cpu_s(), time.process_time()
        t0 = perf_counter() + 0.05    # lead time, so the first request is not late
        streams = await asyncio.gather(*(
            _run_open(conn, k, s, t0) if s.open_loop else _run_closed(conn, k, s)
            for k, (conn, s) in enumerate(zip(conns, workload.streams))
        ))
        out.window_s = perf_counter() - t0
        out.server_cpu_s = server.cpu_s() - cpu0
        out.client_cpu_s = time.process_time() - client0
        out.records = [rec for records in streams for rec in records]
        out.stats_after = (await conns[0].call("stats1", Request("stats", {})))["result"]
        out.rss_peak_mb = server.rss_peak_mb()
        return out
    finally:
        for conn in conns:
            await conn.close()
        await server.stop()
