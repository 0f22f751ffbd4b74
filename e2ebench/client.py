"""Server process control and the closed-loop HTTP client.

:class:`ServerProcess` launches ``launcher.py`` and times its set-up:
from process launch through the first ``/healthz`` 200, opening the
sessions and the workload's priming asks.  :func:`drive` then runs the
timed window: one thread per connection, each holding one keep-alive
HTTP connection and cycling through its share of the sessions, sending a
session's next op only after the previous answer has been read in full.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from common import HERE
from workloads import Op, Workload

LAUNCHER = os.path.join(HERE, "launcher.py")
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0


class BenchmarkError(RuntimeError):
    """The run cannot produce a valid measurement."""


@dataclass
class SessionState:
    """A live session as the client tracks it."""

    persona: str
    session_id: str = ""
    #: Profile additions applied so far, in order (``Op.additions``).
    additions: List[tuple] = field(default_factory=list)


@dataclass
class Record:
    """One completed HTTP operation."""

    session: int
    persona: str
    op: Op
    status: int
    seconds: float
    end: float
    body: Optional[dict]
    #: The session's profile additions when the op was sent.
    state: Tuple[tuple, ...] = ()


def _post(conn: http.client.HTTPConnection, path: str,
          payload: dict) -> Tuple[int, Optional[dict]]:
    data = json.dumps(payload).encode("utf-8")
    conn.request("POST", path, body=data,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    raw = response.read()
    try:
        body = json.loads(raw.decode("utf-8")) if raw else None
    except ValueError:
        body = None
    return response.status, body


class ServerProcess:
    """One launched server, ready to serve once :meth:`start` returns."""

    def __init__(self, snapshot: str, trace_out: Optional[str] = None) -> None:
        self.snapshot = snapshot
        self.trace_out = trace_out
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.setup_seconds = 0.0

    def _readline(self, deadline: float) -> str:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchmarkError("server did not answer in time")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    raise BenchmarkError(
                        f"server exited with code {self.proc.wait()}")
                return line.strip()

    def start(self, workload: Workload) -> List[SessionState]:
        """Launch, wait for health, open sessions, prime; time all of it."""
        command = [sys.executable, LAUNCHER, "--snapshot", self.snapshot]
        if self.trace_out:
            command += ["--trace-out", self.trace_out]
        began = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = self._readline(time.monotonic() + START_TIMEOUT)
        if not line.startswith("PORT "):
            raise BenchmarkError(f"unexpected launcher output {line!r}")
        self.port = int(line.split()[1])
        deadline = time.monotonic() + START_TIMEOUT
        conn = self.connect()
        try:
            while True:
                try:
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    if response.status == 200:
                        break
                except OSError:
                    conn.close()
                    conn = self.connect()
                if time.monotonic() > deadline:
                    raise BenchmarkError("server never reported healthy")
                time.sleep(0.01)
            sessions = [SessionState(plan.persona) for plan in workload.sessions]
            for state in sessions:
                status = self.open_session(conn, state)
                if status != 200:
                    raise BenchmarkError(f"opening a {state.persona} session failed with {status}")
            for index, question in workload.priming:
                status, _ = _post(conn, "/ask", {"question": question,
                                                 "session_id": sessions[index].session_id})
                if status != 200:
                    raise BenchmarkError(f"priming ask failed with {status}: {question}")
        finally:
            conn.close()
        self.setup_seconds = time.perf_counter() - began
        return sessions

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=STOP_TIMEOUT)

    @staticmethod
    def open_session(conn, state: SessionState) -> int:
        status, body = _post(conn, "/sessions", {"persona": state.persona})
        if status == 200:
            state.session_id = body["session_id"]
            state.additions = []
        return status

    def mark_window(self) -> None:
        """Tell the server the measured window starts now; wait for the ack."""
        self.proc.send_signal(signal.SIGUSR1)
        if self._readline(time.monotonic() + START_TIMEOUT) != "MARK":
            raise BenchmarkError("server did not acknowledge the window mark")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchmarkError("VmHWM not reported")

    def stop(self) -> None:
        """SIGTERM, then wait for the process to end (kill if it hangs)."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def _run_op(conn, index: int, state: SessionState, op: Op) -> Record:
    began = time.perf_counter()
    body: Optional[dict] = None
    snapshot = tuple(state.additions)
    if op.kind == "session":
        status = ServerProcess.open_session(conn, state)
    else:
        payload = op.body()
        payload["session_id"] = state.session_id
        status, body = _post(conn, "/ask" if op.kind == "ask" else "/update", payload)
        if op.kind == "update" and status == 200:
            state.additions.append(op.additions)
    end = time.perf_counter()
    return Record(index, state.persona, op, status, end - began, end, body, snapshot)


def drive(server: ServerProcess, workload: Workload, sessions: List[SessionState],
          seconds: float, connections: int) -> Tuple[List[Record], float, float]:
    """Run the closed loop for ``seconds``; returns (records, start, end).

    Sessions are dealt round-robin to ``connections`` threads.  An op
    started before the deadline is always completed and recorded.
    """
    scripts = [plan.script() for plan in workload.sessions]
    records: List[List[Record]] = [[] for _ in range(connections)]
    errors: List[Exception] = []
    start = time.perf_counter()
    deadline = start + seconds

    def loop(slot: int) -> None:
        mine = list(range(slot, len(sessions), connections))
        conn = server.connect()
        try:
            turn = 0
            while time.perf_counter() < deadline:
                index = mine[turn % len(mine)]
                turn += 1
                records[slot].append(_run_op(conn, index, sessions[index],
                                             next(scripts[index])))
        except Exception as exc:  # noqa: BLE001 - re-raised by drive()
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=loop, args=(slot,), name=f"client-{slot}")
               for slot in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + STOP_TIMEOUT)
        if thread.is_alive():
            raise BenchmarkError("a client connection hung past the window")
    if errors:
        raise BenchmarkError(f"client connection failed: {errors[0]!r}")
    merged = sorted((r for rs in records for r in rs), key=lambda r: r.end)
    end = merged[-1].end if merged else time.perf_counter()
    return merged, start, end
