"""The WCM job daemon: warm workers, resident sessions, graceful drain.

One :class:`WcmServer` owns:

* a **Unix domain socket** (``<state_dir>/serve.sock``) speaking the
  JSON-line protocol, one handler thread per connection, bounded
  per-connection socket timeouts so a slow or vanished client costs
  only its own thread,
* a **warm worker pool** — the supervisor's process workers
  (:class:`repro.runtime.supervisor._Worker`) kept alive across jobs,
  so every request after the first skips interpreter and import
  cold-start; a worker that crashes or hangs is killed and respawned
  without losing the job (it re-queues with backoff),
* **resident ECO sessions** — warm
  :class:`~repro.core.session.WcmSession` instances keyed by die, so
  an eco job whose edit stream extends the resident prefix re-solves
  incrementally in milliseconds,
* the **shared result cache** — terminal results of cacheable kinds
  are stored under the job's content fingerprint, so identical
  requests are served without computing (across restarts too), and a
  torn/corrupt entry quarantines and recomputes like any other cache
  defect,
* the **scheduler loop** — one thread multiplexing worker pipes, job
  deadlines and retry backoffs with ``multiprocessing.connection.wait``
  plus a self-pipe for wakeups; it never blocks on client sockets.

Failure matrix (chaos-asserted; see DESIGN.md §13): worker crash/hang
=> retry with deterministic capped backoff, then terminal ``failed``
and a breaker strike; deterministic exception => terminal ``failed``
immediately; queue overflow / drain / queued-deadline-expiry =>
terminal ``shed`` with retry-after; breaker open => terminal
``quarantined`` (half-open probes admit every Nth); daemon SIGTERM =>
finish running jobs, journal the rest, flush traces, exit 0; daemon
crash => journal replay re-admits unfinished jobs on restart.
"""

from __future__ import annotations

import math
import multiprocessing.connection as mp_connection
import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.runtime import trace
from repro.runtime.cache import ResultCache
from repro.runtime.config import current_config
from repro.runtime.supervisor import _Worker
from repro.serve import jobs as jobs_mod
from repro.serve.protocol import (
    DONE,
    PROTOCOL_VERSION,
    LineChannel,
    ProtocolError,
    QUEUED,
    RUNNING,
    validate_priority,
)
from repro.serve.queue import AdmissionPolicy, JobJournal, JobQueue, JobRecord
from repro.util.errors import ConfigError

SOCKET_NAME = "serve.sock"
JOURNAL_NAME = "queue.journal"

#: scheduler tick ceiling — also the cadence of deadline enforcement
_TICK_S = 0.25


class _PoolWorker:
    """One warm worker process and the job currently on it."""

    __slots__ = ("worker", "job", "deadline", "deadline_kind")

    def __init__(self, worker: _Worker) -> None:
        self.worker = worker
        self.job: Optional[JobRecord] = None
        self.deadline: Optional[float] = None
        #: "deadline" (job deadline -> shed) or "timeout" (-> retry)
        self.deadline_kind: Optional[str] = None


class WcmServer:
    """Long-running job server over one state directory.

    ``start()`` recovers the journal, binds the socket and spawns the
    accept + scheduler threads; ``serve_forever()`` blocks the calling
    thread until drain completes. Tests run ``start()`` +
    ``stop(drain=True)`` with the scheduler on its background thread.
    """

    def __init__(self, state_dir: os.PathLike, *, workers: int = 2,
                 policy: Optional[AdmissionPolicy] = None,
                 job_timeout_s: Optional[float] = None,
                 socket_timeout_s: float = 30.0,
                 seed: int = 0) -> None:
        if workers < 1:
            raise ConfigError(f"workers must be at least 1, got {workers}")
        if job_timeout_s is not None and not (math.isfinite(job_timeout_s)
                                              and job_timeout_s > 0):
            raise ConfigError(f"job_timeout_s must be a finite number "
                              f"> 0, got {job_timeout_s}")
        self.state_dir = Path(state_dir)
        self.workers_wanted = workers
        self.policy = policy or AdmissionPolicy()
        self.job_timeout_s = job_timeout_s
        self.socket_timeout_s = socket_timeout_s
        self.seed = seed

        self.socket_path = self.state_dir / SOCKET_NAME
        self.journal_path = self.state_dir / JOURNAL_NAME
        self.queue: Optional[JobQueue] = None
        self.cache: Optional[ResultCache] = None
        self.recovered_jobs = 0

        self._pool: List[_PoolWorker] = []
        self._sessions: Dict[str, jobs_mod.EcoHost] = {}
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._conn_threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        self._drained = threading.Event()
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._started = time.monotonic()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> "WcmServer":
        self.state_dir.mkdir(parents=True, exist_ok=True)
        config = current_config()
        if not config.no_cache:
            # the service always runs cached: a daemon without its
            # cache would recompute every warm request
            cache_dir = config.cache_dir or str(self.state_dir / "cache")
            from repro.runtime import configure
            configure(cache_dir=cache_dir)
            self.cache = ResultCache(cache_dir)

        # replay BEFORE truncating: pending work survives a crash,
        # and the rewritten journal stays bounded across restarts
        pending = JobJournal.replay(self.journal_path)
        try:
            self.journal_path.unlink()
        except OSError:
            pass
        self.queue = JobQueue(self.policy,
                              journal=JobJournal(self.journal_path))
        self.recovered_jobs = self.queue.recover_records(
            pending, now=time.monotonic())

        for _ in range(self.workers_wanted):
            self._pool.append(self._spawn_worker())

        try:
            self.socket_path.unlink()
        except OSError:
            pass
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(str(self.socket_path))
        self._listener.listen(64)
        self._listener.settimeout(0.5)

        for name, target in (("serve-accept", self._accept_loop),
                             ("serve-scheduler", self._scheduler_loop)):
            thread = threading.Thread(target=target, name=name,
                                      daemon=True)
            thread.start()
            self._threads.append(thread)
        trace.event("serve.started", workers=self.workers_wanted,
                    recovered=self.recovered_jobs,
                    socket=str(self.socket_path))
        return self

    def _spawn_worker(self) -> _PoolWorker:
        import multiprocessing as mp

        config = current_config()
        worker = _Worker(mp.get_context(), config, jobs_mod.execute_job,
                         self.seed, config.chaos)
        return _PoolWorker(worker)

    def serve_forever(self) -> None:
        """Block until drain completes (signal handlers end this)."""
        self._drained.wait()

    def request_drain(self) -> None:
        """Graceful drain: refuse new work, finish running jobs,
        leave queued jobs journaled for the next start."""
        if self.queue is not None:
            self.queue.start_drain()
        self._stopping.set()
        self._wake()
        trace.event("serve.drain_requested")

    def stop(self, drain: bool = True, timeout_s: float = 30.0) -> None:
        self.request_drain()
        self._drained.wait(timeout_s)
        if not drain:
            for pooled in self._pool:
                if pooled.job is not None:
                    pooled.worker.kill()

    def install_signal_handlers(self) -> None:
        import signal

        def _handler(signum, frame):
            self.request_drain()

        signal.signal(signal.SIGTERM, _handler)
        signal.signal(signal.SIGINT, _handler)

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"x")
        except OSError:
            pass

    # -- scheduler -------------------------------------------------------
    def _scheduler_loop(self) -> None:
        try:
            while True:
                now = time.monotonic()
                if not self._stopping.is_set():
                    self._assign(now)
                busy = [p for p in self._pool if p.job is not None]
                if self._stopping.is_set() and not busy:
                    break
                self._wait_and_collect(busy)
        finally:
            self._finalize()

    def _assign(self, now: float) -> None:
        assert self.queue is not None
        while True:
            idle = [p for p in self._pool if p.job is None]
            job, _ = self.queue.next_ready(now)
            if job is None:
                return
            if self._serve_cached(job):
                continue
            if not jobs_mod.runs_on_worker(job.kind):
                self._run_inline(job)
                continue
            if not idle:
                # no worker free: hand the slot back uncharged
                self.queue.requeue(job)
                return
            pooled = idle[0]
            cell = {"kind": job.kind, "params": job.params}
            try:
                pooled.worker.conn.send((job.seq, job.attempts, cell))
            except (OSError, ValueError) as exc:
                self._replace_worker(pooled, kill=True)
                self.queue.fail(job, f"worker hand-off failed: {exc}",
                                retryable=True, crash=True,
                                now=time.monotonic())
                continue
            pooled.job = job
            budget = self.job_timeout_s
            pooled.deadline_kind = "timeout" if budget is not None else None
            remaining = job.remaining_s(now)
            if remaining is not None and (budget is None
                                          or remaining < budget):
                budget = max(0.0, remaining)
                pooled.deadline_kind = "deadline"
            pooled.deadline = (now + budget) if budget is not None else None
            trace.event("serve.dispatch", job_id=job.job_id,
                        kind=job.kind, attempt=job.attempts)

    def _serve_cached(self, job: JobRecord) -> bool:
        """Terminal-complete a job straight from the result cache."""
        if self.cache is None or not jobs_mod.is_cacheable(job.kind):
            return False
        payload = self.cache.get(job.fingerprint)
        if payload is None:
            return False
        if (payload.get("schema") != PROTOCOL_VERSION
                or payload.get("kind") != job.kind
                or not isinstance(payload.get("result"), dict)):
            # entry exists but is not a served-job payload: torn or
            # stale beyond recognition
            self.cache.quarantine(job.fingerprint)
            return False
        self.queue.complete(job, payload["result"], cached=True)
        return True

    def _store_result(self, job: JobRecord,
                      result: Dict[str, Any]) -> None:
        if self.cache is None or not jobs_mod.is_cacheable(job.kind):
            return
        try:
            self.cache.put(job.fingerprint,
                           {"schema": PROTOCOL_VERSION, "kind": job.kind,
                            "result": result})
        except (OSError, TypeError, ValueError):
            trace.inc("serve.cache_store_failures")

    def _run_inline(self, job: JobRecord) -> None:
        """Eco jobs run in the daemon on the resident warm session."""
        try:
            if job.kind == "eco":
                key = jobs_mod.eco_die_key(job.params)
                host = self._sessions.get(key)
                if host is None:
                    host = self._sessions[key] = jobs_mod.EcoHost(
                        job.params)
                result = jobs_mod.run_eco(job.params, host=host)
            else:
                result = jobs_mod.execute_job(
                    {"kind": job.kind, "params": job.params})
        except Exception as exc:
            if job.kind == "eco":
                # a poisoned resident session must not serve the next job
                try:
                    self._sessions.pop(jobs_mod.eco_die_key(job.params),
                                       None)
                except Exception:
                    pass
            self.queue.fail(job, f"{type(exc).__name__}: {exc}",
                            retryable=False)
            return
        self._store_result(job, result)
        self.queue.complete(job, result)

    def _wait_and_collect(self, busy: List[_PoolWorker]) -> None:
        now = time.monotonic()
        timeout = _TICK_S
        for pooled in busy:
            if pooled.deadline is not None:
                timeout = min(timeout, max(0.0, pooled.deadline - now))
        ready = mp_connection.wait(
            [p.worker.conn for p in busy] + [self._wake_recv],
            timeout=timeout)
        if self._wake_recv in ready:
            try:
                while self._wake_recv.recv(4096):
                    pass
            except (BlockingIOError, OSError):
                pass
        now = time.monotonic()
        for pooled in busy:
            if pooled.worker.conn in ready:
                self._collect(pooled)
            elif (pooled.deadline is not None and now >= pooled.deadline):
                self._on_worker_timeout(pooled)

    def _collect(self, pooled: _PoolWorker) -> None:
        job = pooled.job
        try:
            message = pooled.worker.conn.recv()
        except (EOFError, OSError):
            exitcode = pooled.worker.process.exitcode
            trace.inc("serve.worker_crashes")
            trace.event("serve.worker_crash", job_id=job.job_id,
                        exit_code=exitcode)
            self._replace_worker(pooled, kill=True)
            self.queue.fail(job, f"worker crashed (exit {exitcode})",
                            retryable=True, crash=True,
                            now=time.monotonic())
            return
        pooled.job = None
        pooled.deadline = None
        kind, _idx, _att, error, payload, metrics = message
        tracer = trace.active()
        if metrics is not None and tracer is not None:
            tracer.metrics.merge_payload(metrics)
        if kind == "ok":
            self._store_result(job, payload)
            self.queue.complete(job, payload)
        else:
            # a raised exception is deterministic: same params would
            # fail the same way on any worker — terminal, no retry
            self.queue.fail(job, error, retryable=False)

    def _on_worker_timeout(self, pooled: _PoolWorker) -> None:
        job = pooled.job
        kind = pooled.deadline_kind or "timeout"
        trace.inc("serve.worker_timeouts")
        trace.event("serve.worker_timeout", job_id=job.job_id, kind=kind)
        self._replace_worker(pooled, kill=True)
        if kind == "deadline":
            self.queue.shed_running(job, "deadline exceeded while running")
        else:
            self.queue.fail(
                job, f"exceeded {self.job_timeout_s:g}s budget",
                retryable=True, crash=True, now=time.monotonic())

    def _replace_worker(self, pooled: _PoolWorker, kill: bool) -> None:
        if kill:
            pooled.worker.kill()
        else:
            pooled.worker.shutdown()
        try:
            index = self._pool.index(pooled)
        except ValueError:
            return
        if self._stopping.is_set():
            self._pool.pop(index)
        else:
            self._pool[index] = self._spawn_worker()

    def _finalize(self) -> None:
        for pooled in self._pool:
            if pooled.job is not None:
                pooled.worker.kill()
            else:
                pooled.worker.shutdown()
        self._pool.clear()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        try:
            self.socket_path.unlink()
        except OSError:
            pass
        if self.queue is not None and self.queue.journal is not None:
            self.queue.journal.close()
        trace.event("serve.stopped",
                    pending=len(self.queue.pending())
                    if self.queue else 0)
        self._drained.set()

    # -- connections -----------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._drained.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                if self._stopping.is_set() and self._drained.is_set():
                    return
                continue
            except OSError:
                return
            conn.settimeout(self.socket_timeout_s)
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,),
                name="serve-conn", daemon=True)
            thread.start()
            self._conn_threads.append(thread)
            self._conn_threads = [t for t in self._conn_threads
                                  if t.is_alive()]

    def _handle_connection(self, conn: socket.socket) -> None:
        channel = LineChannel(conn)
        try:
            while True:
                try:
                    message = channel.recv()
                except ProtocolError as exc:
                    # unsynchronizable stream: answer once and drop
                    try:
                        channel.send({"ok": False, "error": str(exc)})
                    except OSError:
                        pass
                    return
                if message is None:
                    return
                try:
                    response = self._dispatch(message)
                except ProtocolError as exc:
                    response = {"ok": False, "error": str(exc)}
                except Exception as exc:  # never kill the handler loop
                    trace.inc("serve.handler_errors")
                    response = {"ok": False,
                                "error": f"{type(exc).__name__}: {exc}"}
                channel.send(response)
        except (socket.timeout, OSError, ProtocolError):
            # slow, stalled or vanished client: drop the connection;
            # its jobs keep running and stay addressable by job id
            trace.inc("serve.client_disconnects")
        finally:
            channel.close()

    # -- ops -------------------------------------------------------------
    def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        if op == "ping":
            return {"ok": True, "pong": True,
                    "draining": self._stopping.is_set(),
                    "uptime_s": round(time.monotonic() - self._started,
                                      3)}
        if op == "submit":
            return self._op_submit(message)
        if op == "wait":
            return self._op_wait(message)
        if op == "jobs":
            return {"ok": True,
                    "jobs": self.queue.snapshot(time.monotonic())}
        if op == "stats":
            stats = self.queue.stats()
            stats.update({
                "ok": True,
                "workers": len(self._pool),
                "workers_busy": sum(1 for p in self._pool
                                    if p.job is not None),
                "resident_sessions": sorted(self._sessions),
                "recovered_jobs": self.recovered_jobs,
                "cache_entries": len(self.cache)
                if self.cache is not None else 0,
            })
            return stats
        if op == "drain":
            self.request_drain()
            return {"ok": True, "draining": True}
        raise ProtocolError(f"unknown op {message.get('op')!r}")

    def _op_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        kind = message.get("kind")
        params = message.get("params", {})
        priority = validate_priority(message.get("priority", "normal"))
        deadline_s = message.get("deadline_s")
        if deadline_s is not None:
            deadline_s = float(deadline_s)
            if not (math.isfinite(deadline_s) and deadline_s > 0):
                raise ProtocolError("deadline_s must be a finite number "
                                    "> 0")
        try:
            job, verdict = self.queue.submit(
                kind, params, priority=priority, deadline_s=deadline_s,
                now=time.monotonic())
        except jobs_mod.JobError as exc:
            return {"ok": False, "error": str(exc)}
        self._wake()
        if verdict == "queued" and self._serve_cached_submit(job):
            verdict = "cached"
        if message.get("wait") and not job.terminal:
            timeout_s = message.get("timeout_s")
            job.terminal_event.wait(
                float(timeout_s) if timeout_s is not None else None)
        return self._job_response(job, verdict)

    def _serve_cached_submit(self, job: JobRecord) -> bool:
        """Cache check at admission (the scheduler re-checks at
        dispatch; doing it here answers warm submits without a
        scheduler round-trip)."""
        with self.queue.lock:
            if job.state != QUEUED:
                return False
        return self._serve_cached(job)

    def _op_wait(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job_id = message.get("job_id")
        job = self.queue.get(job_id) if isinstance(job_id, str) else None
        if job is None:
            raise ProtocolError(f"unknown job id {job_id!r}")
        timeout_s = message.get("timeout_s")
        job.terminal_event.wait(
            float(timeout_s) if timeout_s is not None else None)
        return self._job_response(job, job.state)

    def _job_response(self, job: JobRecord,
                      verdict: str) -> Dict[str, Any]:
        response = {
            "ok": True,
            "job_id": job.job_id,
            "verdict": verdict,
            "state": job.state,
            "attempts": job.attempts,
            "cached": job.cached,
        }
        if job.state == DONE:
            response["result"] = job.result
        elif job.terminal:
            response["error"] = job.error
            if isinstance(job.result, dict) \
                    and "retry_after_s" in job.result:
                response["retry_after_s"] = job.result["retry_after_s"]
        elif job.state in (QUEUED, RUNNING):
            response["timed_out"] = True
        return response
