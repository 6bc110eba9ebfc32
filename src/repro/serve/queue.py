"""Admission control and job lifecycle for the WCM job server.

This module is the server's brain, deliberately socket-free so every
robustness behavior is unit-testable with a fake clock:

* **Bounded priority queues.** Three priority classes (interactive >
  normal > batch), each with its own capacity. Scheduling is strict
  priority, FIFO within a class.
* **Explicit load shedding.** A submit that would overflow its class
  is *rejected now* with a ``retry_after_s`` hint (scaled by queue
  pressure) instead of queueing unboundedly — the client backs off,
  the server's memory stays bounded, and latency for admitted jobs
  stays predictable.
* **Single-flight dedupe.** Submissions are content-fingerprinted;
  a submission identical to a non-terminal job attaches to it
  (``coalesced``) instead of computing twice. Terminal results are
  additionally served out of the shared :class:`ResultCache` by the
  server, so "identical concurrent requests collapse to one
  computation" holds across restarts too.
* **Deterministic capped exponential backoff.** A retryable failure
  (worker crash, per-job timeout) re-queues the job not-before
  ``min(cap, base * 2**(attempt-1))`` seconds from now. No jitter:
  two runs of the same chaos scenario retry at the same offsets,
  which is what makes the chaos suite assertable.
* **Circuit breaker.** Jobs are bucketed by a breaker key (e.g. the
  die they target). ``threshold`` consecutive crash-class failures
  open the breaker: further submissions for that bucket are refused
  terminally (``quarantined``) — except every ``probe_interval``-th
  one, which is admitted as a half-open probe. A probe success closes
  the breaker; a probe failure re-arms it. Counting submissions
  rather than wall-clock keeps the breaker clock-free and
  deterministic under test.
* **Deadlines.** A job carries an absolute deadline; expiring while
  queued sheds it, and the server derives the worker kill budget from
  the remainder, so a deadline is honored end to end.
* **Crash-safe journal.** Every admission and terminal transition is
  appended (line-flushed JSON) to ``queue.journal``; on restart,
  submissions without a terminal record are re-admitted. A torn tail
  (the daemon died mid-write) is skipped, never raised. Exactly-one-
  terminal-state per job id is the invariant the chaos suite pins.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime import trace
from repro.serve import jobs as jobs_mod
from repro.serve.protocol import (
    DONE,
    FAILED,
    PRIORITY_RANK,
    QUARANTINED,
    QUEUED,
    RUNNING,
    SHED,
    TERMINAL_STATES,
    job_fingerprint,
)
from repro.util.errors import ConfigError

#: journal record schema; bump on incompatible change
JOURNAL_VERSION = 1


def backoff_s(attempt: int, base_s: float, cap_s: float) -> float:
    """Deterministic capped exponential backoff before re-attempt
    *attempt* (the first retry is attempt 2 -> one base delay)."""
    if attempt <= 1:
        return 0.0
    return min(cap_s, base_s * (2.0 ** (attempt - 2)))


@dataclass(frozen=True)
class AdmissionPolicy:
    """How the queue admits, sheds, retries and quarantines."""

    #: queued-job capacity per priority class (interactive, normal, batch)
    queue_caps: Tuple[int, int, int] = (64, 256, 1024)
    #: total attempts per job (1 = never retry)
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 5.0
    #: base retry-after hint handed to shed clients
    shed_retry_after_s: float = 0.5
    #: consecutive crash-class failures that open a breaker bucket
    breaker_threshold: int = 3
    #: every Nth refused submission is admitted as a half-open probe
    breaker_probe_interval: int = 4
    #: deadline applied when the client sends none (None = unbounded)
    default_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        counts = dict(zip(("interactive", "normal", "batch"),
                          self.queue_caps))
        counts.update(max_attempts=self.max_attempts,
                      breaker_threshold=self.breaker_threshold,
                      breaker_probe_interval=self.breaker_probe_interval)
        for name, value in counts.items():
            if value < 1:
                raise ConfigError(f"admission policy: {name} must be "
                                  f"at least 1, got {value}")
        deadline = self.default_deadline_s
        if deadline is not None and not (math.isfinite(deadline)
                                         and deadline > 0):
            raise ConfigError(f"admission policy: default_deadline_s "
                              f"must be a finite number > 0, got "
                              f"{deadline}")

    def cap_for(self, rank: int) -> int:
        return self.queue_caps[min(rank, len(self.queue_caps) - 1)]


@dataclass
class JobRecord:
    """One submitted job, from admission to its single terminal state."""

    job_id: str
    kind: str
    params: Dict[str, Any]
    fingerprint: str
    priority: int
    state: str = QUEUED
    attempts: int = 0
    #: admission sequence number (chaos plans target it; FIFO tiebreak)
    seq: int = 0
    #: monotonic instant before which a backing-off retry must not run
    not_before: float = 0.0
    #: absolute monotonic deadline (None = unbounded)
    deadline: Optional[float] = None
    #: how many submissions coalesced onto this record
    coalesced: int = 0
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: result came from the cache, not a fresh computation
    cached: bool = False
    #: admitted as a circuit-breaker half-open probe
    probe: bool = False
    terminal_event: threading.Event = field(
        default_factory=threading.Event, repr=False)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def remaining_s(self, now: float) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline - now

    def snapshot(self, now: float) -> Dict[str, Any]:
        """JSON-safe status view (the ``jobs`` op payload)."""
        view = {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "coalesced": self.coalesced,
            "cached": self.cached,
            "fingerprint": self.fingerprint[:16],
        }
        if self.deadline is not None:
            view["deadline_in_s"] = round(self.deadline - now, 3)
        if self.error is not None:
            view["error"] = self.error
        return view


class _Breaker:
    """Per-bucket consecutive-crash counter with half-open probes."""

    __slots__ = ("failures", "open", "refused")

    def __init__(self) -> None:
        self.failures = 0
        self.open = False
        self.refused = 0

    def record_crash(self, threshold: int) -> bool:
        """Count a crash-class failure; returns True if this opened
        the breaker."""
        self.failures += 1
        if not self.open and self.failures >= threshold:
            self.open = True
            self.refused = 0
            return True
        return False

    def record_success(self) -> None:
        self.failures = 0
        if self.open:
            self.open = False
            self.refused = 0

    def admit_probe(self, probe_interval: int) -> bool:
        """While open: refuse, except every Nth submission probes."""
        self.refused += 1
        return self.refused % max(2, probe_interval) == 0


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------
class JobJournal:
    """Append-only, line-flushed record of admissions and terminals.

    One JSON object per line; a torn last line is ignored on replay.
    ``replay`` returns the submissions that never reached a terminal
    state — exactly the jobs a restarted daemon must re-admit."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")

    def append(self, record: Dict[str, Any]) -> None:
        try:
            self._handle.write(
                json.dumps(record, separators=(",", ":"),
                           sort_keys=True) + "\n")
            self._handle.flush()
        except (OSError, ValueError):
            # a full disk must degrade recovery coverage, not the service
            trace.inc("serve.journal_write_failures")

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:
            pass

    @classmethod
    def replay(cls, path: os.PathLike) -> List[Dict[str, Any]]:
        """Pending submissions (submit record, no terminal record)."""
        pending: Dict[str, Dict[str, Any]] = {}
        try:
            handle = open(path, "r", encoding="utf-8")
        except OSError:
            return []
        with handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail (or mid-file corruption): skip
                if not isinstance(record, dict):
                    continue
                kind = record.get("t")
                job_id = record.get("job_id")
                if not isinstance(job_id, str):
                    continue
                if kind == "submit":
                    pending[job_id] = record
                elif kind == "terminal":
                    pending.pop(job_id, None)
        return list(pending.values())


# ---------------------------------------------------------------------------
# The queue
# ---------------------------------------------------------------------------
class JobQueue:
    """Thread-safe job table + priority scheduling + failure policy.

    All mutation happens under one lock; ``changed`` is notified on
    every transition so the scheduler can sleep on it. Time is always
    passed in (monotonic seconds) — the queue never reads a clock,
    which is what lets the unit suite drive every timing path
    synthetically.
    """

    def __init__(self, policy: Optional[AdmissionPolicy] = None,
                 journal: Optional[JobJournal] = None) -> None:
        self.policy = policy or AdmissionPolicy()
        self.journal = journal
        self.lock = threading.Lock()
        self.changed = threading.Condition(self.lock)
        self.jobs: Dict[str, JobRecord] = {}
        #: fingerprint -> live (non-terminal) record, for single-flight
        self.inflight: Dict[str, JobRecord] = {}
        self.breakers: Dict[str, _Breaker] = {}
        self.draining = False
        self._seq = 0
        self.counters: Dict[str, int] = {
            "submitted": 0, "coalesced": 0, "shed": 0, "quarantined": 0,
            "done": 0, "failed": 0, "retries": 0, "cache_hits": 0,
            "breaker_opened": 0, "breaker_closed": 0, "recovered": 0,
        }

    # -- admission -------------------------------------------------------
    def submit(self, kind: str, params: Dict[str, Any], *,
               priority: str = "normal",
               deadline_s: Optional[float] = None,
               now: float = 0.0,
               recovered: bool = False) -> Tuple[JobRecord, str]:
        """Admit (or refuse) one submission.

        Returns ``(record, verdict)`` where verdict is one of
        ``queued`` / ``coalesced`` / ``shed`` / ``quarantined``.
        Refusals still return a (terminal) record so the caller can
        report a job id and a consistent state.
        """
        jobs_mod.validate_job(kind, params)
        rank = PRIORITY_RANK[priority]
        fp = job_fingerprint(kind, params)
        with self.lock:
            live = self.inflight.get(fp)
            if live is not None:
                live.coalesced += 1
                self.counters["coalesced"] += 1
                trace.inc("serve.coalesced")
                return live, "coalesced"

            record = self._new_record(kind, params, fp, rank)
            if deadline_s is None:
                deadline_s = self.policy.default_deadline_s
            if deadline_s is not None:
                record.deadline = now + float(deadline_s)

            if self.draining:
                self.counters["shed"] += 1
                trace.inc("serve.shed")
                return self._refuse(record, SHED,
                                    "draining: not accepting work",
                                    self.policy.shed_retry_after_s)

            breaker = self.breakers.get(
                jobs_mod.breaker_key(kind, params))
            if breaker is not None and breaker.open:
                if breaker.admit_probe(self.policy.breaker_probe_interval):
                    record.probe = True
                else:
                    self.counters["quarantined"] += 1
                    trace.inc("serve.quarantined")
                    return self._refuse(
                        record, QUARANTINED,
                        "circuit breaker open for this die",
                        self.policy.shed_retry_after_s * 4)

            depth = self._queued_depth(rank)
            cap = self.policy.cap_for(rank)
            if depth >= cap:
                self.counters["shed"] += 1
                trace.inc("serve.shed")
                retry_after = (self.policy.shed_retry_after_s
                               * (1.0 + depth / max(1, cap)))
                return self._refuse(record, SHED,
                                    f"queue full ({depth}/{cap})",
                                    retry_after)

            record.state = QUEUED
            record.attempts = 0
            self.jobs[record.job_id] = record
            self.inflight[fp] = record
            self.counters["submitted"] += 1
            if recovered:
                self.counters["recovered"] += 1
            trace.inc("serve.submitted")
            self._journal_submit(record)
            self.changed.notify_all()
            return record, "queued"

    def _new_record(self, kind: str, params: Dict[str, Any], fp: str,
                    rank: int) -> JobRecord:
        self._seq += 1
        return JobRecord(job_id=f"j{self._seq:06d}", kind=kind,
                         params=params, fingerprint=fp, priority=rank,
                         seq=self._seq)

    def _refuse(self, record: JobRecord, state: str, reason: str,
                retry_after_s: float) -> Tuple[JobRecord, str]:
        """Terminal refusal (shed/quarantined): recorded for the jobs
        view but never queued or journaled as pending work."""
        record.state = state
        record.error = reason
        record.result = {"retry_after_s": round(retry_after_s, 3)}
        record.terminal_event.set()
        self.jobs[record.job_id] = record
        return record, state

    def _queued_depth(self, rank: int) -> int:
        return sum(1 for job in self.inflight.values()
                   if job.state == QUEUED and job.priority == rank)

    # -- scheduling ------------------------------------------------------
    def next_ready(self, now: float
                   ) -> Tuple[Optional[JobRecord], Optional[float]]:
        """Highest-priority FIFO job whose backoff has elapsed.

        Returns ``(job, None)`` and marks it RUNNING, or ``(None,
        wake_at)`` where *wake_at* is the earliest instant a backing-
        off job becomes ready (``None`` when nothing is queued)."""
        with self.lock:
            self._shed_expired_locked(now)
            best: Optional[JobRecord] = None
            wake_at: Optional[float] = None
            for job in self.inflight.values():
                if job.state != QUEUED:
                    continue
                if job.not_before > now:
                    if wake_at is None or job.not_before < wake_at:
                        wake_at = job.not_before
                    continue
                if best is None or (job.priority, job.seq) < (
                        best.priority, best.seq):
                    best = job
            if best is None:
                return None, wake_at
            best.state = RUNNING
            best.attempts += 1
            return best, None

    def requeue(self, job: JobRecord) -> None:
        """Return a RUNNING job to QUEUED uncharged (e.g. the worker
        died before the job was handed over)."""
        with self.lock:
            if job.terminal:
                return
            job.state = QUEUED
            job.attempts = max(0, job.attempts - 1)
            self.changed.notify_all()

    # -- terminal transitions -------------------------------------------
    def complete(self, job: JobRecord, result: Dict[str, Any], *,
                 cached: bool = False) -> None:
        with self.lock:
            if job.terminal:
                return  # exactly one terminal state per job id
            job.state = DONE
            job.result = result
            job.cached = cached
            self.counters["done"] += 1
            if cached:
                self.counters["cache_hits"] += 1
            breaker = self.breakers.get(
                jobs_mod.breaker_key(job.kind, job.params))
            if breaker is not None and (breaker.open or breaker.failures):
                breaker.record_success()
                self.counters["breaker_closed"] += 1
                trace.event("serve.breaker_closed", job_id=job.job_id)
            self._finish_locked(job)

    def fail(self, job: JobRecord, error: str, *, retryable: bool,
             now: float = 0.0, crash: bool = False,
             final_state: str = FAILED) -> str:
        """Terminal failure, retry with backoff, or breaker trip.

        Returns the resulting state (``queued`` when re-attempting).
        *crash* marks crash-class failures (worker died / hung) — the
        only class the circuit breaker counts, since a deterministic
        exception is the job's own fault, not the die's.
        """
        with self.lock:
            if job.terminal:
                return job.state
            if crash:
                key = jobs_mod.breaker_key(job.kind, job.params)
                breaker = self.breakers.setdefault(key, _Breaker())
                if breaker.record_crash(self.policy.breaker_threshold):
                    self.counters["breaker_opened"] += 1
                    trace.event("serve.breaker_opened", key=key,
                                failures=breaker.failures)
                if job.probe:
                    breaker.open = True  # failed probe re-arms
            if (retryable and not job.probe
                    and job.attempts < self.policy.max_attempts):
                delay = backoff_s(job.attempts + 1,
                                  self.policy.backoff_base_s,
                                  self.policy.backoff_cap_s)
                job.state = QUEUED
                job.not_before = now + delay
                job.error = error
                self.counters["retries"] += 1
                trace.inc("serve.retries")
                trace.event("serve.retry", job_id=job.job_id,
                            attempt=job.attempts, backoff_s=delay,
                            error=error)
                self.changed.notify_all()
                return QUEUED
            job.state = final_state
            job.error = error
            self.counters["failed" if final_state == FAILED
                          else final_state] = self.counters.get(
                "failed" if final_state == FAILED else final_state,
                0) + 1
            self._finish_locked(job)
            return job.state

    def shed_running(self, job: JobRecord, reason: str) -> None:
        """Terminal shed of a running job (deadline exceeded)."""
        self.fail(job, reason, retryable=False, final_state=SHED)

    def _shed_expired_locked(self, now: float) -> None:
        for job in list(self.inflight.values()):
            if (job.state == QUEUED and job.deadline is not None
                    and now >= job.deadline):
                job.state = SHED
                job.error = "deadline expired while queued"
                self.counters["shed"] += 1
                trace.inc("serve.deadline_shed")
                self._finish_locked(job)

    def _finish_locked(self, job: JobRecord) -> None:
        self.inflight.pop(job.fingerprint, None)
        job.terminal_event.set()
        self._journal_terminal(job)
        trace.event("serve.terminal", job_id=job.job_id,
                    state=job.state, attempts=job.attempts,
                    cached=job.cached)
        self.changed.notify_all()

    # -- journal ---------------------------------------------------------
    def _journal_submit(self, job: JobRecord) -> None:
        if self.journal is None:
            return
        self.journal.append({
            "t": "submit", "v": JOURNAL_VERSION, "job_id": job.job_id,
            "kind": job.kind, "params": job.params,
            "priority": job.priority,
        })

    def _journal_terminal(self, job: JobRecord) -> None:
        if self.journal is None:
            return
        self.journal.append({"t": "terminal", "job_id": job.job_id,
                             "state": job.state})

    def recover_records(self, records: List[Dict[str, Any]],
                        now: float = 0.0) -> int:
        """Re-admit replayed journal submissions (see
        :meth:`JobJournal.replay`) that never went terminal.

        Recovered jobs keep their original priority and params but get
        fresh ids and unbounded deadlines (the original deadline was
        relative to a dead process's clock; honoring a stale one would
        shed work the client is still waiting on)."""
        from repro.serve.protocol import PRIORITIES

        count = 0
        for record in records:
            try:
                priority = PRIORITIES[int(record.get("priority", 1))]
                _, verdict = self.submit(
                    record["kind"], record["params"],
                    priority=priority, now=now, recovered=True)
            except Exception:
                trace.inc("serve.recover_failures")
                continue
            if verdict in ("queued", "coalesced"):
                count += 1
        if count:
            trace.event("serve.recovered", jobs=count)
        return count

    # -- drain / introspection ------------------------------------------
    def start_drain(self) -> None:
        with self.lock:
            self.draining = True
            self.changed.notify_all()

    def pending(self) -> List[JobRecord]:
        with self.lock:
            return [job for job in self.inflight.values()
                    if not job.terminal]

    def running(self) -> List[JobRecord]:
        with self.lock:
            return [job for job in self.inflight.values()
                    if job.state == RUNNING]

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self.lock:
            return self.jobs.get(job_id)

    def snapshot(self, now: float) -> List[Dict[str, Any]]:
        with self.lock:
            return [job.snapshot(now) for job in
                    sorted(self.jobs.values(), key=lambda j: j.seq)]

    def stats(self) -> Dict[str, Any]:
        with self.lock:
            states: Dict[str, int] = {}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "counters": dict(self.counters),
                "states": states,
                "draining": self.draining,
                "breakers": {key: {"open": breaker.open,
                                   "failures": breaker.failures}
                             for key, breaker in self.breakers.items()
                             if breaker.open or breaker.failures},
            }
