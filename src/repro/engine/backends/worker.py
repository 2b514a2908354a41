"""The ``repro worker`` daemon: claim leases, execute specs, heartbeat.

A worker is a long-lived process pointed at a store (and its co-located
:class:`~repro.engine.backends.queue.JobQueue`).  It polls the queue for
open tickets, claims one at a time via an atomic lease, executes the
spec, publishes the result into the content-addressed store, and closes
the ticket.  While a job runs, a daemon thread heartbeats the lease so
the broker can tell a slow worker from a dead one; a worker that is
SIGKILLed mid-job simply stops heartbeating, its lease expires, and the
broker requeues the job.

Failures are *per job*: an executing spec that raises gets a failure
record (full traceback) and charges one attempt, but the daemon keeps
serving.  Publishing is idempotent (content-addressed, first rename
wins), so a job executed twice — e.g. after a lease expired under a
worker that was merely slow — still lands exactly one artifact.

Fault injection for the failure-path tests (documented, not secret):

* ``die_after_claims=N`` / ``--die-after-claims N`` — SIGKILL ourselves
  after claiming the N-th job, before executing it (simulates a worker
  crash that leaves a lease behind);
* ``REPRO_WORKER_FAIL_KEYS`` — comma list of key prefixes whose
  execution raises instead of running (simulates a poisoned job).
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from typing import Callable

from ...telemetry import (
    event,
    flight_dump,
    flush_active,
    sample,
    span,
    write_metrics_files,
)
from ..spec import RunSpec
from ..store import ResultStore
from .queue import JobQueue, new_worker_id

__all__ = ["Worker", "FAIL_KEYS_ENV"]

#: Env var naming store-key prefixes whose execution fails (test hook).
FAIL_KEYS_ENV = "REPRO_WORKER_FAIL_KEYS"


def _injected_fail_prefixes() -> tuple[str, ...]:
    raw = os.environ.get(FAIL_KEYS_ENV, "")
    return tuple(p for p in (part.strip() for part in raw.split(",")) if p)


class Worker:
    """One queue-draining daemon (the guts of ``repro worker``).

    Parameters
    ----------
    store :
        Result store jobs publish into.
    queue :
        Job queue to serve (default: the queue co-located with the
        store).
    worker_id :
        Identity used on leases and in the worker registry.
    poll_interval :
        Seconds between queue scans while idle.
    heartbeat_interval :
        Seconds between lease/registry heartbeats; must be comfortably
        below the broker's lease timeout.
    idle_timeout :
        Exit after this many consecutive idle seconds (``None``: serve
        until stopped).
    max_jobs :
        Exit after completing this many jobs (``None``: unlimited).
    die_after_claims :
        Fault injection: SIGKILL ourselves after the N-th claim.
    log :
        Callable receiving one line per event (``None``: silent).
    """

    def __init__(
        self,
        store: ResultStore,
        queue: JobQueue | None = None,
        *,
        worker_id: str | None = None,
        poll_interval: float = 0.5,
        heartbeat_interval: float = 5.0,
        idle_timeout: float | None = None,
        max_jobs: int | None = None,
        die_after_claims: int | None = None,
        snapshot_interval: float = 5.0,
        log: Callable[[str], None] | None = None,
    ) -> None:
        if poll_interval <= 0 or heartbeat_interval <= 0:
            raise ValueError("poll/heartbeat intervals must be > 0")
        self.store = store
        self.queue = queue or JobQueue.for_store(store)
        self.worker_id = worker_id or new_worker_id()
        self.poll_interval = poll_interval
        self.heartbeat_interval = heartbeat_interval
        self.idle_timeout = idle_timeout
        self.max_jobs = max_jobs
        self.die_after_claims = die_after_claims
        self.snapshot_interval = snapshot_interval
        self.jobs_done = 0
        self.jobs_failed = 0
        #: Key of the job currently executing (None while idle) — read
        #: by the SIGTERM handler to decide whether a kill is mid-job.
        self.current_job: str | None = None
        self._claims = 0
        self._last_snapshot = 0.0
        self._stop = threading.Event()
        self._log = log or (lambda line: None)

    def stop(self) -> None:
        """Ask the serving loop to exit after the current job."""
        self._stop.set()

    def _maybe_write_snapshot(self, force: bool = False) -> None:
        """Publish the metrics file snapshot, throttled to the interval.

        Best-effort: a full disk or a yanked store must not take the
        worker down — file snapshots are an observability convenience,
        the lease protocol is the correctness plane.
        """
        now = time.monotonic()
        if not force and now - self._last_snapshot < self.snapshot_interval:
            return
        self._last_snapshot = now
        try:
            write_metrics_files(self.store.root)
        except OSError:
            pass

    # -- the serving loop --------------------------------------------------
    def run(self) -> int:
        """Serve the queue until stopped; returns jobs completed.

        An exception escaping the serving loop (not a per-job failure —
        those are caught in :meth:`_process`) dumps the flight recorder
        to ``<store>/telemetry/crash/`` before propagating, so even a
        worker with telemetry off leaves a postmortem trail.
        """
        self.queue.register_worker(self.worker_id)
        self._log(event(
            "worker.started",
            message=f"worker {self.worker_id} serving {self.queue.root} "
            f"-> {self.store.root}",
            worker=self.worker_id, queue=str(self.queue.root),
        ))
        idle_since = time.time()
        try:
            while not self._stop.is_set():
                if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                    break
                ticket = self._claim_next()
                if ticket is None:
                    if (
                        self.idle_timeout is not None
                        and time.time() - idle_since > self.idle_timeout
                    ):
                        self._log(f"worker {self.worker_id} idle; exiting")
                        break
                    self.queue.heartbeat_worker(
                        self.worker_id, jobs_done=self.jobs_done
                    )
                    self._maybe_write_snapshot()
                    self._stop.wait(self.poll_interval)
                    continue
                self._process(ticket)
                idle_since = time.time()
        except Exception:
            flight_dump(
                self.store.root, "worker-unhandled-exception",
                error=traceback.format_exc(),
                extra={"worker_id": self.worker_id, "job": self.current_job},
            )
            raise
        finally:
            event(
                "worker.exited", worker=self.worker_id,
                jobs_done=self.jobs_done, jobs_failed=self.jobs_failed,
            )
            self._maybe_write_snapshot(force=True)
            self.queue.unregister_worker(self.worker_id)
        return self.jobs_done

    def _claim_next(self) -> dict | None:
        """Scan open tickets and lease the first claimable one."""
        for ticket in self.queue.tickets():
            key = ticket.get("key")
            if not key:
                continue
            if self.store.has(key):
                # Finished job whose broker vanished before cleanup.
                self.queue.retire(key)
                continue
            attempt = ticket.get("attempt", 0)
            if attempt >= ticket.get("max_attempts", 1):
                continue  # exhausted: the broker owns the verdict
            if self.queue.lease_path(key).is_file():
                continue
            if self.queue.claim(key, self.worker_id, attempt):
                self._claims += 1
                event(
                    "worker.claims", key=key[:12], worker=self.worker_id,
                    attempt=attempt, label=ticket.get("label", ""),
                )
                if (
                    self.die_after_claims is not None
                    and self._claims >= self.die_after_claims
                ):
                    # Fault injection: crash while holding the lease.
                    # SIGKILL is uncatchable, so the black box must be
                    # written *before* the shot — exactly what a real
                    # OOM-killed worker cannot do, which is why the
                    # lease-expiry path in the broker also dumps.
                    flight_dump(
                        self.store.root, "fault-injection-sigkill",
                        extra={"worker_id": self.worker_id, "job": key},
                    )
                    os.kill(os.getpid(), signal.SIGKILL)
                return ticket
        return None

    def _process(self, ticket: dict) -> None:
        """Execute one claimed ticket, publishing or recording failure."""
        # Lazy import: backends resolve at executor call time, so the
        # backend layer only reaches back into the executor at call time.
        from ..executor import execute

        key = ticket["key"]
        attempt = ticket.get("attempt", 0)
        self.current_job = key
        stop_beat = threading.Event()
        last_beat = time.monotonic()

        def _beat() -> None:
            nonlocal last_beat
            while not stop_beat.wait(self.heartbeat_interval):
                now = time.monotonic()
                # Heartbeat lag: how far past the nominal interval this
                # beat landed — a loaded worker (or filesystem) shows up
                # here long before its lease expires.
                sample(
                    "worker.heartbeat_lag",
                    max(0.0, now - last_beat - self.heartbeat_interval),
                    worker=self.worker_id, key=key[:12],
                )
                last_beat = now
                self.queue.heartbeat(key, self.worker_id)
                self.queue.heartbeat_worker(
                    self.worker_id, jobs_done=self.jobs_done
                )

        beater = threading.Thread(target=_beat, daemon=True)
        beater.start()
        started = time.time()
        job_span = span(
            "worker.job", cat="worker", worker=self.worker_id,
            key=key[:12], label=ticket.get("label", ""), attempt=attempt,
        )
        error = None
        try:
            with job_span:
                spec = RunSpec.from_json(ticket["spec"])
                if spec.key() != key:
                    raise RuntimeError(
                        f"ticket key {key[:12]} does not match its spec "
                        f"(hash {spec.key()[:12]}): corrupt ticket"
                    )
                if any(key.startswith(p) for p in _injected_fail_prefixes()):
                    raise RuntimeError(
                        f"injected failure for {key[:12]} ({FAIL_KEYS_ENV})"
                    )
                result = execute(spec, self.store)
                self.store.put_result(
                    result,
                    overwrite=bool(ticket.get("overwrite"))
                    and spec.kind != "trace",
                )
                self.queue.complete(key, self.worker_id)
                job_span.annotate(
                    outcome="completed", wall_s=time.time() - started
                )
        except Exception as exc:
            error = repr(exc)
            job_span.annotate(outcome="failed")
            self.queue.fail(
                key, self.worker_id, attempt, traceback.format_exc()
            )
        finally:
            self.current_job = None
            stop_beat.set()
            beater.join(timeout=self.heartbeat_interval + 1.0)
        if error is None:
            self.jobs_done += 1
        else:
            self.jobs_failed += 1
        outcome = "completed" if error is None else "failed"
        wall = time.time() - started
        self._log(event(
            "worker.jobs", labels={"outcome": outcome}, seconds=wall,
            message=f"worker {self.worker_id} {outcome} "
            f"{ticket.get('label', key[:12])} "
            f"({wall:.2f}s, attempt {attempt})",
            key=key[:12], worker=self.worker_id, attempt=attempt, error=error,
        ))
        sample("worker", {"jobs_done": self.jobs_done,
                          "jobs_failed": self.jobs_failed})
        # A worker draining short jobs back to back never reaches the
        # idle branch; refresh the registry here so it reads alive.
        self.queue.heartbeat_worker(self.worker_id, jobs_done=self.jobs_done)
        # Crash-safe event log: everything up to and including this job
        # survives a SIGKILL during the next one.
        flush_active()
        self._maybe_write_snapshot()
