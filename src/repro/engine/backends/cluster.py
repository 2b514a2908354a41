"""The ``cluster`` backend: a shared-filesystem broker over worker daemons.

The broker side of the queue protocol (:mod:`.queue`).  For each
topological layer of the plan it posts one ticket per pending job, then
watches the queue while ``repro worker`` daemons — started by hand on
any host that mounts the store, or auto-spawned locally via
``workers=N`` for the zero-to-aha path — claim leases, execute and
publish.  The broker itself never computes: it requeues jobs whose
lease stops heartbeating (worker crash), charges attempts, enforces the
retry cap, and raises a per-job :class:`ClusterJobError` report when a
job exhausts its attempts.

Correctness leans entirely on the content-addressed store: completion
is ``store.has(key)``, publishing is atomic and idempotent, and results
travel only through the store — so a cluster sweep is bit-identical to
a serial one no matter how many workers raced, crashed or retried.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

from ...registry import register
from ...telemetry import event, flight_dump, sample
from ..graph import Plan
from ..spec import RunSpec
from ..store import ResultStore
from .base import ExecutionBackend, Progress, layer_status
from .queue import JobQueue

__all__ = ["ClusterBackend", "ClusterJobError"]


class ClusterJobError(RuntimeError):
    """One or more jobs exhausted their retry cap.

    ``failures`` maps store key -> list of failure-record dicts (owner,
    attempt, traceback), giving the per-job report the message
    summarizes.
    """

    def __init__(self, message: str, failures: dict[str, list[dict]]) -> None:
        super().__init__(message)
        self.failures = failures


def _last_error_line(records: list[dict]) -> str:
    """The most informative line of a job's latest failure record."""
    if not records:
        return "lease expired repeatedly (no failure record: worker crash)"
    lines = [
        ln for ln in records[-1].get("error", "").strip().splitlines() if ln
    ]
    return lines[-1] if lines else "unknown error"


@register(
    "backend",
    "cluster",
    description="shared-filesystem job broker over repro worker daemons",
    tags=("distributed",),
)
class ClusterBackend(ExecutionBackend):
    """Broker a plan through the shared job queue.

    Parameters
    ----------
    workers :
        Local ``repro worker`` daemons to auto-spawn for the duration of
        the plan (0: rely on externally started workers).
    queue_dir :
        Queue location (default: ``<store>/queue``).  Workers must be
        pointed at the same directory.
    lease_timeout :
        Seconds without a lease heartbeat before the broker declares the
        worker dead and requeues the job.
    poll_interval :
        Seconds between broker queue scans.
    max_attempts :
        Retry cap per job (crashes and failures both charge attempts).
    stall_timeout :
        Seconds without any observable progress (lease movement, job
        completion) before the broker gives up with a diagnosis —
        typically "no workers are serving this queue".
    """

    name = "cluster"

    def __init__(
        self,
        workers: int = 0,
        queue_dir: str | None = None,
        lease_timeout: float = 30.0,
        poll_interval: float = 0.2,
        max_attempts: int = 3,
        stall_timeout: float = 600.0,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if lease_timeout <= 0 or poll_interval <= 0 or stall_timeout <= 0:
            raise ValueError("timeouts/intervals must be > 0")
        self.workers = workers
        self.queue_dir = queue_dir
        self.lease_timeout = lease_timeout
        self.poll_interval = poll_interval
        self.max_attempts = max_attempts
        self.stall_timeout = stall_timeout
        self._spawned: list[subprocess.Popen] = []

    # -- wiring ------------------------------------------------------------
    def job_queue(self, store: ResultStore) -> JobQueue:
        """The queue this backend brokers for ``store``."""
        if self.queue_dir is not None:
            return JobQueue(self.queue_dir)
        return JobQueue.for_store(store)

    def worker_command(self, store: ResultStore) -> list[str]:
        """The ``repro worker`` invocation that serves this queue."""
        return [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--cache-dir",
            str(store.root),
            "--queue-dir",
            str(self.job_queue(store).root),
            "--poll-interval",
            str(min(self.poll_interval, 0.5)),
            "--heartbeat-interval",
            str(max(self.lease_timeout / 4.0, 0.05)),
        ]

    def _spawn_workers(self, store: ResultStore) -> list[subprocess.Popen]:
        """Start ``self.workers`` local daemons serving the queue."""
        import repro

        env = dict(os.environ)
        # The spawned interpreter must resolve the same repro tree no
        # matter what the caller's cwd is.
        src_root = str(Path(repro.__file__).resolve().parents[1])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src_root + (
            os.pathsep + existing if existing else ""
        )
        command = self.worker_command(store)
        return [
            subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
            for _ in range(self.workers)
        ]

    def _reap_workers(self) -> None:
        """Terminate (then kill) every auto-spawned worker daemon."""
        for proc in self._spawned:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._spawned:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - hung child
                proc.kill()
                proc.wait()
        self._spawned = []

    # -- the broker --------------------------------------------------------
    def run_plan(
        self,
        plan: Plan,
        store: ResultStore,
        *,
        force: bool = False,
        progress: Progress | None = None,
        verbose: bool = False,
    ) -> None:
        say = progress or (lambda line: None)
        queue = self.job_queue(store)
        if plan.layers and self.workers:
            self._spawned = self._spawn_workers(store)
            say(
                f"cluster: spawned {self.workers} local worker"
                f"{'s' if self.workers != 1 else ''} on {queue.root}"
            )
        try:
            super().run_plan(
                plan, store, force=force, progress=progress, verbose=verbose
            )
        finally:
            self._reap_workers()

    def run_layer(
        self,
        depth: int,
        specs: Sequence[RunSpec],
        store: ResultStore,
        *,
        force: bool,
        say: Progress,
        verbose: bool,
    ) -> None:
        queue = self.job_queue(store)
        pending: dict[str, RunSpec] = {}
        for spec in specs:
            key = spec.key()
            pending[key] = spec
            if force and spec.kind != "trace" and store.has(key):
                # Completion is store.has(key), so a forced job must have
                # its stored result retired up front — otherwise the
                # broker (and every worker) would count it done as is.
                store.remove(key)
            queue.clear_failures(key)  # this broker's attempts start fresh
            queue.enqueue(
                spec,
                max_attempts=self.max_attempts,
                overwrite=force and spec.kind != "trace",
            )
        if verbose:
            say(
                f"layer {depth}: enqueued {len(pending)} jobs on "
                f"{queue.root}"
            )
        self._drain_layer(depth, pending, queue, store, say, verbose)

    def _drain_layer(
        self,
        depth: int,
        pending: dict[str, RunSpec],
        queue: JobQueue,
        store: ResultStore,
        say: Progress,
        verbose: bool,
    ) -> None:
        """Watch the queue until every job of the layer is stored or dead."""
        total = len(pending)
        done: set[str] = set()
        dead: dict[str, list[dict]] = {}
        last_status = ""
        last_progress = time.time()
        warned_no_workers = False
        while True:
            now = time.time()
            for lease in queue.expire_leases(self.lease_timeout, now=now):
                key = str(lease.get("key"))
                mine = pending.get(key)
                message = event(
                    "queue.lease_expired", level=logging.WARNING,
                    message=f"lease expired: requeued "
                    f"{mine.label() if mine else key[:12]} "
                    f"(worker {lease.get('owner')})",
                    depth=depth, key=key[:12], owner=lease.get("owner"),
                    attempt=lease.get("attempt", 0),
                    lease_age_s=now - (lease.get("heartbeat_at") or now),
                )
                if mine is not None:
                    say(message)
                    last_progress = now
            leased = 0
            for key, spec in pending.items():
                if key in done or key in dead:
                    continue
                if store.has(key):
                    done.add(key)
                    ticket = queue.read_ticket(key) or {}
                    enqueued_at = ticket.get("enqueued_at")
                    event(
                        "queue.jobs_done", depth=depth, key=key[:12],
                        queue_wall_s=now - enqueued_at if enqueued_at else None,
                        attempts=ticket.get("attempt", 0),
                    )
                    queue.retire(key)  # belt and braces if a worker died
                    queue.release(key)
                    continue
                if queue.lease_path(key).is_file():
                    leased += 1
                    continue
                ticket = queue.read_ticket(key)
                if ticket is None:
                    # Ticket vanished without a result (manual cleanup,
                    # queue wiped): repost it.
                    queue.enqueue(spec, max_attempts=self.max_attempts)
                elif ticket.get("attempt", 0) >= ticket.get(
                    "max_attempts", self.max_attempts
                ):
                    queue.retire(key)
                    dead[key] = queue.failures(key)
                    attempts = ticket.get("attempt", 0)
                    say(event(
                        "queue.retry_exhausted", level=logging.ERROR,
                        message=f"gave up on {spec.label()} after "
                        f"{attempts} attempts",
                        depth=depth, key=key[:12], attempts=attempts,
                    ))
                    last_progress = now
            if len(done) + len(dead) >= total:
                break
            status = layer_status(
                depth,
                queued=total - len(done) - len(dead) - leased,
                leased=leased,
                done=len(done),
                total=total,
            )
            if status != last_status:
                sample(
                    "queue",
                    {"depth": total - len(done) - len(dead),
                     "leased": leased, "done": len(done)},
                    labels={"depth": depth}, message=status,
                )
                if verbose:
                    say(status)
                last_status = status
                last_progress = now
            if (
                not warned_no_workers
                and leased == 0
                and not queue.alive_workers(max(self.lease_timeout, 10.0))
            ):
                if not self._spawned:
                    say(event(
                        "queue.no_workers", level=logging.WARNING,
                        message=f"cluster: no alive workers on {queue.root}"
                        f" — start some with: repro worker --cache-dir "
                        f"{store.root}",
                    ))
                    warned_no_workers = True
                elif all(p.poll() is not None for p in self._spawned):
                    raise RuntimeError(
                        f"all {len(self._spawned)} auto-spawned workers "
                        f"exited (codes "
                        f"{[p.returncode for p in self._spawned]}) with "
                        f"{total - len(done)} jobs unfinished"
                    )
            if now - last_progress > self.stall_timeout:
                alive = len(queue.alive_workers(max(self.lease_timeout, 10.0)))
                raise RuntimeError(
                    f"cluster backend stalled: no progress for "
                    f"{self.stall_timeout:.0f}s on layer {depth} "
                    f"({total - len(done) - len(dead)} jobs open, "
                    f"{alive} alive workers on {queue.root})"
                )
            time.sleep(self.poll_interval)
        if dead:
            lines = [
                f"{len(dead)} job{'s' if len(dead) != 1 else ''} failed "
                f"after up to {self.max_attempts} attempts:"
            ]
            for key, records in dead.items():
                lines.append(
                    f"  {pending[key].label()} ({key[:12]}): "
                    f"{len(records)} recorded failure"
                    f"{'s' if len(records) != 1 else ''}; "
                    f"{_last_error_line(records)}"
                )
            # The broker is the last observer standing when every retry
            # is burned — its black box names the dead jobs for triage.
            flight_dump(
                store.root, "retry-exhausted",
                error=_last_error_line(next(iter(dead.values()))),
                extra={"jobs": sorted(k[:12] for k in dead)},
            )
            raise ClusterJobError("\n".join(lines), dead)

    # -- introspection -----------------------------------------------------
    def placement(self, plan: Plan, store: ResultStore) -> list[str]:
        queue = self.job_queue(store)
        lines = [f"cluster: shared queue at {queue.root}"]
        alive = queue.alive_workers(max(self.lease_timeout, 10.0))
        if alive:
            for doc in alive:
                lines.append(
                    f"  worker {doc['worker_id']} "
                    f"(pid {doc.get('pid')}, {doc.get('jobs_done', 0)} jobs "
                    f"done)"
                )
        else:
            lines.append(
                f"  no alive workers — start some with: "
                f"repro worker --cache-dir {store.root}"
            )
        if self.workers:
            lines.append(
                f"  would auto-spawn {self.workers} local worker"
                f"{'s' if self.workers != 1 else ''}"
            )
        for depth in range(len(plan.layers)):
            lines.append(
                f"  layer {depth}: {len(plan.layers[depth])} jobs through "
                f"the queue (retry cap {self.max_attempts})"
            )
        return lines
