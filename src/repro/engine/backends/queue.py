"""The shared-filesystem job queue behind the ``cluster`` backend.

The broker (:class:`~repro.engine.backends.cluster.ClusterBackend`) and
the worker daemons (``repro worker``) never talk to each other directly
— they rendezvous through a directory of small JSON files living next to
the content-addressed store (default ``<store>/queue``)::

    queue/
      todo/<key>.json            job ticket: spec, attempt, retry cap
      leases/<key>.json          owner + heartbeat of the claiming worker
      failed/<key>.<n>.json      per-attempt failure record (traceback)
      workers/<worker-id>.json   worker registry entry (heartbeated)
      tmp/                       staging for atomic writes

Every mutation is a single atomic filesystem operation, so the protocol
needs no locks and survives hard-killed participants:

* tickets and heartbeats are staged in ``tmp/`` and published with
  ``os.replace`` (atomic overwrite);
* a lease is claimed with ``os.link`` (atomic create-if-absent — the
  loser of a claim race gets ``FileExistsError`` and moves on);
* job *completion* is the content-addressed store itself: a job is done
  exactly when ``store.has(key)`` — the queue files are only
  coordination, so losing any of them costs a retry, never a result.

The attempt counter lives in the ticket; :meth:`JobQueue.bump_attempt`
takes the expected current value so a crashed worker's lease expiry and
its own belated failure report cannot double-count one attempt.
"""

from __future__ import annotations

import json
import os
import secrets
import socket
import time
from pathlib import Path
from typing import TYPE_CHECKING

from ...telemetry import event
from ..spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..store import ResultStore

__all__ = ["JobQueue", "new_worker_id"]

_TODO = "todo"
_LEASES = "leases"
_FAILED = "failed"
_WORKERS = "workers"
_TMP = "tmp"


def new_worker_id() -> str:
    """A globally unique worker identity: ``<host>-<pid>-<nonce>``."""
    return f"{socket.gethostname()}-{os.getpid()}-{secrets.token_hex(3)}"


class JobQueue:
    """Atomic file-based tickets, leases and worker registry."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @staticmethod
    def for_store(store: "ResultStore") -> "JobQueue":
        """The queue co-located with ``store`` (its ``queue/`` subdir)."""
        return JobQueue(Path(store.root) / "queue")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JobQueue({str(self.root)!r})"

    # -- atomic file primitives --------------------------------------------
    def _write_json(self, path: Path, doc: dict) -> None:
        """Publish ``doc`` at ``path`` atomically (stage + rename)."""
        tmp = self.root / _TMP
        tmp.mkdir(parents=True, exist_ok=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        stage = tmp / f"{path.name}.{os.getpid()}.{secrets.token_hex(3)}"
        stage.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        os.replace(stage, path)

    @staticmethod
    def _read_json(path: Path) -> dict | None:
        """Parse one queue file; unreadable/vanished files read as None."""
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return doc if isinstance(doc, dict) else None

    # -- tickets -----------------------------------------------------------
    def ticket_path(self, key: str) -> Path:
        """Where the ticket of job ``key`` lives while the job is open."""
        return self.root / _TODO / f"{key}.json"

    def enqueue(
        self,
        spec: RunSpec,
        *,
        max_attempts: int = 3,
        overwrite: bool = False,
        now: float | None = None,
    ) -> bool:
        """Post a job ticket unless one is already open for its key.

        Returns whether a new ticket was written.  An existing ticket is
        left untouched so a re-submitted sweep cannot reset another
        broker's attempt counter mid-retry.
        """
        key = spec.key()
        path = self.ticket_path(key)
        if path.is_file():
            return False
        self._write_json(
            path,
            {
                "key": key,
                "spec": spec.to_json(),
                "label": spec.label(),
                "attempt": 0,
                "max_attempts": int(max_attempts),
                "overwrite": bool(overwrite),
                "enqueued_at": time.time() if now is None else now,
            },
        )
        event("queue.enqueued", key=key[:12])
        return True

    def read_ticket(self, key: str) -> dict | None:
        """The open ticket of ``key``, or ``None``."""
        return self._read_json(self.ticket_path(key))

    def tickets(self) -> list[dict]:
        """Every open ticket, in stable (key) order."""
        todo = self.root / _TODO
        if not todo.is_dir():
            return []
        out = []
        for path in sorted(todo.iterdir()):
            doc = self._read_json(path)
            if doc is not None:
                out.append(doc)
        return out

    def retire(self, key: str) -> None:
        """Drop the ticket of ``key`` (job finished or abandoned)."""
        self.ticket_path(key).unlink(missing_ok=True)

    def bump_attempt(self, key: str, expected: int) -> dict | None:
        """Advance the ticket's attempt counter past ``expected``.

        No-ops (returning the current ticket) when the counter already
        moved — the lease-expiry sweep and a slow worker's own failure
        report may both try to charge the same attempt.
        """
        ticket = self.read_ticket(key)
        if ticket is None:
            return None
        if ticket.get("attempt", 0) == expected:
            ticket["attempt"] = expected + 1
            self._write_json(self.ticket_path(key), ticket)
        return ticket

    # -- leases ------------------------------------------------------------
    def lease_path(self, key: str) -> Path:
        """Where the lease of job ``key`` lives while a worker holds it."""
        return self.root / _LEASES / f"{key}.json"

    def claim(
        self, key: str, owner: str, attempt: int, now: float | None = None
    ) -> bool:
        """Try to take the lease on ``key``; returns whether we won it.

        The lease file is created atomically with its full content
        (hard-link trick), so a concurrent reader never observes a
        half-written lease.
        """
        now = time.time() if now is None else now
        path = self.lease_path(key)
        tmp = self.root / _TMP
        tmp.mkdir(parents=True, exist_ok=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        stage = tmp / f"{path.name}.{os.getpid()}.{secrets.token_hex(3)}"
        stage.write_text(
            json.dumps(
                {
                    "key": key,
                    "owner": owner,
                    "attempt": int(attempt),
                    "claimed_at": now,
                    "heartbeat_at": now,
                },
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        try:
            os.link(stage, path)
            won = True
        except FileExistsError:
            won = False
        finally:
            stage.unlink(missing_ok=True)
        event("queue.claims", labels={"outcome": "won" if won else "lost"},
              key=key[:12], owner=owner, attempt=attempt)
        return won

    def read_lease(self, key: str) -> dict | None:
        """The lease of ``key`` (heartbeat falls back to file mtime)."""
        path = self.lease_path(key)
        doc = self._read_json(path)
        if doc is not None:
            return doc
        try:  # unparsable but present: synthesize from the mtime
            return {"key": key, "owner": None,
                    "heartbeat_at": path.stat().st_mtime, "attempt": 0}
        except OSError:
            return None

    def heartbeat(self, key: str, owner: str, now: float | None = None) -> bool:
        """Refresh the lease we hold; returns False if we lost it."""
        lease = self.read_lease(key)
        if lease is None or lease.get("owner") != owner:
            return False
        lease["heartbeat_at"] = time.time() if now is None else now
        self._write_json(self.lease_path(key), lease)
        return True

    def release(self, key: str, owner: str | None = None) -> None:
        """Drop the lease of ``key`` (ours, or anyone's when owner=None)."""
        lease = self.read_lease(key)
        if lease is None:
            return
        if owner is not None and lease.get("owner") not in (owner, None):
            return
        self.lease_path(key).unlink(missing_ok=True)

    def leases(self) -> list[dict]:
        """Every live lease, in stable (key) order."""
        leases = self.root / _LEASES
        if not leases.is_dir():
            return []
        out = []
        for path in sorted(leases.iterdir()):
            doc = self.read_lease(path.stem.split(".")[0])
            if doc is not None:
                out.append(doc)
        return out

    def expire_leases(
        self, timeout: float, now: float | None = None
    ) -> list[dict]:
        """Requeue every job whose worker stopped heartbeating.

        A lease older than ``timeout`` means its worker crashed (or lost
        the filesystem); the lease is dropped and the ticket's attempt
        counter charged, which makes the job claimable again.  Returns
        the expired leases; the broker reports them.
        """
        now = time.time() if now is None else now
        expired = []
        for lease in self.leases():
            beat = lease.get("heartbeat_at") or 0.0
            if now - beat <= timeout:
                continue
            key = lease["key"]
            self.lease_path(key).unlink(missing_ok=True)
            self.bump_attempt(key, lease.get("attempt", 0))
            expired.append(lease)
        return expired

    # -- completion / failure ----------------------------------------------
    def complete(self, key: str, owner: str) -> None:
        """Close out a job we finished (result already in the store)."""
        self.retire(key)
        self.release(key, owner)

    def fail(
        self,
        key: str,
        owner: str,
        attempt: int,
        error: str,
        now: float | None = None,
    ) -> None:
        """Record one failed attempt and put the job back up for grabs."""
        self._write_json(
            self.root / _FAILED / f"{key}.{attempt}.json",
            {
                "key": key,
                "owner": owner,
                "attempt": int(attempt),
                "error": error,
                "failed_at": time.time() if now is None else now,
            },
        )
        event("queue.failures", key=key[:12], owner=owner, attempt=attempt)
        self.bump_attempt(key, attempt)
        self.release(key, owner)

    def failures(self, key: str | None = None) -> list[dict]:
        """Failure records (of one job, or all), oldest attempt first."""
        failed = self.root / _FAILED
        if not failed.is_dir():
            return []
        out = []
        for path in sorted(failed.iterdir()):
            doc = self._read_json(path)
            if doc is None:
                continue
            if key is None or doc.get("key") == key:
                out.append(doc)
        return sorted(out, key=lambda d: (d["key"], d.get("attempt", 0)))

    def clear_failures(self, key: str | None = None) -> int:
        """Drop failure records (of one job, or all); returns the count."""
        failed = self.root / _FAILED
        if not failed.is_dir():
            return 0
        removed = 0
        for path in sorted(failed.iterdir()):
            if key is not None and not path.name.startswith(f"{key}."):
                continue
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    # -- worker registry -----------------------------------------------------
    def worker_path(self, worker_id: str) -> Path:
        """Registry entry of one worker daemon."""
        return self.root / _WORKERS / f"{worker_id}.json"

    def register_worker(self, worker_id: str, now: float | None = None) -> None:
        """Announce a worker daemon (heartbeated while it polls)."""
        now = time.time() if now is None else now
        self._write_json(
            self.worker_path(worker_id),
            {
                "worker_id": worker_id,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "started_at": now,
                "heartbeat_at": now,
                "jobs_done": 0,
            },
        )

    def heartbeat_worker(
        self,
        worker_id: str,
        jobs_done: int | None = None,
        now: float | None = None,
    ) -> None:
        """Refresh a worker's registry heartbeat (re-registers if lost)."""
        doc = self._read_json(self.worker_path(worker_id))
        if doc is None:
            self.register_worker(worker_id, now=now)
            doc = self._read_json(self.worker_path(worker_id))
            if doc is None:  # pragma: no cover - racing filesystem
                return
        doc["heartbeat_at"] = time.time() if now is None else now
        if jobs_done is not None:
            doc["jobs_done"] = int(jobs_done)
        self._write_json(self.worker_path(worker_id), doc)

    def unregister_worker(self, worker_id: str) -> None:
        """Remove a worker's registry entry (clean shutdown)."""
        self.worker_path(worker_id).unlink(missing_ok=True)

    def workers(self) -> list[dict]:
        """Every registered worker, in stable (id) order."""
        registry_dir = self.root / _WORKERS
        if not registry_dir.is_dir():
            return []
        out = []
        for path in sorted(registry_dir.iterdir()):
            doc = self._read_json(path)
            if doc is not None:
                out.append(doc)
        return out

    def alive_workers(
        self, timeout: float, now: float | None = None
    ) -> list[dict]:
        """Workers whose registry heartbeat is fresher than ``timeout``."""
        now = time.time() if now is None else now
        return [
            doc
            for doc in self.workers()
            if now - (doc.get("heartbeat_at") or 0.0) <= timeout
        ]
