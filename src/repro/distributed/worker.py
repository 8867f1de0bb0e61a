"""The worker loop: claim → run shard worker → publish result → ack.

A worker is any process running :func:`run_worker` against a spool
directory — spawned locally by the coordinator's worker pool, or
started standalone on another host with ``repro-study worker --spool
DIR`` (the spool on a shared filesystem).  Workers are stateless: all
coordination happens through the spool, so any number can serve the
same queue and any of them can die at any point without corrupting it.

One task's lifecycle inside :func:`process_one`:

1. claim the task (atomic rename); a task whose result is already
   published is acked on the spot and never run again.  Otherwise
   acquire its lease and start the heartbeat.  The claim-to-lease
   window is microseconds wide; the coordinator's reaper treats a
   claimed-but-unleased task like an expired one and requeues it, so
   two claimants may both run the shard (harmless: the result is
   content-keyed and published atomically).  A requeued copy claimed
   after a result landed is only acked, so a restarted coordinator
   resumes without re-running finished tasks;
2. load and verify the checksummed payload, unpickle the
   ``(worker_fn, payload)`` pair, run it;
3. publish the outcome — ``("ok", value)`` or ``("error", message)`` —
   as a checksummed blob via the atomic write-temp-then-rename helper
   (a crash mid-publish leaves only an invisible temp file, never a
   half-written result);
4. ack (claimed → done) unless the heartbeat lost the lease mid-run,
   in which case the task already belongs to someone else and this
   worker's published result is merely a byte-identical duplicate.

Failures inside the shard worker are *results*, not worker crashes:
the traceback is published as an error outcome and the coordinator
re-raises it, exactly like an in-process executor would.
"""

from __future__ import annotations

import os
import pickle
import socket
import time
import traceback

from .lease import DEFAULT_LEASE_TTL, Heartbeat, Lease
from .queue import PICKLE_PROTOCOL, SpoolBackend

__all__ = [
    "decode_outcome",
    "default_worker_id",
    "process_one",
    "run_worker",
]

#: Default pending-queue poll interval in seconds.
DEFAULT_POLL = 0.05


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique per live worker process, readable
    in lease files when debugging a stuck spool."""
    return f"{socket.gethostname()}-{os.getpid()}"


def decode_outcome(payload: bytes) -> tuple[str, object] | None:
    """An outcome tuple from a verified result payload, or ``None``
    when the pickle or its shape does not check out."""
    try:
        outcome = pickle.loads(payload)
    except Exception:
        return None
    if (
        isinstance(outcome, tuple)
        and len(outcome) == 2
        and outcome[0] in ("ok", "error")
    ):
        return outcome
    return None


def process_one(
    spool: SpoolBackend,
    worker_id: str,
    ttl: float = DEFAULT_LEASE_TTL,
) -> bool:
    """Claim and fully process one task; ``False`` when none pending."""
    task = spool.claim(worker_id)
    if task is None:
        return False
    if spool.has_result(task.id):
        spool.ack(task.id)  # published by an earlier claimant (step 1)
        return True
    lease = Lease.acquire(spool, task.id, worker_id, ttl)
    heartbeat = Heartbeat(spool, lease, ttl)
    heartbeat.start()
    try:
        outcome = _execute(spool, task.id)
        spool.write_result(
            task.id, pickle.dumps(outcome, protocol=PICKLE_PROTOCOL)
        )
        if not heartbeat.lost:
            spool.ack(task.id)
    finally:
        heartbeat.stop()
        lease.release(spool)
    return True


def _execute(spool: SpoolBackend, task_id: str) -> tuple[str, object]:
    """Run the task's shard worker, capturing failure as an outcome."""
    blob = spool.read_payload(task_id)
    if blob is None:
        return ("error", f"payload for task {task_id} is missing or corrupt")
    try:
        worker_fn, payload = pickle.loads(blob)
    except Exception as exc:
        return (
            "error",
            f"payload for task {task_id} failed to unpickle: {exc}",
        )
    try:
        return ("ok", worker_fn(payload))
    except Exception:
        return ("error", traceback.format_exc())


def run_worker(
    spool: SpoolBackend,
    worker_id: str | None = None,
    ttl: float = DEFAULT_LEASE_TTL,
    poll: float = DEFAULT_POLL,
    max_idle: float | None = None,
    stop=None,
) -> int:
    """Serve the spool until stopped; returns tasks processed.

    Args:
        spool: the queue backend to serve.
        worker_id: lease owner id (default ``<hostname>-<pid>``).
        ttl: lease TTL handed to :func:`process_one`.
        poll: sleep between empty-queue checks.
        max_idle: exit after this many seconds without claiming a task
            (``None``: serve forever, until ``stop`` or a signal).
        stop: optional event-like object (``is_set()``) — the local
            worker pool's shutdown signal.
    """
    wid = worker_id if worker_id is not None else default_worker_id()
    processed = 0
    idle_since = time.monotonic()
    while True:
        if stop is not None and stop.is_set():
            return processed
        if process_one(spool, wid, ttl=ttl):
            processed += 1
            idle_since = time.monotonic()
            continue
        if max_idle is not None and time.monotonic() - idle_since >= max_idle:
            return processed
        time.sleep(poll)
