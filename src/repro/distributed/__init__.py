"""Queue-backed distributed shard execution.

Shard tasks go through a filesystem spool (:mod:`.queue`), are
executed by stateless worker processes on one or many hosts
(:mod:`.worker`) under TTL-leased claims (:mod:`.lease`), and are
collected — with crash recovery and checkpoint/resume — by the
coordinator (:mod:`.coordinator`).

Entry points:

- ``repro-study scenarios run --executor queue --spool DIR --workers
  N`` runs the scenario grid's cells through the spool;
- ``repro-study worker --spool DIR`` serves a spool from any host that
  can reach it;
- ``PipelineConfig(executor="queue", spool=DIR)`` routes any
  :class:`~repro.pipeline.stage.ShardStage` map through
  :func:`run_sharded_queue` (the study pipeline's queue parity and
  fault tests use this).
"""

from .coordinator import (
    QueueCoordinator,
    local_worker_pool,
    run_sharded_queue,
)
from .lease import DEFAULT_LEASE_TTL, Heartbeat, Lease
from .queue import FilesystemSpool, SpoolBackend, SpoolTask, task_id_for
from .worker import default_worker_id, process_one, run_worker

__all__ = [
    "DEFAULT_LEASE_TTL",
    "FilesystemSpool",
    "Heartbeat",
    "Lease",
    "QueueCoordinator",
    "SpoolBackend",
    "SpoolTask",
    "default_worker_id",
    "local_worker_pool",
    "process_one",
    "run_sharded_queue",
    "run_worker",
    "task_id_for",
]
