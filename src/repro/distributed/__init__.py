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

from .._lazy import lazy_exports

_EXPORTS = {
    "QueueCoordinator": ".coordinator",
    "local_worker_pool": ".coordinator",
    "run_sharded_queue": ".coordinator",
    "DEFAULT_LEASE_TTL": ".lease",
    "Heartbeat": ".lease",
    "Lease": ".lease",
    "FilesystemSpool": ".queue",
    "SpoolBackend": ".queue",
    "SpoolTask": ".queue",
    "task_id_for": ".queue",
    "default_worker_id": ".worker",
    "process_one": ".worker",
    "run_worker": ".worker",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

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
