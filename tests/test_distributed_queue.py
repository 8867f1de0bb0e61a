"""Unit tests for the distributed queue substrate.

Covers the spool's atomic state machine (enqueue / claim-by-rename /
ack / requeue, checksummed blobs), lease acquire/renew/expire and the
heartbeat's lost-lease signal, the worker loop's outcome publishing,
and the coordinator's dedup + resume + timeout behavior.

Fault injection — SIGKILLed workers, restarted coordinators — lives in
``tests/test_distributed_fault.py``; whole-pipeline parity in
``tests/test_distributed_parity.py``.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.distributed import (
    FilesystemSpool,
    Heartbeat,
    Lease,
    QueueCoordinator,
    SpoolBackend,
    run_sharded_queue,
    task_id_for,
)
from repro.distributed.queue import pack_blob, unpack_blob
from repro.distributed.worker import decode_outcome, process_one
from repro.exceptions import DistributedError, LeaseError, PipelineError
from repro.pipeline.context import PipelineConfig


def doubler(xs):
    return [x * 2 for x in xs]


def exploder(_xs):
    raise ValueError("shard worker went boom")


# -- blob framing ---------------------------------------------------------


class TestBlobFraming:
    def test_round_trip(self):
        assert unpack_blob(pack_blob(b"payload")) == b"payload"
        assert unpack_blob(pack_blob(b"")) == b""

    def test_rejects_truncation_and_corruption(self):
        blob = pack_blob(b"payload-bytes")
        assert unpack_blob(blob[:-3]) is None  # torn tail
        assert unpack_blob(blob[5:]) is None  # lost magic
        flipped = blob[:-1] + bytes([blob[-1] ^ 0xFF])
        assert unpack_blob(flipped) is None  # checksum mismatch
        assert unpack_blob(b"") is None
        assert unpack_blob(b"garbage") is None


# -- spool state machine --------------------------------------------------


class TestFilesystemSpool:
    def test_satisfies_backend_protocol(self, tmp_path):
        assert isinstance(FilesystemSpool(tmp_path), SpoolBackend)

    def test_enqueue_claim_ack_lifecycle(self, tmp_path):
        spool = FilesystemSpool(tmp_path)
        assert spool.claim("w1") is None
        assert spool.enqueue("t1", "preprocess", 0, b"work")
        task = spool.claim("w1")
        assert task is not None and task.id == "t1" and task.shard == 0
        assert spool.claim("w2") is None  # exactly-once claim
        assert spool.read_payload("t1") == b"work"
        spool.write_result("t1", b"answer")
        assert spool.ack("t1")
        assert not spool.ack("t1")  # already done
        assert spool.read_result("t1") == b"answer"

    def test_enqueue_dedupes_queued_and_completed_tasks(self, tmp_path):
        spool = FilesystemSpool(tmp_path)
        assert spool.enqueue("t1", "s", 0, b"work")
        assert not spool.enqueue("t1", "s", 0, b"work")  # still pending
        spool.claim("w1")
        assert not spool.enqueue("t1", "s", 0, b"work")  # claimed
        spool.write_result("t1", b"answer")
        spool.ack("t1")
        assert not spool.enqueue("t1", "s", 0, b"work")  # result exists

    def test_requeue_returns_claimed_task_to_pending(self, tmp_path):
        spool = FilesystemSpool(tmp_path)
        spool.enqueue("t1", "s", 0, b"work")
        spool.claim("w1")
        assert spool.claimed_ids() == ["t1"]
        assert spool.requeue("t1")
        assert spool.claimed_ids() == []
        assert spool.claim("w2").id == "t1"
        assert not spool.requeue("t2")  # unknown task: benign

    def test_claim_survives_reaper_steal_between_rename_and_read(
        self, tmp_path, monkeypatch
    ):
        """A reaper can requeue a claim in the window between the
        worker's rename and its read (no lease exists yet): the
        vanished file means "lost the race", never an error."""
        import os as os_module

        spool = FilesystemSpool(tmp_path)
        spool.enqueue("t1", "s", 0, b"one")
        spool.enqueue("t2", "s", 1, b"two")
        real_replace = os_module.replace
        stolen = []

        def stealing_replace(src, dst):
            real_replace(src, dst)
            if not stolen:  # reaper steals the first claim straight back
                stolen.append(dst)
                real_replace(dst, src)

        monkeypatch.setattr(os_module, "replace", stealing_replace)
        task = spool.claim("w1")
        assert task is not None
        assert task.id == "t2"  # moved on to the next candidate
        assert "t1" in [  # the stolen task is pending again
            path.name[: -len(".json")]
            for path in (tmp_path / "tasks" / "pending").iterdir()
        ]

    def test_corrupt_result_reads_as_absent(self, tmp_path):
        spool = FilesystemSpool(tmp_path)
        spool.enqueue("t1", "s", 0, b"work")
        spool.write_result("t1", b"answer")
        result_file = tmp_path / "results" / "t1"
        result_file.write_bytes(result_file.read_bytes()[:-2])
        assert spool.read_result("t1") is None
        assert not spool.has_result("t1")

    def test_task_ids_are_content_keyed(self):
        id_a, _ = task_id_for("preprocess", doubler, [1, 2])
        id_b, _ = task_id_for("preprocess", doubler, [1, 2])
        id_c, _ = task_id_for("preprocess", doubler, [1, 3])
        id_d, _ = task_id_for("other", doubler, [1, 2])
        assert id_a == id_b
        assert id_a != id_c and id_a != id_d
        assert id_a.startswith("preprocess-")


# -- leases ---------------------------------------------------------------


class TestLeases:
    def test_acquire_read_release(self, tmp_path):
        spool = FilesystemSpool(tmp_path)
        lease = Lease.acquire(spool, "t1", "w1", ttl=30.0)
        seen = Lease.read(spool, "t1")
        assert seen == lease and not seen.expired()
        lease.release(spool)
        assert Lease.read(spool, "t1") is None

    def test_release_respects_new_owner(self, tmp_path):
        spool = FilesystemSpool(tmp_path)
        stale = Lease.acquire(spool, "t1", "w1", ttl=30.0)
        Lease.acquire(spool, "t1", "w2", ttl=30.0)  # reaped + re-claimed
        stale.release(spool)  # must not delete w2's lease
        assert Lease.read(spool, "t1").worker_id == "w2"

    def test_renew_extends_and_checks_ownership(self, tmp_path):
        spool = FilesystemSpool(tmp_path)
        lease = Lease.acquire(spool, "t1", "w1", ttl=0.0)
        assert lease.expired()
        renewed = lease.renew(spool, ttl=60.0)
        assert not renewed.expired()
        spool.clear_lease("t1")
        with pytest.raises(LeaseError):
            renewed.renew(spool, ttl=60.0)
        Lease.acquire(spool, "t1", "w2", ttl=60.0)
        with pytest.raises(LeaseError):
            renewed.renew(spool, ttl=60.0)

    def test_heartbeat_flags_lost_lease(self, tmp_path):
        spool = FilesystemSpool(tmp_path)
        lease = Lease.acquire(spool, "t1", "w1", ttl=0.05)
        heartbeat = Heartbeat(spool, lease, ttl=0.05)
        heartbeat.start()
        try:
            # Steal the lease out from under the heartbeat.
            Lease.acquire(spool, "t1", "w2", ttl=60.0)
            deadline = 200
            while not heartbeat.lost and deadline:
                deadline -= 1
                time.sleep(0.01)
        finally:
            heartbeat.stop()
        assert heartbeat.lost

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        spool = FilesystemSpool(tmp_path)
        lease = Lease.acquire(spool, "t1", "w1", ttl=0.09)
        heartbeat = Heartbeat(spool, lease, ttl=0.09)
        heartbeat.start()
        try:
            time.sleep(0.4)  # several TTLs
            current = Lease.read(spool, "t1")
            assert current is not None and not current.expired()
        finally:
            heartbeat.stop()
        assert not heartbeat.lost


# -- worker loop ----------------------------------------------------------


class TestWorker:
    def _enqueue(self, spool, worker, payload, stage="s"):
        task_id, blob = task_id_for(stage, worker, payload)
        spool.enqueue(task_id, stage, 0, blob)
        return task_id

    def test_process_one_publishes_and_acks(self, tmp_path):
        spool = FilesystemSpool(tmp_path)
        task_id = self._enqueue(spool, doubler, [1, 2, 3])
        assert process_one(spool, "w1", ttl=5.0)
        assert decode_outcome(spool.read_result(task_id)) == (
            "ok",
            [2, 4, 6],
        )
        assert (tmp_path / "tasks" / "done" / f"{task_id}.json").exists()
        assert Lease.read(spool, task_id) is None  # released

    def test_requeued_task_with_a_result_is_acked_not_rerun(self, tmp_path):
        # A reaper can requeue a claimed task before its lease lands;
        # the first worker still publishes.  The stale pending entry
        # must not run the task again and rewrite the result.
        spool = FilesystemSpool(tmp_path)
        task_id = self._enqueue(spool, doubler, [1])
        assert spool.claim("w1").id == task_id
        assert spool.requeue(task_id)
        spool.write_result(task_id, pickle.dumps(("ok", "first run")))
        assert process_one(spool, "w2", ttl=5.0)
        assert decode_outcome(spool.read_result(task_id)) == ("ok", "first run")
        assert (tmp_path / "tasks" / "done" / f"{task_id}.json").exists()

    def test_process_one_idle_returns_false(self, tmp_path):
        assert not process_one(FilesystemSpool(tmp_path), "w1")

    def test_worker_exception_becomes_error_outcome(self, tmp_path):
        spool = FilesystemSpool(tmp_path)
        task_id = self._enqueue(spool, exploder, [1])
        assert process_one(spool, "w1", ttl=5.0)
        status, message = decode_outcome(spool.read_result(task_id))
        assert status == "error"
        assert "shard worker went boom" in message

    def test_corrupt_payload_becomes_error_outcome(self, tmp_path):
        spool = FilesystemSpool(tmp_path)
        task_id = self._enqueue(spool, doubler, [1])
        payload_file = tmp_path / "payloads" / task_id
        payload_file.write_bytes(payload_file.read_bytes()[:-4])
        assert process_one(spool, "w1", ttl=5.0)
        status, message = decode_outcome(spool.read_result(task_id))
        assert status == "error"
        assert "missing or corrupt" in message


# -- coordinator ----------------------------------------------------------


class TestCoordinator:
    def test_results_align_with_payloads(self, tmp_path):
        out = run_sharded_queue(
            doubler,
            [[1], [2, 3], [], [4]],
            spool=tmp_path / "spool",
            workers=2,
            stage="map",
            lease_ttl=2.0,
            timeout=60.0,
        )
        assert out == [[2], [4, 6], [], [8]]

    def test_identical_payloads_share_one_task(self, tmp_path):
        spool = tmp_path / "spool"
        out = run_sharded_queue(
            doubler,
            [[], [], [7]],
            spool=spool,
            workers=1,
            stage="map",
            lease_ttl=2.0,
            timeout=60.0,
        )
        assert out == [[], [], [14]]
        done = list((spool / "tasks" / "done").glob("*.json"))
        assert len(done) == 2  # the two empty shards deduped

    def test_empty_payloads_never_touch_the_spool(self, tmp_path):
        spool = tmp_path / "spool"
        assert run_sharded_queue(doubler, [], spool=spool, workers=1) == []
        assert not spool.exists()

    def test_resume_serves_existing_results_without_workers(self, tmp_path):
        spool = tmp_path / "spool"
        first = run_sharded_queue(
            doubler,
            [[1], [2]],
            spool=spool,
            workers=1,
            stage="map",
            lease_ttl=2.0,
            timeout=60.0,
        )
        # No workers at all: only already-published results can answer.
        second = run_sharded_queue(
            doubler,
            [[1], [2]],
            spool=spool,
            workers=0,
            stage="map",
            timeout=5.0,
        )
        assert second == first

    def test_worker_error_raises_distributed_error(self, tmp_path):
        with pytest.raises(DistributedError, match="shard worker went boom"):
            run_sharded_queue(
                exploder,
                [[1]],
                spool=tmp_path / "spool",
                workers=1,
                stage="map",
                lease_ttl=2.0,
                timeout=60.0,
            )

    def test_timeout_without_workers_raises(self, tmp_path):
        with pytest.raises(DistributedError, match="timed out"):
            run_sharded_queue(
                doubler,
                [[1]],
                spool=tmp_path / "spool",
                workers=0,
                stage="map",
                poll=0.01,
                timeout=0.2,
            )

    def test_reap_requeues_expired_lease(self, tmp_path):
        spool = FilesystemSpool(tmp_path / "spool")
        task_id, blob = task_id_for("map", doubler, [5])
        spool.enqueue(task_id, "map", 0, blob)
        # Simulate a claimed task whose holder died: expired lease.
        assert spool.claim("dead-worker").id == task_id
        spool.write_lease(
            task_id,
            {"task": task_id, "worker": "dead-worker", "expires": 0.0},
        )
        coordinator = QueueCoordinator(
            spool, lease_ttl=0.2, poll=0.01, timeout=10.0
        )
        attempts: dict[str, int] = {}
        coordinator._reap({task_id}, set(), attempts, "map")
        assert attempts[task_id] == 1
        assert spool.claim("w2").id == task_id  # back in pending


# -- config validation ----------------------------------------------------


class TestQueueConfig:
    def test_queue_executor_requires_spool(self):
        with pytest.raises(PipelineError, match="requires a spool"):
            PipelineConfig(executor="queue")

    def test_spool_is_normalized_to_str(self, tmp_path):
        config = PipelineConfig(executor="queue", spool=tmp_path)
        assert config.spool == str(tmp_path)

    def test_negative_workers_rejected(self):
        with pytest.raises(PipelineError, match="workers must be >= 0"):
            PipelineConfig(workers=-1)
