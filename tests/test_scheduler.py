"""Cluster scheduler tests: policies, cost model, cancellation,
deadlines, event streams, memo persistence and the REST surface.

Most tests drive :class:`ClusterScheduler` with tiny fake runners gated
on :class:`threading.Event` so ordering assertions are deterministic
(a "blocker" occupies the only GPU until the test releases it); a few
run the real registry workloads end to end through the REST layer.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.errors import JobCancelled, ServiceError
from repro.functional import kernelcache
from repro.service.costmodel import HistoryCostModel, cost_key
from repro.service.jobs import (
    CANCELLED, DONE, ERROR, Job, JobControl, MemoTable, NULL_CONTROL,
    job_key)
from repro.service.rest import API_ROUTES, make_server
from repro.service.scheduler import (
    ClusterScheduler, FairSharePolicy, FifoPolicy, POLICIES,
    PriorityPolicy, SjfPolicy, default_memo_path, make_policy)
from repro.service.client import ServiceClient
from repro.trace.tracer import Tracer, gpu_tid


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep every test hermetic: no reads/writes of the user cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "kcache"))
    kernelcache.reset_counters()


def _job(job_id="j1", workload="w", priority=0, tenant=None,
         submitted_at=0.0, config=None, seed=0):
    config = config or {}
    return Job(job_id=job_id, key=job_key(workload, config, seed),
               workload=workload, config=config, seed=seed,
               priority=priority, tenant=tenant,
               submitted_at=submitted_at)


def _sleeper(duration=0.0, log=None, release=None, started=None):
    """A fake runner: optionally waits for *release*, logs its seed."""
    def runner(config, seed, control=NULL_CONTROL):
        if started is not None:
            started.set()
        if release is not None:
            assert release.wait(10), "test forgot to release the blocker"
        if duration:
            time.sleep(duration)
        control.progress("step")
        if log is not None:
            log.append(seed)
        return {"seed": seed, "config": config}
    return runner


# ---------------------------------------------------------------------------
# Policies as pure choice functions
# ---------------------------------------------------------------------------
class TestPolicies:
    def test_registry_matches_issue_contract(self):
        assert sorted(POLICIES) == ["fair", "fifo", "priority", "sjf"]

    def test_make_policy_unknown_name(self):
        with pytest.raises(ServiceError, match="unknown policy"):
            make_policy("lottery", HistoryCostModel())

    def test_fifo_picks_oldest(self):
        pending = [_job("a", submitted_at=1.0), _job("b", submitted_at=2.0)]
        assert FifoPolicy().select(pending, now=3.0).job_id == "a"

    def test_priority_prefers_high_then_fifo(self):
        pending = [_job("a", priority=0, submitted_at=1.0),
                   _job("b", priority=5, submitted_at=2.0),
                   _job("c", priority=5, submitted_at=3.0)]
        policy = PriorityPolicy()
        assert policy.select(pending, now=4.0).job_id == "b"
        pending.remove(pending[1])
        assert policy.select(pending, now=4.0).job_id == "c"

    def test_fair_share_rotates_tenants(self):
        pending = [_job("a1", tenant="alice", submitted_at=1.0),
                   _job("a2", tenant="alice", submitted_at=2.0),
                   _job("a3", tenant="alice", submitted_at=3.0),
                   _job("b1", tenant="bob", submitted_at=4.0)]
        policy = FairSharePolicy()
        first = policy.select(pending, now=9.0)
        pending.remove(first)
        second = policy.select(pending, now=9.0)
        # bob's single job is served within the first two grants even
        # though alice queued three jobs first.
        assert {first.job_id, second.job_id} == {"a1", "b1"}

    def test_fair_share_groups_default_to_workload(self):
        assert FairSharePolicy.group_of(_job(workload="conv")) == "conv"
        assert FairSharePolicy.group_of(
            _job(workload="conv", tenant="t")) == "t"

    def test_sjf_picks_cheapest_estimate(self):
        model = HistoryCostModel()
        model.observe("w", {"n": 1}, 0, 5.0)
        model.observe("w", {"n": 2}, 0, 0.1)
        pending = [_job("slow", config={"n": 1}, submitted_at=1.0),
                   _job("fast", config={"n": 2}, submitted_at=2.0)]
        assert SjfPolicy(model).select(pending, now=3.0).job_id == "fast"


# ---------------------------------------------------------------------------
# Cost model
# ---------------------------------------------------------------------------
class TestHistoryCostModel:
    def test_cost_key_ignores_seed_but_not_config(self):
        assert cost_key("w", {"n": 1}) == cost_key("w", {"n": 1})
        assert cost_key("w", {"n": 1}) != cost_key("w", {"n": 2})
        # job_key *does* include the seed; cost_key must not.
        assert job_key("w", {"n": 1}, 0) != job_key("w", {"n": 1}, 1)

    def test_fallback_chain(self):
        model = HistoryCostModel(default_estimate=7.0)
        # nothing observed: the fixed prior.
        assert model.estimate("conv", {"x": 1}, 0) == 7.0
        model.observe("saxpy", {}, 0, 2.0)
        # unseen workload falls back to the global mean...
        assert model.estimate("conv", {"x": 1}, 0) == pytest.approx(2.0)
        model.observe("conv", {"y": 1}, 0, 10.0)
        # ...a seen workload with an unseen config to the workload mean...
        assert model.estimate("conv", {"x": 1}, 0) == pytest.approx(10.0)
        # ...and the exact fingerprint to its own EMA.
        assert model.estimate("conv", {"y": 1}, 0) == pytest.approx(10.0)

    def test_ema_tracks_recent_runtimes(self):
        model = HistoryCostModel(alpha=0.5)
        model.observe("w", {}, 0, 4.0)
        model.observe("w", {}, 1, 2.0)  # different seed, same bucket
        assert model.estimate("w", {}, 2) == pytest.approx(3.0)

    def test_snapshot_is_json_able(self):
        model = HistoryCostModel()
        model.observe("w", {}, 0, 1.5)
        snap = json.loads(json.dumps(model.snapshot()))
        assert snap["fingerprints"] == 1
        assert snap["observations"] == 1
        assert snap["mean_runtime_s"]["w"] == pytest.approx(1.5)

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            HistoryCostModel(alpha=0.0)


# ---------------------------------------------------------------------------
# Scheduler core (fake runners)
# ---------------------------------------------------------------------------
class TestClusterScheduler:
    def test_basic_submit_result_stats(self):
        with ClusterScheduler(gpus=2, registry={"quick": _sleeper()},
                              memo_path=None) as sched:
            jobs = [sched.submit("quick", {"i": i}, seed=i)
                    for i in range(5)]
            for i, job in enumerate(jobs):
                assert sched.result(job.job_id, timeout=10)["seed"] == i
            stats = sched.stats()
            assert stats["executed"] == 5
            assert stats["gpus"] == 2
            assert stats["policy"] == "fifo"

    def test_needs_at_least_one_gpu(self):
        with pytest.raises(ServiceError, match="at least one GPU"):
            ClusterScheduler(gpus=0, memo_path=None)

    def test_unknown_workload_rejected(self):
        with ClusterScheduler(gpus=1, registry={"w": _sleeper()},
                              memo_path=None) as sched:
            with pytest.raises(ServiceError, match="unknown workload"):
                sched.submit("nope")

    def test_priority_order_on_one_gpu(self):
        release, log = threading.Event(), []
        registry = {"block": _sleeper(release=release), "w": _sleeper(log=log)}
        with ClusterScheduler(gpus=1, policy="priority",
                              registry=registry, memo_path=None) as sched:
            blocker = sched.submit("block")
            low = sched.submit("w", seed=1, priority=0)
            high = sched.submit("w", seed=2, priority=10)
            release.set()
            for job in (blocker, low, high):
                sched.result(job.job_id, timeout=10)
            assert log == [2, 1]  # high priority ran first

    def test_memo_and_coalescing(self):
        release = threading.Event()
        with ClusterScheduler(gpus=1,
                              registry={"w": _sleeper(release=release)},
                              memo_path=None) as sched:
            leader = sched.submit("w", {"n": 1})
            follower = sched.submit("w", {"n": 1})
            assert follower.memo_hit  # coalesced, not a second run
            release.set()
            assert sched.result(leader.job_id, timeout=10) == \
                sched.result(follower.job_id, timeout=10)
            rerun = sched.submit("w", {"n": 1})
            assert rerun.memo_hit and rerun.state == DONE
            assert sched.stats()["executed"] == 1

    def test_cancel_queued_job_is_instant(self):
        release, started = threading.Event(), threading.Event()
        registry = {"block": _sleeper(release=release, started=started),
                    "w": _sleeper()}
        with ClusterScheduler(gpus=1, registry=registry,
                              memo_path=None) as sched:
            blocker = sched.submit("block")
            assert started.wait(10)
            victim = sched.submit("w", seed=7)
            record = sched.cancel(victim.job_id)
            assert record["state"] == CANCELLED
            assert victim.terminal
            with pytest.raises(ServiceError, match="cancelled"):
                sched.result(victim.job_id, timeout=1)
            release.set()
            sched.result(blocker.job_id, timeout=10)
            assert sched.stats()["cancelled"] == 1
            # cancelling a finished job is a no-op
            again = sched.cancel(blocker.job_id)
            assert again["state"] == DONE

    def test_cancel_running_job_at_shard_boundary(self):
        started = threading.Event()

        def spinner(config, seed, control=NULL_CONTROL):
            started.set()
            for _ in range(2000):
                control.progress("spin")
                time.sleep(0.005)
            raise AssertionError("cancellation never observed")

        with ClusterScheduler(gpus=1, registry={"spin": spinner},
                              memo_path=None) as sched:
            job = sched.submit("spin")
            assert started.wait(10)
            sched.cancel(job.job_id)
            assert job.done.wait(10)
            assert job.state == CANCELLED
            assert "cancelled" in job.error
            kinds = [e["kind"] for e in job.events]
            assert "cancel-requested" in kinds
            assert kinds[-1] == "cancelled"

    def test_cancelled_leader_promotes_follower(self):
        release, started = threading.Event(), threading.Event()
        registry = {"block": _sleeper(release=release, started=started),
                    "w": _sleeper()}
        with ClusterScheduler(gpus=1, registry=registry,
                              memo_path=None) as sched:
            sub_blocker = sched.submit("block")
            assert started.wait(10)
            leader = sched.submit("w", {"n": 5})
            follower = sched.submit("w", {"n": 5})
            sched.cancel(leader.job_id)
            assert leader.state == CANCELLED
            release.set()
            # the follower still gets a real result: it was promoted to
            # pending leader rather than dying with the cancelled one.
            assert sched.result(follower.job_id, timeout=10)["seed"] == 0
            sched.result(sub_blocker.job_id, timeout=10)

    def test_queued_deadline_expires_without_running(self):
        release, started = threading.Event(), threading.Event()
        registry = {"block": _sleeper(release=release, started=started),
                    "w": _sleeper()}
        with ClusterScheduler(gpus=1, registry=registry,
                              memo_path=None) as sched:
            blocker = sched.submit("block")
            assert started.wait(10)
            doomed = sched.submit("w", deadline_s=0.05)
            time.sleep(0.1)
            release.set()
            assert doomed.done.wait(10)
            assert doomed.state == CANCELLED
            assert "deadline" in doomed.error
            assert doomed.gpu is None  # never assigned
            sched.result(blocker.job_id, timeout=10)
            assert sched.stats()["deadline_expired"] == 1

    def test_running_deadline_cancels_at_boundary(self):
        def spinner(config, seed, control=NULL_CONTROL):
            for _ in range(2000):
                control.progress("spin")
                time.sleep(0.005)
            raise AssertionError("deadline never observed")

        with ClusterScheduler(gpus=1, registry={"spin": spinner},
                              memo_path=None) as sched:
            job = sched.submit("spin", deadline_s=0.2)
            assert job.done.wait(10)
            assert job.state == CANCELLED
            assert "deadline" in job.error

    def test_invalid_deadline_rejected(self):
        with ClusterScheduler(gpus=1, registry={"w": _sleeper()},
                              memo_path=None) as sched:
            for bad in (-1, 0, float("nan"), float("inf")):
                with pytest.raises(ServiceError, match="deadline_s"):
                    sched.submit("w", deadline_s=bad)

    def test_poisoned_job_surfaces_traceback_and_queue_survives(self):
        def poison(config, seed, control=NULL_CONTROL):
            raise RuntimeError("boom at shard 3")

        registry = {"poison": poison, "w": _sleeper()}
        with ClusterScheduler(gpus=1, registry=registry,
                              memo_path=None) as sched:
            bad = sched.submit("poison")
            assert bad.done.wait(10)
            assert bad.state == ERROR
            record = sched.status(bad.job_id)
            assert "boom at shard 3" in record["error"]
            assert "RuntimeError: boom at shard 3" in record["traceback"]
            assert "poison" in record["traceback"]  # a real stack frame
            # the worker survived: the next job runs normally.
            ok = sched.submit("w", seed=4)
            assert sched.result(ok.job_id, timeout=10)["seed"] == 4
            assert sched.gpus[0].jobs_failed == 1
            assert sched.gpus[0].jobs_completed == 1

    def test_events_stream_and_long_poll(self):
        with ClusterScheduler(gpus=1, registry={"w": _sleeper()},
                              memo_path=None) as sched:
            job = sched.submit("w")
            sched.result(job.job_id, timeout=10)
            events, state = sched.events(job.job_id, since=0, timeout=5)
            kinds = [e["kind"] for e in events]
            assert kinds[0] == "queued"
            assert "assigned" in kinds
            assert "shard-progress" in kinds
            assert kinds[-1] == "done"
            assert state == DONE
            assert [e["seq"] for e in events] == list(range(len(events)))
            # suffix poll on a terminal job returns instantly, empty.
            tail, state = sched.events(job.job_id, since=len(events),
                                       timeout=5)
            assert tail == [] and state == DONE
            with pytest.raises(ServiceError, match="since"):
                sched.events(job.job_id, since=-1)

    def test_cluster_stats_shape(self):
        with ClusterScheduler(gpus=3, policy="sjf",
                              registry={"w": _sleeper()},
                              memo_path=None) as sched:
            sched.result(sched.submit("w").job_id, timeout=10)
            stats = sched.cluster_stats()
            assert stats["policy"] == "sjf"
            assert len(stats["gpus"]) == 3
            assert sum(g["jobs_completed"] for g in stats["gpus"]) == 1
            assert stats["memo"]["path"] is None
            assert stats["cost_model"]["observations"] == 1
            json.dumps(stats)  # must be JSON-able for the REST layer

    def test_tracer_gpu_tracks_and_queue_depth(self):
        tracer = Tracer()
        with ClusterScheduler(gpus=2, registry={"w": _sleeper()},
                              memo_path=None, tracer=tracer) as sched:
            sched.result(sched.submit("w").job_id, timeout=10)
        assert tracer.track_names[gpu_tid(0)] == "gpu 0"
        slices = [e for e in tracer.events
                  if e.ph == "X" and e.cat == "scheduler"]
        assert len(slices) == 1
        assert slices[0].args["outcome"] == "done"
        depth = [e for e in tracer.events
                 if e.ph == "C" and e.name == "cluster queue depth"]
        assert depth  # sampled at submit and at assignment


# ---------------------------------------------------------------------------
# Memo persistence
# ---------------------------------------------------------------------------
class TestMemoPersistence:
    def test_round_trip_across_restart(self, tmp_path):
        path = str(tmp_path / "memo.json")
        with ClusterScheduler(gpus=1, registry={"w": _sleeper()},
                              memo_path=path) as sched:
            job = sched.submit("w", {"n": 3}, seed=9)
            result = sched.result(job.job_id, timeout=10)
        with ClusterScheduler(gpus=1, registry={"w": _sleeper()},
                              memo_path=path) as sched:
            assert sched.memo.loaded_from_disk
            hit = sched.submit("w", {"n": 3}, seed=9)
            assert hit.memo_hit and hit.state == DONE
            assert hit.result == result
            assert sched.stats()["memo_hits"] == 1
            assert sched.stats()["executed"] == 0

    def test_corrupt_memo_is_discarded_and_deleted(self, tmp_path):
        path = tmp_path / "memo.json"
        path.write_text("{ not json !!!")
        table = MemoTable(str(path))
        assert len(table) == 0
        assert not table.loaded_from_disk
        assert not path.exists()  # poisoned file removed, not retried

    def test_wrong_format_is_discarded(self, tmp_path):
        path = tmp_path / "memo.json"
        path.write_text(json.dumps({"format": 999, "memo": {"k": {}}}))
        table = MemoTable(str(path))
        assert len(table) == 0
        assert not path.exists()

    def test_default_path_is_under_cache_dir(self, tmp_path):
        assert default_memo_path().startswith(str(tmp_path / "kcache"))

    def test_in_memory_table_never_touches_disk(self, tmp_path):
        table = MemoTable()
        table.insert("k", {"v": 1})
        table.save()
        assert table.get("k") == {"v": 1}
        assert list(tmp_path.iterdir()) == []

    def test_slow_memo_write_does_not_hold_the_scheduler_lock(
            self, tmp_path, monkeypatch):
        """The O(entries) disk write happens after ``_finish`` let go of
        the scheduler lock: while one job's write is stuck, another
        submit completes — and the finished key is already a memo hit
        (inserted in memory under the lock)."""
        from repro.service import jobs
        writing, unblock = threading.Event(), threading.Event()
        real_write = jobs.atomic_write

        def stuck_write(path, data):
            writing.set()
            assert unblock.wait(10), "test forgot to unblock the write"
            real_write(path, data)

        monkeypatch.setattr(jobs, "atomic_write", stuck_write)
        path = str(tmp_path / "memo.json")
        with ClusterScheduler(gpus=1, registry={"w": _sleeper()},
                              memo_path=path) as sched:
            first = sched.submit("w", seed=1)
            assert writing.wait(10)
            try:
                assert not first.done.is_set()  # still persisting
                hit = sched.submit("w", seed=1)
                assert hit.memo_hit and hit.state == DONE
            finally:
                unblock.set()
            assert sched.result(first.job_id, timeout=10)["seed"] == 1
        assert json.loads(open(path).read())["memo"]


# ---------------------------------------------------------------------------
# JobControl
# ---------------------------------------------------------------------------
class TestJobControl:
    def test_null_control_never_raises(self):
        NULL_CONTROL.check()
        NULL_CONTROL.progress("anything", extra=1)

    def test_control_raises_after_cancel_request(self):
        job = _job()
        job.request_cancel()
        with pytest.raises(JobCancelled, match="cancelled"):
            JobControl(job).check()

    def test_control_enforces_deadline(self):
        job = _job()
        job.submitted_at = time.time() - 10.0
        job.deadline_s = 1.0
        with pytest.raises(JobCancelled, match="deadline"):
            JobControl(job).check()
        assert job.cancel_requested


# ---------------------------------------------------------------------------
# REST + client over a scheduler with gated fake runners
# ---------------------------------------------------------------------------
@pytest.fixture()
def cluster_service():
    """In-process repro-serve mounting a 2-GPU priority scheduler."""
    release = threading.Event()
    registry = {"quick": _sleeper(),
                "block": _sleeper(release=release)}
    sched = ClusterScheduler(gpus=2, policy="priority",
                             registry=registry, memo_path=None)
    server = make_server(sched, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    yield client, release
    release.set()
    server.shutdown()
    server.server_close()
    sched.shutdown(wait=False)


class TestRestScheduler:
    def test_submit_with_scheduling_fields(self, cluster_service):
        client, _ = cluster_service
        job = client.submit("quick", {"n": 1}, seed=2, priority=3,
                            deadline_s=30.0, tenant="alice")
        assert job["priority"] == 3
        assert job["deadline_s"] == 30.0
        assert job["tenant"] == "alice"
        client.result(job["job_id"], timeout=30)

    def test_events_endpoint_streams_lifecycle(self, cluster_service):
        client, _ = cluster_service
        job = client.submit("quick")
        client.result(job["job_id"], timeout=30)
        kinds = [e["kind"] for e in client.stream_events(job["job_id"])]
        assert kinds[0] == "queued"
        assert kinds[-1] == "done"
        # incremental poll: since=next_since returns only the suffix.
        first = client.events(job["job_id"], since=0, timeout_s=5)
        again = client.events(job["job_id"],
                              since=first["next_since"], timeout_s=1)
        assert again["events"] == []
        assert again["state"] == "done"

    def test_cancel_endpoint(self, cluster_service):
        client, release = cluster_service
        blockers = [client.submit("block", seed=s) for s in (1, 2)]
        # Both GPUs stay busy: the queued jobs go out by priority.
        low = client.submit("quick", seed=3, priority=0)
        high = client.submit("quick", seed=4, priority=10)
        victim = client.submit("quick", seed=9)
        record = client.cancel(victim["job_id"])
        assert record["state"] == "cancelled"
        release.set()
        for job in blockers + [low, high]:
            client.result(job["job_id"], timeout=30)
        assert (client.job(high["job_id"])["assigned_at"]
                < client.job(low["job_id"])["assigned_at"])
        assert client.cluster_stats()["counters"]["cancelled"] == 1
        with pytest.raises(ServiceError, match="HTTP 404"):
            client.cancel("job-424242")

    def test_cluster_stats_endpoint(self, cluster_service):
        client, _ = cluster_service
        stats = client.cluster_stats()
        assert stats["policy"] == "priority"
        assert len(stats["gpus"]) == 2
        assert "cost_model" in stats

    def test_api_routes_manifest_is_complete(self):
        # Every route the tests exercise must be in the manifest the
        # docs checker reads — this is the contract OPERATIONS.md
        # coverage is enforced against.
        paths = {path for _, path in API_ROUTES}
        for expected in ("/healthz", "/api/stats", "/api/workloads",
                         "/api/jobs", "/api/jobs/<id>",
                         "/api/jobs/<id>/result", "/api/jobs/<id>/events",
                         "/api/jobs/<id>/cancel", "/api/cluster/stats"):
            assert expected in paths


# ---------------------------------------------------------------------------
# Real workloads through the scheduler (integration)
# ---------------------------------------------------------------------------
class TestSchedulerRealWorkloads:
    def test_saxpy_streams_launch_progress(self):
        with ClusterScheduler(gpus=1, memo_path=None) as sched:
            job = sched.submit("saxpy", {"n": 64}, seed=1)
            result = sched.result(job.job_id, timeout=120)
            assert result["workload"] == "saxpy"
            progress = [e for e in job.events
                        if e["kind"] == "shard-progress"]
            assert any(e.get("kernel") == "saxpy" for e in progress)

    @pytest.mark.parametrize("config", [{}, {"shards": 2}],
                             ids=["inprocess", "sharded"])
    def test_one_progress_event_per_launch(self, config):
        """Every kernel launch is a launch boundary — a kernel-hook pair
        on the runner's runtime — whatever backend executes it."""
        with ClusterScheduler(gpus=1, memo_path=None) as sched:
            job = sched.submit("lenet", config, seed=3)
            result = sched.result(job.job_id, timeout=120)
        launches = [e for e in job.events
                    if e["kind"] == "shard-progress"
                    and e["stage"] == "launch"]
        assert len(launches) == result["launches"] > 1
        assert sum(e["instructions"] for e in launches) \
            == result["instructions"]
        kernels: dict[str, int] = {}
        for event in launches:
            kernels[event["kernel"]] = kernels.get(event["kernel"], 0) + 1
        assert kernels == result["kernels"]

    def test_cancel_lands_between_launches(self):
        """A cancel requested while launch 0 runs unwinds at the next
        boundary: launch 0 reports its progress, launch 1 never starts."""
        from repro.service.jobs import run_lenet
        seen = []

        def cancelling(config, seed, control=NULL_CONTROL):
            job = control.job
            real_emit = job.emit

            def emit(kind, **data):
                real_emit(kind, **data)
                if kind == "shard-progress":
                    seen.append(data["kernel"])
                    job.request_cancel()
            job.emit = emit
            return run_lenet(config, seed, control)

        with ClusterScheduler(gpus=1, memo_path=None,
                              registry={"lenet": cancelling}) as sched:
            job = sched.submit("lenet", seed=3)
            assert job.done.wait(120)
        assert job.state == CANCELLED
        assert len(seen) == 1
