"""Tests for the simulated node's CPU service model and crash semantics."""

import math

import pytest

from repro.net.node import Node
from repro.net.simtime import Scheduler
from repro.util.errors import NodeDownError


@pytest.fixture
def sim():
    return Scheduler()


class TestServiceModel:
    def test_work_completes_after_service_time(self, sim):
        node = Node(sim, "n1")
        done = []
        node.submit(5.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [5.0]

    def test_fifo_queueing_serializes_service(self, sim):
        node = Node(sim, "n1")
        done = []
        node.submit(5.0, lambda: done.append(("a", sim.now)))
        node.submit(3.0, lambda: done.append(("b", sim.now)))
        node.submit(2.0, lambda: done.append(("c", sim.now)))
        sim.run()
        assert done == [("a", 5.0), ("b", 8.0), ("c", 10.0)]

    def test_speed_scales_cost(self, sim):
        node = Node(sim, "fast", speed=2.0)
        done = []
        node.submit(10.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [5.0]

    def test_zero_cost_work_runs_immediately_in_order(self, sim):
        node = Node(sim, "n1")
        done = []
        node.submit(0.0, lambda: done.append("a"))
        node.submit(0.0, lambda: done.append("b"))
        sim.run()
        assert done == ["a", "b"]

    def test_busy_time_accounting(self, sim):
        node = Node(sim, "n1")
        node.submit(5.0, lambda: None)
        node.submit(7.0, lambda: None)
        sim.run()
        assert node.busy.total_busy_ms == pytest.approx(12.0)

    def test_idle_fraction(self, sim):
        node = Node(sim, "n1")
        node.submit(25.0, lambda: None)
        sim.run_until(100)
        assert node.busy.idle_fraction(sim.now) == pytest.approx(0.75)

    def test_negative_cost_rejected(self, sim):
        node = Node(sim, "n1")
        with pytest.raises(ValueError):
            node.submit(-1.0, lambda: None)

    @pytest.mark.parametrize("speed", [0.0, -1.0, math.nan])
    def test_speed_must_be_positive(self, sim, speed):
        with pytest.raises(ValueError):
            Node(sim, "n1", speed=speed)

    def test_work_submitted_from_callback_queues(self, sim):
        node = Node(sim, "n1")
        done = []

        def first():
            done.append(("first", sim.now))
            node.submit(4.0, lambda: done.append(("second", sim.now)))

        node.submit(6.0, first)
        sim.run()
        assert done == [("first", 6.0), ("second", 10.0)]


class TestInfiniteSpeed:
    """``speed=math.inf``: the substrate's own execution time is the service time."""

    def test_jobs_complete_at_submit_time_in_fifo_order(self, sim):
        node = Node(sim, "n1", speed=math.inf)
        done = []
        sim.run_until(3.0)
        node.submit(5.0, lambda: done.append(("a", sim.now)))
        node.submit(3.0, lambda: done.append(("b", sim.now)))
        node.submit(0.0, lambda: done.append(("c", sim.now)))
        sim.run()
        assert done == [("a", 3.0), ("b", 3.0), ("c", 3.0)]
        assert node.busy.total_busy_ms == 0.0

    def test_crash_still_drops_queued_work(self, sim):
        node = Node(sim, "n1", speed=math.inf)
        done = []
        node.submit(5.0, lambda: done.append("a"))
        node.submit(5.0, lambda: done.append("b"))
        node.crash()
        node.recover()
        node.submit(1.0, lambda: done.append("c"))
        sim.run()
        assert done == ["c"]

    def test_jobs_submitted_mid_drain_run_in_the_same_drain(self, sim):
        node = Node(sim, "n1", speed=math.inf)
        done = []

        def a():
            done.append("a")
            node.submit(2.0, lambda: done.append("c"))

        node.submit(1.0, a)
        node.submit(1.0, lambda: done.append("b"))
        # An unrelated event due at the same instant, posted after the
        # drain: it runs once the drain is over, not between its jobs.
        sim.post(sim.now, lambda: done.append("other"))
        sim.run()
        assert done == ["a", "b", "c", "other"]
        assert node.busy.total_busy_ms == 0.0

    def test_job_that_crashes_the_node_drops_every_later_job(self, sim):
        node = Node(sim, "n1", speed=math.inf)
        done = []

        def a():
            done.append("a")
            node.crash()
            node.recover()
            # A new epoch's job runs in its own drain; the old epoch's
            # queue (b, c) is gone.
            node.submit(1.0, lambda: done.append("d"))

        node.submit(1.0, a)
        node.submit(1.0, lambda: done.append("b"))
        node.submit(1.0, lambda: done.append("c"))
        sim.run()
        assert done == ["a", "d"]

    def test_raising_job_leaves_the_queue_served_on_a_later_turn(self, sim):
        node = Node(sim, "n1", speed=math.inf)
        done = []

        def a():
            done.append("a")
            raise RuntimeError("job failed")

        node.submit(1.0, a)
        node.submit(1.0, lambda: done.append("b"))
        node.submit(1.0, lambda: done.append("c"))
        with pytest.raises(RuntimeError):
            sim.run()
        assert done == ["a"]
        sim.run()
        assert done == ["a", "b", "c"]
        assert node.busy.total_busy_ms == 0.0

    def test_stall_begun_mid_drain_holds_the_rest_of_the_queue(self, sim):
        node = Node(sim, "n1", speed=math.inf)
        done = []

        def a():
            done.append(("a", sim.now))
            node.stall(5.0)

        node.submit(1.0, a)
        node.submit(1.0, lambda: done.append(("b", sim.now)))
        sim.run()
        assert done == [("a", 0.0), ("b", 5.0)]

    def test_busy_time_stays_zero_across_drains(self, sim):
        node = Node(sim, "n1", speed=math.inf)
        for t in (1.0, 2.0, 3.0):
            sim.run_until(t)
            for cost in (5.0, 0.32, 0.0):
                node.submit(cost, lambda: None)
        sim.run()
        assert node.busy.total_busy_ms == 0.0
        assert node.queue_depth == 0


class TestCrash:
    def test_submit_to_down_node_raises(self, sim):
        node = Node(sim, "n1")
        node.crash()
        with pytest.raises(NodeDownError):
            node.submit(1.0, lambda: None)

    def test_try_submit_returns_false_when_down(self, sim):
        node = Node(sim, "n1")
        node.crash()
        assert node.try_submit(1.0, lambda: None) is False

    def test_crash_discards_queued_work(self, sim):
        node = Node(sim, "n1")
        done = []
        node.submit(5.0, lambda: done.append("a"))
        node.submit(5.0, lambda: done.append("b"))
        sim.run_until(2)
        node.crash()
        node.recover()
        sim.run()
        assert done == []

    def test_in_service_work_lost_on_crash(self, sim):
        node = Node(sim, "n1")
        done = []
        node.submit(10.0, lambda: done.append("x"))
        sim.run_until(5)
        node.crash()
        sim.run()
        assert done == []

    def test_work_after_recovery_runs(self, sim):
        node = Node(sim, "n1")
        done = []
        node.crash()
        node.recover()
        node.submit(1.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [sim.now]

    def test_fail_for_auto_recovers(self, sim):
        node = Node(sim, "n1")
        node.fail_for(50.0)
        assert node.is_down
        sim.run_until(49)
        assert node.is_down
        sim.run_until(51)
        assert not node.is_down

    def test_crash_and_recover_listeners(self, sim):
        node = Node(sim, "n1")
        events = []
        node.on_crash(lambda: events.append("crash"))
        node.on_recover(lambda: events.append("recover"))
        node.fail_for(10.0)
        sim.run_until(20)
        assert events == ["crash", "recover"]

    def test_crash_idempotent(self, sim):
        node = Node(sim, "n1")
        events = []
        node.on_crash(lambda: events.append("crash"))
        node.crash()
        node.crash()
        assert events == ["crash"]


class TestStall:
    def test_stall_delays_next_service(self, sim):
        node = Node(sim, "n1")
        done = []
        node.submit(5.0, lambda: done.append(("a", sim.now)))
        node.submit(5.0, lambda: done.append(("b", sim.now)))
        sim.run_until(6)   # 'a' done at 5, 'b' started at 5
        node.stall(20.0)   # does not affect 'b' (already in service)
        sim.run()
        assert done == [("a", 5.0), ("b", 10.0)]

    def test_stall_blocks_idle_node_until_expiry(self, sim):
        node = Node(sim, "n1")
        done = []
        node.stall(20.0)
        node.submit(5.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [25.0]

    def test_stall_with_queued_work_resumes(self, sim):
        node = Node(sim, "n1")
        done = []
        node.submit(5.0, lambda: done.append(("a", sim.now)))
        sim.run_until(5)
        node.stall(10.0)
        node.submit(5.0, lambda: done.append(("b", sim.now)))
        sim.run()
        assert done == [("a", 5.0), ("b", 20.0)]
