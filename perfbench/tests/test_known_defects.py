"""Program defects the benchmark ran into, kept as strict expected failures.

Each test states the behaviour the program promises.  They fail today,
so the benchmark's workloads stay clear of these paths (see the module
docstrings of ``churn`` and ``rtbroker``).  When a fix lands, the test
passes, ``strict=True`` turns that into a failure, and the marker (and
the workload restriction) should be removed.
"""

import asyncio
import os
import shutil
import tempfile

import pytest

import churn
import rtbroker as R


@pytest.mark.xfail(strict=True, reason=(
    "sim DurableSubscriber keeps consuming from the abandoned link after a "
    "graceful disconnect; when the SHB's backlog outlasts the down window the "
    "old session's in-flight events interleave with the new session's catchup"))
def test_churn_above_shb_capacity_stays_exactly_once(monkeypatch):
    monkeypatch.setattr(churn, "PERIOD_MS", 3_000.0)
    monkeypatch.setattr(churn, "DOWN_MS", 500.0)
    scenario = churn.Scenario(seed=1)
    sim = scenario.sim
    sim.run_until(sim.now + 5_000.0)
    scenario.churn.stopped = True
    for pub in scenario.publishers:
        pub.stop()
    while sim.now < 60_000.0 and not scenario.caught_up():
        sim.run_until(sim.now + 200.0)
        scenario.record_truth()
    assert sum(s.duplicate_events for s in scenario.subscribers) == 0
    assert sum(s.stats.order_violations for s in scenario.subscribers) == 0


async def _rt_scenario(data_dir, population, deliver_first, kill):
    from repro.adapters.rt.clock import AsyncioClock
    from repro.adapters.rt.transport import open_connection
    from repro.client.publisher import ReliablePublisher

    broker = R.Broker(os.path.join(data_dir, "data"), None)
    try:
        broker.start()
        R.POPULATION = population
        await R.register_population(broker.port, seed=1)
        clock = AsyncioClock()
        gen = R.Generator(clock, seed=1)
        gen.sub.connect_channel(await open_connection(R.HOST, broker.port))
        await R.wait_until(lambda: gen.sub._first_connect_done, "registration")
        gen.pub = ReliablePublisher(clock, None, None, "p", R.PUBEND, retransmit_ms=300.0,
                                    channel=await open_connection(R.HOST, broker.port))
        if deliver_first:
            sent = gen.burst(40)
            await R.wait_until(lambda: gen.holds(sent), "live delivery")
        gen.sub.disconnect()
        await gen.open_loop(50, 30)
        await R.wait_until(lambda: gen.pub.unacknowledged == 0, "acks")
        if kill:
            for _ in range(10):
                gen.publish_now()           # in flight at the kill
            broker.kill()
            await gen.open_loop(50, 30)     # into the dead window
            broker = R.Broker(broker.data_dir, None)
            broker.start()
            gen.pub.rebind(await open_connection(R.HOST, broker.port, retry_ms=100.0,
                                                 timeout_ms=20_000.0))
            await R.wait_until(lambda: gen.pub.unacknowledged == 0, "publisher drain")
        gen.sub.connect_channel(await open_connection(R.HOST, broker.port))
        total = gen.next_n
        try:
            await R.wait_until(lambda: len(gen.delivered_at) >= total, "catch-up", 15.0)
        except TimeoutError:
            pass
        return total, len(gen.delivered_at)
    finally:
        broker.kill()


def _rt(population, deliver_first, kill, monkeypatch):
    monkeypatch.setattr(R, "POPULATION", R.POPULATION)
    data_dir = tempfile.mkdtemp(prefix="perfbench-defect-")
    try:
        return asyncio.run(_rt_scenario(data_dir, population, deliver_first, kill))
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)


@pytest.mark.xfail(strict=True, reason=(
    "rt broker: with 16 disconnected durable subscriptions registered, a kill -9 "
    "and restart leaves the reconnecting subscriber without the events published "
    "after the kill, although the broker acked them"))
def test_rt_kill_with_population_catches_up(monkeypatch):
    total, delivered = _rt(16, deliver_first=True, kill=True, monkeypatch=monkeypatch)
    assert delivered == total


@pytest.mark.xfail(strict=True, reason=(
    "rt broker: a durable subscriber that disconnects before its first delivery "
    "stalls after 16 events of its catchup"))
def test_rt_catchup_without_prior_delivery(monkeypatch):
    total, delivered = _rt(0, deliver_first=False, kill=False, monkeypatch=monkeypatch)
    assert delivered == total


def test_rt_reference_paths_catch_up(monkeypatch):
    """The same scenarios on the paths the workload does use succeed."""
    assert _rt(16, deliver_first=True, kill=False, monkeypatch=monkeypatch) == (70, 70)
    assert _rt(4, deliver_first=True, kill=True, monkeypatch=monkeypatch) == (110, 110)
