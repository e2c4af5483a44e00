"""A restarted rt broker must PFS-log events published before its sync lands.

``BrokerProcess`` builds a fresh PHB over a journal-recovered SHB.  The
PHB's per-child subscription union is soft state: it is empty until the
SHB's epoch sync (sent by ``resync_upstream``) is applied.  If the child
started *warm* with that empty union, every D tick disseminated in the
meantime would be filtered to final silence, and the recovered durable
subscriptions would never get those events in the PFS.  The child must
start cold, so knowledge passes unfiltered until the sync is applied.

The test runs both broker lives in-process on one asyncio loop and holds
the second life's subscription sync at the PHB, so the publishes below
deterministically disseminate before the sync lands.
"""

from __future__ import annotations

import asyncio
import os

from repro.adapters.rt.broker_main import BrokerProcess
from repro.matching.predicates import In
from repro.pfs.records import PFSRecordBatch, decode_record
from repro.storage.logvolume import LogVolume

PUBEND = "stream"
GROUPS = 2
SUBSCRIPTIONS = 4
EVENTS = 20


async def _until(cond, what: str, timeout_s: float = 10.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not cond():
        if loop.time() > deadline:
            raise TimeoutError(what)
        await asyncio.sleep(0.002)


async def _first_life(data_dir: str) -> None:
    """Register durable subscriptions and let the registry commit land."""
    broker = BrokerProcess(data_dir, [PUBEND], commit_interval_ms=10.0)
    try:
        for i in range(SUBSCRIPTIONS):
            broker.shb.register_durable(f"sub{i}", In("group", (i % GROUPS,)))
        await _until(
            lambda: len(dict(broker.shb.subs_table.committed_items())) == SUBSCRIPTIONS,
            "registry commit",
        )
    finally:
        broker.close()


async def _second_life(data_dir: str) -> None:
    """Restart on the same data dir; publish while the sync is held."""
    broker = BrokerProcess(data_dir, [PUBEND], commit_interval_ms=10.0)
    held = []
    sync_intake = broker.phb._on_subscription_sync
    broker.phb._on_subscription_sync = lambda child, msg: held.append((child, msg))
    try:
        assert len(broker.shb.registry) == SUBSCRIPTIONS
        for k in range(EVENTS):
            broker.phb.publish(PUBEND, {"group": k % GROUPS, "n": k})
        log = broker.phb.pubends[PUBEND].log
        await _until(lambda: log.live_event_count == EVENTS, "durable publish")
        last = log.max_timestamp
        await _until(lambda: broker.shb.latest_delivered(PUBEND) >= last, "delivery")
        assert held, "the subscription sync should still be in flight"
        for child, msg in held:
            sync_intake(child, msg)
        assert broker.phb.child_filter_ready[broker.shb.name]
    finally:
        broker.close()


def _pfs_pairs(data_dir: str) -> int:
    volume = LogVolume.at_path(os.path.join(data_dir, "pfs.log"), fsync=False)
    try:
        stream = volume.stream(f"pfs:{PUBEND}")
        pairs = 0
        for index in range(stream.chopped_below, stream.next_index):
            record = decode_record(stream.read(index))
            if isinstance(record, PFSRecordBatch):
                pairs += sum(len(record.nums_at(i)) for i in range(len(record.timestamps)))
            else:
                pairs += len(record.subscribers())
        return pairs
    finally:
        volume.close()


def test_restarted_broker_logs_events_published_before_the_sync_lands(tmp_path):
    data_dir = str(tmp_path / "broker")
    # One event loop per life: the first life's timers die with its loop,
    # as they would with its process.
    asyncio.run(_first_life(data_dir))
    asyncio.run(_second_life(data_dir))
    # Each event matches the SUBSCRIPTIONS / GROUPS subscriptions of its group.
    assert _pfs_pairs(data_dir) == EVENTS * SUBSCRIPTIONS // GROUPS
