"""The rt broker serves each group commit as one batch.

One ``RealDisk`` sync makes a run of published events durable at once.
The broker's node drains its whole queue per loop turn, and the
in-process PHB→SHB loopback batches, so the dissemination of that run
reaches the SHB as one transmission: one constream pump and one PFS
record per commit, not one per event.

The test runs an in-process ``BrokerProcess`` on a tmp data dir,
registers durable subscriptions, publishes a back-to-back run of events
over a real TCP publisher session, and then reads the PFS volume back
from disk: it must hold exactly the (event, subscription) pairs the
predicates imply, in no more records than the disk made syncs.
"""

from __future__ import annotations

import asyncio
import os

from repro.adapters.rt.broker_main import BrokerProcess
from repro.adapters.rt.transport import open_connection
from repro.core import messages as M
from repro.matching.predicates import In
from repro.pfs.records import PFSRecordBatch, decode_record
from repro.storage.logvolume import LogVolume

PUBEND = "stream"
GROUPS = 2
SUBSCRIPTIONS = 4
EVENTS = 200


async def _until(cond, what: str, timeout_s: float = 10.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not cond():
        if loop.time() > deadline:
            raise TimeoutError(what)
        await asyncio.sleep(0.002)


async def _drive(data_dir: str) -> dict:
    """Publish ``EVENTS`` back to back; return what the check needs."""
    broker = BrokerProcess(data_dir, [PUBEND], commit_interval_ms=10.0)
    try:
        for i in range(SUBSCRIPTIONS):
            broker.shb.register_durable(f"sub{i}", In("group", (i % GROUPS,)))
        await _until(
            lambda: len(dict(broker.shb.subs_table.committed_items())) == SUBSCRIPTIONS,
            "registry commit",
        )
        port = await broker.serve()
        conn = await open_connection("127.0.0.1", port)
        acked = []
        conn.on_message(lambda msg: acked.append(msg.seq))
        for k in range(EVENTS):
            conn.send(M.PublishRequest(
                {"group": k % GROUPS, "n": k}, 250,
                publisher="pub", seq=k + 1, pubend=PUBEND,
            ))
        await _until(lambda: acked and acked[-1] == EVENTS, "publish acks")
        log = broker.phb.pubends[PUBEND].log
        last = log.max_timestamp
        await _until(lambda: broker.shb.latest_delivered(PUBEND) >= last, "delivery")
        conn.close()
        events = log.read_range(0, last)
        nums = {i: broker.shb.registry.get(f"sub{i}").num for i in range(SUBSCRIPTIONS)}
    finally:
        broker.close()  # the last sync: everything staged is on disk
    return {"events": events, "nums": nums, "syncs": broker.disk.syncs}


def _pfs_records(data_dir: str) -> list:
    volume = LogVolume.at_path(os.path.join(data_dir, "pfs.log"), fsync=False)
    try:
        stream = volume.stream(f"pfs:{PUBEND}")
        return [
            decode_record(stream.read(index))
            for index in range(stream.chopped_below, stream.next_index)
        ]
    finally:
        volume.close()


def test_group_commit_is_logged_as_one_pfs_batch(tmp_path):
    data_dir = str(tmp_path / "broker")
    run = asyncio.run(_drive(data_dir))
    assert len(run["events"]) == EVENTS

    records = _pfs_records(data_dir)
    logged = []
    for record in records:
        assert isinstance(record, PFSRecordBatch)
        for i, timestamp in enumerate(record.timestamps):
            logged.extend((timestamp, num) for num in record.nums_at(i))
    expected = {
        (event.timestamp, num)
        for event in run["events"]
        for i, num in run["nums"].items()
        if event.attributes["group"] == i % GROUPS
    }
    assert len(logged) == len(set(logged)) == EVENTS * SUBSCRIPTIONS // GROUPS
    assert set(logged) == expected
    # One PFS record per group commit at most, not one per event.
    assert len(records) <= run["syncs"] < EVENTS
