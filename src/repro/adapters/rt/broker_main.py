"""Run the broker (PHB + SHB roles) as a real OS process.

This is the rt substrate's analogue of the simulator's single-broker
topology: one process hosts a :class:`PublisherHostingBroker` and a
:class:`SubscriberHostingBroker` sharing a :class:`Node` on an
:class:`~repro.adapters.rt.clock.AsyncioClock`, joined by an in-process
loopback link.  The *protocol* classes are the exact ones the
simulation runs — only the three ports differ:

* **Clock** — the asyncio event loop (epoch milliseconds, so event
  timestamps and release epochs stay monotone across restarts),
* **Transport** — TCP on localhost; each accepted connection's first
  message routes it (``PublishRequest`` → PHB, anything else → SHB),
* **StableStorage** — a :class:`~repro.adapters.rt.storage.RealDisk`
  fsyncing three file-backed volumes: the PHB journal (pub seqs +
  per-pubend event logs), the SHB journal (meta/subs/released tables)
  and the PFS volume.

``kill -9`` at any moment and restart with the same ``--data-dir``:
the journals replay at construction, torn tails truncate to the acked
prefix, and the protocol's own recovery (publisher retransmission,
subscriber catchup) covers the rest — that is the contract the
quickstart (examples/rt_quickstart.py) asserts end to end.

The simulator's CPU cost model is a sim device and is not used here:
the shared node serves at ``speed=math.inf``, so a job's service time
is the real time its callback takes, and one loop turn drains the
node's whole queue.  Modelled costs would otherwise become real
timers, and ``AsyncioClock`` turns every positive sub-ms deadline into
at least 1 ms of epoll wait — one tick per job, whatever the real CPU
cost.  For the same reason the in-process PHB↔SHB link has zero
latency: it has no wire.

One group commit is served as one batch.  The commit's durable
callbacks queue one dissemination job per event, and one drain runs
them all; the loopback link batches (``LOOPBACK_BATCH_MS``), so every
update sent in that drain reaches the SHB as one transmission, folded
by its batched intake into one constream pump per pubend — one
``PFS.write_batch``.  The SHB batches its fan-out too: one send job per
subscriber per pump (PROTOCOL.md §11.1).

A restarted PHB is built over a recovered SHB, so its child starts
*cold* (knowledge passes unfiltered) until the SHB's epoch sync lands;
a warm empty union would turn D ticks for the recovered subscriptions
into final silence (PROTOCOL.md §11.2).

Usage::

    python -m repro.adapters.rt.broker_main --port 7461 --data-dir /tmp/bk
"""

from __future__ import annotations

import argparse
import asyncio
import math
import os
import sys
from typing import List

from ...broker.base import Broker
from ...broker.phb import PublisherHostingBroker
from ...broker.shb import SubscriberHostingBroker
from ...core import messages as M
from ...net.node import Node
from ...storage.logvolume import LogVolume
from .clock import AsyncioClock
from .storage import RealDisk
from .transport import TcpConnection, TcpListener

#: Batching window of the PHB→SHB loopback and the SHB's fan-out.  One
#: millisecond is one epoll tick (``AsyncioClock``): a burst's whole
#: drain lands in one window, and an idle event waits at most a tick.
LOOPBACK_BATCH_MS = 1.0


class BrokerProcess:
    """One-process PHB+SHB broker over the rt adapters."""

    def __init__(
        self,
        data_dir: str,
        pubends: List[str],
        sync_interval_ms: float = 5.0,
        commit_interval_ms: float = 100.0,
    ) -> None:
        self.clock = AsyncioClock()
        self.disk = RealDisk(self.clock, sync_interval_ms=sync_interval_ms)
        os.makedirs(data_dir, exist_ok=True)
        self.phb_journal = LogVolume.at_path(os.path.join(data_dir, "phb-journal.log"))
        self.shb_journal = LogVolume.at_path(os.path.join(data_dir, "shb-journal.log"))
        self.pfs_volume = LogVolume.at_path(os.path.join(data_dir, "pfs.log"))
        for volume in (self.phb_journal, self.shb_journal, self.pfs_volume):
            self.disk.attach_volume(volume)

        # Both roles share one node, as in the paper's 1-broker
        # topology; the loopback link between them carries knowledge
        # down and nacks/acks/subscriptions up.  The node serves at
        # real CPU speed: one loop turn drains its FIFO queue.
        node = Node(self.clock, "broker", speed=math.inf)
        self.phb = PublisherHostingBroker(
            self.clock, "phb", node=node, disk=self.disk,
            journal_volume=self.phb_journal,
        )
        for pubend in sorted(pubends):  # sorted: journal stream order is fixed
            self.phb.create_pubend(pubend)
        self.shb = SubscriberHostingBroker(
            self.clock, "shb", sorted(pubends), node=node, disk=self.disk,
            commit_interval_ms=commit_interval_ms,
            batch_window_ms=LOOPBACK_BATCH_MS,
            pfs_volume=self.pfs_volume,
            journal_volume=self.shb_journal,
        )
        Broker.connect(
            self.phb, self.shb, latency_ms=0.0, batch_window_ms=LOOPBACK_BATCH_MS
        )
        for pubend in sorted(pubends):
            self.phb.register_release_child(pubend, self.shb.name)
        # The PHB's subscription union and release floor are volatile —
        # a restarted broker must re-announce the recovered registry
        # before any event flows, or the downstream knowledge filter
        # turns D ticks into silence (events the PFS then never logs).
        # Until that epoch sync is applied the fresh union is empty, so
        # the child starts cold: unfiltered knowledge is always safe.
        self.phb.child_filter_ready[self.shb.name] = False
        self.shb.resync_upstream()
        self.listener = TcpListener()
        self.listener.on_connection(self._route)

    def _route(self, conn: TcpConnection) -> None:
        """Peek at a session's first message to pick its role."""

        def first(msg: object) -> None:
            if isinstance(msg, M.PublishRequest):
                self.phb.attach_publisher_channel(conn)
            else:
                self.shb.attach_client_channel(conn)
            conn.deliver(msg)

        conn.on_message(first)

    async def serve(self, host: str = "127.0.0.1", port: int = 0) -> int:
        return await self.listener.start(host, port)

    def close(self) -> None:
        self.listener.close()
        self.disk.close()


async def _amain(args: argparse.Namespace) -> None:
    broker = BrokerProcess(
        args.data_dir,
        args.pubends.split(","),
        sync_interval_ms=args.sync_interval_ms,
    )
    port = await broker.serve(args.host, args.port)
    # The orchestrator (and a human) learns readiness from this line.
    print(f"LISTENING {port}", flush=True)
    try:
        await asyncio.Event().wait()
    finally:
        broker.close()


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0, help="TCP port (0 = ephemeral)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--data-dir", required=True, help="directory for the durable volumes")
    parser.add_argument("--pubends", default="stream", help="comma-separated pubend names")
    parser.add_argument("--sync-interval-ms", type=float, default=5.0)
    args = parser.parse_args(argv)
    try:
        asyncio.run(_amain(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
