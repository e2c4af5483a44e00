"""``rt-broker``: a real broker process over localhost TCP with fsync.

The program under test is ``repro.adapters.rt.broker_main`` (PHB + SHB
in one OS process, file-backed journals and PFS on a group-commit
``RealDisk``).  This process is the load generator.  It holds at most
two connections at once -- one ``ReliablePublisher`` and one live
``DurableSubscriber`` -- and starts no threads.

Set-up starts the broker on a fresh data directory and registers a
population of durable subscriptions over short sequential connections;
they stay disconnected, so the broker keeps matching and PFS-logging
for them.  Set-up runs ``SETUP_REPEATS`` times before the drive (the
last broker is the one driven) and as often after it; each is timed in
reference seconds (``common.HostProbe``, as on the simulated workloads).
Event groups and population predicates come from the seed.

Phases, all open loop (each event has a due time; latency runs from
the due time to the subscriber callback):

1. **bursts** -- ``BURSTS`` bursts of ``BURST_EVENTS`` events, all due
   at once: the saturation throughput.  Each burst's PFS pairs are
   counted on disk afterwards; the median burst is reported.
2. **ladder** -- fixed rates, ``seconds`` in total.  Per step: p50/p99
   latency, and a backlog test comparing the step's late-half median
   latency with its early-half median.
3. **catch-up** -- the subscriber disconnects, ``CATCHUP_EVENTS`` more
   events are published and acked, and the subscriber reconnects and
   catches up from the PFS.  (A ``kill -9`` of the broker before the
   reconnect is not part of the run: with the population registered it
   loses the events published after the kill -- see
   ``tests/test_known_defects.py``.)

Correctness: every event acked by the broker and delivered to the live
subscriber exactly once and in order; the PFS on disk holds exactly the
(event, subscription) pairs the predicates imply.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from common import (
    SRC, WORK, HostProbe, Outcome, median, percentile, pid_peak_rss_mb, tail,
)

HERE = os.path.dirname(os.path.abspath(__file__))
HOST = "127.0.0.1"
PUBEND = "stream"
POPULATION = 16
GROUPS = 8
SETUP_REPEATS = 4  # before the drive, and again after it
BURSTS = 5
BURST_EVENTS = 300
LADDER_RATES = (50, 100, 200, 300, 400, 600)
LATENCY_RATE = 50            # the rate deliver_p50/p99 are reported at
LATENCY_LIMIT_MS = 100.0     # max_rate_eps: p99 at or under this ...
BACKLOG_GROWTH = 1.5         # ... and late-half p50 <= this x early-half p50 + 5 ms
CATCHUP_EVENTS = 100
CATCHUP_RATE = 100
WAIT_LIMIT_S = 30.0
SETTLE_S = 0.5


class Broker:
    """One broker OS process (untraced, or through the tracing launcher)."""

    def __init__(self, data_dir: str, trace_out: Optional[str]) -> None:
        self.data_dir = data_dir
        self.trace_out = trace_out
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.peak_rss_mb = 0.0

    def start(self) -> None:
        args = ["--data-dir", self.data_dir, "--port", "0", "--pubends", PUBEND]
        if self.trace_out is None:
            cmd = [sys.executable, "-m", "repro.adapters.rt.broker_main"] + args
        else:
            cmd = [sys.executable, os.path.join(HERE, "rt_launcher.py"),
                   "--trace-out", self.trace_out, "--"] + args
        env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
        # A plain Popen: asyncio's subprocess support would add a
        # child-watcher thread to the load generator.
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
        line = self.proc.stdout.readline()  # blocks until the broker listens
        if not line.startswith(b"LISTENING"):
            raise RuntimeError(f"unexpected broker banner: {line!r}")
        self.port = int(line.split()[1])

    def sample_rss(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.peak_rss_mb = max(self.peak_rss_mb, pid_peak_rss_mb(self.proc.pid))

    def kill(self) -> None:
        self.sample_rss()
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def stop(self) -> None:
        """Graceful stop (the launcher writes its trace on SIGTERM)."""
        self.sample_rss()
        if self.proc is not None and self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        if self.proc is not None:
            self.proc.wait()
            self.proc.stdout.close()


async def wait_until(cond, what: str, limit_s: float = WAIT_LIMIT_S) -> None:
    deadline = time.monotonic() + limit_s
    while not cond():
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        await asyncio.sleep(0.002)


class Generator:
    """Publisher + live subscriber, with due-time stamping."""

    def __init__(self, clock, seed: int) -> None:
        from repro.client.subscriber import DurableSubscriber
        from repro.matching.predicates import Everything

        self.clock = clock
        self.rng = random.Random(f"rt-broker:{seed}")
        self.due: Dict[int, float] = {}          # n -> due time (monotonic s)
        self.delivered_at: Dict[int, float] = {}
        self.received: List[int] = []
        self.ticks: Dict[int, int] = {}          # n -> broker tick (PFS timestamp)
        self.groups: Dict[int, int] = {}
        self.late_ms: List[float] = []
        self.next_n = 0
        self.pub = None
        self.sub = DurableSubscriber(
            clock, "rt-live", node=None, predicate=Everything(),
            ack_interval_ms=100.0, commit_every=1, record_events=True,
            on_event=self._on_event, connect_retry_ms=200.0,
        )

    def _on_event(self, msg) -> None:
        n = msg.event.attributes["n"]
        self.received.append(n)
        self.delivered_at.setdefault(n, time.monotonic())
        self.ticks[n] = msg.t

    def publish_now(self) -> int:
        n = self.next_n
        self.next_n += 1
        self.groups[n] = group = self.rng.randrange(GROUPS)
        self.pub.publish({"n": n, "group": group})
        return n

    async def open_loop(self, rate: float, count: int) -> List[int]:
        """Publish ``count`` events due at ``rate``; never waits on the broker."""
        loop = asyncio.get_running_loop()
        start = time.monotonic()
        done = loop.create_future()
        sent: List[int] = []

        def fire(i: int) -> None:
            due = start + i / rate
            now = time.monotonic()
            self.late_ms.append((now - due) * 1000.0)
            n = self.publish_now()
            self.due[n] = due
            sent.append(n)
            if i + 1 == count:
                done.set_result(None)

        for i in range(count):
            loop.call_at(loop.time() + i / rate, fire, i)
        await done
        return sent

    def burst(self, count: int) -> List[int]:
        due = time.monotonic()
        sent = []
        for _ in range(count):
            n = self.publish_now()
            self.due[n] = due
            sent.append(n)
        return sent

    def holds(self, ns: List[int]) -> bool:
        return all(n in self.delivered_at for n in ns)

    def latencies_ms(self, ns: List[int]) -> List[float]:
        return [(self.delivered_at[n] - self.due[n]) * 1000.0 for n in ns]


async def register_population(port: int, seed: int) -> List[object]:
    """Create the disconnected durable subscriptions, one connection at a time."""
    from repro.adapters.rt.clock import AsyncioClock
    from repro.adapters.rt.transport import open_connection
    from repro.client.subscriber import DurableSubscriber
    from repro.matching.predicates import In

    rng = random.Random(f"rt-population:{seed}")
    clock = AsyncioClock()
    predicates = []
    for i in range(POPULATION):
        predicate = In("group", (rng.randrange(GROUPS),))
        sub = DurableSubscriber(clock, f"rt-pop{i}", node=None, predicate=predicate,
                                connect_retry_ms=200.0)
        sub.connect_channel(await open_connection(HOST, port))
        await wait_until(lambda: sub._first_connect_done, "population registration")
        sub.disconnect()
        predicates.append(predicate)
    return predicates


async def timed_setup(broker: Broker, seed: int,
                      probe: Optional[HostProbe]) -> Tuple[float, float, List[object]]:
    """Start ``broker`` and register the population.

    Returns (wall, reference seconds -- the wall when not probing,
    predicates).
    """
    if probe is not None:
        probe.measure()
    t0 = time.perf_counter()
    broker.start()
    predicates = await register_population(broker.port, seed)
    took = time.perf_counter() - t0
    return took, probe.reference_s(took) if probe is not None else took, predicates


def count_pfs_pairs(data_dir: str) -> Dict[int, int]:
    """Pairs per tick in the on-disk PFS (read after the broker stopped)."""
    from repro.pfs.records import PFSRecordBatch, decode_record
    from repro.storage.logvolume import LogVolume

    volume = LogVolume.at_path(os.path.join(data_dir, "pfs.log"), fsync=False)
    try:
        stream = volume.stream(f"pfs:{PUBEND}")
        per_tick: Dict[int, int] = {}
        for index in range(stream.chopped_below, stream.next_index):
            record = decode_record(stream.read(index))
            if isinstance(record, PFSRecordBatch):
                for i, ts in enumerate(record.timestamps):
                    per_tick[ts] = per_tick.get(ts, 0) + len(record.nums_at(i))
            else:
                per_tick[record.timestamp] = (per_tick.get(record.timestamp, 0)
                                              + len(record.subscribers()))
        return per_tick
    finally:
        volume.close()


async def _run(seed: int, seconds: float, tracer) -> Outcome:
    from repro.adapters.rt.clock import AsyncioClock
    from repro.adapters.rt.transport import open_connection
    from repro.client.publisher import ReliablePublisher

    traced = tracer is not None
    # As on the simulated workloads, untraced runs rescale each set-up
    # by the host probe, timed here in the generator while no broker
    # runs.  The bursts are not rescaled: the broker mostly waits on its
    # timers and fsync, and a host slowdown the probe reads as 1.4x
    # moves their rate by a few percent.  Traced runs skip the probe.
    probe = None if traced else HostProbe()
    run_dir = os.path.join(WORK, f"rt-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    broker: Optional[Broker] = None
    try:
        # -- set-up (repeated; the last broker is kept) -----------------
        setup_s: List[float] = []
        setup_wall_s: List[float] = []
        for k in range(SETUP_REPEATS):
            if broker is not None:
                broker.kill()
            trace_out = os.path.join(run_dir, "trace.json") if traced else None
            broker = Broker(os.path.join(run_dir, f"data{k}"), trace_out)
            wall, ref, predicates = await timed_setup(broker, seed, probe)
            setup_wall_s.append(wall)
            setup_s.append(ref)

        clock = AsyncioClock()
        gen = Generator(clock, seed)
        gen.sub.connect_channel(await open_connection(HOST, broker.port))
        await wait_until(lambda: gen.sub._first_connect_done, "live registration")
        gen.pub = ReliablePublisher(clock, None, None, "rt-pub", PUBEND,
                                    retransmit_ms=300.0,
                                    channel=await open_connection(HOST, broker.port))

        async def bursts() -> List[Tuple[float, List[int]]]:
            """(wall, events) of each burst."""
            out = []
            for _ in range(BURSTS):
                t0 = time.monotonic()
                sent = gen.burst(BURST_EVENTS)
                await wait_until(lambda: gen.holds(sent), "burst delivery")
                out.append((max(gen.delivered_at[n] for n in sent) - t0, sent))
            return out

        untraced_bursts = await bursts() if traced else []
        if traced:
            broker.proc.send_signal(signal.SIGUSR2)  # broker: open root span
            from tracer import TraceWindow
            window = TraceWindow(tracer)
        burst_runs = await bursts()
        # The broker's peak RSS is read after a fixed amount of work: how
        # far the ladder below gets varies from run to run, and the
        # broker's heap grows with every event it logs.
        broker.sample_rss()
        peak_rss_mb = broker.peak_rss_mb

        # -- ladder --------------------------------------------------------
        await asyncio.sleep(SETTLE_S)  # let the bursts' commits and acks finish
        steps = []
        step_s = seconds / (len(LADDER_RATES) + 1)
        for rate in LADDER_RATES:
            duration = 2 * step_s if rate == LATENCY_RATE else step_s
            count = max(10, int(rate * duration))
            sent = await gen.open_loop(rate, count)
            try:
                await wait_until(lambda: gen.holds(sent), f"ladder {rate}/s", 10.0)
            except TimeoutError:
                steps.append((rate, None, False))
                break
            lat = gen.latencies_ms(sent)
            half = len(lat) // 2
            early, late = median(lat[:half]), median(lat[half:])
            growing = late > BACKLOG_GROWTH * early + 5.0
            steps.append((rate, lat, not growing and percentile(lat, 99) <= LATENCY_LIMIT_MS))
            if growing or percentile(lat, 99) > LATENCY_LIMIT_MS:
                break

        # -- catch-up: disconnect, publish on, reconnect, read the PFS --------
        gen.sub.disconnect()
        await gen.open_loop(CATCHUP_RATE, CATCHUP_EVENTS)
        await wait_until(lambda: gen.pub.unacknowledged == 0, "publisher drain")
        reconnect_t = time.monotonic()
        gen.sub.connect_channel(await open_connection(HOST, broker.port))
        total = gen.next_n
        await wait_until(lambda: len(gen.delivered_at) >= total, "catch-up")
        catchup_s = time.monotonic() - reconnect_t
        await asyncio.sleep(0.5)  # let a stray duplicate show itself
        gen.sub.disconnect()
        gen.pub.close()
        broker.stop()
        layers = {}
        if traced:
            with open(broker.trace_out) as fh:
                broker_trace = json.load(fh)
            os.replace(broker.trace_out,
                       os.path.join(WORK, f"trace-rt-broker-seed{seed}-broker.json"))
            layers = window.close(
                (median([w for w, _ in untraced_bursts]), BURST_EVENTS),
                (median([w for w, _ in burst_runs]), BURST_EVENTS),
                others=[broker_trace],
            )

        # -- judge -----------------------------------------------------------
        per_tick = count_pfs_pairs(broker.data_dir)
        outcome = judge(gen, predicates, per_tick, peak_rss_mb, burst_runs, steps,
                        catchup_s, layers)
        outcome.report["broker_final_rss_mb"] = (broker.peak_rss_mb, "MB")

        # -- set-up again, after the drive: spread the samples in time ----
        for k in range(SETUP_REPEATS):
            spare = Broker(os.path.join(run_dir, f"spare{k}"), None)
            try:
                wall, ref, _ = await timed_setup(spare, seed, probe)
                setup_wall_s.append(wall)
                setup_s.append(ref)
            finally:
                spare.kill()
        outcome.setup_s = setup_s
        outcome.report["setup_wall_s"] = (median(setup_wall_s), "s")
        if probe is not None:
            outcome.report["host_probe_ms"] = (1e3 * median(probe.samples), "ms")
        return outcome
    finally:
        if broker is not None:
            broker.kill()
        shutil.rmtree(run_dir, ignore_errors=True)


def judge(gen, predicates, per_tick, peak_rss_mb, burst_runs, steps,
          catchup_s, layers) -> Outcome:
    total = gen.next_n
    # The live subscriber matches everything; the population by group.
    expected_pairs = {n: 1 + sum(1 for p in predicates if p.matches({"group": g}))
                      for n, g in gen.groups.items()}
    logged = {n: per_tick.get(gen.ticks.get(n), 0) for n in range(total)}
    pair_errors = sum(abs(logged[n] - expected_pairs[n]) for n in range(total))
    order = sum(1 for a, b in zip(gen.received, gen.received[1:]) if b <= a)
    failures = {
        "missing": total - len(set(gen.received)),
        "duplicate": gen.sub.duplicate_events,
        "order": order + gen.sub.stats.order_violations,
        "gaps": gen.sub.stats.gaps,
        "unacked": gen.pub.unacknowledged,
        "pfs_pairs": pair_errors,
    }
    violations = [f"{kind}: {count}" for kind, count in failures.items() if count]

    rates, pairs_rates = [], []
    for wall, sent in burst_runs:
        rates.append(len(sent) / wall)
        pairs_rates.append(sum(logged[n] for n in sent) / wall)
    latency_step = next((lat for rate, lat, _ in steps if rate == LATENCY_RATE), None) or []
    tail_pct, tail_ms = tail(latency_step)
    passing = [rate for rate, _lat, ok in steps if ok]
    outcome = Outcome(
        expected=sum(expected_pairs.values()) + total, failures=failures,
        violations=violations, peak_rss_mb=peak_rss_mb,
        logged_pairs_per_s=median(pairs_rates), layers=layers,
    )
    outcome.report.update({
        "deliveries_per_s": (median(rates), "events/s"),
        "deliver_p50_ms": (percentile(latency_step, 50), "ms"),
        "deliver_p99_ms": (percentile(latency_step, 99), "ms"),
        "deliver_tail_ms": (tail_ms, "ms"),
        "deliver_tail_pct": (tail_pct, "pct"),
        "deliver_samples": (len(latency_step), "count"),
        "max_rate_eps": (float(max(passing)) if passing else 0.0, "events/s"),
        "catchup_s": (catchup_s, "s"),
        "gen_late_ms_p99": (percentile(gen.late_ms, 99), "ms"),
    })
    for rate, lat, ok in steps:
        if lat:
            outcome.report[f"ladder_{rate}_p99_ms"] = (percentile(lat, 99), "ms")
    return outcome


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    return asyncio.run(_run(seed, seconds, tracer))
