"""``churn-catchup``: the Fig. 5/6 two-broker set-up under subscriber churn.

One PHB feeds one SHB (``build_two_broker``) with the paper's workload
(4 pubends, 800 events/s, 4 groups).  88 durable subscribers each
disconnect periodically for a short window and then catch up from the
PFS.  The disconnect offsets and window lengths come from the seed and
are scheduled here, not by the program's own churn helper.

The churn period and window are the repository's own Fig. 5/6 defaults
(``run_stream_rates``: 20 s period, 1 s down): the highest churn at
which the simulated SHB's CPU queue still drains.  At a 3-10 s period
the SHB saturates and its backlog grows for as long as the run lasts.

The drive simulates ``seconds`` x ``SIM_MS_PER_SECOND`` of churn in
``CHUNK_MS`` chunks; ``logged_pairs_per_s`` is the median over the
chunks, each chunk's wall time rescaled by the host probe timed before
and after it (``common.HostProbe``; the rate per wall second is reported
as ``logged_pairs_per_wall_s``).  Then the churn and the publishers stop
and the run drains until every subscriber is connected and holds every
event it matches, which the oracles then judge.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, Optional, Tuple

from common import HostProbe, Outcome, median, self_peak_rss_mb, tail
from tracer import TraceWindow

SUBSCRIBERS = 88
WARMUP_MS = 1_000.0
PERIOD_MS = 20_000.0
DOWN_MS = 1_000.0
#: Simulated drive per ``--seconds``: about a wall second of work on the
#: reference machine.  A fixed amount of simulated time (rather than a
#: wall-clock budget) keeps the run's state, and so its memory, the same
#: on a slow host.
SIM_MS_PER_SECOND = 1_000.0
CHUNK_MS = 250.0
DRAIN_LIMIT_MS = 60_000.0
SETUP_REPEATS = 4  # before the drive, and again after it


class SeededChurn:
    """Periodic disconnect/reconnect with seeded phase and window length."""

    def __init__(self, sim, subscribers, shb, seed: int, start_ms: float) -> None:
        self.sim = sim
        self.shb = shb
        self.stopped = False
        rng = random.Random(f"churn-catchup:{seed}")
        self.down_ms: Dict[str, float] = {}
        # Stratified phases: one jittered slot of the period per
        # subscriber, slots dealt out in seeded order, so every seed
        # offers the same disconnect rate.
        slots = list(range(len(subscribers)))
        rng.shuffle(slots)
        slot_ms = PERIOD_MS / len(subscribers)
        for sub, slot in zip(subscribers, slots):
            self.down_ms[sub.sub_id] = DOWN_MS * rng.uniform(0.75, 1.25)
            phase = (slot + rng.random()) * slot_ms
            sim.at(start_ms + phase, self._disconnect, sub)

    def _disconnect(self, sub) -> None:
        if self.stopped:
            return
        if sub.connected:
            sub.disconnect()
        self.sim.after(self.down_ms[sub.sub_id], self._reconnect, sub)

    def _reconnect(self, sub) -> None:
        # Reconnects still happen after stop(), so the drain ends with
        # every subscriber back on line.
        if not sub.connected:
            sub.connect(self.shb)
        if not self.stopped:
            self.sim.after(PERIOD_MS - self.down_ms[sub.sub_id], self._disconnect, sub)


class Scenario:
    """A built (not yet driven) churn scenario."""

    def __init__(self, seed: int) -> None:
        from repro.broker.topology import build_two_broker
        from repro.net.simtime import Scheduler
        from repro.sim.oracles import KnowledgeMonotonicityProbe
        from repro.workloads.generator import (
            PaperWorkloadSpec, make_publishers, make_subscribers,
        )

        self.spec = spec = PaperWorkloadSpec()
        self.sim = sim = Scheduler()
        self.pubends = spec.pubend_names()
        self.overlay = build_two_broker(sim, self.pubends)
        self.shb = self.overlay.shbs[0]
        self.publishers = make_publishers(sim, self.overlay.phb, spec)
        self.subscribers = make_subscribers(
            sim, self.overlay.shbs, spec, SUBSCRIBERS, record_events=True
        )
        self.probe = KnowledgeMonotonicityProbe(sim, self.shb, self.pubends,
                                                interval_ms=250.0)
        # Ground truth: everything the PHB durably logged, captured
        # before releases chop the log.
        self.truth: Dict[str, Tuple[int, dict]] = {}
        self._log_high: Dict[str, int] = {}
        self._expected: Dict[tuple, Dict[str, int]] = {}
        self.truth_timer = sim.every(50.0, self.record_truth)
        self.churn = SeededChurn(sim, self.subscribers, self.shb, seed,
                                 start_ms=WARMUP_MS)
        sim.run_until(WARMUP_MS)

    def record_truth(self) -> None:
        """Read the events logged since the last call (appends are monotone)."""
        for name, pubend in self.overlay.phb.pubends.items():
            high = self._log_high.get(name, -1)
            for ev in pubend.log.read_range(high + 1, 2 ** 60):
                self.truth[ev.event_id] = (ev.timestamp, ev.attributes)
                high = ev.timestamp
            self._log_high[name] = high

    def expected(self, sub) -> Dict[str, int]:
        # Subscribers share a handful of predicates: filter the truth
        # once per predicate and truth size.
        key = (repr(sub.predicate), len(self.truth))
        cached = self._expected.get(key)
        if cached is None:
            cached = {eid: ts for eid, (ts, attrs) in self.truth.items()
                      if sub.predicate.matches(attrs)}
            self._expected[key] = cached
        return cached

    def caught_up(self) -> bool:
        for sub in self.subscribers:
            if not sub.connected:
                return False
            if not set(self.expected(sub)) <= sub.received_event_id_set:
                return False
        return True

    def pairs(self) -> int:
        pfs = self.shb.pfs
        return (pfs.bytes_written - 8 * pfs.writes) // 16

    def deliveries(self) -> int:
        return sum(s.stats.events for s in self.subscribers)


def timed_setup(seed: int, probe: Optional[HostProbe]) -> Tuple[float, float, Scenario]:
    """(wall, reference seconds -- the wall when not probing, scenario)."""
    gc.collect()  # drop the previous repetition, untimed
    if probe is not None:
        probe.measure()
    t0 = time.perf_counter()
    scenario = Scenario(seed)
    gc.collect()
    took = time.perf_counter() - t0
    return took, probe.reference_s(took) if probe is not None else took, scenario


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    # Untraced runs time the host probe around every set-up and chunk;
    # traced runs skip it, so that no harness work lands inside the trace.
    probe = HostProbe() if tracer is None else None
    # Set-up is timed SETUP_REPEATS times before the drive (the last
    # scenario is driven) and as often after it, so that a slow stretch
    # of the host rarely covers every sample.
    setup_s: List[float] = []
    setup_wall_s: List[float] = []
    for _ in range(SETUP_REPEATS):
        scenario = None
        wall, ref, scenario = timed_setup(seed, probe)
        setup_wall_s.append(wall)
        setup_s.append(ref)
    sim = scenario.sim

    def advance(scenario: Scenario) -> Tuple[float, int, List[float], List[float]]:
        """``seconds`` x ``SIM_MS_PER_SECOND`` of simulated churn, in chunks.

        Returns (wall of the chunks, pairs logged, pairs/s of each chunk
        per wall second, and per reference second when probing).
        """
        sim = scenario.sim
        pairs_start = scenario.pairs()
        wall = 0.0
        rates: List[float] = []
        ref_rates: List[float] = []
        for _ in range(max(1, round(seconds * SIM_MS_PER_SECOND / CHUNK_MS))):
            pairs, t0 = scenario.pairs(), time.perf_counter()
            sim.run_until(sim.now + CHUNK_MS)
            took = time.perf_counter() - t0
            wall += took
            rates.append((scenario.pairs() - pairs) / took)
            if probe is not None:
                ref_rates.append((scenario.pairs() - pairs) / probe.reference_s(took))
        return wall, scenario.pairs() - pairs_start, rates, ref_rates

    # Traced runs first drive an identical scenario untraced: the
    # overhead's base.  It is a fresh one, not the traced scenario driven
    # on for twice as long: the SHB's backlog grows with simulated time,
    # and past the down window it meets the known consumer defect.
    untraced = None
    if tracer is not None:
        untraced = advance(Scenario(seed))[:2]
        gc.collect()
    deliveries_0, drive_start_ms = scenario.deliveries(), sim.now
    window = TraceWindow(tracer)
    churn_wall, churn_pairs, rates, ref_rates = advance(scenario)
    deliveries = scenario.deliveries() - deliveries_0
    churn_end_ms = sim.now
    t0 = time.perf_counter()
    scenario.churn.stopped = True
    for pub in scenario.publishers:
        pub.stop()
    deadline = sim.now + DRAIN_LIMIT_MS
    while sim.now < deadline:
        sim.run_until(sim.now + 200.0)
        scenario.record_truth()
        if scenario.caught_up():
            break
    drain_wall = time.perf_counter() - t0
    layers = window.close(untraced, (churn_wall, churn_pairs))

    scenario.truth_timer.cancel()
    scenario.record_truth()
    outcome = judge(scenario)
    outcome.logged_pairs_per_s = median(ref_rates or rates)
    outcome.layers = layers
    durations = [d for end, d in scenario.shb.catchup_durations_ms
                 if drive_start_ms <= end <= churn_end_ms]
    tail_pct, tail_ms = tail(durations)
    outcome.report.update({
        "deliveries_per_s": (deliveries / churn_wall, "events/s"),
        "logged_pairs_per_wall_s": (median(rates), "pairs/s"),
        "sim_catchup_p50_ms": (median(durations), "sim ms"),
        "sim_catchup_tail_ms": (tail_ms, "sim ms"),
        "sim_catchup_tail_pct": (tail_pct, "pct"),
        "catchups": (len(durations), "count"),
        "sim_drive_ms": (churn_end_ms - drive_start_ms, "sim ms"),
        "drain_wall_s": (drain_wall, "s"),
    })
    if probe is not None:
        outcome.report["host_probe_ms"] = (1e3 * median(probe.samples), "ms")
    scenario = sim = None
    for _ in range(SETUP_REPEATS):
        wall, ref = timed_setup(seed, probe)[:2]
        setup_wall_s.append(wall)
        setup_s.append(ref)
    outcome.setup_s = setup_s
    outcome.report["setup_wall_s"] = (median(setup_wall_s), "s")
    return outcome


def judge(scenario: Scenario) -> Outcome:
    """Oracles plus per-subscriber counters -> failures by kind."""
    from repro.sim.oracles import check_all

    subs = scenario.subscribers
    truth_ids = set(scenario.truth)
    violations = check_all(
        overlay=scenario.overlay, subscribers=subs,
        expected_of=scenario.expected, knowledge_probe=scenario.probe,
        truth_ids=truth_ids,
    )
    expected = 0
    missing = 0
    for sub in subs:
        want = scenario.expected(sub)
        expected += len(want)
        missing += len(set(want) - sub.received_event_id_set)
    failures = {
        "missing": missing,
        "duplicate": sum(s.duplicate_events for s in subs),
        "order": sum(s.stats.order_violations for s in subs),
        "gaps": sum(s.stats.gaps for s in subs),
        # Oracle findings not already counted above (chains, chops,
        # knowledge monotonicity, events absent from the log).
        "oracle": sum(1 for v in violations if not _counted(v)),
    }
    return Outcome(expected=expected, failures=failures, violations=violations,
                   peak_rss_mb=self_peak_rss_mb())


def _counted(violation: str) -> bool:
    return any(key in violation for key in (
        "duplicate events", "order violations", "gap messages", "never delivered",
    ))
