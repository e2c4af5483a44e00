"""``fanout-100k``: durable fan-out over the ``prepare_scale`` forest.

Two PHB trees with intermediate levels feed 204 SHBs holding 100k
durable subscriptions over 500 shared predicates (almost all headless)
plus 24 live clients; placement and live-client predicates come from
the seed.  Set-up builds the forest, runs the subscription-propagation
warm-up, drains one priming burst so first-touch costs (caches, index
shards) are paid before timing, and ends with a full garbage collection
(the runner keeps the cyclic collector off, see ``run.py``).

The drive repeats identical *bursts* until ``seconds`` of wall time
have passed: every pubend's open-loop periodic publisher emits
``BURST_EVENTS`` events in simulated time, then the forest runs until
each of those events is PFS-logged for every subscription it matches.
Only whole bursts are timed, so every run measures complete units of
work; ``logged_pairs_per_s`` is the median burst's rate, with each
burst's wall time rescaled by the host probe timed before and after
it (``common.HostProbe``).  The expected number of logged pairs is
computed from the SHB registries, independently of the PFS, and must be
met exactly.
"""

from __future__ import annotations

import gc
import time
from collections import Counter
from typing import Dict, List, Tuple

from common import HostProbe, Outcome, median, self_peak_rss_mb
from tracer import TraceWindow

SUBSCRIBERS = 100_000
BURST_EVENTS = 25          # per pubend
STEP_MS = 20.0
BURST_LIMIT_MS = 30_000.0
FINAL_DRAIN_MS = 1_000.0


class Forest:
    """The built forest plus the bookkeeping the oracles need."""

    def __init__(self, seed: int) -> None:
        from repro.sim.experiments import prepare_scale

        self.setup = setup = prepare_scale(SUBSCRIBERS, seed=seed)
        self.sim = setup.sim
        self.shbs = setup.federation.shbs
        for client in setup.clients:
            client.record_events = True  # exactly-once judging needs ids
        self.sim.run_until(setup.warmup_ms)
        # Subscriptions per (tree, group), read from the SHB registries
        # after propagation: the number of PFS pairs an event must yield.
        self.fanout: List[Tuple[object, Counter]] = []
        for tree in setup.federation.trees:
            per_group: Counter = Counter()
            for shb in tree.shbs:
                for sub in shb.registry.all():
                    for group in sub.predicate.values:
                        per_group[group] += 1
            self.fanout.append((tree, per_group))
        # Ground truth: every event the PHBs durably logged.
        self.truth: Dict[str, Tuple[str, int, dict]] = {}
        self._log_high: Dict[str, int] = {}
        self.expected_pairs = self.pairs()

    def pairs(self) -> int:
        """(event, subscriber) pairs logged, from the 8 + 16n record model."""
        return sum((s.pfs.bytes_written - 8 * s.pfs.writes) // 16 for s in self.shbs)

    def published(self) -> int:
        return sum(p.published for p in self.setup.publishers)

    def collect_truth(self) -> int:
        """Read newly logged events; returns how many were new."""
        new = 0
        for tree, per_group in self.fanout:
            for name, pubend in tree.phb.pubends.items():
                high = self._log_high.get(name, -1)
                for ev in pubend.log.read_range(high + 1, 2 ** 62):
                    self.truth[ev.event_id] = (name, ev.timestamp, ev.attributes)
                    self.expected_pairs += per_group[ev.attributes["group"]]
                    high = ev.timestamp
                    new += 1
                self._log_high[name] = high
        return new

    def burst(self) -> None:
        """Publish one burst and run until all of it is PFS-logged."""
        sim = self.sim
        target = self.published() + BURST_EVENTS * len(self.setup.publishers)
        start = sim.now
        interval = 1000.0 / self.setup.rate_per_s
        for pub in self.setup.publishers:
            pub.start(first_delay_ms=0.0)
            sim.at(start + (BURST_EVENTS - 0.5) * interval, pub.stop)
        while sim.now - start < BURST_LIMIT_MS:
            sim.run_until(sim.now + STEP_MS)
            self.collect_truth()
            if len(self.truth) >= target and self.pairs() >= self.expected_pairs:
                return


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    # As in ``churn``: untraced runs rescale the set-up and each burst by
    # the host probe.
    probe = HostProbe() if tracer is None else None
    t0 = time.perf_counter()
    forest = Forest(seed)
    forest.burst()  # priming burst: part of set-up
    gc.collect()
    setup_wall_s = time.perf_counter() - t0
    setup_s = probe.reference_s(setup_wall_s) if probe is not None else setup_wall_s

    def drive() -> Tuple[float, int, List[float], List[float]]:
        """Whole bursts for ``seconds``: (wall of the bursts, pairs, pairs/s
        of each burst per wall second and per reference second)."""
        pairs_start = forest.pairs()
        start = time.perf_counter()
        wall = 0.0
        rates: List[float] = []
        ref_rates: List[float] = []
        while time.perf_counter() - start < seconds:
            pairs, t0 = forest.pairs(), time.perf_counter()
            forest.burst()
            took = time.perf_counter() - t0
            wall += took
            rates.append((forest.pairs() - pairs) / took)
            if probe is not None:
                ref_rates.append((forest.pairs() - pairs) / probe.reference_s(took))
        return wall, forest.pairs() - pairs_start, rates, ref_rates

    # Traced runs first drive untraced for as long: the overhead's base.
    untraced = drive()[:2] if tracer is not None else None
    deliveries_0 = sum(c.stats.events for c in forest.setup.clients)
    window = TraceWindow(tracer)
    drive_wall, logged, rates, ref_rates = drive()
    layers = window.close(untraced, (drive_wall, logged))

    # Let the live clients' last-hop deliveries and acks settle.
    forest.sim.run_until(forest.sim.now + FINAL_DRAIN_MS)
    forest.collect_truth()
    outcome = judge(forest)
    outcome.setup_s = [setup_s]
    outcome.logged_pairs_per_s = median(ref_rates or rates)
    outcome.layers = layers
    deliveries = sum(c.stats.events for c in forest.setup.clients) - deliveries_0
    outcome.report.update({
        "deliveries_per_s": (deliveries / drive_wall, "events/s"),
        "drive_pairs": (logged, "pairs"),
        "bursts": (len(rates), "count"),
        "logged_pairs_per_wall_s": (median(rates), "pairs/s"),
        "setup_wall_s": (setup_wall_s, "s"),
    })
    if probe is not None:
        outcome.report["host_probe_ms"] = (1e3 * median(probe.samples), "ms")
    return outcome


def judge(forest: Forest) -> Outcome:
    """Oracles for the live clients, PFS chains, and exact pair count."""
    from repro.sim.oracles import check_delivery, check_pfs_chains

    clients = forest.setup.clients
    by_pubend: Dict[str, List[Tuple[str, int, dict]]] = {}
    for eid, (pubend, ts, attrs) in forest.truth.items():
        by_pubend.setdefault(pubend, []).append((eid, ts, attrs))

    def expected_of(sub) -> Dict[str, int]:
        return {eid: ts for pubend in sub.ct.as_dict()
                for eid, ts, attrs in by_pubend.get(pubend, ())
                if sub.predicate.matches(attrs)}

    truth_ids = set(forest.truth)
    violations = check_delivery(clients, expected_of, truth_ids)
    chain_violations: List[str] = []
    for shb in forest.shbs:
        chain_violations.extend(check_pfs_chains(shb))
    violations.extend(chain_violations)
    logged = forest.pairs()
    if logged != forest.expected_pairs:
        violations.append(f"PFS logged {logged} (event, subscriber) pairs, "
                          f"registries imply {forest.expected_pairs}")
    expected = missing = 0
    for sub in clients:
        want = expected_of(sub)
        expected += len(want)
        missing += len(set(want) - sub.received_event_id_set)
    failures = {
        "missing": missing,
        "duplicate": sum(s.duplicate_events for s in clients),
        "order": sum(s.stats.order_violations for s in clients),
        "gaps": sum(s.stats.gaps for s in clients),
        "pfs_chain": len(chain_violations),
        "pfs_pairs": abs(logged - forest.expected_pairs),
    }
    # Every logged pair is an expected durable delivery too.
    return Outcome(expected=expected + forest.expected_pairs, failures=failures,
                   violations=violations, peak_rss_mb=self_peak_rss_mb())
