"""Span and counter recording around the public entry points of each layer.

The benchmark never edits the program under test.  Instead,
:func:`install` replaces entry-point callables of the ``repro`` modules
with thin wrappers from this file, *before* a workload is built (so
bound methods captured at construction time are the wrappers too).  A
wrapper is inert until :meth:`Tracer.begin` opens the root span; after
that every call records:

* a span ``(id, name, start, end, parent_id)`` -- kept in memory up to
  ``MAX_SPANS`` and written out by :meth:`Tracer.dump`;
* the layer's **self time**: span duration minus the part its child
  spans cover.  Calls nested inside a span of the *same* layer are
  counted but not timed separately (their time already belongs to the
  enclosing span of that layer);
* per-entry-point call counts and a few value samples (waits, flush
  and codec durations) for percentiles.

Time inside the root span that no layer span covers goes to the
``other`` bucket, so ``sum(self_s.values())`` equals the root span's
wall time exactly.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence

OTHER = "other"
#: In-memory caps; spans and samples beyond them are dropped.
MAX_SPANS = 200_000
MAX_SAMPLES = 500_000
LAYERS = (
    "net", "core.knowledge", "matching", "pfs", "core.streams",
    "storage", "broker", "client", "adapters.rt",
)


class Tracer:
    """In-memory span stack, self-time buckets, counters and samples."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.enabled = False
        self.stack: List[list] = []  # [layer, start, child_s, span_id]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.samples: Dict[str, array] = defaultdict(lambda: array("d"))
        self.spans: List[tuple] = []
        self.instances: Dict[str, list] = defaultdict(list)
        self._next_id = 0
        self.root_wall_s = 0.0

    # -- root span -------------------------------------------------------
    def begin(self) -> None:
        """Open the root span; from now on wrappers record."""
        self.enabled = True
        self.stack = [[OTHER, self.clock(), 0.0, self._new_id()]]

    def end(self) -> float:
        """Close the root span; returns its wall time in seconds."""
        if not self.stack:
            return self.root_wall_s
        layer, start, child, span_id = self.stack[0]
        now = self.clock()
        # Cleared in place: a span still open (end() called from inside
        # a wrapped call, e.g. by a signal handler) then sees an empty
        # stack and is dropped instead of landing after the root closed.
        self.stack.clear()
        self.enabled = False
        self.self_s[OTHER] += (now - start) - child
        self.root_wall_s += now - start
        self._record_span(span_id, "drive", start, now, None)
        return self.root_wall_s

    # -- recording -------------------------------------------------------
    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _record_span(self, span_id, name, start, end, parent) -> None:
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent))

    def sample(self, key: str, value: float) -> None:
        buf = self.samples[key]
        if len(buf) < MAX_SAMPLES:
            buf.append(value)

    def call(self, layer: str, name: str, fn: Callable, args, kwargs):
        """Run ``fn`` inside a span of ``layer`` (the wrappers' body)."""
        self.counts[name] += 1
        stack = self.stack
        if not stack or stack[-1][0] == layer:
            return fn(*args, **kwargs)
        clock = self.clock
        frame = [layer, clock(), 0.0, self._new_id()]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            # The stack may have been reset by end() inside fn; only
            # account spans that are still open under a live root.
            if stack and stack[-1] is frame:
                stack.pop()
                duration = end - frame[1]
                self.self_s[layer] += duration - frame[2]
                parent = stack[-1]
                parent[2] += duration
                self._record_span(frame[3], name, frame[1], end, parent[3])

    # -- output ----------------------------------------------------------
    def dump(self, path: str, extra: Optional[dict] = None) -> None:
        """Write spans, counts, samples and self times as one JSON file."""
        payload = {
            "root_wall_s": self.root_wall_s,
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "span_fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "extra": extra or {},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def wrap(tracer: Tracer, layer: str, name: str, fn: Callable) -> Callable:
    """A wrapper that records ``fn``'s calls as spans of ``layer``."""

    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        return tracer.call(layer, name, fn, args, kwargs)

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def _patch_method(tracer: Tracer, cls: type, attr: str, layer: str,
                  around: Optional[Callable] = None) -> None:
    original = cls.__dict__.get(attr)
    if original is None:
        return
    name = f"{cls.__name__}.{attr}"
    fn = around(original) if around is not None else original
    setattr(cls, attr, wrap(tracer, layer, name, fn))


def _patch_function(tracer: Tracer, module, attr: str, layer: str,
                    around: Optional[Callable] = None) -> None:
    """Wrap a module-level function everywhere it was imported by name."""
    original = getattr(module, attr)
    name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
    fn = around(original) if around is not None else original
    wrapped = wrap(tracer, layer, name, fn)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro") and \
                getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapped)


def _track_instances(tracer: Tracer, cls: type, key: str) -> None:
    """Remember every instance of ``cls`` so counters can be read later."""
    init = cls.__init__

    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.instances[key].append(self)

    cls.__init__ = __init__


def install(tracer: Tracer, rt: bool = False) -> None:
    """Wrap every layer entry point of the ``repro`` package.

    With ``rt`` the asyncio adapters are wrapped as well (they import
    asyncio machinery the simulation never needs).
    """
    from repro.broker.intermediate import IntermediateBroker
    from repro.broker.phb import PublisherHostingBroker
    from repro.broker.shb import SubscriberHostingBroker
    from repro.client.subscriber import DurableSubscriber
    from repro.core import messages
    from repro.core.catchup import CatchupStream
    from repro.core.constream import ConsolidatedStream
    from repro.core.curiosity import CuriosityStream
    from repro.core.tickmap import TickMap
    from repro.matching.engine import MatchingEngine
    from repro.net.link import LinkEnd
    from repro.net.node import Node
    from repro.net.simtime import Scheduler
    from repro.pfs.pfs import PersistentFilteringSubsystem
    from repro.storage.disk import SimDisk
    from repro.storage.logvolume import LogStream, LogVolume
    from repro.util.intervals import IntervalSet

    # net: kernel steps, node jobs (with their queueing wait), link sends
    _patch_method(tracer, Scheduler, "step", "net")

    def node_submit(original):
        def submit(self, cost_ms, fn):
            if not tracer.enabled:
                return original(self, cost_ms, fn)
            submitted = self.scheduler.now

            def job():
                tracer.counts["net.node_jobs"] += 1
                tracer.sample("net.node_wait_ms", self.scheduler.now - submitted)
                return fn()
            return original(self, cost_ms, job)
        return submit

    _patch_method(tracer, Node, "submit", "net", around=node_submit)
    _patch_method(tracer, LinkEnd, "send", "net")

    # core.knowledge: update clipping/splitting, interval sets, tick maps
    _patch_function(tracer, messages, "clip_update", "core.knowledge")
    _patch_function(tracer, messages, "clip_update_to_set", "core.knowledge")

    def split(original):
        def split_update(update, cutoff):
            old, new = original(update, cutoff)
            if tracer.enabled and old.max_tick() is not None \
                    and new.max_tick() is not None:
                tracer.counts["split_straddles"] += 1
            return old, new
        return split_update

    _patch_function(tracer, messages, "split_update", "core.knowledge", around=split)
    for attr in ("add", "add_interval", "update", "remove", "difference_update",
                 "chop_below", "clear"):
        _patch_method(tracer, IntervalSet, attr, "core.knowledge")
    _patch_method(tracer, TickMap, "classify_within", "core.knowledge")

    # matching
    for attr in ("match", "match_at", "match_batch", "matches_any_batch",
                 "match_at_batch"):
        _patch_method(tracer, MatchingEngine, attr, "matching")
    _track_instances(tracer, MatchingEngine, "matching")

    # pfs
    def write_batch(original):
        def wrapped(self, pubend, items, on_durable=None):
            if tracer.enabled:
                tracer.counts["pfs.pairs"] += sum(len(nums) for _t, nums in items)
            return original(self, pubend, items, on_durable)
        return wrapped

    _patch_method(tracer, PersistentFilteringSubsystem, "write_batch", "pfs",
                  around=write_batch)
    _patch_method(tracer, PersistentFilteringSubsystem, "write", "pfs")
    _patch_method(tracer, PersistentFilteringSubsystem, "read_batch", "pfs")
    _track_instances(tracer, PersistentFilteringSubsystem, "pfs")

    # core.streams: constream / catchup pumps, curiosity
    _patch_method(tracer, ConsolidatedStream, "pump", "core.streams")
    _patch_method(tracer, CatchupStream, "pump", "core.streams")
    for attr in ("want", "want_set", "set_want", "kick"):
        _patch_method(tracer, CuriosityStream, attr, "core.streams")
    _track_instances(tracer, CatchupStream, "catchup")
    _track_instances(tracer, CuriosityStream, "curiosity")

    # storage: log streams, volume flushes, disks
    def append(original):
        def wrapped(self, record):
            if tracer.enabled:
                tracer.counts["storage.bytes"] += len(record)
            return original(self, record)
        return wrapped

    def flush(original):
        def wrapped(self):
            if not tracer.enabled:
                return original(self)
            t0 = tracer.clock()
            try:
                return original(self)
            finally:
                tracer.sample("storage.flush_ms", (tracer.clock() - t0) * 1000.0)
        return wrapped

    _patch_method(tracer, LogStream, "append", "storage", around=append)
    _patch_method(tracer, LogStream, "read", "storage")
    _patch_method(tracer, LogVolume, "flush", "storage", around=flush)
    _patch_method(tracer, SimDisk, "write", "storage")
    _track_instances(tracer, SimDisk, "disk")

    # broker: message handlers of every role
    for cls, attrs in (
        (PublisherHostingBroker, ("_handle_from_child", "_on_publisher_message")),
        (IntermediateBroker, ("_handle_from_parent", "_handle_from_child")),
        (SubscriberHostingBroker, ("_handle_from_parent", "_handle_from_parent_batch",
                                   "_on_client_message")),
    ):
        for attr in attrs:
            _patch_method(tracer, cls, attr, "broker")

    # client: the durable subscriber's consume and ack paths
    _patch_method(tracer, DurableSubscriber, "_on_message", "client")
    _patch_method(tracer, DurableSubscriber, "_send_ack", "client")
    _track_instances(tracer, DurableSubscriber, "subscriber")

    if rt:
        _install_rt(tracer)


def _install_rt(tracer: Tracer) -> None:
    from repro.adapters.rt import clock as rt_clock
    from repro.adapters.rt import storage as rt_storage
    from repro.adapters.rt import transport

    def codec(original, key):
        def wrapped(obj):
            if not tracer.enabled:
                return original(obj)
            t0 = tracer.clock()
            out = original(obj)
            tracer.sample("adapters.rt.codec_us", (tracer.clock() - t0) * 1e6)
            tracer.counts["adapters.rt.bytes"] += len(out if key == "enc" else obj)
            return out
        return wrapped

    _patch_function(tracer, transport, "encode_frame", "adapters.rt",
                    around=lambda f: codec(f, "enc"))
    _patch_function(tracer, transport, "decode_payload", "adapters.rt",
                    around=lambda f: codec(f, "dec"))
    _patch_method(tracer, transport.TcpConnection, "send", "adapters.rt")

    clock_cls = rt_clock.AsyncioClock
    schedule = clock_cls._schedule

    def _schedule(self, when_s, fn, args):
        if not tracer.enabled:
            return schedule(self, when_s, fn, args)
        tracer.counts["adapters.rt.timers"] += 1
        loop = self._loop

        def fire(*a):
            if tracer.enabled:
                tracer.sample("adapters.rt.timer_late_ms",
                              max(0.0, loop.time() - when_s) * 1000.0)
                tracer.counts["net.steps"] += 1
                return tracer.call("net", "AsyncioClock.fire", fn, a, {})
            return fn(*a)
        return schedule(self, when_s, fire, args)

    clock_cls._schedule = _schedule
    for attr in ("at", "after", "post"):
        _patch_method(tracer, clock_cls, attr, "adapters.rt")
    _patch_method(tracer, rt_storage.RealDisk, "write", "storage")
    _track_instances(tracer, rt_storage.RealDisk, "disk")


# ----------------------------------------------------------------------
# From a finished trace to the per-layer metrics
# ----------------------------------------------------------------------
def instance_counters(tracer: Tracer) -> Counter:
    """Sum the counters the program keeps on its own tracked objects."""
    c: Counter = Counter()
    for engine in tracer.instances["matching"]:
        counting = engine._counting
        c["matching.events"] += counting.events_processed
        c["matching.candidates"] += counting.candidates_seen
        c["matching.probe_hits"] += counting.probe_cache_hits
        # Every probe-cache miss issues one fresh token.
        c["matching.probe_misses"] += getattr(counting, "_probe_token", 0)
    for pfs in tracer.instances["pfs"]:
        c["pfs.reads"] += pfs.reads
        c["pfs.reads_reaching_last"] += pfs.reads_reaching_last
        c["pfs.bytes"] += pfs.batch_bytes_appended
    for stream in tracer.instances["curiosity"]:
        c["core.streams.nacks"] += stream.nacks_sent
        c["core.streams.nacked_ticks"] += stream.ticks_nacked
    c["core.streams.catchups"] += len(tracer.instances["catchup"])
    for disk in tracer.instances["disk"]:
        c["storage.syncs"] += getattr(disk, "syncs_completed", 0) + getattr(disk, "syncs", 0)
    for sub in tracer.instances["subscriber"]:
        c["client.events"] += sub.stats.events
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(self_s: Dict[str, float], counts: Counter,
                  samples: Dict[str, List[float]], delta: Counter) -> Dict[str, tuple]:
    """Per-layer metrics ``name -> (value, unit)`` from merged trace data.

    ``delta`` holds the program's own counters over the traced window
    (see :func:`instance_counters`).
    """
    from common import percentile

    def n(*names: str) -> int:
        return sum(counts.get(name, 0) for name in names)

    writes = n("SimDisk.write", "RealDisk.write")
    clip_calls = n("messages.clip_update", "messages.clip_update_to_set")
    split_calls = n("messages.split_update")
    batches = n("PersistentFilteringSubsystem.write_batch")
    reads = n("PersistentFilteringSubsystem.read_batch")
    probes = delta["matching.probe_hits"] + delta["matching.probe_misses"]
    frames = n("transport.encode_frame", "transport.decode_payload")
    out = {f"{layer}.self_s": (self_s.get(layer, 0.0), "s") for layer in LAYERS}
    out["other.self_s"] = (self_s.get(OTHER, 0.0), "s")
    out.update({
        "net.steps": (n("Scheduler.step", "net.steps"), "count"),
        "net.node_jobs": (n("net.node_jobs"), "count"),
        "net.link_sends": (n("LinkEnd.send"), "count"),
        "net.node_wait_ms_p50": (percentile(samples.get("net.node_wait_ms", []), 50), "ms"),
        "net.node_wait_ms_p99": (percentile(samples.get("net.node_wait_ms", []), 99), "ms"),
        "core.knowledge.clip_calls": (clip_calls, "count"),
        "core.knowledge.split_calls": (split_calls, "count"),
        "core.knowledge.split_straddle_frac": (
            _ratio(n("split_straddles"), split_calls), "ratio"),
        "matching.events": (delta["matching.events"], "count"),
        "matching.candidates_per_event": (
            _ratio(delta["matching.candidates"], delta["matching.events"]), "count"),
        "matching.probe_cache_hit_frac": (
            _ratio(delta["matching.probe_hits"], probes), "ratio"),
        "pfs.batches": (batches, "count"),
        "pfs.pairs_per_batch": (_ratio(n("pfs.pairs"), batches), "count"),
        "pfs.bytes": (delta["pfs.bytes"], "bytes"),
        "pfs.reads": (reads, "count"),
        "pfs.read_reach_last_frac": (
            _ratio(delta["pfs.reads_reaching_last"], delta["pfs.reads"]), "ratio"),
        "core.streams.catchups": (delta["core.streams.catchups"], "count"),
        "core.streams.nacks": (delta["core.streams.nacks"], "count"),
        "core.streams.nacked_ticks": (delta["core.streams.nacked_ticks"], "count"),
        "storage.appends": (n("LogStream.append"), "count"),
        "storage.bytes": (n("storage.bytes"), "bytes"),
        "storage.syncs": (delta["storage.syncs"], "count"),
        "storage.writes_per_sync": (_ratio(writes, delta["storage.syncs"]), "count"),
        "storage.flush_ms_p50": (percentile(samples.get("storage.flush_ms", []), 50), "ms"),
        "storage.flush_ms_p99": (percentile(samples.get("storage.flush_ms", []), 99), "ms"),
        "client.events": (delta["client.events"], "count"),
        "adapters.rt.frames": (frames, "count"),
        "adapters.rt.bytes": (n("adapters.rt.bytes"), "bytes"),
        "adapters.rt.codec_us_p50": (
            percentile(samples.get("adapters.rt.codec_us", []), 50), "us"),
        "adapters.rt.timers": (n("adapters.rt.timers"), "count"),
        "adapters.rt.timer_late_ms_p99": (
            percentile(samples.get("adapters.rt.timer_late_ms", []), 99), "ms"),
    })
    return out


class TraceWindow:
    """The traced part of a drive.

    Created just before the timed drive: opens the root span when a
    tracer is given (and does nothing otherwise).  :meth:`close` ends
    it and turns the trace into per-layer metrics, plus the tracing
    overhead measured against an untraced stretch of the same run.
    """

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        if tracer is not None:
            self.counters_0 = instance_counters(tracer)
            tracer.begin()

    def close(self, untraced: Optional[tuple], traced: tuple,
              others: Sequence[dict] = ()) -> Dict[str, tuple]:
        """``untraced``/``traced`` are ``(wall_s, work)`` of equal kinds of work.

        ``others`` are trace files (as written by :meth:`Tracer.dump`
        with a ``delta`` counter map) of other processes of the same
        run; their self times, counts and samples are added in.
        """
        tracer = self.tracer
        if tracer is None:
            return {}
        wall = tracer.end()
        delta = instance_counters(tracer)
        delta.subtract(self.counters_0)
        self_s = Counter(tracer.self_s)
        counts = Counter(tracer.counts)
        samples = {k: list(v) for k, v in tracer.samples.items()}
        for other in others:
            self_s.update(other["self_s"])
            counts.update(other["counts"])
            delta.update(other["extra"].get("delta", {}))
            for key, values in other["samples"].items():
                samples.setdefault(key, []).extend(values)
        metrics = layer_metrics(self_s, counts, samples, delta)
        metrics.update(overhead_metrics(wall, untraced, traced))
        return metrics


def overhead_metrics(drive_wall_s: float, untraced: Optional[tuple],
                     traced: tuple) -> Dict[str, tuple]:
    """Traced wall minus the wall the untraced rate needs for the same work."""
    out = {"trace.drive_wall_s": (drive_wall_s, "s")}
    if untraced and untraced[0] > 0 and untraced[1] > 0:
        wall_t, work_t = traced
        untraced_wall = work_t * untraced[0] / untraced[1]
        out["trace.overhead_s"] = (wall_t - untraced_wall, "s")
        out["trace.overhead_frac"] = (
            (wall_t - untraced_wall) / untraced_wall if untraced_wall else 0.0, "ratio")
    return out
