"""Self-time and ``other`` arithmetic of the span recorder."""

from collections import Counter

from tracer import OTHER, Tracer, layer_metrics, overhead_metrics, wrap


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_children_and_fills_other():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf():
        clock.t += 2.0          # 2 s inside matching

    def same_layer_inner():
        clock.t += 0.5          # nested in broker: stays broker time

    def handler():
        clock.t += 1.0          # broker self time
        traced_leaf()
        traced_inner()
        clock.t += 1.0

    traced_leaf = wrap(tracer, "matching", "leaf", leaf)
    traced_inner = wrap(tracer, "broker", "inner", same_layer_inner)
    traced_handler = wrap(tracer, "broker", "handler", handler)

    tracer.begin()
    clock.t += 3.0              # unattributed
    traced_handler()
    clock.t += 0.25             # unattributed
    wall = tracer.end()

    assert wall == 7.75
    assert tracer.self_s["matching"] == 2.0
    assert tracer.self_s["broker"] == 2.5
    assert tracer.self_s[OTHER] == 3.25
    assert sum(tracer.self_s.values()) == wall
    assert tracer.counts == Counter({"handler": 1, "leaf": 1, "inner": 1})
    names = {span[1]: span for span in tracer.spans}
    assert names["leaf"][4] == names["handler"][0]      # parent id
    assert names["handler"][4] == names["drive"][0]
    assert names["drive"][4] is None


def test_wrappers_are_inert_outside_the_root_span():
    tracer = Tracer(clock=FakeClock())
    traced = wrap(tracer, "pfs", "f", lambda x: x + 1)
    assert traced(1) == 2
    assert not tracer.counts and not tracer.self_s


def test_end_from_inside_a_span_drops_the_open_span():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def body():
        clock.t += 1.0
        tracer.end()            # e.g. a signal handler closing the trace
        clock.t += 1.0

    traced = wrap(tracer, "net", "body", body)
    tracer.begin()
    traced()
    assert tracer.root_wall_s == 1.0
    assert sum(tracer.self_s.values()) == 1.0


def test_layer_metrics_ratios_and_overhead():
    counts = Counter({"messages.split_update": 4, "split_straddles": 1,
                      "PersistentFilteringSubsystem.write_batch": 2, "pfs.pairs": 10})
    delta = Counter({"matching.events": 5, "matching.candidates": 20,
                     "matching.probe_hits": 3, "matching.probe_misses": 1})
    out = layer_metrics({"net": 1.0, OTHER: 0.5}, counts, {}, delta)
    assert out["core.knowledge.split_straddle_frac"] == (0.25, "ratio")
    assert out["pfs.pairs_per_batch"] == (5.0, "count")
    assert out["matching.candidates_per_event"] == (4.0, "count")
    assert out["matching.probe_cache_hit_frac"] == (0.75, "ratio")
    assert out["other.self_s"] == (0.5, "s")
    over = overhead_metrics(3.0, untraced=(2.0, 100), traced=(3.0, 100))
    assert over["trace.overhead_s"] == (1.0, "s")
    assert over["trace.overhead_frac"] == (0.5, "ratio")
