"""The host probe's rescaling of a chunk's wall time."""

import pytest

from common import HostProbe


def test_rescales_by_the_mean_of_the_passes_around_the_chunk(monkeypatch):
    probe = HostProbe()
    probe.samples[-1] = 0.080  # the pass before the chunk: a slow host
    after = iter([0.040])

    def measure():
        probe.samples.append(next(after))
        return probe.samples[-1]

    monkeypatch.setattr(probe, "measure", measure)
    assert probe.reference_s(3.0) == pytest.approx(3.0 * HostProbe.PROBE_REF_S / 0.060)
    assert probe.samples[-2:] == [0.080, 0.040]


def test_a_pass_does_the_same_work_every_time():
    first, second = HostProbe(), HostProbe()
    assert first.order == second.order
    assert len(first.samples) == 1 and first.measure() > 0
