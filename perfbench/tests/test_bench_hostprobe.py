"""Scaling job times by the host probe."""

import pytest

import hostprobe

REF = hostprobe.INTERPRETED.reference_s


def test_without_probes_times_are_not_scaled():
    assert hostprobe.factors([0.0, 1.0], [], REF) == [1.0, 1.0]


def test_a_job_is_scaled_by_the_probes_nearest_to_it():
    # The host runs at reference speed until t=5, then twice as slow.
    probes = [(float(t), REF if t < 5 else 2 * REF) for t in range(10)]
    fast, edge, slow = hostprobe.factors([1.2, 4.4, 8.9], probes, REF, nearest=3)
    assert fast == pytest.approx(1.0)
    assert edge == pytest.approx(1.0)  # probes at 3, 4 and 5: median REF
    assert slow == pytest.approx(0.5)


def test_one_slow_probe_among_its_neighbours_does_not_move_the_factor():
    probes = [(0.0, REF), (1.0, 9 * REF), (2.0, REF)]
    assert hostprobe.factors([1.0], probes, REF, nearest=3) == [pytest.approx(1.0)]


def test_the_probes_do_the_same_work_every_time():
    assert hostprobe.interpreted_work() == hostprobe.interpreted_work()
    assert hostprobe.mixed_work() == 1280.0 + 3 * hostprobe.interpreted_work()
    for probe in (hostprobe.INTERPRETED, hostprobe.MIXED, hostprobe.CHILD):
        assert probe.run() > 0
