"""Arithmetic of the host-speed normalisation, on hand-made kernel samples."""

import pytest

from hostspeed import NOMINAL_KERNEL_S, SMOOTH, WARMUP, SpeedProbe, kernel


def probe_with(samples):
    probe = SpeedProbe()
    for start, duration in samples:
        probe.starts.append(start)
        probe.durations.append(duration)
    return probe


def test_probe_time_inside_the_op_is_removed_and_speed_scales():
    k = 2.0 * NOMINAL_KERNEL_S              # host at half the nominal speed
    probe = probe_with([(t, k) for t in (0.0, 10.5, 11.0, 100.0)])
    # op from 10 to 12 s: two samples ran inside it
    expected = (2.0 - 2 * k) * NOMINAL_KERNEL_S / k
    assert probe.normalise(10.0, 12.0) == pytest.approx(expected)


def test_each_stretch_runs_at_the_smoothed_speed_of_its_sample():
    slow, fast = 2.0 * NOMINAL_KERNEL_S, 0.5 * NOMINAL_KERNEL_S
    # one odd sample among five is outvoted by the running median
    durations = [slow] * (SMOOTH + 3) + [fast] * (2 * SMOOTH + 3)
    durations[1] = fast
    probe = probe_with([(float(i), d) for i, d in enumerate(durations)])
    shift = SMOOTH + 3                      # first sample of the fast stretch
    # op from 1.5 s to the shift: slow throughout, one sample inside per second
    inside = [d for i, d in enumerate(durations) if 1.5 < i < shift]
    expected = (shift - 1.5 - sum(inside)) * NOMINAL_KERNEL_S / slow
    assert probe.normalise(1.5, float(shift)) == pytest.approx(expected)
    # an op across the shift: 0.5 s slow, then 1.5 s fast with two samples
    crossing = probe.normalise(shift - 0.5, shift + 1.5)
    slow_part = 0.5 * NOMINAL_KERNEL_S / slow
    fast_part = (1.5 - 2 * fast) * NOMINAL_KERNEL_S / fast
    assert crossing == pytest.approx(slow_part + fast_part)


def test_before_the_first_sample_the_first_speed_holds():
    probe = probe_with([(5.0, NOMINAL_KERNEL_S)])
    assert probe.normalise(1.0, 2.0) == pytest.approx(1.0)


def test_probe_samples_while_code_runs():
    probe = SpeedProbe()
    probe.start()
    try:
        for _ in range(200):
            kernel()
    finally:
        probe.stop()
    # warm-up samples, at least one timer tick, and the closing sample
    assert len(probe.starts) >= WARMUP + 2
    assert probe.starts == sorted(probe.starts)
