"""The slice-correction math, on synthetic samples."""

import time

import pytest

from speed import CorrectedClock, SpeedSampler


def test_constant_speed_scales_wall_time():
    # Three 0.1 s slices; the kernel ran at half the reference speed.
    clock = CorrectedClock([0.0, 0.11, 0.22], [0.1, 0.21, 0.32], [0.01] * 3,
                           reference=0.005)
    assert clock(0.32) == pytest.approx(0.15)


def test_each_slice_uses_its_own_kernel_sample():
    # Slice 0 at reference speed, slice 1 at a third of it.
    clock = CorrectedClock([0.0, 1.002], [1.0, 2.002], [0.002, 0.006], reference=0.002)
    assert clock(1.0) == pytest.approx(1.0)
    assert clock(2.002) == pytest.approx(1.0 + 1.0 / 3)
    assert clock(1.502) == pytest.approx(1.0 + 0.5 / 3)


def test_kernel_time_and_time_outside_slices_count_nothing():
    clock = CorrectedClock([0.0, 1.5], [1.0, 2.5], [0.5, 0.5], reference=0.5)
    assert clock(-1.0) == 0.0
    assert clock(1.0) == clock(1.2) == clock(1.5) == pytest.approx(1.0)
    assert clock(2.5) == clock(9.0) == pytest.approx(2.0)


def test_sampler_phase_is_positive_and_excludes_its_own_cost():
    sampler = SpeedSampler(origin=time.perf_counter())
    sampler.start()
    begin = sampler.mark()
    deadline = time.perf_counter() + 0.35
    while time.perf_counter() < deadline:
        pass
    end = sampler.stop()
    clock = sampler.clock()
    evidence = sampler.evidence(begin, end)
    assert evidence["samples"] >= 3
    assert clock(end) - clock(begin) > 0.0
    assert evidence["sampler_s"] < end - begin
    assert evidence["kernel_ms_q1"] <= evidence["kernel_ms_q2"] <= evidence["kernel_ms_q3"]
