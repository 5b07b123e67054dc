"""The conversion of measured times to the reference box's."""

import pytest

from e2e import yardstick


def test_speed_is_the_reference_over_the_mean_kernel_time():
    ref = yardstick.REFERENCE_S
    assert yardstick.speed([ref] * 5) == pytest.approx(1.0)
    # half of the window a quarter slower: throughput follows the mean
    assert yardstick.speed([ref] * 20 + [ref * 1.5] * 20) == pytest.approx(
        1 / 1.2368, rel=1e-3)
    # the slowest twentieth (a collection inside the kernel) is dropped
    assert yardstick.speed([ref * 1.25] * 19 + [ref * 40]) == pytest.approx(
        0.8)


def test_the_kernel_does_its_work_and_times_it():
    samples = yardstick.burst()
    assert len(samples) == 20 and all(0 < s < 0.1 for s in samples)
