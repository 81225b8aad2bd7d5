import pytest

from perfbench import stats
from perfbench.run import busy_seconds


def test_min_samples_leaves_ten_beyond_the_percentile():
    assert stats.min_samples(90) == 100
    assert stats.min_samples(50) == 20
    assert stats.min_samples(99) == 1000


def test_p90_of_100_samples_has_ten_beyond_it():
    values = list(range(1, 101))
    p90 = stats.percentile(values, 90)
    assert p90 == 90
    assert sum(v > p90 for v in values) == 10


def test_percentile_refuses_a_thin_tail():
    with pytest.raises(ValueError, match="at least 100"):
        stats.percentile(list(range(99)), 90)


def test_percentile_is_nearest_rank_and_order_free():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
    assert stats.percentile(values, 50) == 3.0
    assert stats.median([4, 1, 3, 2]) == 2.5


def test_error_rate_counts_each_failed_access_once():
    out = stats.Outcomes()
    ids = [out.attempt() for _ in range(8)]
    out.fail(ids[1], "exception")
    out.fail(ids[1], "byte mismatch")  # same access, still one failure
    out.fail(ids[5], "timeout")
    assert (out.attempted, out.failed) == (8, 2)
    assert out.error_rate == 0.25
    assert len(out.reasons) == 2


def test_error_rate_rejects_unknown_access():
    out = stats.Outcomes()
    out.attempt()
    with pytest.raises(ValueError):
        out.fail(2, "never attempted")
    assert stats.Outcomes().error_rate == 0.0


def test_busy_seconds_is_the_union_of_intervals():
    assert busy_seconds([(0, 1), (0.5, 2), (3, 4)]) == 3
    assert busy_seconds([(3, 4), (0, 1)]) == 2
    assert busy_seconds([]) == 0


class FakeMonitor:
    """Steal share per access start time."""

    def __init__(self, steal):
        self.steal = steal

    def steal_during(self, start, stop):
        return self.steal[start]


def test_quiet_accesses_are_used_when_there_are_enough():
    from perfbench.run import Phase

    phase = Phase(["list"])
    phase.intervals["list"] = [(i, i + 0.5) for i in range(6)]
    monitor = FakeMonitor([0.0, 0.5, 0.01, 0.3, 0.0, 0.02])
    assert phase.usable("list", monitor) == [(0, 0.5), (2, 2.5), (4, 4.5),
                                             (5, 5.5)]
    assert phase.least_disturbed("list", monitor, 3) == phase.usable("list",
                                                                     monitor)


def test_least_disturbed_fills_up_in_order_of_steal():
    from perfbench.run import Phase

    phase = Phase(["list"])
    phase.intervals["list"] = [(i, i + 0.5) for i in range(5)]
    monitor = FakeMonitor([0.3, 0.1, 0.05, 0.2, 0.1])
    # two quiet-enough accesses are missing: take the 3 least disturbed,
    # earliest first among equals, in time order
    assert phase.least_disturbed("list", monitor, 3) == [(1, 1.5), (2, 2.5),
                                                         (4, 4.5)]
