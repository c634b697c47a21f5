"""Tests for the simulation instrumentation."""

import math

import numpy as np
import pytest

from repro.des import CumulativeFlow, DelayStats, StepSeries


class TestStepSeries:
    def test_record_and_extrema(self):
        s = StepSeries(0.0)
        s.record(1.0, 5.0)
        s.record(2.0, 3.0)
        assert s.value == 3.0
        assert s.max == 5.0
        assert s.min == 0.0

    def test_add(self):
        s = StepSeries(10.0)
        s.add(1.0, -4.0)
        s.add(2.0, 1.0)
        assert s.value == 7.0

    def test_same_time_overwrites(self):
        s = StepSeries(0.0)
        s.record(1.0, 5.0)
        s.record(1.0, 6.0)
        assert s.value == 6.0
        assert len(s) == 2

    def test_time_must_advance(self):
        s = StepSeries(0.0)
        s.record(2.0, 1.0)
        with pytest.raises(ValueError):
            s.record(1.0, 0.0)

    def test_time_average(self):
        s = StepSeries(0.0)
        s.record(1.0, 10.0)  # 0 on [0,1), 10 on [1,2]
        assert s.time_average(2.0) == pytest.approx(5.0)
        assert s.time_average(1.0) == pytest.approx(0.0)
        s2 = StepSeries(3.0)
        assert s2.time_average(0.0) == 3.0
        with pytest.raises(ValueError):
            s2.time_average(-1.0)

    def test_arrays(self):
        s = StepSeries(1.0)
        s.record(2.0, 4.0)
        t, v = s.arrays()
        assert list(t) == [0.0, 2.0]
        assert list(v) == [1.0, 4.0]


class TestCumulativeFlow:
    def test_accumulates(self):
        f = CumulativeFlow()
        f.add(1.0, 10.0)
        f.add(2.0, 5.0)
        f.add(2.0, 5.0)  # same-instant increments merge
        assert f.total == 20.0
        assert f.last_time == 2.0

    def test_throughput(self):
        f = CumulativeFlow()
        f.add(1.0, 10.0)
        f.add(2.0, 10.0)
        assert f.throughput() == pytest.approx(10.0)
        assert f.throughput(1.0, 2.0) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            f.throughput(2.0, 2.0)

    def test_validation(self):
        f = CumulativeFlow()
        f.add(1.0, 1.0)
        with pytest.raises(ValueError):
            f.add(0.5, 1.0)
        with pytest.raises(ValueError):
            f.add(2.0, -1.0)

    def test_arrays_monotone(self):
        f = CumulativeFlow()
        for t in range(1, 6):
            f.add(float(t), 2.0)
        ts, cs = f.arrays()
        assert np.all(np.diff(cs) >= 0)
        assert cs[-1] == 10.0

    def test_arrays_are_built_once_read_only_until_the_next_add(self):
        f = CumulativeFlow()
        f.add(1.0, 2.0)
        ts, cs = f.arrays()
        again = f.arrays()
        assert again[0] is ts and again[1] is cs
        assert not ts.flags.writeable and not cs.flags.writeable
        with pytest.raises(ValueError):
            cs[-1] = 0.0
        f.add(2.0, 3.0)
        ts2, cs2 = f.arrays()
        assert ts2.tolist() == [0.0, 1.0, 2.0] and cs2.tolist() == [0.0, 2.0, 5.0]
        assert ts.tolist() == [0.0, 1.0] and cs.tolist() == [0.0, 2.0]
        f.add(2.0, 1.0)  # merges into the last step
        assert f.arrays()[1].tolist() == [0.0, 2.0, 6.0]

    def test_arrays_of_a_flow_from_samples(self):
        f = CumulativeFlow.from_samples([0.0, 1.0], [0.0, 4.0])
        ts, cs = f.arrays()
        assert f.arrays()[0] is ts
        assert ts.tolist() == [0.0, 1.0] and cs.tolist() == [0.0, 4.0]
        assert not cs.flags.writeable


class TestDelayStats:
    def test_stats(self):
        d = DelayStats()
        for v in [3.0, 1.0, 2.0]:
            d.record(v)
        assert d.count == 3
        assert d.min == 1.0
        assert d.max == 3.0
        assert d.mean == pytest.approx(2.0)
        assert d.percentile(50) == pytest.approx(2.0)

    def test_empty_is_nan(self):
        d = DelayStats()
        assert math.isnan(d.min)
        assert math.isnan(d.max)
        assert math.isnan(d.mean)
        assert math.isnan(d.percentile(99))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DelayStats().record(-1.0)
