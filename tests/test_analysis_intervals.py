"""Unit tests for the interval domain underneath fhecheck."""

import pytest

from repro.analysis.intervals import U64_MAX, Interval, IntervalVec


class TestInterval:
    def test_constructors(self):
        assert Interval.const(7) == Interval(7, 7)
        assert Interval.reduced(10) == Interval(0, 9)
        assert Interval.upto(5) == Interval(0, 5)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Interval(3, 2)
        with pytest.raises(ValueError):
            Interval(-1, 2)


class TestIntervalVec:
    def test_arithmetic_is_exact_python_int(self):
        q = (1 << 61) - 1
        big = IntervalVec.reduced(2, q)
        prod = big.mul(big)
        assert prod.max_hi == (q - 1) ** 2 > U64_MAX  # no float, no wrap

    def test_exact_and_lane_access(self):
        v = IntervalVec.exact([3, 1, 4])
        assert len(v) == 3
        assert v.lane(1) == Interval.const(1)
        assert v.max_hi == 4

    def test_every_and_interleave_roundtrip(self):
        v = IntervalVec.exact(range(8))
        even, odd = v.every(0, 2), v.every(1, 2)
        back = IntervalVec.interleave(even, odd)
        assert [back.lane(i) for i in range(8)] == \
            [v.lane(i) for i in range(8)]

    def test_permute_tracks_lanes(self):
        v = IntervalVec.exact([10, 20, 30, 40])
        rot = v.permute([1, 2, 3, 0])  # dst lane i <- src lane i+1
        assert rot.lo == (20, 30, 40, 10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            IntervalVec.exact([1, 2]).mul(IntervalVec.exact([1, 2, 3]))

    def test_mul_per_lane(self):
        a = IntervalVec.exact([2, 3])
        b = IntervalVec.exact([5, 7])
        assert a.mul(b).hi == (10, 21)
