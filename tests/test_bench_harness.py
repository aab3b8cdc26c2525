"""The benchmark harness utilities."""

import pytest

from repro.bench.harness import Table, geometric_mean, median, time_call


class TestStats:
    def test_median_odd(self):
        assert median([3, 1, 2]) == 2

    def test_median_even(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_median_empty(self):
        with pytest.raises(ValueError):
            median([])

    def test_geometric_mean(self):
        assert geometric_mean([1, 100]) == pytest.approx(10.0)

    def test_time_call_returns_result(self):
        seconds, result = time_call(lambda: 42, repeat=2)
        assert result == 42
        assert seconds >= 0


class TestTable:
    def test_render_alignment(self):
        table = Table("demo", ["a", "b"])
        table.add("row1", a=1, b=2.5)
        table.add("row2", a=100)
        text = table.render()
        lines = text.splitlines()
        assert lines[0] == "== demo =="
        assert "case" in lines[1]
        assert "-" in lines[2]
        assert "row1" in lines[3] and "2.50" in lines[3]
        assert "row2" in lines[4] and "-" in lines[4]  # missing column

    def test_unknown_column_rejected(self):
        table = Table("demo", ["a"])
        with pytest.raises(KeyError):
            table.add("row", b=1)

    def test_float_formatting(self):
        table = Table("demo", ["v"])
        table.add("big", v=1234.5)
        table.add("mid", v=12.345)
        table.add("small", v=0.01234)
        table.add("zero", v=0.0)
        text = table.render()
        assert "1234" in text and "12.35" in text
        assert "0.0123" in text


class TestOracleError:
    def test_equivalence_error_describes_mismatch(self):
        from repro.core.change import Change
        from repro.core.delta import DeltaReport, ReachSegment
        from repro.core.oracle import EquivalenceError

        got = DeltaReport("got")
        ref = DeltaReport("ref")
        ref.reach_segments = [ReachSegment(0, 10, added=frozenset({("a", "b")}))]
        error = EquivalenceError(Change.of(label="test change"), got, ref)
        message = str(error)
        assert "test change" in message
        assert "missing" in message
