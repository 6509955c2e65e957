from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr.timeseries import SplitSpec, TimeSeries, load_csv, mape, mape_rows, save_csv, split


def series(values, start=date(2008, 1, 3)):
    dates = []
    d = start
    while len(dates) < len(values):
        if d.weekday() < 5:
            dates.append(d)
        d += timedelta(days=1)
    return TimeSeries(tuple(dates), tuple(float(v) for v in values))


positive_values = st.lists(
    st.floats(min_value=0.01, max_value=1e7, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=60,
)


class TestInvariants:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries((), ())

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            series([100.0, 0.0])
        with pytest.raises(ValueError, match="non-positive"):
            series([100.0, -5.0])

    def test_unsorted_dates_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            TimeSeries((date(2008, 1, 4), date(2008, 1, 3)), (1.0, 2.0))

    def test_duplicate_dates_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            TimeSeries((date(2008, 1, 3), date(2008, 1, 3)), (1.0, 2.0))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries((date(2008, 1, 3),), (1.0, 2.0))


class TestLoadCsv:
    def test_two_plain_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("2008-01-03,1447.16\n2008-01-04,1411.63\n")
        ts = load_csv(p)
        assert len(ts) == 2
        assert ts.dates[0] == date(2008, 1, 3)
        assert ts.values == (1447.16, 1411.63)

    def test_zero_value_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("2008-01-03,0.0\n")
        with pytest.raises(ValueError, match="non-positive"):
            load_csv(p)

    def test_header_plus_252_rows(self, tmp_path):
        # Row count must equal an independent count of data lines written.
        p = tmp_path / "t.csv"
        d = date(2008, 1, 2)
        lines = ["date,close"]
        while len(lines) - 1 < 252:
            if d.weekday() < 5:
                lines.append(f"{d.isoformat()},{100 + (len(lines) % 7)}")
            d += timedelta(days=1)
        p.write_text("\n".join(lines) + "\n")
        assert len(lines) - 1 == 252
        assert len(load_csv(p)) == 252

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.csv"
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            load_csv(missing)

    def test_bad_row_reports_line_number(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("2008-01-03,100\nnot-a-date,5\n")
        with pytest.raises(ValueError, match=r":2:"):
            load_csv(p)

    def test_bad_value_reports_line_number(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("2008-01-03,100\n2008-01-04,abc\n")
        with pytest.raises(ValueError, match=r":2:"):
            load_csv(p)

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("2008-01-03,1,2\n")
        with pytest.raises(ValueError, match="fields"):
            load_csv(p)

    def test_duplicate_date_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("2008-01-03,100\n2008-01-03,101\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_csv(p)

    def test_unsorted_input_is_sorted(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("2008-01-04,2\n2008-01-03,1\n")
        ts = load_csv(p)
        assert ts.values == (1.0, 2.0)

    def test_round_trip(self, tmp_path):
        ts = series([100.0, 101.5, 99.875, 1447.16])
        save_csv(ts, tmp_path / "out.csv")
        assert load_csv(tmp_path / "out.csv") == ts


class TestSplit:
    def test_year_end_boundary(self):
        dates = (date(2008, 12, 30), date(2008, 12, 31), date(2009, 1, 2), date(2009, 1, 5))
        ts = TimeSeries(dates, (1.0, 2.0, 3.0, 4.0))
        train, test = split(ts, SplitSpec(date(2008, 12, 31)))
        assert train.end == date(2008, 12, 31)
        assert test.start == date(2009, 1, 2)

    def test_two_point_series(self):
        ts = series([1.0, 2.0])
        train, test = split(ts, SplitSpec(ts.dates[0]))
        assert train.values == (1.0,) and test.values == (2.0,)

    def test_boundary_between_observations(self):
        # A non-trading boundary date partitions by <= without error.
        ts = TimeSeries((date(2008, 1, 4), date(2008, 1, 7)), (1.0, 2.0))
        train, test = split(ts, SplitSpec(date(2008, 1, 5)))
        assert train.values == (1.0,) and test.values == (2.0,)

    def test_boundary_outside_range(self):
        ts = series([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            split(ts, SplitSpec(ts.start - timedelta(days=1)))
        with pytest.raises(ValueError):
            split(ts, SplitSpec(ts.end))  # would leave test empty

    @given(positive_values.filter(lambda v: len(v) >= 2), st.data())
    @settings(max_examples=50)
    def test_split_then_concat_is_identity(self, values, data):
        ts = series(values)
        k = data.draw(st.integers(min_value=0, max_value=len(values) - 2))
        train, test = split(ts, SplitSpec(ts.dates[k]))
        assert train.dates + test.dates == ts.dates
        assert train.values + test.values == ts.values


class TestMape:
    def test_identity_is_zero(self):
        ts = series([100.0, 250.5, 3.125])
        assert mape(ts, ts) == 0.0

    def test_hand_case(self):
        actual = series([100.0, 200.0])
        predicted = series([110.0, 180.0])
        # (|100-110|/100 + |200-180|/200) / 2 = (0.10 + 0.10) / 2
        assert mape(actual, predicted) == pytest.approx(0.10, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            mape(series([1.0, 2.0]), series([1.0]))

    def test_date_mismatch(self):
        a = series([1.0, 2.0], start=date(2008, 1, 3))
        b = series([1.0, 2.0], start=date(2008, 1, 4))
        with pytest.raises(ValueError, match="date mismatch"):
            mape(a, b)

    @given(positive_values)
    @settings(max_examples=100)
    def test_never_negative_and_zero_on_self(self, values):
        ts = series(values)
        assert mape(ts, ts) == 0.0

    @given(
        positive_values,
        st.data(),
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_scale_invariance(self, values, data, c):
        other = data.draw(
            st.lists(
                st.floats(min_value=0.01, max_value=1e7, allow_nan=False),
                min_size=len(values),
                max_size=len(values),
            )
        )
        x = series(values)
        y = series(other)
        cx = series([v * c for v in values])
        cy = series([v * c for v in other])
        assert mape(cx, cy) == pytest.approx(mape(x, y), rel=1e-12, abs=1e-15)

    def test_reversed_but_realigned_equals_original(self):
        x = series([100.0, 120.0, 90.0, 130.0])
        y = series([101.0, 118.0, 95.0, 120.0])
        xr = series(list(x.values)[::-1])
        yr = series(list(y.values)[::-1])
        assert mape(xr, yr) == pytest.approx(mape(x, y), abs=1e-12)

    def test_matches_independent_numpy_evaluation(self):
        x = series([123.0, 456.0, 789.0, 1011.0])
        y = series([120.0, 460.0, 800.0, 1000.0])
        expected = float(
            np.mean([abs(a - b) / a for a, b in zip(x.values, y.values)])
        )
        assert mape(x, y) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 7, 60, 129, 390, 1000])
    def test_rows_equal_one_dimensional_mean_bit_for_bit(self, n):
        # The row reduction must round like np.mean over each row alone.
        rng = np.random.default_rng(n)
        actual = series(rng.uniform(50.0, 150.0, n))
        predicted = rng.uniform(50.0, 150.0, (3, 4, n))
        rows = mape_rows(actual, predicted)
        assert rows.shape == (3, 4)
        x = np.array(actual.values)
        for idx in np.ndindex(3, 4):
            assert float(rows[idx]).hex() == float(np.mean(np.abs(x - predicted[idx]) / x)).hex()
