"""Unit tests for repro.experiments (the programmatic reproduction API)."""

import numpy as np
import pytest

from repro import experiments

FAST = dict(resolution=(48, 36), duration_scale=0.08)


class TestFigure9:
    @pytest.fixture(scope="class")
    def fig9(self):
        return experiments.figure9(names=("catwoman", "ice_age"), **FAST)

    def test_rows_per_clip(self, fig9):
        assert set(fig9.rows) == {"catwoman", "ice_age"}
        assert all(len(v) == len(fig9.qualities) for v in fig9.rows.values())

    def test_monotone(self, fig9):
        for row in fig9.rows.values():
            assert all(b >= a - 1e-9 for a, b in zip(row, row[1:]))

    def test_best_clip(self, fig9):
        name, value = fig9.best_clip()
        assert name == "catwoman"
        assert value == fig9.rows["catwoman"][-1]

    def test_format_contains_clips(self, fig9):
        text = fig9.format()
        assert "catwoman" in text and "20%" in text


class TestFigure10:
    def test_measured_savings_band(self):
        fig10 = experiments.figure10(names=("catwoman",), **FAST)
        row = fig10.rows["catwoman"]
        assert all(-0.05 <= v <= 0.5 for v in row)
        assert row[-1] > row[0]

    def test_row_independent_of_earlier_clips(self):
        """DAQ runs are numbered by quality index within each clip."""
        pair = experiments.figure10(names=("catwoman", "ice_age"), **FAST)
        alone = experiments.figure10(names=("ice_age",), **FAST)
        assert pair.rows["ice_age"] == alone.rows["ice_age"]

    def test_kind_label(self):
        fig10 = experiments.figure10(names=("ice_age",), qualities=(0.0,), **FAST)
        assert fig10.kind == "total-device"


class TestFigure6:
    def test_trace_shapes(self):
        trace = experiments.figure6("themovie", **FAST)
        n = trace.times_s.size
        assert trace.frame_max_luminance.shape == (n,)
        assert trace.scene_max_luminance.shape == (n,)
        assert trace.instantaneous_savings.shape == (n,)
        assert trace.scene_count >= 1

    def test_scene_dominates_frame(self):
        trace = experiments.figure6("spiderman2", **FAST)
        assert np.all(trace.scene_max_luminance >= trace.frame_max_luminance - 1e-9)

    def test_format(self):
        trace = experiments.figure6("themovie", **FAST)
        assert "power_saved" in trace.format()


class TestFigure7:
    @pytest.fixture(scope="class")
    def fig7(self):
        return experiments.figure7()

    def test_curve_per_device(self, fig7):
        assert set(fig7.curves) == {"ipaq5555", "ipaq3650", "zaurus_sl5600"}

    def test_monotone_curves(self, fig7):
        for curve in fig7.curves.values():
            assert all(b >= a - 0.02 for a, b in zip(curve, curve[1:]))

    def test_format_alignment(self, fig7):
        lines = fig7.format().splitlines()
        assert len(lines) == len(fig7.levels) + 1


class TestBacklightShare:
    def test_shares_in_band(self):
        breakdown = experiments.backlight_share()
        for name in breakdown.rows:
            assert 0.2 <= breakdown.share(name) <= 0.45

    def test_total_is_sum(self):
        breakdown = experiments.backlight_share()
        for row in breakdown.rows.values():
            parts = row["base"] + row["cpu"] + row["network"] + row["panel"] + row["backlight"]
            assert row["total"] == pytest.approx(parts)

    def test_format(self):
        assert "share" in experiments.backlight_share().format()


class TestFigure8:
    def test_white_sweep_shape(self):
        sweep = experiments.figure8()
        assert len(sweep.brightness_at_full) == len(sweep.gray_levels)
        assert sweep.fitted_gamma == pytest.approx(1.0, abs=0.1)

    def test_half_backlight_darker(self):
        sweep = experiments.figure8()
        assert sweep.brightness_at_half[-1] < sweep.brightness_at_full[-1]

    def test_format(self):
        assert "gamma" in experiments.figure8().format()
