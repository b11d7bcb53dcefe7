"""The benchmark trend checker (``benchmarks/trend_check.py``).

The checker is a standalone script (CI invokes it directly), so it is
loaded here via importlib rather than the package import system.
"""

import importlib.util
import json
import os

import pytest

TREND_CHECK = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "trend_check.py"
)


@pytest.fixture(scope="module")
def trend():
    spec = importlib.util.spec_from_file_location("trend_check", TREND_CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFlatten:
    def test_numeric_leaves_by_path(self, trend):
        leaves = trend.flatten({"a": {"b": 1.5}, "c": [{"d": 2}, {"d": 3}]})
        assert leaves == {"a/b": 1.5, "c[0]/d": 2.0, "c[1]/d": 3.0}

    def test_bools_and_strings_skipped(self, trend):
        assert trend.flatten({"ok": True, "name": "x", "n": 1}) == {"n": 1.0}

    def test_metric_key_strips_list_indices(self, trend):
        assert trend.metric_key("points[3]/savings") == "savings"
        assert trend.metric_key("engines/chunked/frames_per_sec") == (
            "frames_per_sec"
        )


class TestCompare:
    def test_identity_passes(self, trend):
        doc = {"savings": 0.5, "frames_per_sec": 1000.0, "untracked": 7.0}
        regressions, notes = trend.compare(doc, doc, 0.10, 0.5)
        assert regressions == [] and notes == []

    def test_quality_drop_beyond_tolerance_fails(self, trend):
        base = {"points": [{"savings": 0.50}]}
        fresh = {"points": [{"savings": 0.40}]}
        regressions, _ = trend.compare(fresh, base, 0.10, 0.5)
        assert len(regressions) == 1
        assert "savings" in regressions[0]

    def test_quality_drop_within_tolerance_passes(self, trend):
        base = {"frontier_size": 20}
        fresh = {"frontier_size": 19}
        regressions, _ = trend.compare(fresh, base, 0.10, 0.5)
        assert regressions == []

    def test_rates_use_loose_tolerance(self, trend):
        base = {"frames_per_sec": 1000.0}
        slow = {"frames_per_sec": 600.0}   # -40%: within rate tolerance
        too_slow = {"frames_per_sec": 400.0}  # -60%: regression
        assert trend.compare(slow, base, 0.10, 0.5)[0] == []
        assert len(trend.compare(too_slow, base, 0.10, 0.5)[0]) == 1

    def test_lower_is_better_keys_gate_rises(self, trend):
        base = {"overhead_fraction": 0.02}
        worse = {"overhead_fraction": 0.05}
        better = {"overhead_fraction": 0.001}
        assert len(trend.compare(worse, base, 0.10, 0.5)[0]) == 1
        assert trend.compare(better, base, 0.10, 0.5)[0] == []

    def test_negative_baseline_identity_passes(self, trend):
        # Telemetry overhead can measure slightly below zero; the band
        # must stay on the correct side of a negative baseline.
        base = {"overhead_fraction": -0.015}
        assert trend.compare(base, base, 0.10, 0.5)[0] == []
        worse = {"overhead_fraction": 0.05}
        assert len(trend.compare(worse, base, 0.10, 0.5)[0]) == 1

    def test_overhead_band_is_absolute_around_zero(self, trend):
        # A lucky below-zero baseline must not fail an honest re-measure
        # that lands a hair above zero; only a rise past the absolute
        # band regresses.
        base = {"overhead_fraction": -0.0195}
        noisy = {"overhead_fraction": 0.011}
        past_band = {"overhead_fraction": base["overhead_fraction"]
                     + trend.LOWER_ABS_BAND + 0.025}
        assert trend.compare(noisy, base, 0.10, 0.5)[0] == []
        assert len(trend.compare(past_band, base, 0.10, 0.5)[0]) == 1

    def test_untracked_keys_never_gate(self, trend):
        base = {"seconds": 1.0, "distortion_emd": 5.0}
        fresh = {"seconds": 100.0, "distortion_emd": 50.0}
        assert trend.compare(fresh, base, 0.10, 0.5) == ([], [])

    def test_vanished_metric_is_a_note_not_a_failure(self, trend):
        base = {"savings": 0.5}
        regressions, notes = trend.compare({}, base, 0.10, 0.5)
        assert regressions == []
        assert len(notes) == 1 and "gone" in notes[0]


class TestWithinFileGates:
    def network(self, **engines):
        row = {"sessions_per_sec": 10.0, "frames_per_sec": 1000.0,
               "latency": {"ttff_mean_s": 0.1}}
        stall = {"reconnect_to_first_frame_ms": {"median": 10.0}}
        payload = {"sessions": 8, "admission": {"frames_per_sec": 1000.0},
                   "engines": {"perframe": row, "chunked": dict(row)},
                   "resume": {"kill_at_10pct": stall, "kill_at_90pct": stall}}
        for kind, fields in engines.items():
            payload["engines"][kind] = {**payload["engines"][kind], **fields}
        return payload

    @pytest.mark.parametrize(
        "name", ["BENCH_serving.json", "BENCH_engine.json", "BENCH_network.json"]
    )
    def test_committed_results_pass(self, trend, name):
        with open(os.path.join(trend.RESULTS_DIR, name)) as fh:
            failures, _ = trend.comparative(json.load(fh), name)
        assert failures == []

    def test_network_passes_when_healthy(self, trend):
        assert trend.comparative(self.network(), "BENCH_network.json")[0] == []

    def test_chunked_ttff_over_twice_perframe_fails(self, trend):
        slow = self.network(chunked={"latency": {"ttff_mean_s": 0.25}})
        failures, _ = trend.comparative(slow, "BENCH_network.json")
        assert any("ttff_mean_s" in line for line in failures)

    def test_frames_per_sec_floor_scales_with_sessions(self, trend):
        # 8 sessions need 192 frames/s per engine; 191 fails.
        slow = self.network(perframe={"frames_per_sec": 191.0})
        failures, _ = trend.comparative(slow, "BENCH_network.json")
        assert any("engines/perframe/frames_per_sec" in line for line in failures)

    def test_serving_and_lut_floors(self, trend):
        serving = {"engines": {"chunked": {"speedup_vs_perframe": 1.9}}}
        engine = {"compensate_only": {"lut_speedup_vs_float": 1.4}}
        assert trend.comparative(serving, "BENCH_serving.json")[0]
        assert trend.comparative(engine, "BENCH_engine.json")[0]


class TestMain:
    def test_missing_baseline_is_skipped(self, trend, tmp_path, capsys):
        path = tmp_path / "BENCH_new.json"
        path.write_text(json.dumps({"savings": 0.5}))
        assert trend.main([str(path)]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_committed_pareto_baseline_passes_against_itself(self, trend, capsys):
        """Identity comparison of the committed Pareto results must pass."""
        path = os.path.join(
            os.path.dirname(TREND_CHECK), "results", "BENCH_policy_pareto.json"
        )
        if trend.baseline_from_git(
            os.path.relpath(path, trend.REPO_ROOT), "HEAD"
        ) is None:
            pytest.skip("BENCH_policy_pareto.json not committed yet")
        baseline = trend.baseline_from_git(
            os.path.relpath(path, trend.REPO_ROOT), "HEAD"
        )
        regressions, _ = trend.compare(baseline, baseline, 0.10, 0.5)
        assert regressions == []
