"""Series-agreement statistics and stance-profile shape analysis."""

import numpy as np
import pytest

from gaitkinetics.errors import InputError
from gaitkinetics.metrics import (
    AxisComparison,
    compare,
    stance_vgrf_shape,
    write_comparison_csv,
    write_comparison_text,
)
from gaitkinetics.signal import UniformSeries


def _random_series(seed, n=500, channels=3, rate=200.0):
    rng = np.random.default_rng(seed)
    return UniformSeries(rate, rng.standard_normal((channels, n)))


# ------------------------------------------------------------------ compare


def test_identical_series_agree_exactly():
    a = _random_series(1)
    report = compare(a, UniformSeries(a.sample_rate_hz, a.values.copy()))
    assert report.sample_count == 500
    for entry in report.axes:
        assert entry.rmse == 0.0
        assert entry.mean_bias == 0.0
        assert entry.bias_compensated_rmse == 0.0


def test_pure_vertical_offset_is_all_bias():
    b = _random_series(2)
    shifted = b.values.copy()
    shifted[2] += 0.072
    report = compare(UniformSeries(b.sample_rate_hz, shifted), b)
    z = report.axis("z")
    assert abs(z.mean_bias - 0.072) <= 1e-12
    assert z.bias_compensated_rmse <= 1e-12
    for name in ("x", "y"):
        entry = report.axis(name)
        assert entry.rmse == 0.0 and entry.mean_bias == 0.0


def test_swapping_the_series_negates_the_bias():
    a, b = _random_series(3), _random_series(4)
    fwd = compare(a, b)
    rev = compare(b, a)
    for name in ("x", "y", "z"):
        assert rev.axis(name).mean_bias == -fwd.axis(name).mean_bias
        assert rev.axis(name).rmse == fwd.axis(name).rmse
        assert (
            rev.axis(name).bias_compensated_rmse
            == fwd.axis(name).bias_compensated_rmse
        )


def test_statistics_scale_linearly():
    a, b = _random_series(5), _random_series(6)
    base = compare(a, b)
    doubled = compare(
        UniformSeries(a.sample_rate_hz, 2.0 * a.values),
        UniformSeries(b.sample_rate_hz, 2.0 * b.values),
    )
    for name in ("x", "y", "z"):
        assert doubled.axis(name).rmse == 2.0 * base.axis(name).rmse
        assert doubled.axis(name).mean_bias == 2.0 * base.axis(name).mean_bias


def test_bias_and_compensated_rmse_decompose_the_total():
    a, b = _random_series(7), _random_series(8)
    for entry in compare(a, b).axes:
        # rmse^2 = bias^2 + compensated^2 (independent algebraic route)
        gap = entry.bias_compensated_rmse**2 + entry.mean_bias**2 - entry.rmse**2
        assert abs(gap) <= 1e-12 * max(1.0, entry.rmse**2)


def test_compare_validates_alignment():
    a = _random_series(11)
    with pytest.raises(InputError, match="rates differ"):
        compare(a, UniformSeries(100.0, a.values))
    with pytest.raises(InputError, match="shapes differ"):
        compare(a, UniformSeries(a.sample_rate_hz, a.values[:, :-1]))
    with pytest.raises(InputError, match="no axis"):
        compare(a, a).axis("w")


def test_axis_names_follow_the_channel_count():
    a = _random_series(12, channels=2)
    report = compare(a, a)
    assert [entry.axis for entry in report.axes] == ["ch0", "ch1"]
    report3 = compare(_random_series(13), _random_series(13))
    assert [entry.axis for entry in report3.axes] == ["x", "y", "z"]


def test_axis_comparison_rejects_impossible_statistics():
    with pytest.raises(InputError, match="non-negative"):
        AxisComparison(axis="z", rmse=-1.0, mean_bias=0.0, bias_compensated_rmse=0.0)
    with pytest.raises(InputError, match="cannot increase"):
        AxisComparison(axis="z", rmse=1.0, mean_bias=0.0, bias_compensated_rmse=2.0)


# --------------------------------------------------------------- stance shape


def test_m_shaped_profile_is_recognized():
    shape = stance_vgrf_shape([0.2, 1.1, 0.9, 0.8, 0.9, 1.1, 0.2], 1.0)
    assert shape.is_m_shaped
    assert shape.first_peak_bw == 1.1
    assert shape.valley_bw == 0.8
    assert shape.second_peak_bw == 1.1


def test_profiles_without_two_peaks_fall_back_to_global_extrema():
    ramp = stance_vgrf_shape(np.linspace(0.1, 1.0, 10), 1.0)
    assert not ramp.is_m_shaped
    assert ramp.first_peak_bw == 1.0
    assert ramp.second_peak_bw == 1.0
    assert ramp.valley_bw == 0.1
    triangle = stance_vgrf_shape([0.0, 1.0, 0.0], 1.0)
    assert not triangle.is_m_shaped
    assert triangle.first_peak_bw == 1.0
    assert triangle.valley_bw == 0.0


def test_shape_verdict_is_independent_of_sampling_density():
    def profile(n_samples):
        tau = np.arange(n_samples) / (n_samples - 1)
        return 1.0 - 0.25 * np.cos(4.0 * np.pi * tau)

    coarse = stance_vgrf_shape(2.0 * profile(101), 2.0)
    fine = stance_vgrf_shape(2.0 * profile(201), 2.0)
    assert coarse == fine
    assert coarse.is_m_shaped
    assert coarse.first_peak_bw == 1.25
    assert coarse.valley_bw == 0.75
    assert coarse.second_peak_bw == 1.25


def test_shape_validation():
    with pytest.raises(InputError, match="body weight"):
        stance_vgrf_shape([0.0, 1.0, 0.0], 0.0)
    with pytest.raises(InputError, match="at least 3"):
        stance_vgrf_shape([1.0, 2.0], 700.0)
    with pytest.raises(InputError, match="non-finite"):
        stance_vgrf_shape([1.0, np.nan, 2.0], 700.0)
    with pytest.raises(InputError, match="1-D"):
        stance_vgrf_shape(np.zeros((2, 5)), 700.0)


def test_walker_right_stance_is_m_shaped(walker_bilateral):
    timeline = walker_bilateral.timeline
    hs = next(f for f in timeline.right.heel_strikes if 900 < f < 1000)
    to = next(f for f in timeline.right.toe_offs if f > hs)
    profile = walker_bilateral.right.force[2, hs : to + 1]
    shape = stance_vgrf_shape(
        profile, walker_bilateral.mass_kg * walker_bilateral.gravity_mps2
    )
    assert shape.is_m_shaped
    assert shape.first_peak_bw > 1.0
    assert shape.valley_bw < 1.0
    assert shape.second_peak_bw > 1.0


# ------------------------------------------------------------------ writers


def test_comparison_csv_round_trips(tmp_path):
    report = compare(_random_series(20), _random_series(21))
    path = tmp_path / "comparison.csv"
    write_comparison_csv(path, report)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "axis,rmse,mean_bias,bias_compensated_rmse"
    assert len(lines) == 4
    fields = lines[3].split(",")
    z = report.axis("z")
    assert fields[0] == "z"
    assert float(fields[1]) == z.rmse
    assert float(fields[2]) == z.mean_bias
    assert float(fields[3]) == z.bias_compensated_rmse


def test_comparison_text_summarizes_the_run(tmp_path):
    report = compare(_random_series(22), _random_series(23))
    path = tmp_path / "comparison.txt"
    write_comparison_text(path, report)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("samples compared: 500 at 200 Hz")
    assert "axis" in text and "RMSE" in text
    for entry in report.axes:
        assert f"{entry.rmse:.6f}" in text
