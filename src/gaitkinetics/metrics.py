"""Validation metrics: series comparison and stance-shape analysis.

``compare`` quantifies agreement between two equally sampled multichannel
series, channel by channel: root-mean-square error, mean bias (first minus
second), and the RMSE left after subtracting that bias.  Units follow the
input (metres for CoM trajectories, newtons for forces).  The
bias-compensated figure separates a constant offset (a miscalibrated
plate, a missing weight term) from genuine waveform disagreement.

``stance_vgrf_shape`` checks a single-limb vertical force profile for the
characteristic double-humped walking shape: a loading peak, a midstance
valley, and a push-off peak, reported in units of body weight.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .ingest import _write_csv
from .signal import UniformSeries, find_peaks

__all__ = [
    "AxisComparison",
    "ComparisonReport",
    "compare",
    "StanceShape",
    "stance_vgrf_shape",
    "write_comparison_csv",
    "write_comparison_text",
]


@dataclass(frozen=True)
class AxisComparison:
    """Agreement statistics for one channel, in the input's units."""

    axis: str
    rmse: float
    mean_bias: float
    bias_compensated_rmse: float

    def __post_init__(self):
        for name in ("rmse", "bias_compensated_rmse"):
            if not getattr(self, name) >= 0:
                raise InputError(f"{name} must be non-negative")
        if not self.bias_compensated_rmse <= self.rmse + 1e-12:
            raise InputError(
                "bias compensation cannot increase the RMSE beyond roundoff"
            )


@dataclass(frozen=True)
class ComparisonReport:
    """Channel-by-channel agreement between two equally sampled series."""

    sample_count: int
    sample_rate_hz: float
    axes: tuple[AxisComparison, ...]

    def axis(self, name: str) -> AxisComparison:
        for entry in self.axes:
            if entry.axis == name:
                return entry
        raise InputError(f"no axis named {name!r}")


def _axis_names(n_channels: int) -> list[str]:
    if n_channels == 3:
        return ["x", "y", "z"]
    return [f"ch{i}" for i in range(n_channels)]


def compare(a: UniformSeries, b: UniformSeries) -> ComparisonReport:
    """Compare two series sample by sample (a minus b).

    The compensated RMSE is taken after subtracting each channel's mean
    difference.  Callers must align rates and lengths first (decimate the
    denser series rather than inventing samples).
    """
    if a.sample_rate_hz != b.sample_rate_hz:
        raise InputError(
            f"sample rates differ: {a.sample_rate_hz} vs {b.sample_rate_hz}"
        )
    if a.values.shape != b.values.shape:
        raise InputError(
            f"series shapes differ: {a.values.shape} vs {b.values.shape}"
        )
    entries = []
    try:
        with np.errstate(over="raise"):
            diff = a.values - b.values
            for name, d in zip(_axis_names(diff.shape[0]), diff):
                bias = float(np.mean(d))
                rmse = float(np.sqrt(np.mean(d * d)))
                centered = d - bias
                comp = float(np.sqrt(np.mean(centered * centered)))
                entries.append(
                    AxisComparison(
                        axis=name,
                        rmse=rmse,
                        mean_bias=bias,
                        bias_compensated_rmse=min(comp, rmse + 1e-12),
                    )
                )
    except FloatingPointError:
        raise InputError(
            "the compared series differ too widely: their squared difference overflows"
        ) from None
    return ComparisonReport(
        sample_count=diff.shape[1],
        sample_rate_hz=a.sample_rate_hz,
        axes=tuple(entries),
    )


@dataclass(frozen=True)
class StanceShape:
    """Double-humped profile summary of one stance's vertical force.

    Magnitudes are in units of body weight.  ``is_m_shaped`` requires two
    interior peaks with a lower valley between them.
    """

    is_m_shaped: bool
    first_peak_bw: float
    valley_bw: float
    second_peak_bw: float


def stance_vgrf_shape(vgrf, body_weight_n: float) -> StanceShape:
    """Summarize one stance phase's vertical force profile.

    ``vgrf`` is a 1-D array of vertical force in newtons, covering one
    stance from heel strike to toe-off.  Peaks are interior local maxima;
    with fewer than two the profile is not double-humped and the figures
    fall back to the global extrema.
    """
    if not body_weight_n > 0:
        raise InputError(f"body weight must be positive, got {body_weight_n}")
    v = np.asarray(vgrf, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise InputError("stance profile needs a 1-D series of at least 3 samples")
    if not np.all(np.isfinite(v)):
        raise InputError("stance profile contains non-finite values")
    bw = v / body_weight_n
    peaks = find_peaks(bw)
    if peaks.size < 2:
        top = float(np.max(bw))
        return StanceShape(
            is_m_shaped=False,
            first_peak_bw=top,
            valley_bw=float(np.min(bw)),
            second_peak_bw=top,
        )
    first, last = int(peaks[0]), int(peaks[-1])
    valley = float(np.min(bw[first : last + 1]))
    shape_ok = valley < bw[first] and valley < bw[last]
    return StanceShape(
        is_m_shaped=bool(shape_ok),
        first_peak_bw=float(bw[first]),
        valley_bw=valley,
        second_peak_bw=float(bw[last]),
    )


def write_comparison_csv(path, report: ComparisonReport) -> None:
    axes = report.axes
    columns = [[entry.axis for entry in axes]]
    for name in ("rmse", "mean_bias", "bias_compensated_rmse"):
        columns.append(np.array([getattr(entry, name) for entry in axes], dtype=float))
    _write_csv(path, ["axis,rmse,mean_bias,bias_compensated_rmse"], columns)


def write_comparison_text(path, report: ComparisonReport) -> None:
    lines = [
        f"samples compared: {report.sample_count} at {report.sample_rate_hz:g} Hz",
        "",
        f"{'axis':<6}{'RMSE':>14}{'mean bias':>16}{'bias-comp RMSE':>20}",
    ]
    for entry in report.axes:
        lines.append(
            f"{entry.axis:<6}{entry.rmse:>14.6f}{entry.mean_bias:>16.6f}"
            f"{entry.bias_compensated_rmse:>20.6f}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
