"""Uniformly sampled series: zero-phase filtering, differentiation, decimation.

The low-pass is a Butterworth of the given order run forward then backward
(zero net phase, squared magnitude response), with mirror padding at the
edges.  Differentiation uses second-order central differences inside the
series and second-order one-sided stencils at the two edge samples.
Decimation low-passes at 0.4x the target rate before taking every
``factor``-th sample; a factor of 1 is the identity and applies no filter.
"""

from dataclasses import dataclass

import numpy as np
import scipy.signal

from .errors import InputError

__all__ = [
    "UniformSeries",
    "lowpass",
    "differentiate",
    "smoothed_acceleration",
    "decimate",
]


@dataclass
class UniformSeries:
    """Multichannel series sampled at one rate; values are (channels, samples)."""

    sample_rate_hz: float
    values: np.ndarray

    def __post_init__(self):
        if not self.sample_rate_hz > 0:
            raise InputError(f"sample rate must be positive, got {self.sample_rate_hz}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[np.newaxis, :]
        if v.ndim != 2:
            raise InputError("values must be one or two dimensional")
        if v.shape[1] < 2:
            raise InputError(f"series needs at least 2 samples, got {v.shape[1]}")
        if not np.all(np.isfinite(v)):
            raise InputError("series contains non-finite values")
        self.values = v

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    def channel(self, i: int) -> np.ndarray:
        return self.values[i]

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.sample_rate_hz


def _butterworth(series: UniformSeries, cutoff_hz: float, order: int) -> tuple[np.ndarray, int]:
    """Second-order sections of the low-pass and the mirror-pad length.

    Rejects an order that is not positive and even, a cutoff outside
    (0, Nyquist), and a series no longer than the pad.
    """
    if not (isinstance(order, (int, np.integer)) and order > 0 and order % 2 == 0):
        raise InputError(f"filter order must be a positive even integer, got {order}")
    nyquist = series.sample_rate_hz / 2.0
    if not 0.0 < cutoff_hz < nyquist:
        raise InputError(
            f"cutoff must lie in (0, {nyquist}) Hz for rate "
            f"{series.sample_rate_hz} Hz, got {cutoff_hz}"
        )
    padlen = 3 * order
    if series.n_samples <= padlen:
        raise InputError(
            f"series of {series.n_samples} samples is too short to mirror-pad "
            f"with {padlen} samples; need more than {padlen}"
        )
    sos = scipy.signal.butter(
        order, cutoff_hz, btype="low", fs=series.sample_rate_hz, output="sos"
    )
    return sos, padlen


def lowpass(series: UniformSeries, cutoff_hz: float, order: int = 4) -> UniformSeries:
    """Zero-phase Butterworth low-pass.

    One forward and one backward pass, so the passband edge sits at
    amplitude 0.5 (1/sqrt(2) per pass).  Edges are mirror-padded with
    3*order samples; shorter series are rejected.
    Each channel is mean-centred before filtering and restored after, so a
    constant channel passes through bit-exactly.
    """
    sos, padlen = _butterworth(series, cutoff_hz, order)
    out = np.empty_like(series.values)
    for i in range(series.n_channels):
        x = series.values[i]
        c = float(np.mean(x))
        out[i] = scipy.signal.sosfiltfilt(sos, x - c, padtype="even", padlen=padlen) + c
    return UniformSeries(sample_rate_hz=series.sample_rate_hz, values=out)


def _second_difference(x: np.ndarray, rate: float) -> np.ndarray:
    """Second derivative of a (channels, N) array, preserving dtype.

    Interior samples use nested first differences (exact for neighbouring
    samples of like magnitude, unchanged under constant offsets); the two
    edge samples use one-sided second-order stencils, falling back to the
    single interior estimate for a 3-sample series.
    """
    r = rate
    out = np.empty_like(x)
    d = np.diff(x, axis=1)
    out[:, 1:-1] = (d[:, 1:] - d[:, :-1]) * (r * r)
    if x.shape[1] >= 4:
        out[:, 0] = (2.0 * x[:, 0] - 5.0 * x[:, 1] + 4.0 * x[:, 2] - x[:, 3]) * (r * r)
        out[:, -1] = (
            2.0 * x[:, -1] - 5.0 * x[:, -2] + 4.0 * x[:, -3] - x[:, -4]
        ) * (r * r)
    else:
        out[:, 0] = out[:, 1]
        out[:, -1] = out[:, 1]
    return out


def differentiate(series: UniformSeries, order: int) -> UniformSeries:
    """First or second time derivative by finite differences.

    Interior samples use central stencils; the two edge samples use
    one-sided second-order stencils (for a 3-sample series the second
    derivative falls back to the single 3-point estimate).  Interior
    second differences are evaluated as nested first differences, which
    is exact for slowly varying data and keeps the result unchanged under
    constant offsets of the input.
    """
    if order not in (1, 2):
        raise InputError(f"derivative order must be 1 or 2, got {order}")
    x = series.values
    n = series.n_samples
    if n < 3:
        raise InputError(f"series too short to differentiate: {n} samples")
    r = series.sample_rate_hz
    if order == 1:
        out = np.empty_like(x)
        out[:, 1:-1] = (x[:, 2:] - x[:, :-2]) * (r / 2.0)
        out[:, 0] = (-3.0 * x[:, 0] + 4.0 * x[:, 1] - x[:, 2]) * (r / 2.0)
        out[:, -1] = (3.0 * x[:, -1] - 4.0 * x[:, -2] + x[:, -3]) * (r / 2.0)
    else:
        out = _second_difference(x, r)
    return UniformSeries(sample_rate_hz=r, values=out)


def _mirror_extend(x: np.ndarray, n: int) -> np.ndarray:
    """Even (mirror, no endpoint repeat) extension of (channels, N) by n."""
    return np.concatenate([x[:, n:0:-1], x, x[:, -2 : -n - 2 : -1]], axis=1)


def _cascade_steady_states(sos: np.ndarray) -> list[tuple[np.longdouble, np.longdouble]]:
    """Per-section direct-form-II-transposed state for a unit constant input.

    Section k's state is pre-scaled by the DC gain of the sections before
    it, so scaling every state by the first sample of the actual input
    reproduces the usual transient-suppressing initial conditions.
    """
    states = []
    gain = np.longdouble(1.0)
    for b0, b1, b2, _a0, a1, a2 in sos:
        h = (b0 + b1 + b2) / (1.0 + a1 + a2)
        z1 = ((b1 + b2) - (a1 + a2) * h) * gain
        z2 = (b2 - a2 * h) * gain
        states.append((z1, z2))
        gain = gain * h
    return states


def _run_cascade(
    sos: np.ndarray,
    x: np.ndarray,
    states: list[tuple[np.longdouble, np.longdouble]],
    x0: np.ndarray,
) -> np.ndarray:
    """One pass of the biquad cascade over (channels, N) extended data.

    Each section starts from its steady state for a constant input equal
    to the channel's first sample, ``x0``.
    """
    zi = np.asarray(states)[:, np.newaxis, :] * x0[:, np.newaxis]
    y, _ = scipy.signal.sosfilt(sos, x, axis=-1, zi=zi)
    return y


def _zero_phase_extended(sos: np.ndarray, values: np.ndarray, padlen: int) -> np.ndarray:
    """Forward-backward biquad cascade evaluated in extended precision.

    Same construction as ``lowpass`` (mirror padding, steady-state initial
    conditions scaled by the edge sample) but with the recursion carried in
    ``np.longdouble``, so the output carries far less roundoff than the
    magnitude of the data would allow in double precision.  Input may be
    float64 or longdouble; output is longdouble.
    """
    x = np.asarray(values, dtype=np.longdouble)
    ext = _mirror_extend(x, padlen)
    sos_ld = np.asarray(sos, dtype=np.longdouble)
    states = _cascade_steady_states(sos_ld)
    fwd = _run_cascade(sos_ld, ext, states, ext[:, 0])
    rev = _run_cascade(sos_ld, fwd[:, ::-1], states, fwd[:, -1])
    return rev[:, ::-1][:, padlen:-padlen]


def smoothed_acceleration(
    series: UniformSeries, cutoff_hz: float, order: int = 4
) -> UniformSeries:
    """Second derivative of the zero-phase low-passed series.

    Applies the same Butterworth forward-backward filter as ``lowpass``
    and then the same second-difference stencils as ``differentiate``,
    but carries the intermediate filtered samples in extended precision.
    Double-differencing multiplies per-sample storage rounding by the
    squared sample rate, so accelerations derived from metre-scale
    positions stored in float64 pick up noise around 1e-10 m/s^2 at
    200 Hz; keeping the filtered track in extended precision until after
    the differencing removes that term.  What remains is the rounding
    already present in the float64 input, attenuated to its in-band
    fraction: metre-scale constant offsets added to the input change the
    result by well under 1e-11 m/s^2, kilometre-scale ones by ~1e-10.
    """
    sos, padlen = _butterworth(series, cutoff_hz, order)
    x = np.asarray(series.values, dtype=np.longdouble)
    center = x.mean(axis=1, keepdims=True)
    filtered = _zero_phase_extended(sos, x - center, padlen)
    acc = _second_difference(filtered, series.sample_rate_hz)
    return UniformSeries(
        sample_rate_hz=series.sample_rate_hz, values=np.asarray(acc, dtype=float)
    )


def decimate(series: UniformSeries, factor: int) -> UniformSeries:
    """Integer-factor downsampling with anti-alias low-pass.

    The pre-filter cutoff is 0.4 * (rate / factor).  factor == 1 returns
    the series unchanged (no filtering).
    """
    if not (isinstance(factor, (int, np.integer)) and factor >= 1):
        raise InputError(f"decimation factor must be an integer >= 1, got {factor}")
    if factor == 1:
        return UniformSeries(series.sample_rate_hz, series.values.copy())
    new_rate = series.sample_rate_hz / factor
    filtered = lowpass(series, 0.4 * new_rate, order=4)
    vals = filtered.values[:, ::factor]
    if vals.shape[1] < 2:
        raise InputError(
            f"decimation by {factor} leaves {vals.shape[1]} samples; need >= 2"
        )
    return UniformSeries(sample_rate_hz=new_rate, values=vals.copy())
