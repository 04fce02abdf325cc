"""Uniformly sampled series: zero-phase filtering, smoothed acceleration, decimation.

The low-pass is a Butterworth of the given order run forward then backward
(zero net phase, squared magnitude response), with mirror padding at the
edges.  ``lowpass`` runs that pass in float64; ``smoothed_acceleration``
runs the same pass in long double and takes second differences of its
output, central inside the series and second-order one-sided at the two
edge samples.  Both go through one function, ``_zero_phase``; they differ
only in the dtype and in the steady-state routine that starts each pass.
Decimation low-passes at 0.4x the target rate before taking every
``factor``-th sample; a factor of 1 is the identity and applies no filter.

The filter design is computed here; the recursion and the peak search run
in scipy's compiled ``_sosfilt`` and ``_peak_finding_utils`` kernels.
"""

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import InputError, SeriesTooShortError, _check_sample_rate

__all__ = [
    "MAX_FILTER_ORDER",
    "UniformSeries",
    "lowpass",
    "smoothed_acceleration",
    "decimate",
]

# the highest order accepted: the design matches scipy's ``butter`` bit for
# bit at orders 2 to 8, and higher orders distort gait tracks without failing
MAX_FILTER_ORDER = 8

# Padded samples filtered per ``_zero_phase`` call in ``lowpass``: groups of
# channels amortise the per-call cost, and the bound keeps the filter's
# temporaries small.
_SAMPLES_PER_CALL = 1 << 16


def _load_scipy_kernel(name: str):
    """scipy's compiled ``scipy.signal.<name>`` module, loaded by file location.

    Importing it by name would first run the ``scipy.signal`` package, which
    takes over a second (it imports ``scipy.stats``, the window functions
    and the array-API layer) for the four functions this module needs.
    """
    directory = os.path.join(os.path.dirname(scipy.__file__), "signal")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(directory, name + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(f"scipy.signal.{name}", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(
        f"scipy {scipy.__version__} has no compiled {name} kernel: "
        f"{os.path.join(directory, name + importlib.machinery.EXTENSION_SUFFIXES[0])} "
        "not found"
    )


_SOSFILT = _load_scipy_kernel("_sosfilt")
_PEAKS = _load_scipy_kernel("_peak_finding_utils")


@dataclass
class UniformSeries:
    """Multichannel series sampled at one rate; values are (channels, samples)."""

    sample_rate_hz: float
    values: np.ndarray

    def __post_init__(self):
        _check_sample_rate(self.sample_rate_hz)
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[np.newaxis, :]
        if v.ndim != 2:
            raise InputError("values must be one or two dimensional")
        if v.shape[1] < 2:
            raise SeriesTooShortError(f"series needs at least 2 samples, got {v.shape[1]}")
        if not np.all(np.isfinite(v)):
            raise InputError("series contains non-finite values")
        self.values = v

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


def _butterworth(series: UniformSeries, cutoff_hz: float, order: int) -> tuple[np.ndarray, int]:
    """Second-order sections of the low-pass and the mirror-pad length.

    Rejects an order that is not an even integer from 2 to
    ``MAX_FILTER_ORDER``, a cutoff outside (0, Nyquist) or so low that a
    pole rounds to 1, and a series no longer than the pad.
    """
    if not (isinstance(order, (int, np.integer)) and order in range(2, MAX_FILTER_ORDER + 1, 2)):
        raise InputError(f"filter order must be even, from 2 to {MAX_FILTER_ORDER}, got {order}")
    nyquist = series.sample_rate_hz / 2.0
    if not 0.0 < cutoff_hz < nyquist:
        raise InputError(
            f"cutoff must lie in (0, {nyquist}) Hz for rate "
            f"{series.sample_rate_hz} Hz, got {cutoff_hz}"
        )
    padlen = 3 * order
    if series.n_samples <= padlen:
        raise SeriesTooShortError(
            f"series of {series.n_samples} samples is too short to mirror-pad "
            f"with {padlen} samples; need more than {padlen}"
        )
    # scipy's butter(order, cutoff_hz, fs=rate, output="sos") with the
    # same float operations: design at fs = 2 (so 2 * fs = 4), prewarp,
    # analog poles, bilinear transform, then one conjugate pair per section,
    # nearest the unit circle last, every zero at -1 and the gain in section 0
    wn = float(cutoff_hz) / (float(series.sample_rate_hz) / 2)
    warped = float(4.0 * np.tan(np.pi * wn / 2.0))
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    poles = warped * -np.exp(1j * np.pi * m / (2 * order))
    gain = warped**order * np.real(1.0 / np.prod(4.0 - poles))
    poles = ((4.0 + poles) / (4.0 - poles))[order // 2 - 1 :: -1]
    sos = np.zeros((order // 2, 6))
    sos[:, :4] = (1.0, 2.0, 1.0, 1.0)
    sos[:, 4] = -2.0 * poles.real
    sos[:, 5] = poles.real * poles.real + poles.imag * poles.imag
    sos[0, :3] *= gain
    # far enough below the rate, a pole rounds onto z = 1: no steady state starts a pass
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            _sosfilt_zi(sos)
    except (np.linalg.LinAlgError, FloatingPointError):
        raise InputError(
            f"cutoff_hz {cutoff_hz} is too low to filter at rate {series.sample_rate_hz} Hz"
        ) from None
    return sos, padlen


def _sosfilt_zi(sos: np.ndarray) -> np.ndarray:
    """(sections, 2) states of a unit step in steady state, as ``sosfilt_zi``."""
    zi = np.empty((len(sos), 2))
    scale = 1.0
    for k, (b, a) in enumerate(zip(sos[:, :3], sos[:, 3:])):
        i_minus_a = np.eye(2) - [[-a[1], 1.0], [-a[2], 0.0]]  # I - companion(a).T
        zi[k] = scale * np.linalg.solve(i_minus_a, b[1:] - a[1:] * b[0])
        scale *= np.sum(b) / np.sum(a)
    return zi


def _sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> np.ndarray:
    """The biquad cascade along the last axis of (channels, N) data.

    ``zi`` is (channels, sections, 2).  Runs scipy's kernel in place on a
    C-contiguous copy in the inputs' result dtype, as ``sosfilt`` does.
    """
    dtype = np.result_type(sos, x, zi)
    y = np.array(x, dtype, order="C")
    _SOSFILT._sosfilt(sos.astype(dtype, copy=False), y, np.array(zi, dtype, order="C"))
    return y


def find_peaks(x: np.ndarray, distance: float | None = None) -> np.ndarray:
    """Local maxima of a 1-D series, as scipy's ``find_peaks``.

    A flat peak counts once, at its middle sample (the left one of two).
    With ``distance``, a peak closer than that to a higher one is dropped.
    """
    x = np.asarray(x, dtype=np.float64, order="C")
    peaks, _, _ = _PEAKS._local_maxima_1d(x)
    if distance is not None:
        peaks = peaks[_PEAKS._select_by_peak_distance(peaks, x[peaks], distance)]
    return peaks


def lowpass(series: UniformSeries, cutoff_hz: float, order: int = 4) -> UniformSeries:
    """Zero-phase Butterworth low-pass.

    One forward and one backward pass, so the passband edge sits at
    amplitude 0.5 (1/sqrt(2) per pass).  Edges are mirror-padded with
    3*order samples; shorter series are rejected.
    Each channel is mean-centred before filtering and restored after, so a
    constant channel passes through bit-exactly.
    Channels are filtered in groups of at most ``_SAMPLES_PER_CALL`` padded
    samples (a longer channel alone), with the same bits as one at a time.
    """
    sos, padlen = _butterworth(series, cutoff_hz, order)
    zi = _sosfilt_zi(sos)
    out = np.empty_like(series.values)
    rows = max(1, _SAMPLES_PER_CALL // (series.n_samples + 2 * padlen))
    for start in range(0, series.n_channels, rows):
        x = series.values[start : start + rows]
        c = np.array([[float(np.mean(row))] for row in x])
        out[start : start + rows] = _zero_phase(sos, zi, x - c, padlen) + c
    return UniformSeries(sample_rate_hz=series.sample_rate_hz, values=out)


def _second_difference(x: np.ndarray, rate: float) -> np.ndarray:
    """Second derivative of a (channels, N) array, preserving dtype.

    Interior samples use nested first differences (exact for neighbouring
    samples of like magnitude, unchanged under constant offsets); the two
    edge samples use one-sided second-order stencils, which need N >= 4.
    """
    r = rate
    out = np.empty_like(x)
    d = np.diff(x, axis=1)
    out[:, 1:-1] = (d[:, 1:] - d[:, :-1]) * (r * r)
    out[:, 0] = (2.0 * x[:, 0] - 5.0 * x[:, 1] + 4.0 * x[:, 2] - x[:, 3]) * (r * r)
    out[:, -1] = (2.0 * x[:, -1] - 5.0 * x[:, -2] + 4.0 * x[:, -3] - x[:, -4]) * (r * r)
    return out


def _zero_phase(sos: np.ndarray, zi: np.ndarray, x: np.ndarray, padlen: int) -> np.ndarray:
    """The forward-backward cascade over (channels, N) data, in the dtype of
    ``sos``, ``zi`` and ``x``.

    Each end is mirrored by ``padlen`` samples (no endpoint repeat) and
    trimmed after.  ``zi`` is the (sections, 2) steady state for a unit
    step; each pass starts from it scaled by the first sample it filters.
    """
    x = np.concatenate([x[:, padlen:0:-1], x, x[:, -2 : -padlen - 2 : -1]], axis=1)
    x = _sosfilt(sos, x, zi * x[:, :1, np.newaxis])
    x = _sosfilt(sos, x[:, ::-1], zi * x[:, -1:, np.newaxis])
    return x[:, ::-1][:, padlen:-padlen]


def _cascade_steady_states(sos: np.ndarray) -> np.ndarray:
    """(sections, 2) states of a unit step in steady state, in long double.

    The closed form of ``_sosfilt_zi``, for long-double ``sos``, since
    ``np.linalg.solve`` has no long double; in float64 the two differ in
    the last bits.  Section k's state is pre-scaled by the DC gain of the
    sections before it.
    """
    zi = np.empty((len(sos), 2), dtype=np.longdouble)
    gain = np.longdouble(1.0)
    for k, (b0, b1, b2, _a0, a1, a2) in enumerate(sos):
        h = (b0 + b1 + b2) / (1.0 + a1 + a2)
        zi[k] = ((b1 + b2) - (a1 + a2) * h) * gain, (b2 - a2 * h) * gain
        gain = gain * h
    return zi


def smoothed_acceleration(
    series: UniformSeries, cutoff_hz: float, order: int = 4
) -> UniformSeries:
    """Second derivative of the zero-phase low-passed series.

    Applies the same Butterworth forward-backward filter as ``lowpass``,
    then second differences (nested first differences inside, one-sided
    second-order stencils at the two edge samples), but carries the
    filtered samples in extended precision.
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
    sos = sos.astype(np.longdouble)
    x = np.asarray(series.values, dtype=np.longdouble)
    center = x.mean(axis=1, keepdims=True)
    filtered = _zero_phase(sos, _cascade_steady_states(sos), x - center, padlen)
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
        raise SeriesTooShortError(
            f"decimation by {factor} leaves {vals.shape[1]} samples; need >= 2"
        )
    return UniformSeries(sample_rate_hz=new_rate, values=vals.copy())
