"""Filtering, differentiation, and decimation contracts.

The low-pass is cross-checked against an independently coded Butterworth
filter (analog prototype poles, bilinear transform, direct-form-II
forward/backward passes) so the production path and the reference share
no code.
"""

import numpy as np
import pytest
import scipy.signal

from gaitkinetics import signal as gk_signal
from gaitkinetics.errors import InputError
from gaitkinetics.signal import (
    UniformSeries,
    decimate,
    differentiate,
    lowpass,
    smoothed_acceleration,
)

RATE = 200.0


# ---------------------------------------------------- independent reference


def reference_butterworth_ba(order, cutoff_hz, fs):
    """Transfer-function coefficients built from first principles."""
    k = np.arange(order)
    # analog prototype: poles equally spaced on the left unit semicircle
    poles = np.exp(1j * np.pi * (2 * k + order + 1) / (2 * order))
    warped = 2.0 * fs * np.tan(np.pi * cutoff_hz / fs)
    poles = poles * warped
    # bilinear transform to the z plane; zeros all at z = -1
    zp = (2.0 * fs + poles) / (2.0 * fs - poles)
    gain = np.real(warped**order / np.prod(2.0 * fs - poles))
    b = gain * np.real(np.poly(-np.ones(order)))
    a = np.real(np.poly(zp))
    return b, a


def reference_filtfilt(b, a, x, pad):
    """Mirror-padded forward-backward direct-form-II filtering."""
    ext = np.concatenate([x[pad:0:-1], x, x[-2 : -pad - 2 : -1]])

    def run(sig):
        n = len(b)
        z = np.zeros(n - 1)
        out = np.empty_like(sig)
        for i, xn in enumerate(sig):
            yn = b[0] * xn + z[0]
            for j in range(1, n - 1):
                z[j - 1] = b[j] * xn + z[j] - a[j] * yn
            z[n - 2] = b[n - 1] * xn - a[n - 1] * yn
            out[i] = yn
        return out

    fwd = run(ext)
    bwd = run(fwd[::-1])[::-1]
    return bwd[pad:-pad]


def test_lowpass_agrees_with_the_independent_reference_filter():
    rng = np.random.default_rng(42)
    x = rng.normal(size=3000)
    b, a = reference_butterworth_ba(4, 5.0, RATE)
    ref = reference_filtfilt(b, a, x, pad=600)
    out = lowpass(UniformSeries(RATE, x), 5.0, 4).values[0]
    interior = slice(300, 2700)
    rms = np.sqrt(np.mean((ref[interior] - out[interior]) ** 2))
    assert rms <= 1e-6


# ------------------------------------------------------------ filter gains


def test_lowpass_passes_a_constant_bit_exactly():
    x = np.full(500, 7.3)
    out = lowpass(UniformSeries(RATE, x), 5.0, 4).values[0]
    assert np.array_equal(out, x)


def test_lowpass_halves_amplitude_at_the_cutoff():
    t = np.arange(int(60.0 * RATE)) / RATE  # 60 s
    phase = 2.0 * np.pi * 5.0 * t
    out = lowpass(UniformSeries(RATE, np.sin(phase)), 5.0, 4).values[0]
    interior = slice(2000, 10000)  # 200 whole periods, clear of the edges
    n = interior.stop - interior.start
    in_phase = 2.0 / n * np.sum(out[interior] * np.sin(phase[interior]))
    quadrature = 2.0 / n * np.sum(out[interior] * np.cos(phase[interior]))
    amplitude = float(np.hypot(in_phase, quadrature))
    assert abs(amplitude - 0.5) <= 0.01
    # forward-backward filtering leaves no net phase shift
    assert abs(quadrature) <= 1e-3


def test_lowpass_is_linear():
    rng = np.random.default_rng(1)
    x = rng.normal(size=1200)
    y = rng.normal(size=1200)
    combo = lowpass(UniformSeries(RATE, 2.5 * x - 1.25 * y), 5.0, 4).values[0]
    parts = (
        2.5 * lowpass(UniformSeries(RATE, x), 5.0, 4).values[0]
        - 1.25 * lowpass(UniformSeries(RATE, y), 5.0, 4).values[0]
    )
    assert np.max(np.abs(combo - parts)) <= 1e-9


def test_lowpass_is_time_reversal_symmetric_away_from_the_edges():
    rng = np.random.default_rng(2)
    x = rng.normal(size=3000)
    fwd = lowpass(UniformSeries(RATE, x), 5.0, 4).values[0]
    rev = lowpass(UniformSeries(RATE, x[::-1]), 5.0, 4).values[0][::-1]
    # the mirror-padding transient is edge-local; compare the interior
    assert np.max(np.abs(fwd[300:-300] - rev[300:-300])) <= 1e-6


def test_lowpass_filters_channels_independently():
    rng = np.random.default_rng(3)
    x = rng.normal(size=600)
    both = lowpass(UniformSeries(RATE, np.vstack([x, 3.0 * x])), 6.0, 4).values
    assert np.max(np.abs(both[1] - 3.0 * both[0])) <= 1e-9


@pytest.mark.parametrize(
    "cutoff, order, n, message",
    [
        (100.0, 4, 500, "cutoff"),  # at the Nyquist frequency
        (150.0, 4, 500, "cutoff"),
        (0.0, 4, 500, "cutoff"),
        (5.0, 3, 500, "order"),
        (5.0, 0, 500, "order"),
        (5.0, 4, 12, "too short"),
    ],
)
def test_lowpass_rejects_bad_parameters(cutoff, order, n, message):
    series = UniformSeries(RATE, np.linspace(0.0, 1.0, n))
    with pytest.raises(InputError, match=message):
        lowpass(series, cutoff, order)


# --------------------------------------------------------- differentiation


def test_first_derivative_of_a_ramp_is_exact():
    t = np.arange(400) / RATE
    slope = differentiate(UniformSeries(RATE, 3.5 * t), 1).values[0]
    assert np.max(np.abs(slope - 3.5)) <= 1e-9


def test_second_derivative_of_a_parabola_is_exact():
    t = np.arange(400) / RATE
    curv = differentiate(UniformSeries(RATE, t * t), 2).values[0]
    assert np.max(np.abs(curv - 2.0)) <= 1e-8


def test_second_derivative_of_a_sinusoid_is_second_order_accurate():
    t = np.arange(800) / RATE
    x = np.sin(2.0 * np.pi * t)
    acc = differentiate(UniformSeries(RATE, x), 2).values[0]
    expect = -((2.0 * np.pi) ** 2) * x
    resid = acc[2:-2] - expect[2:-2]
    rel_rms = np.sqrt(np.mean(resid**2)) / np.sqrt(np.mean(expect**2))
    assert rel_rms <= 1e-3


def test_derivatives_of_a_constant_vanish():
    x = np.full(100, 7.3)
    vel = differentiate(UniformSeries(RATE, x), 1).values[0]
    acc = differentiate(UniformSeries(RATE, x), 2).values[0]
    # interior stencils difference equal samples: exactly zero
    assert np.all(vel[1:-1] == 0.0)
    assert np.all(acc[1:-1] == 0.0)
    # edge stencils mix scaled copies: zero up to rounding
    assert np.max(np.abs(vel)) <= 1e-9
    assert np.max(np.abs(acc)) <= 1e-8


def test_second_derivative_routes_converge_quadratically():
    # one order-2 call and two chained order-1 calls disagree by O(h^2):
    # doubling the rate must shrink the gap by about 4 (at least 3)
    def gap(rate):
        t = np.arange(int(4 * rate)) / rate
        series = UniformSeries(rate, np.sin(2.0 * np.pi * t))
        direct = differentiate(series, 2).values[0]
        chained = differentiate(differentiate(series, 1), 1).values[0]
        return np.max(np.abs(direct[2:-2] - chained[2:-2]))

    assert gap(200.0) / gap(400.0) >= 3.0


def test_differentiate_rejects_bad_orders_and_short_series():
    series = UniformSeries(RATE, np.arange(10.0))
    with pytest.raises(InputError, match="order"):
        differentiate(series, 0)
    with pytest.raises(InputError, match="order"):
        differentiate(series, 3)
    with pytest.raises(InputError, match="too short"):
        differentiate(UniformSeries(RATE, np.array([1.0, 2.0])), 1)


# ------------------------------------------------- smoothed acceleration


def test_smoothed_acceleration_ignores_constant_offsets():
    t = np.arange(2000) / RATE
    z = 1.0 + 0.03 * np.sin(2.0 * np.pi * 1.5 * t)
    near = smoothed_acceleration(UniformSeries(RATE, z), 5.0).values
    far = smoothed_acceleration(UniformSeries(RATE, z + 5678.9), 5.0).values
    assert np.max(np.abs(near - far)) <= 1e-9


def test_smoothed_acceleration_matches_filter_then_differentiate():
    t = np.arange(2000) / RATE
    z = 1.0 + 0.03 * np.sin(2.0 * np.pi * 1.5 * t)
    fused = smoothed_acceleration(UniformSeries(RATE, z), 5.0).values
    stepwise = differentiate(lowpass(UniformSeries(RATE, z), 5.0), 2).values
    assert np.max(np.abs(fused - stepwise)) <= 1e-8


def reference_cascade(sos, x, states, x0):
    """The biquad cascade run one sample at a time (direct form II transposed)."""
    y = x
    for (b0, b1, b2, _a0, a1, a2), (z1u, z2u) in zip(sos, states):
        out = np.empty_like(y)
        z1 = z1u * x0
        z2 = z2u * x0
        for k in range(y.shape[1]):
            xn = y[:, k]
            yn = b0 * xn + z1
            z1 = b1 * xn - a1 * yn + z2
            z2 = b2 * xn - a2 * yn
            out[:, k] = yn
        y = out
    return y


@pytest.mark.parametrize("order", [2, 4, 6])
def test_extended_cascade_equals_the_per_sample_loop_bitwise(order):
    rng = np.random.default_rng(order)
    x = np.cumsum(rng.normal(size=(5, 700)), axis=1) + rng.normal(size=(5, 1)) * 1e3
    x = x.astype(np.longdouble)
    sos = np.asarray(
        scipy.signal.butter(order, 6.0, fs=RATE, output="sos"), dtype=np.longdouble
    )
    states = gk_signal._cascade_steady_states(sos)

    fast = gk_signal._run_cascade(sos, x, states, x[:, 0])
    slow = reference_cascade(sos, x, states, x[:, 0])
    assert fast.dtype == np.longdouble
    assert np.array_equal(fast, slow)

    # the forward-backward path built on it keeps the Gustafsson initial states
    padlen = 3 * order
    ext = gk_signal._mirror_extend(x, padlen)
    fwd = reference_cascade(sos, ext, states, ext[:, 0])
    rev = reference_cascade(sos, fwd[:, ::-1], states, fwd[:, -1])
    expect = rev[:, ::-1][:, padlen:-padlen]
    assert np.array_equal(gk_signal._zero_phase_extended(sos, x, padlen), expect)


def test_smoothed_acceleration_rejects_bad_parameters():
    series = UniformSeries(RATE, np.linspace(0.0, 1.0, 500))
    with pytest.raises(InputError, match="cutoff"):
        smoothed_acceleration(series, 150.0)
    with pytest.raises(InputError, match="order"):
        smoothed_acceleration(series, 5.0, order=3)
    with pytest.raises(InputError, match="too short"):
        smoothed_acceleration(UniformSeries(RATE, np.linspace(0.0, 1.0, 12)), 5.0)


# ---------------------------------------------------------------- decimate


def test_decimate_factor_one_is_the_identity():
    rng = np.random.default_rng(4)
    x = rng.normal(size=50)
    series = UniformSeries(RATE, x)
    out = decimate(series, 1)
    assert out.sample_rate_hz == RATE
    assert np.array_equal(out.values[0], x)
    out.values[0, 0] += 1.0  # the identity still returns an independent copy
    assert series.values[0, 0] == x[0]


def test_decimate_passes_a_constant_bit_exactly():
    x = np.full(400, -3.7)
    out = decimate(UniformSeries(2000.0, x), 10)
    assert out.sample_rate_hz == 200.0
    assert np.array_equal(out.values[0], np.full(40, -3.7))


def test_decimate_keeps_the_passband_and_rejects_aliases():
    rate = 2000.0
    t = np.arange(int(10 * rate)) / rate
    x = np.sin(2.0 * np.pi * 2.0 * t) + np.sin(2.0 * np.pi * 400.0 * t)
    out = decimate(UniformSeries(rate, x), 10)
    assert out.sample_rate_hz == 200.0
    td = np.arange(out.n_samples) / out.sample_rate_hz
    phase = 2.0 * np.pi * 2.0 * td
    interior = slice(200, out.n_samples - 200)
    n = interior.stop - interior.start
    in_phase = 2.0 / n * np.sum(out.values[0][interior] * np.sin(phase[interior]))
    quadrature = 2.0 / n * np.sum(out.values[0][interior] * np.cos(phase[interior]))
    assert abs(np.hypot(in_phase, quadrature) - 1.0) <= 0.01
    # the 400 Hz component would alias to DC; it must be gone (> 40 dB down)
    resid = out.values[0][interior] - np.sin(phase[interior])
    assert np.max(np.abs(resid)) <= 0.01


def test_decimate_rejects_bad_factors():
    series = UniformSeries(2000.0, np.linspace(0.0, 1.0, 20))
    with pytest.raises(InputError, match="factor"):
        decimate(series, 0)
    with pytest.raises(InputError, match="factor"):
        decimate(series, 2.5)
    with pytest.raises(InputError, match="need >= 2"):
        decimate(series, 20)


# ----------------------------------------------------------- UniformSeries


def test_uniform_series_promotes_one_dimensional_input():
    series = UniformSeries(100.0, np.arange(5.0))
    assert series.values.shape == (1, 5)
    assert series.n_channels == 1
    assert series.n_samples == 5
    assert np.array_equal(series.channel(0), np.arange(5.0))
    assert np.array_equal(series.times(), np.arange(5) / 100.0)


@pytest.mark.parametrize(
    "rate, values, message",
    [
        (0.0, np.arange(5.0), "sample rate"),
        (100.0, np.array([1.0]), "at least 2"),
        (100.0, np.array([1.0, np.nan]), "non-finite"),
        (100.0, np.zeros((2, 2, 2)), "dimensional"),
    ],
)
def test_uniform_series_validation(rate, values, message):
    with pytest.raises(InputError, match=message):
        UniformSeries(rate, values)
