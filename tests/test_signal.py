"""Filtering, differentiation, and decimation contracts.

The low-pass is cross-checked against an independently coded Butterworth
filter (analog prototype poles, bilinear transform, direct-form-II
forward/backward passes) so the production path and the reference share
no code.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.signal

from conftest import differentiate
from gaitkinetics import signal as gk_signal
from gaitkinetics.errors import InputError
from gaitkinetics.ingest import parse_force_file, write_force_file
from gaitkinetics.signal import (
    UniformSeries,
    decimate,
    lowpass,
    smoothed_acceleration,
)
from gaitkinetics.synth import WalkerParams, synth_force_plates

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


# --------------------------------------------------- grouped channels


def per_channel_lowpass(values, rate, cutoff_hz, order):
    """One ``sosfiltfilt`` call per channel, as ``lowpass`` once ran."""
    sos = scipy.signal.butter(order, cutoff_hz, btype="low", fs=rate, output="sos")
    out = np.empty_like(values)
    for i, x in enumerate(values):
        c = float(np.mean(x))
        out[i] = scipy.signal.sosfiltfilt(sos, x - c, padtype="even", padlen=3 * order) + c
    return out


@pytest.mark.parametrize("n_channels", [1, 5, 48])
@pytest.mark.parametrize("samples_per_call", [None, 150, 300, 700])
def test_grouped_lowpass_is_bitwise_one_call_per_channel(
    monkeypatch, n_channels, samples_per_call
):
    if samples_per_call is not None:  # groups of 1, 2 and 5 channels of 124 padded samples
        monkeypatch.setattr(gk_signal, "_SAMPLES_PER_CALL", samples_per_call)
    rng = np.random.default_rng(n_channels)
    x = rng.normal(size=(n_channels, 100)) * rng.uniform(0.1, 1000.0, size=(n_channels, 1))
    x += rng.normal(size=(n_channels, 1)) * 50.0
    x[n_channels // 2] = 7.3  # a constant channel passes through exactly
    out = lowpass(UniformSeries(RATE, x), 6.0, 4).values
    assert out.tobytes() == per_channel_lowpass(x, RATE, 6.0, 4).tobytes()
    assert np.array_equal(out[n_channels // 2], x[n_channels // 2])


@pytest.mark.parametrize("samples_per_call", [None, 5_000, 20_000])
def test_grouped_lowpass_keeps_the_bits_of_f_ordered_plate_input(
    tmp_path, monkeypatch, samples_per_call
):
    if samples_per_call is not None:
        monkeypatch.setattr(gk_signal, "_SAMPLES_PER_CALL", samples_per_call)
    path = tmp_path / "forces.tsv"
    write_force_file(path, synth_force_plates(WalkerParams(duration_s=2.0)))
    plates = parse_force_file(path)
    total = plates.total_force().T  # as the CLI's plate comparison passes it
    assert total.flags.f_contiguous and not total.flags.c_contiguous
    out = lowpass(UniformSeries(plates.sample_rate_hz, total), 80.0, 4).values
    ref = per_channel_lowpass(total, plates.sample_rate_hz, 80.0, 4)
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "order, rate, cutoff_hz", [(2, 100.0, 10.0), (6, 250.0, 3.0), (8, 2000.0, 400.0)]
)
def test_lowpass_is_bitwise_scipy_sosfiltfilt_for_other_designs(order, rate, cutoff_hz):
    rng = np.random.default_rng(order)
    x = np.cumsum(rng.normal(size=(7, 333)), axis=1) + rng.normal(size=(7, 1)) * 100.0
    out = lowpass(UniformSeries(rate, x), cutoff_hz, order).values
    assert out.tobytes() == per_channel_lowpass(x, rate, cutoff_hz, order).tobytes()


def test_lowpass_memory_stays_within_the_output_and_a_few_groups():
    x = np.random.default_rng(4).normal(size=(48, 24_000))
    series = UniformSeries(RATE, x)
    lowpass(series, 5.0, 4)  # first-call set-up out of the measurement
    group_bytes = gk_signal._SAMPLES_PER_CALL // (24_000 + 24) * (24_000 + 24) * 8
    tracemalloc.start()
    try:
        out = lowpass(series, 5.0, 4).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 4.1 groups above the output today; filtering all 48 channels in
    # one call would take several times the output
    assert peak < out.nbytes + 6 * group_bytes


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


@pytest.mark.filterwarnings("error")
def test_a_cutoff_that_rounds_a_pole_onto_one_is_rejected_by_every_filter():
    # at 200 Hz, 2e-7 Hz and below put a pole of the order-4 design at z = 1
    # in float64, where the steady state that starts each pass does not exist
    series = UniformSeries(RATE, np.linspace(0.0, 1.0, 500))
    message = "^cutoff_hz 1e-07 is too low to filter at rate 200.0 Hz$"
    for run in (lowpass, smoothed_acceleration):
        with pytest.raises(InputError, match=message):
            run(series, 1e-7, 4)
    with pytest.raises(InputError, match="^cutoff_hz 2e-07 is too low"):
        lowpass(series, 2e-7, 4)
    # 5e-7 Hz still filters, if to little purpose
    for run in (lowpass, smoothed_acceleration):
        assert np.all(np.isfinite(run(series, 5e-7, 4).values))
    plates = UniformSeries(1000.0, np.linspace(0.0, 1.0, 2000))
    with pytest.raises(InputError, match="^cutoff_hz 1e-09 is too low"):
        lowpass(plates, 1e-9, 4)


# ------------------------------------- scipy's kernels, scipy.signal as oracle

BUTTER_RATES = [100, 120, 150, 200, 250, 300, 500, 600, 1000, 1200, 2000]
BUTTER_CUTOFFS = [0.5, 1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 30, 40]


@pytest.mark.parametrize("order", [2, 4, 6, 8])
def test_butterworth_sections_are_bitwise_scipy_butter(order):
    n_cases = 0
    for rate in BUTTER_RATES:
        # decimate's anti-alias cutoff: 0.4 x the rate after factors 2, 5, 10
        for cutoff in BUTTER_CUTOFFS + [0.4 * rate / factor for factor in (2, 5, 10)]:
            if cutoff >= rate / 2:
                continue
            series = UniformSeries(rate, np.zeros(100))
            sos, padlen = gk_signal._butterworth(series, cutoff, order)
            expect = scipy.signal.butter(order, cutoff, fs=rate, output="sos")
            assert sos.shape == expect.shape and sos.tobytes() == expect.tobytes(), (
                rate,
                cutoff,
            )
            assert padlen == 3 * order
            zi = gk_signal._sosfilt_zi(sos)
            expect_zi = scipy.signal.sosfilt_zi(expect)
            assert zi.tobytes() == expect_zi.tobytes(), (rate, cutoff)
            n_cases += 1
    assert n_cases == 198


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_sosfilt_kernel_is_bitwise_scipy_sosfilt(dtype):
    rng = np.random.default_rng(5)
    sos = scipy.signal.butter(6, 7.0, fs=RATE, output="sos").astype(dtype)
    x = (np.cumsum(rng.normal(size=(4, 500)), axis=1) * 10.0).astype(dtype)
    zi = rng.normal(size=(3, 4, 2)).astype(dtype)  # scipy's (sections, channels, 2)
    x_bytes, zi_bytes = x.tobytes(), zi.tobytes()
    for data in (x, x[:, ::-1], np.asfortranarray(x)):
        expect, _ = scipy.signal.sosfilt(sos, data, axis=-1, zi=zi)
        got = gk_signal._sosfilt(sos, data, zi.transpose(1, 0, 2))
        assert got.dtype == dtype
        assert got.tobytes() == expect.tobytes()
    assert x.tobytes() == x_bytes and zi.tobytes() == zi_bytes  # inputs left alone


def test_missing_scipy_kernel_fails_naming_the_file():
    with pytest.raises(ImportError, match=r"signal[/\\]_no_such_kernel\."):
        gk_signal._load_scipy_kernel("_no_such_kernel")


PEAK_SERIES = {
    "plateaus": [0, 1, 1, 0, 2, 2, 2, 0, 3, 3, 3, 3, 1, 1, 4, 4, 0],
    "ties": [0, 2, 0, 2, 0, 2, 0, 1, 2, 1, 2, 0],
    "peaks at the ends": [5, 1, 3, 1, 5],
    "plateaus at the ends": [5, 5, 1, 3, 3, 1, 5, 5],
    "constant": [2.5] * 9,
    "three samples": [0, 1, 0],
    "three flat samples": [1, 1, 1],
    "two samples": [0, 1],
}


@pytest.mark.parametrize("name", sorted(PEAK_SERIES))
@pytest.mark.parametrize("distance", [None, 1, 2, 100])
def test_find_peaks_gives_scipy_indices(name, distance):
    x = np.array(PEAK_SERIES[name], dtype=float)
    for series in (x, -x, np.repeat(x, 3)):
        expect, _ = scipy.signal.find_peaks(series, distance=distance)
        got = gk_signal.find_peaks(series, distance=distance)
        assert got.tolist() == expect.tolist()


@pytest.mark.parametrize("distance", [None, 1, 80, 100])
def test_find_peaks_gives_scipy_indices_on_noisy_gait_like_series(distance):
    rng = np.random.default_rng(9)
    t = np.arange(2000) / RATE
    x = np.sin(2 * np.pi * 0.9 * t) + 0.3 * rng.normal(size=t.size)
    x = np.round(x, 1)  # many ties and short plateaus
    expect, _ = scipy.signal.find_peaks(x, distance=distance)
    got = gk_signal.find_peaks(x, distance=distance)
    assert got.tolist() == expect.tolist()


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

    fast = gk_signal._sosfilt(sos, x, states * x[:, :1, np.newaxis])
    slow = reference_cascade(sos, x, states, x[:, 0])
    assert fast.dtype == np.longdouble
    assert np.array_equal(fast, slow)

    # the forward-backward path built on it keeps the Gustafsson initial states
    padlen = 3 * order
    ext = np.pad(x, ((0, 0), (padlen, padlen)), mode="reflect")
    fwd = reference_cascade(sos, ext, states, ext[:, 0])
    rev = reference_cascade(sos, fwd[:, ::-1], states, fwd[:, -1])
    expect = rev[:, ::-1][:, padlen:-padlen]
    assert np.array_equal(gk_signal._zero_phase(sos, states, x, padlen), expect)


def test_smoothed_acceleration_rejects_bad_parameters():
    series = UniformSeries(RATE, np.linspace(0.0, 1.0, 500))
    with pytest.raises(InputError, match="cutoff"):
        smoothed_acceleration(series, 150.0)
    for order in (3, 0, 10, 100):
        for run in (lowpass, smoothed_acceleration):
            with pytest.raises(InputError, match=f"from 2 to 8, got {order}$"):
                run(series, 5.0, order=order)
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
    assert np.array_equal(series.values[0], np.arange(5.0))


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
