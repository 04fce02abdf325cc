"""Shared fixtures: bundled model files, synthetic trials, derived pipelines.

``decompose_ds_oracle`` is the reference the closed-form double-stance
split is checked against, and ``differentiate`` the finite-difference
reference for ``smoothed_acceleration`` and for tests that attach an
exact acceleration to an unfiltered CoM trajectory.  ``generate_static``
and ``generate_two_leg_forces`` build the test-only trials beside
``synth``'s walker: a frozen subject and analytic per-leg forces.

Expensive artifacts (the 10 s walker, its filtered CoM, the detected
timeline, the per-limb decomposition) are session-scoped so the whole
suite computes them once.  ``ACCEPTANCE_RESULTS`` collects one PASS/FAIL
line per acceptance test; the terminal-summary hook prints them at the
end of the run so the verdict survives in captured output.
"""

from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from gaitkinetics.anthro import SubjectProfile, bundled_table_path, load_table
from gaitkinetics.errors import InputError
from gaitkinetics.events import FootEvents, GaitTimeline, build_timeline, detect_events_zeni
from gaitkinetics.grf import DsBoundary, GrfSeries, _window, decompose_gait, total_grf
from gaitkinetics.ingest import MarkerTrajectorySet
from gaitkinetics.kinematics import (
    bundled_definitions_path,
    com_trajectory,
    filter_com_trajectory,
    load_segment_definitions,
)
from gaitkinetics.signal import UniformSeries, _second_difference, lowpass
from gaitkinetics.synth import (
    SynthTrial,
    WalkerParams,
    _scripted_events,
    _walker_markers,
    generate_walker,
)

CUTOFF_HZ = 5.0
FILTER_ORDER = 4

ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def acceptance_log():
    """Callable that records one acceptance verdict line for the summary."""

    def log(line: str) -> None:
        ACCEPTANCE_RESULTS.append(line)

    return log


def detect_timeline_from_markers(
    trial, cutoff_hz=CUTOFF_HZ, order=FILTER_ORDER, min_period_s=0.4
):
    """Detect events from marker data alone (same chain the CLI runs)."""
    traj = trial.markers
    rate = traj.sample_rate_hz

    def filtered_ap(name):
        return lowpass(UniformSeries(rate, traj.markers[name][:, 0]), cutoff_hz, order)

    sacrum = filtered_ap("SACR")
    events = {}
    for foot, heel, toe in (("left", "LHEE", "LTOE"), ("right", "RHEE", "RTOE")):
        hs, to = detect_events_zeni(
            filtered_ap(heel), filtered_ap(toe), sacrum, min_period_s
        )
        events[foot] = FootEvents(foot=foot, heel_strikes=hs, toe_offs=to)
    return build_timeline(events["left"], events["right"], traj.n_frames, rate)


def generate_static(
    params: WalkerParams | None = None, n_frames: int = 400, at_time_s: float = 0.2
) -> SynthTrial:
    """Freeze the walker mid-double-stance: every marker constant in time.

    The resulting CoM is exactly stationary, so the total force must be
    pure weight.  No gait events exist; the event lists are empty.
    """
    params = params or WalkerParams()
    if n_frames < 2:
        raise InputError(f"need at least 2 frames, got {n_frames}")
    single = _walker_markers(np.array([at_time_s]), params)
    positions = {name: np.repeat(pos, n_frames, axis=0) for name, pos in single.items()}
    empty = np.zeros(0, dtype=int)
    return SynthTrial(
        markers=MarkerTrajectorySet(params.sample_rate_hz, positions),
        subject=SubjectProfile(
            mass_kg=params.mass_kg, height_m=params.height_m, sex="m"
        ),
        left_events=FootEvents("left", empty, empty),
        right_events=FootEvents("right", empty, empty),
        params=params,
    )


@dataclass
class TwoLegForces:
    """Analytic per-leg forces with scripted timing, for decomposition tests."""

    total: GrfSeries
    timeline: GaitTimeline
    left_force: np.ndarray  # (3, n)
    right_force: np.ndarray  # (3, n)
    body_weight_n: float
    mass_kg: float


def _smoothstep(p: np.ndarray) -> np.ndarray:
    return p * p * (3.0 - 2.0 * p)


def generate_two_leg_forces(
    params: WalkerParams | None = None, gravity_mps2: float = 9.81
) -> TwoLegForces:
    """Build known per-leg forces whose sum is handed to the decomposer.

    Each leg's load ramps in and out smoothly across the double-stance
    windows (zero at its heel strike, zero at its toe-off) and carries a
    gentle double-humped modulation during stance.  The scripted timeline
    lets tests compare the minimum rate-of-change reconstruction against
    this ground truth.
    """
    params = params or WalkerParams()
    n = params.n_frames
    rate = params.sample_rate_hz
    t = np.arange(n) / rate
    bw = params.mass_kg * gravity_mps2
    T = params.cycle_s
    S = params.stance_s
    ds = params.left_to_offset_s - params.right_hs_offset_s  # double-stance length

    def leg(hs_offset_s: float, ap_sign: float) -> np.ndarray:
        u = np.mod(t - hs_offset_s, T)
        in_stance = u <= S
        p = np.where(in_stance, u / S, 0.0)
        d = ds / S  # fraction of stance spent in each double-stance window
        ramp_in = _smoothstep(np.clip(p / d, 0.0, 1.0))
        ramp_out = _smoothstep(np.clip((1.0 - p) / d, 0.0, 1.0))
        w = np.where(in_stance, ramp_in * ramp_out, 0.0)
        hump = 1.0 + 0.12 * np.cos(4.0 * np.pi * (p - 0.05)) * np.sin(np.pi * p)
        fz = w * bw * hump
        fx = ap_sign * w * 0.15 * bw * np.sin(2.0 * np.pi * p)
        fy = ap_sign * w * 0.05 * bw * np.sin(np.pi * p)
        return np.vstack([fx, fy, fz])

    left = leg(params.left_hs_offset_s, 1.0)
    right = leg(params.right_hs_offset_s, -1.0)
    total = GrfSeries(rate, left + right)
    ev_left, ev_right = _scripted_events(params, n)
    timeline = build_timeline(ev_left, ev_right, n, rate)
    return TwoLegForces(
        total=total,
        timeline=timeline,
        left_force=left,
        right_force=right,
        body_weight_n=bw,
        mass_kg=params.mass_kg,
    )


@pytest.fixture(scope="session")
def table():
    return load_table(bundled_table_path())


@pytest.fixture(scope="session")
def definitions():
    return load_segment_definitions(bundled_definitions_path())


@pytest.fixture(scope="session")
def walker():
    return generate_walker()


@pytest.fixture(scope="session")
def static_trial():
    return generate_static()


@pytest.fixture(scope="session")
def walker_com_raw(walker, table, definitions):
    return com_trajectory(walker.markers, definitions, table, walker.subject)


@pytest.fixture(scope="session")
def walker_com(walker_com_raw):
    return filter_com_trajectory(walker_com_raw, CUTOFF_HZ, FILTER_ORDER)


@pytest.fixture(scope="session")
def walker_total(walker_com, walker):
    return total_grf(walker_com, walker.subject)


@pytest.fixture(scope="session")
def walker_timeline(walker):
    return detect_timeline_from_markers(walker)


@pytest.fixture(scope="session")
def walker_bilateral(walker_total, walker_timeline, walker):
    return decompose_gait(walker_total, walker_timeline, walker.subject.mass_kg)


@pytest.fixture(scope="session")
def two_leg():
    return generate_two_leg_forces()


def shift_markers(traj, delta):
    """Copy of a marker set with a constant 3-vector added to every sample."""
    delta = np.asarray(delta, dtype=float)
    markers = {name: pos + delta for name, pos in traj.markers.items()}
    return type(traj)(sample_rate_hz=traj.sample_rate_hz, markers=markers)


def displace_markers_z(traj, dz):
    """Copy of a marker set with a per-frame vertical track added to all markers."""
    dz = np.asarray(dz, dtype=float)
    markers = {}
    for name, pos in traj.markers.items():
        moved = pos.copy()
        moved[:, 2] += dz
        markers[name] = moved
    return type(traj)(sample_rate_hz=traj.sample_rate_hz, markers=markers)


def decompose_ds_oracle(
    total: GrfSeries, boundary: DsBoundary
) -> tuple[GrfSeries, GrfSeries]:
    """Reference split: exact minimizer of the discretized objective.

    Minimizes the sum of squared sample-to-sample increments of both limb
    forces subject to r1 + r2 = f, r2 = 0 at the first sample and r1 = 0 at
    the last.  Eliminating r2 leaves a tridiagonal normal system for the
    interior r1 samples, solved per axis.  Kept as an independent check on
    ``decompose_ds``; needs at least 3 samples in the window.
    """
    f = _window(total, boundary)
    n = f.shape[1]
    if n < 3:
        raise InputError(f"oracle needs at least 3 samples in the window, got {n}")
    r1 = np.empty_like(f)
    r1[:, 0] = f[:, 0]  # r2 pinned to zero at the heel strike
    r1[:, -1] = 0.0  # trailing limb pinned to zero at toe-off
    # stationarity: r1[j-1] - 2 r1[j] + r1[j+1] = (f[j-1] - 2 f[j] + f[j+1]) / 2
    rhs = 0.5 * (f[:, :-2] - 2.0 * f[:, 1:-1] + f[:, 2:])
    rhs[:, 0] -= r1[:, 0]
    rhs[:, -1] -= r1[:, -1]
    m = n - 2
    ab = np.zeros((3, m))
    ab[0, 1:] = 1.0  # superdiagonal
    ab[1, :] = -2.0  # diagonal
    ab[2, :-1] = 1.0  # subdiagonal
    r1_interior = scipy.linalg.solve_banded((1, 1), ab, rhs.T)
    r1[:, 1:-1] = r1_interior.T
    r2 = f - r1
    return (
        GrfSeries(total.sample_rate_hz, r1),
        GrfSeries(total.sample_rate_hz, r2),
    )


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
    elif n == 3:  # the single 3-point estimate at every sample
        d = np.diff(x, axis=1)
        out = np.repeat((d[:, 1:] - d[:, :1]) * (r * r), 3, axis=1)
    else:
        out = _second_difference(x, r)
    return UniformSeries(sample_rate_hz=r, values=out)
