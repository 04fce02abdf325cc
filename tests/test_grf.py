"""Total ground reaction force and minimum rate-of-change limb decomposition."""

import copy
import dataclasses

import numpy as np
import pytest

from gaitkinetics import grf
from gaitkinetics.errors import InputError, InternalInvariantError
from gaitkinetics.events import DOUBLE_STANCE, NO_STANCE, FootEvents, build_timeline
from gaitkinetics.grf import (
    DEFAULT_BUTTERFLY_SCALE_M_PER_N,
    EXCLUSION_REASONS,
    BilateralGrf,
    ButterflyDiagram,
    GrfDiagnostics,
    GrfSeries,
    butterfly,
    decompose_ds,
    decompose_gait,
    total_grf,
    write_bilateral_csv,
    write_butterfly_csv,
    write_butterfly_svg,
    write_diagnostics_csv,
)
from gaitkinetics.kinematics import com_trajectory, filter_com_trajectory
from gaitkinetics.signal import UniformSeries

from conftest import (
    CUTOFF_HZ,
    FILTER_ORDER,
    decompose_ds_oracle,
    differentiate,
    displace_markers_z,
    foot_ground_from_every_segment,
)
from test_events import _random_foot_events

GRAVITY = 9.81


def _smooth_force(rng, n, scale=300.0):
    """Random low-frequency 3-axis force profile (a sinusoid mixture)."""
    tau = np.linspace(0.0, 1.0, n)
    rows = []
    for _ in range(3):
        vals = np.zeros(n)
        for k in range(1, 5):
            vals += rng.uniform(-1.0, 1.0) * np.sin(
                np.pi * k * tau + rng.uniform(0.0, 2.0 * np.pi)
            )
        rows.append(scale * vals)
    return np.vstack(rows)


def _increment_energy(*arrays):
    """Discretized objective: summed squared sample-to-sample increments."""
    return float(sum(np.sum(np.diff(a, axis=1) ** 2) for a in arrays))


# ----------------------------------------------------------- total force


def test_static_subject_supports_exactly_body_weight(static_trial, table, definitions):
    com = com_trajectory(
        static_trial.markers, definitions, table, static_trial.subject
    )
    filtered = filter_com_trajectory(com, CUTOFF_HZ, FILTER_ORDER)
    force = total_grf(filtered, static_trial.subject)
    weight = static_trial.subject.mass_kg * GRAVITY
    assert np.max(np.abs(force.force[0])) <= 1e-6
    assert np.max(np.abs(force.force[1])) <= 1e-6
    assert np.max(np.abs(force.force[2] - weight)) <= 1e-6


def with_differenced_acceleration(com):
    """The unfiltered trajectory with its positions' second differences
    attached as the acceleration ``total_grf`` reads."""
    differenced = copy.copy(com)
    differenced.whole_body_acceleration = differentiate(
        UniformSeries(com.sample_rate_hz, com.whole_body), 2
    ).values
    return differenced


def test_free_fall_produces_zero_force(static_trial, table, definitions):
    # displace every marker along the ballistic arc; double-differencing
    # the positions is exact for a parabola
    markers = static_trial.markers
    n = next(iter(markers.markers.values())).shape[0]
    t = np.arange(n) / markers.sample_rate_hz
    falling = displace_markers_z(markers, 0.4 * t - 0.5 * GRAVITY * t**2)
    com = com_trajectory(falling, definitions, table, static_trial.subject)
    force = total_grf(with_differenced_acceleration(com), static_trial.subject)
    assert np.max(np.abs(force.force)) <= 1e-6


def test_vertical_oscillation_matches_the_analytic_force(
    static_trial, table, definitions
):
    markers = static_trial.markers
    rate = markers.sample_rate_hz
    n = next(iter(markers.markers.values())).shape[0]
    t = np.arange(n) / rate
    amp, freq = 0.05, 2.0
    omega = 2.0 * np.pi * freq
    bobbing = displace_markers_z(markers, amp * np.sin(omega * t))
    com = com_trajectory(bobbing, definitions, table, static_trial.subject)
    force = total_grf(with_differenced_acceleration(com), static_trial.subject)
    m = static_trial.subject.mass_kg
    expected_z = m * (GRAVITY - amp * omega**2 * np.sin(omega * t))
    interior = slice(2, -2)
    err = force.force[2, interior] - expected_z[interior]
    rms = np.sqrt(np.mean(err**2))
    assert rms <= 0.005 * (m * amp * omega**2)  # central stencil is O(h^2)
    assert np.max(np.abs(force.force[:2])) <= 1e-6  # no horizontal motion


def test_total_grf_validates_gravity_and_finiteness(
    static_trial, table, definitions
):
    com = com_trajectory(
        static_trial.markers, definitions, table, static_trial.subject
    )
    with pytest.raises(InputError, match="gravity"):
        total_grf(com, static_trial.subject, gravity_mps2=0.0)
    filtered = filter_com_trajectory(com, CUTOFF_HZ, FILTER_ORDER)
    filtered.whole_body_acceleration[0, 3] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        total_grf(filtered, static_trial.subject)


def test_total_grf_refuses_an_unfiltered_trajectory(static_trial, table, definitions):
    com = com_trajectory(
        static_trial.markers, definitions, table, static_trial.subject
    )
    assert com.whole_body_acceleration is None
    with pytest.raises(InputError, match="filter_com_trajectory"):
        total_grf(com, static_trial.subject)


def test_grf_series_validation():
    series = GrfSeries(200.0, np.zeros((3, 5)))
    assert series.n_frames == 5
    assert np.array_equal(series.times(), np.arange(5) / 200.0)
    with pytest.raises(InputError, match="sample rate"):
        GrfSeries(0.0, np.zeros((3, 5)))
    with pytest.raises(InputError, match=r"\(3, n_frames\)"):
        GrfSeries(200.0, np.zeros((2, 5)))
    with pytest.raises(InputError, match="empty"):
        GrfSeries(200.0, np.zeros((3, 0)))
    bad = np.zeros((3, 5))
    bad[1, 2] = np.inf
    with pytest.raises(InputError, match="non-finite"):
        GrfSeries(200.0, bad)


# ------------------------------------------------- double-stance splitting


def test_constant_total_splits_into_a_linear_crossfade():
    f0 = np.array([12.0, -3.0, 800.0])
    r1, r2 = decompose_ds(np.tile(f0[:, None], (1, 21)))
    tau = np.arange(21) / 20.0
    assert np.max(np.abs(r1 - f0[:, None] * (1.0 - tau))) <= 1e-12 * 800.0
    assert np.max(np.abs(r2 - f0[:, None] * tau)) <= 1e-12 * 800.0


def test_split_boundary_forces_vanish_bitwise():
    rng = np.random.default_rng(11)
    window = _smooth_force(rng, 400)[:, 37:82]
    r1, r2 = decompose_ds(window)
    assert np.all(r2[:, 0] == 0.0)  # leading limb zero at heel strike
    assert np.all(r1[:, -1] == 0.0)  # trailing limb zero at toe-off
    assert np.max(np.abs(r1 + r2 - window)) <= 1e-12 * np.max(
        np.abs(window)
    )


def test_closed_form_matches_the_discrete_minimizer():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 121))
        force = _smooth_force(rng, n)
        r1c, r2c = decompose_ds(force)
        r1o, r2o = decompose_ds_oracle(force)
        scale = max(1.0, float(np.max(np.abs(force))))
        gap = max(
            float(np.max(np.abs(r1c - r1o))),
            float(np.max(np.abs(r2c - r2o))),
        )
        worst = max(worst, gap / scale)
    assert worst <= 1e-6


def test_three_sample_split_beats_a_brute_force_grid():
    rng = np.random.default_rng(3)
    f = rng.uniform(-500.0, 500.0, size=(3, 3))
    r1, r2 = decompose_ds(f)
    # stationarity has one free value per axis: the middle trailing sample
    expected_mid = (f[:, 0] + 2.0 * f[:, 1] - f[:, 2]) / 4.0
    assert np.max(np.abs(r1[:, 1] - expected_mid)) <= 1e-12 * 500.0
    j_opt = _increment_energy(r1, r2)
    for offset in np.linspace(-200.0, 200.0, 81):
        if offset == 0.0:
            continue
        r1_alt = r1.copy()
        r1_alt[:, 1] += offset
        r2_alt = f - r1_alt
        assert _increment_energy(r1_alt, r2_alt) > j_opt


def test_interior_curvature_is_half_the_total_curvature():
    rng = np.random.default_rng(17)
    force = _smooth_force(rng, 60)
    r1, r2 = decompose_ds(force)

    def second_diff(a):
        return a[:, 2:] - 2.0 * a[:, 1:-1] + a[:, :-2]

    target = 0.5 * second_diff(force)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(second_diff(force)))))
    assert np.max(np.abs(second_diff(r1) - target)) <= tol
    assert np.max(np.abs(second_diff(r2) - target)) <= tol


def test_endpoint_preserving_perturbations_never_lower_the_objective():
    rng = np.random.default_rng(23)
    force = _smooth_force(rng, 40)
    r1, r2 = decompose_ds(force)
    j_opt = _increment_energy(r1, r2)
    tau = np.arange(40) / 39.0
    for _ in range(200):
        delta = rng.uniform(-30.0, 30.0) * np.sin(
            np.pi * int(rng.integers(1, 6)) * tau
        )
        delta[0] = 0.0
        delta[-1] = 0.0  # keep both boundary conditions intact
        axis = int(rng.integers(0, 3))
        r1_alt = r1.copy()
        r1_alt[axis] += delta
        r2_alt = force - r1_alt
        assert _increment_energy(r1_alt, r2_alt) >= j_opt * (1.0 - 1e-9)


def test_the_split_of_forces_near_the_largest_float_stays_finite():
    # both ends past half the float maximum: a sum of two forces overflows,
    # yet no limb force is larger than the total
    big = 1.7e308
    force = np.array([
        [big, -big, big, -big, big],
        [big, big, -big, big, big],
        [-big, big, 0.0, -big, -big],
    ])
    r1, r2 = decompose_ds(force)
    assert np.all(np.isfinite(r1)) and np.all(np.isfinite(r2))
    assert np.max(np.abs(r1 + r2 - force)) <= 1e-15 * big
    assert r1[:, -1].tolist() == [0.0] * 3 and r2[:, 0].tolist() == [0.0] * 3


def test_split_validation():
    rng = np.random.default_rng(5)
    force = _smooth_force(rng, 50)
    with pytest.raises(InputError, match="k >= 2"):
        decompose_ds(force[:, 10:11])
    with pytest.raises(InputError, match="k >= 2"):
        decompose_ds(force[:2])
    bad = force[:, 40:60].copy()
    bad[1, 7] = np.nan
    with pytest.raises(InputError, match="non-finite"):
        decompose_ds(bad)
    with pytest.raises(InputError, match="at least 3"):
        decompose_ds_oracle(force[:, 5:7])


# ------------------------------------------------------- whole-trial split


def _mixed_timeline(rate=100.0, n=200):
    left = FootEvents("left", heel_strikes=(100,), toe_offs=(150,))
    right = FootEvents("right", heel_strikes=(), toe_offs=(130,))
    return build_timeline(left, right, n_frames=n, sample_rate_hz=rate)


def test_scripted_two_leg_forces_are_recovered(two_leg):
    bilateral = decompose_gait(two_leg.total, two_leg.timeline, two_leg.mass_kg)
    assert bilateral.analyzed.all()
    assert bilateral.diagnostics.excluded_intervals == []
    for estimated, truth in (
        (bilateral.left.force, two_leg.left_force),
        (bilateral.right.force, two_leg.right_force),
    ):
        rmse = np.sqrt(np.mean((estimated - truth) ** 2, axis=1))
        assert np.max(rmse) <= 0.05 * two_leg.body_weight_n


def test_single_stance_hands_the_whole_total_to_the_stance_limb():
    rng = np.random.default_rng(41)
    total = GrfSeries(100.0, _smooth_force(rng, 50))
    timeline = build_timeline(
        FootEvents("left", (0,), ()), FootEvents("right", (), ()), 50, 100.0
    )
    bilateral = decompose_gait(total, timeline, 70.0)
    assert np.array_equal(bilateral.left.force, total.force)
    assert np.all(bilateral.right.force == 0.0)
    assert bilateral.analyzed.all()


def test_no_stance_frames_are_excluded_with_zeros():
    rng = np.random.default_rng(43)
    total = GrfSeries(100.0, _smooth_force(rng, 200))
    bilateral = decompose_gait(total, _mixed_timeline(), 70.0)
    assert bilateral.analyzed[:151].all()
    assert not bilateral.analyzed[151:].any()
    assert np.all(bilateral.left.force[:, 151:] == 0.0)
    assert np.all(bilateral.right.force[:, 151:] == 0.0)
    assert bilateral.diagnostics.excluded_intervals == [
        (151, 199, "no foot in stance")
    ]


def test_double_stance_without_boundary_events_is_refused():
    # both feet already in stance when the recording starts: the double
    # stance has no detected heel strike or toe-off to pin the split to
    left = FootEvents("left", (), (50,))
    right = FootEvents("right", (), (80,))
    timeline = build_timeline(left, right, 100, 100.0)
    rng = np.random.default_rng(47)
    total = GrfSeries(100.0, _smooth_force(rng, 100))
    bilateral = decompose_gait(total, timeline, 70.0)
    assert not bilateral.analyzed[:51].any()
    assert np.all(bilateral.left.force[:, :51] == 0.0)
    assert np.all(bilateral.right.force[:, :51] == 0.0)
    assert bilateral.analyzed[51:81].all()  # right single stance
    reasons = [reason for _, _, reason in bilateral.diagnostics.excluded_intervals]
    assert "double stance without detected boundary events" in reasons
    assert "no foot in stance" in reasons


def test_flagged_boundary_frames_refuse_the_split():
    rng = np.random.default_rng(53)
    total = GrfSeries(100.0, _smooth_force(rng, 200))
    timeline = _mixed_timeline()

    flagged = np.zeros(200, dtype=bool)
    flagged[100] = True  # the double-stance opening frame
    refused = decompose_gait(total, timeline, 70.0, flagged_frames=flagged)
    assert not refused.analyzed[100:131].any()
    assert np.all(refused.left.force[:, 100:131] == 0.0)
    assert np.all(refused.right.force[:, 100:131] == 0.0)
    assert (
        100,
        130,
        "double stance boundary force derived from flagged frames",
    ) in refused.diagnostics.excluded_intervals

    flagged = np.zeros(200, dtype=bool)
    flagged[115] = True  # interior frames do not block the split
    accepted = decompose_gait(total, timeline, 70.0, flagged_frames=flagged)
    assert accepted.analyzed[100:131].all()


def _exclusion_reason(phase, flagged):
    """The reason a phase is left out of the split, or None."""
    if phase.label == NO_STANCE:
        return "no foot in stance"
    if phase.label != DOUBLE_STANCE:
        return None
    if phase.incomplete:
        return "double stance without detected boundary events"
    if phase.start == phase.end:
        return "zero-length double stance"
    if flagged[phase.start] or flagged[phase.end]:
        return "double stance boundary force derived from flagged frames"
    return None


def test_decompose_gait_on_random_timelines():
    """Random events, smooth forces and flagged frames: the analysed frames and
    the excluded intervals partition the trial, each interval is one phase
    with the reason it earns (two touching phases with different reasons
    among them), left + right is the total on analysed frames,
    each split double stance's boundary limb forces are exactly 0.0, and both
    negative-vertical masks lie inside ``analyzed``."""
    rng = np.random.default_rng(20261019)
    seen = dict.fromkeys(
        ["split", "no foot in stance", "double stance without detected boundary events",
         "zero-length double stance", "double stance boundary force derived from flagged frames",
         "negative vertical", "touching reasons"],
        0,
    )
    for _ in range(1500):
        n = int(rng.integers(1, 121))
        left = _random_foot_events(rng, "left", n)
        right = _random_foot_events(rng, "right", n)
        timeline = build_timeline(left, right, n, sample_rate_hz=100.0)
        total = GrfSeries(100.0, _smooth_force(rng, n, scale=float(rng.uniform(1.0, 1000.0))))
        flagged = rng.random(n) < rng.uniform(0.0, 0.3)
        bilateral = decompose_gait(total, timeline, 70.0, flagged_frames=flagged)
        intervals = bilateral.diagnostics.excluded_intervals

        reasons = [(p, _exclusion_reason(p, flagged)) for p in timeline.phases]
        assert intervals == [(p.start, p.end, r) for p, r in reasons if r is not None]
        covered = np.zeros(n, dtype=int)
        for start, end, reason in intervals:
            covered[start : end + 1] += 1
            seen[reason] += 1
        assert np.array_equal(covered, (~bilateral.analyzed).astype(int))
        # two excluded phases that touch stay two intervals when their reasons differ
        seen["touching reasons"] += any(
            a[1] + 1 == b[0] and a[2] != b[2] for a, b in zip(intervals, intervals[1:])
        )

        resid = bilateral.left.force + bilateral.right.force - total.force
        scale = np.abs(total.force).max()
        assert np.abs(resid[:, bilateral.analyzed]).max(initial=0.0) <= 1e-9 * scale
        for phase, reason in reasons:
            if phase.label == DOUBLE_STANCE and reason is None:
                seen["split"] += 1
                leading = bilateral.limb(phase.leading_foot).force[:, phase.start]
                trailing = bilateral.limb(phase.trailing_foot).force[:, phase.end]
                assert leading.tolist() == [0.0] * 3 and trailing.tolist() == [0.0] * 3

        for mask in (bilateral.diagnostics.negative_vertical_left,
                     bilateral.diagnostics.negative_vertical_right):
            assert not (mask & ~bilateral.analyzed).any()
            seen["negative vertical"] += int(mask.any())
    assert all(count > 0 for count in seen.values()), seen


def test_decompose_gait_validates_inputs():
    rng = np.random.default_rng(59)
    total = GrfSeries(100.0, _smooth_force(rng, 200))
    timeline = _mixed_timeline()
    with pytest.raises(InputError, match="spans"):
        decompose_gait(GrfSeries(100.0, total.force[:, :-1]), timeline, 70.0)
    with pytest.raises(InputError, match="rates differ"):
        decompose_gait(GrfSeries(50.0, total.force), timeline, 70.0)
    with pytest.raises(InputError, match="mass"):
        decompose_gait(total, timeline, 0.0)
    with pytest.raises(InputError, match="flagged_frames"):
        decompose_gait(total, timeline, 70.0, flagged_frames=np.zeros(5, bool))


@pytest.mark.parametrize("mass", [-70.0, -np.inf, 0.0, np.nan, np.inf])
def test_the_limb_split_refuses_a_mass_that_is_not_positive_and_finite(mass):
    # an infinite mass makes the -2% body-weight floor -inf and flags no frame
    rng = np.random.default_rng(67)
    total = GrfSeries(100.0, _smooth_force(rng, 200))
    with pytest.raises(InputError, match="mass must be positive and finite"):
        decompose_gait(total, _mixed_timeline(), mass)


@pytest.mark.parametrize("gravity", [-9.81, -np.inf, 0.0, np.nan, np.inf])
def test_the_limb_split_refuses_a_gravity_that_is_not_positive_and_finite(gravity):
    # a negative gravity raises the -2% body-weight floor above zero and flags
    # ordinary stance frames; 0 and nan would flag none
    rng = np.random.default_rng(67)
    total = GrfSeries(100.0, _smooth_force(rng, 200))
    with pytest.raises(InputError, match="gravity must be positive and finite"):
        decompose_gait(total, _mixed_timeline(), 70.0, gravity_mps2=gravity)


@pytest.mark.parametrize("foot, other", [("left", "right"), ("right", "left")])
def test_force_on_an_excluded_frame_is_never_flagged_as_negative(foot, other):
    # decompose_gait leaves excluded frames at 0.0, but a BilateralGrf built
    # directly may load them; only analysed frames are judged
    rng = np.random.default_rng(73)
    good = decompose_gait(GrfSeries(100.0, _smooth_force(rng, 200)), _mixed_timeline(), 70.0)
    assert (151, 199, "no foot in stance") in good.diagnostics.excluded_intervals
    given = {f.name: getattr(good, f.name) for f in dataclasses.fields(good) if f.init}
    pulled, pushed = good.limb(foot).force.copy(), good.limb(other).force.copy()
    pulled[2, 151:] = -1000.0
    pushed[2, 151:] = good.total.force[2, 151:] + 1000.0
    given.update({foot: GrfSeries(100.0, pulled), other: GrfSeries(100.0, pushed)})
    loaded = BilateralGrf(**given)
    assert not getattr(loaded.diagnostics, f"negative_vertical_{foot}")[151:].any()


def test_bilateral_invariants_catch_tampered_forces():
    rng = np.random.default_rng(61)
    total = GrfSeries(100.0, _smooth_force(rng, 200))
    timeline = _mixed_timeline()
    good = decompose_gait(total, timeline, 70.0)

    def rebuild(left, right):
        return BilateralGrf(
            total=good.total,
            left=GrfSeries(100.0, left),
            right=GrfSeries(100.0, right),
            timeline=good.timeline,
            mass_kg=good.mass_kg,
            gravity_mps2=good.gravity_mps2,
            status=good.status,
        )

    broken_sum = good.left.force.copy()
    broken_sum[2, 60] += 1.0
    with pytest.raises(InternalInvariantError, match="does not reproduce"):
        rebuild(broken_sum, good.right.force)

    # keep the sum intact but load the swing limb during right single stance
    swing_left = good.left.force.copy()
    swing_right = good.right.force.copy()
    swing_left[2, 60] += 5.0
    swing_right[2, 60] -= 5.0
    with pytest.raises(InternalInvariantError, match="swing limb"):
        rebuild(swing_left, swing_right)

    with pytest.raises(InternalInvariantError, match="frame counts"):
        BilateralGrf(
            total=good.total,
            left=GrfSeries(100.0, good.left.force[:, :-1]),
            right=good.right,
            timeline=good.timeline,
            mass_kg=good.mass_kg,
            gravity_mps2=good.gravity_mps2,
            status=good.status,
        )
    with pytest.raises(InputError, match="foot"):
        good.limb("back")


def test_bilateral_derives_analyzed_and_diagnostics_from_its_status():
    rng = np.random.default_rng(71)
    good = decompose_gait(GrfSeries(100.0, _smooth_force(rng, 200)), _mixed_timeline(), 70.0)
    no_stance = EXCLUSION_REASONS.index("no foot in stance")
    assert good.status.tolist() == [0] * 151 + [no_stance] * 49
    given = {f.name: getattr(good, f.name) for f in dataclasses.fields(good) if f.init}
    rebuilt = BilateralGrf(**given)
    assert np.array_equal(rebuilt.analyzed, good.status == 0)
    assert rebuilt.diagnostics.excluded_intervals == [(151, 199, "no foot in stance")]
    for side in ("left", "right"):
        mask = f"negative_vertical_{side}"
        assert np.array_equal(getattr(rebuilt.diagnostics, mask), getattr(good.diagnostics, mask))
    # each run of one code is an interval, also where it touches a run of another
    status = good.status.copy()
    status[151:161] = EXCLUSION_REASONS.index("zero-length double stance")
    split = BilateralGrf(**{**given, "status": status})
    assert split.diagnostics.excluded_intervals == [
        (151, 160, "zero-length double stance"), (161, 199, "no foot in stance"),
    ]
    # the derived values cannot be passed in to disagree with the status
    for name in ("analyzed", "diagnostics"):
        with pytest.raises(TypeError, match=name):
            BilateralGrf(**given, **{name: None})
    with pytest.raises(TypeError):
        GrfDiagnostics()
    # a status of the wrong shape, or with a code that names no reason
    for status in (good.status[:-1], np.full(200, len(EXCLUSION_REASONS)), np.full(200, -1),
                   good.status.astype(float)):
        with pytest.raises(InternalInvariantError, match="status"):
            BilateralGrf(**{**given, "status": status})


def test_negative_vertical_force_is_flagged(tmp_path):
    force = np.zeros((3, 50))
    force[2] = -20.0  # below -2% of body weight (80 kg: floor is -15.7 N)
    total = GrfSeries(100.0, force)
    timeline = build_timeline(
        FootEvents("left", (0,), ()), FootEvents("right", (), ()), 50, 100.0
    )
    bilateral = decompose_gait(total, timeline, 80.0)
    assert bilateral.diagnostics.negative_vertical_left.all()
    assert not bilateral.diagnostics.negative_vertical_right.any()
    path = tmp_path / "diagnostics.csv"
    write_diagnostics_csv(path, bilateral)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "record,start_frame,end_frame,detail"
    assert "negative_vertical,0,49,left limb below -0.02 body weight" in lines


# ---------------------------------------------------------------- butterfly


def test_butterfly_anchors_every_analyzed_stance_frame(
    walker_bilateral, walker_com, walker_com_raw
):
    diagram = butterfly(walker_bilateral, walker_com)
    feet = np.array(diagram.feet)
    expected_total = 0
    # the anchors are the feet's rows of a low-pass of every segment, bit for bit
    reference = foot_ground_from_every_segment(walker_com_raw, CUTOFF_HZ, FILTER_ORDER)
    for foot, ground in zip(("left", "right"), reference):
        mask = walker_bilateral.timeline.stance_mask(foot) & walker_bilateral.analyzed
        expected_total += int(mask.sum())
        sel = feet == foot
        assert np.array_equal(np.sort(diagram.frames[sel]), np.nonzero(mask)[0])
        foot_xy = np.ascontiguousarray(diagram.bases[sel][:, :2].T)
        assert foot_xy.tobytes() == ground[:, diagram.frames[sel]].tobytes()
        limb = walker_bilateral.limb(foot).force[:, diagram.frames[sel]]
        assert np.array_equal(diagram.forces[sel].T, limb)
    assert diagram.n_entries == expected_total
    assert np.all(diagram.bases[:, 2] == 0.0)
    # the diagram carries its one display scale and the tips drawn at it
    names = [f.name for f in dataclasses.fields(diagram)]
    assert names == ["feet", "frames", "bases", "forces", "scale_m_per_n", "tips"]
    assert diagram.scale_m_per_n == DEFAULT_BUTTERFLY_SCALE_M_PER_N
    assert np.array_equal(diagram.tips, diagram.bases + 0.001 * diagram.forces)


def test_butterfly_is_empty_without_stance(static_trial, table, definitions):
    com = com_trajectory(
        static_trial.markers, definitions, table, static_trial.subject
    )
    n = com.n_frames
    total = GrfSeries(com.sample_rate_hz, np.ones((3, n)))
    timeline = build_timeline(
        FootEvents("left", (), ()), FootEvents("right", (), ()), n, com.sample_rate_hz
    )
    bilateral = decompose_gait(total, timeline, 80.0)
    with pytest.raises(InputError, match="filter_com_trajectory"):
        butterfly(bilateral, com)
    diagram = butterfly(bilateral, filter_com_trajectory(com, CUTOFF_HZ, FILTER_ORDER))
    assert diagram.n_entries == 0
    assert diagram.bases.shape == (0, 3)


def test_butterfly_mismatch_guard(walker_bilateral, static_trial, table, definitions):
    com = com_trajectory(
        static_trial.markers, definitions, table, static_trial.subject
    )
    with pytest.raises(InputError, match="frame counts"):
        butterfly(walker_bilateral, com)


# ------------------------------------------------------------------ writers


def test_bilateral_csv_round_trips_values(tmp_path, walker_bilateral):
    path = tmp_path / "grf.csv"
    write_bilateral_csv(path, walker_bilateral)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "time_s,Fx_total,Fy_total,Fz_total,Fx_L,Fy_L,Fz_L,Fx_R,Fy_R,Fz_R,phase_label"
    )
    assert len(lines) == walker_bilateral.n_frames + 1
    k = 500
    fields = lines[k + 1].split(",")
    assert len(fields) == 11
    assert float(fields[0]) == k / walker_bilateral.total.sample_rate_hz
    assert float(fields[3]) == walker_bilateral.total.force[2, k]
    assert float(fields[6]) == walker_bilateral.left.force[2, k]
    assert float(fields[9]) == walker_bilateral.right.force[2, k]
    phase = next(p for p in walker_bilateral.timeline.phases if p.start <= k <= p.end)
    assert fields[10] == phase.label


def test_diagnostics_csv_lists_excluded_intervals(tmp_path):
    rng = np.random.default_rng(67)
    total = GrfSeries(100.0, _smooth_force(rng, 200))
    bilateral = decompose_gait(total, _mixed_timeline(), 70.0)
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(path, bilateral)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "record,start_frame,end_frame,detail"
    assert "excluded,151,199,no foot in stance" in lines


def test_diagnostics_csv_keeps_its_line_format(tmp_path):
    rng = np.random.default_rng(67)
    total = GrfSeries(100.0, _smooth_force(rng, 200))
    bilateral = decompose_gait(total, _mixed_timeline(), 70.0)
    left = np.zeros(200, dtype=bool)
    left[[3, 4, 5, 199]] = True
    right = np.zeros(200, dtype=bool)
    right[[0, *range(10, 20)]] = True
    bilateral.diagnostics = GrfDiagnostics(
        excluded_intervals=[
            (40, 60, "double stance without detected boundary events"),
            (151, 199, "no foot in stance"),
        ],
        negative_vertical_left=left,
        negative_vertical_right=right,
    )
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(path, bilateral)
    assert path.read_bytes() == (
        b"record,start_frame,end_frame,detail\n"
        b"excluded,40,60,double stance without detected boundary events\n"
        b"excluded,151,199,no foot in stance\n"
        b"negative_vertical,3,5,left limb below -0.02 body weight\n"
        b"negative_vertical,199,199,left limb below -0.02 body weight\n"
        b"negative_vertical,0,0,right limb below -0.02 body weight\n"
        b"negative_vertical,10,19,right limb below -0.02 body weight\n"
    )
    # nothing excluded or flagged: the header line alone
    bilateral.diagnostics = GrfDiagnostics(
        excluded_intervals=[],
        negative_vertical_left=np.zeros(200, dtype=bool),
        negative_vertical_right=np.zeros(200, dtype=bool),
    )
    write_diagnostics_csv(path, bilateral)
    assert path.read_bytes() == b"record,start_frame,end_frame,detail\n"


def test_butterfly_csv_scales_the_vector_tips(tmp_path, walker_bilateral, walker_com):
    scale = 0.002
    diagram = butterfly(walker_bilateral, walker_com, scale_m_per_n=scale)
    path = tmp_path / "butterfly.csv"
    write_butterfly_csv(path, diagram)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "base_x,base_y,tip_x,tip_y,tip_z,foot"
    assert len(lines) == diagram.n_entries + 1
    i = diagram.n_entries // 2
    fields = lines[i + 1].split(",")
    tip = diagram.bases[i] + scale * diagram.forces[i]
    assert float(fields[0]) == diagram.bases[i, 0]
    assert float(fields[2]) == tip[0]
    assert float(fields[4]) == tip[2]
    assert fields[5] in ("left", "right")
    with pytest.raises(InputError, match="scale"):
        butterfly(walker_bilateral, walker_com, scale_m_per_n=0.0)
    # the scale belongs to the diagram, so a writer takes none
    with pytest.raises(TypeError):
        write_butterfly_csv(path, diagram, 0.001)


def reference_butterfly_svg(path, diagram, scale_m_per_n):
    """Entry-by-entry SVG rendering: the reference ``write_butterfly_svg`` matches."""
    tips = diagram.bases + scale_m_per_n * diagram.forces
    if diagram.n_entries:
        x_min = float(min(diagram.bases[:, 0].min(), tips[:, 0].min()))
        x_max = float(max(diagram.bases[:, 0].max(), tips[:, 0].max()))
        y_max = float(max(tips[:, 2].max(), 0.1))
    else:
        x_min, x_max, y_max = 0.0, 1.0, 1.0
    pad = 0.05 * max(x_max - x_min, y_max, 1e-6)
    width, height = 900.0, 300.0
    sx = (width - 40.0) / (x_max - x_min + 2 * pad) if x_max > x_min else 1.0
    sy = (height - 40.0) / (y_max + 2 * pad)

    def px(x: float) -> str:
        return f"{20.0 + (x - x_min + pad) * sx:.3f}"

    def py(y: float) -> str:
        return f"{height - 20.0 - (y + pad) * sy:.3f}"

    colors = {"left": "#1f77b4", "right": "#d62728"}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{px(x_min)}" y1="{py(0.0)}" x2="{px(x_max)}" y2="{py(0.0)}" '
        'stroke="#444444" stroke-width="1"/>',
    ]
    for i in range(diagram.n_entries):
        parts.append(
            f'<line x1="{px(float(diagram.bases[i, 0]))}" y1="{py(0.0)}" '
            f'x2="{px(float(tips[i, 0]))}" y2="{py(float(tips[i, 2]))}" '
            f'stroke="{colors[diagram.feet[i]]}" stroke-width="0.6"/>'
        )
    parts.append(
        '<text x="20" y="16" font-family="sans-serif" font-size="12" fill="#222222">'
        "per-limb ground reaction force, sagittal view "
        f"(display scale {scale_m_per_n:g} m/N; left {colors['left']}, "
        f"right {colors['right']})</text>"
    )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


@pytest.mark.parametrize("scale", [0.001, 0.0037])
def test_butterfly_svg_matches_the_entry_by_entry_reference(
    tmp_path, walker_bilateral, walker_com, scale
):
    diagram = butterfly(walker_bilateral, walker_com, scale)
    assert diagram.n_entries > 1000
    write_butterfly_svg(tmp_path / "fast.svg", diagram)
    reference_butterfly_svg(tmp_path / "reference.svg", diagram, scale)
    assert (tmp_path / "fast.svg").read_bytes() == (tmp_path / "reference.svg").read_bytes()

    empty = ButterflyDiagram((), np.zeros(0, int), np.zeros((0, 3)), np.zeros((0, 3)), scale)
    write_butterfly_svg(tmp_path / "fast.svg", empty)
    reference_butterfly_svg(tmp_path / "reference.svg", empty, scale)
    assert (tmp_path / "fast.svg").read_bytes() == (tmp_path / "reference.svg").read_bytes()


def test_svg_coordinates_are_spelt_as_format_spells_them():
    rng = np.random.default_rng(5)
    ties = np.arange(-4000, 4000) / 2000.0  # every exact half of a thousandth, 0.0625 among them
    values = np.concatenate([
        ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
        [0.0625, -0.0625, -0.0001, -0.0004999, 0.0005, -0.0, 0.0, 5e-324, -5e-324, 1e-300],
        [999.9995, 999.9994999, 1e3, 123456789.0005, 2.0**40, 1.1e12, 1e15, -3e17, 1e300],
        [np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf, np.nan],
        rng.uniform(-1000, 1000, 5000), rng.normal(size=2000) * 10.0 ** rng.integers(-6, 13, 2000),
    ])
    text = grf._fixed_3(values)
    assert [row.tobytes().replace(b"\0", b"").decode() for row in text] == [
        format(v, ".3f") for v in values.tolist()
    ]
    # the zero bytes that pad the text drop out as the lines are joined
    assert grf._join_columns([b"<", values[:3], b"|", np.array([b"ab", b"c", b"d"], "S2"),
                              b">\n"]) == b"".join(
        b"<%s|%s>\n" % (format(v, ".3f").encode(), c) for v, c in
        zip(values[:3].tolist(), [b"ab", b"c", b"d"])
    )


def test_butterfly_svg_draws_both_feet(tmp_path, walker_bilateral, walker_com):
    diagram = butterfly(walker_bilateral, walker_com)
    path = tmp_path / "butterfly.svg"
    write_butterfly_svg(path, diagram)
    text = path.read_text(encoding="utf-8")
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert "#1f77b4" in text and "#d62728" in text
    assert text.count("<line ") >= diagram.n_entries
    with pytest.raises(InputError, match="scale"):
        ButterflyDiagram(diagram.feet, diagram.frames, diagram.bases, diagram.forces, -1.0)


def test_a_zero_length_double_stance_is_excluded_with_its_reason():
    # the left heel strikes on the very frame the right toe leaves the ground
    n = 400
    left = FootEvents("left", np.array([100, 320]), np.array([180]))
    right = FootEvents("right", np.array([150]), np.array([100, 250]))
    timeline = build_timeline(left, right, n, 200.0)
    total = GrfSeries(200.0, np.tile([[1.0], [2.0], [800.0]], (1, n)))
    bilateral = decompose_gait(total, timeline, 80.0)
    assert (100, 100, "zero-length double stance") in bilateral.diagnostics.excluded_intervals
    assert not bilateral.analyzed[100] and bilateral.analyzed[[99, 101]].all()
    assert bilateral.left.force[:, 100].tolist() == [0.0] * 3
    assert bilateral.right.force[:, 100].tolist() == [0.0] * 3
