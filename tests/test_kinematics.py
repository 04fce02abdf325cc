"""Segment frames, centre-of-mass assembly, and their invariances."""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import CUTOFF_HZ, FILTER_ORDER, differentiate, marker_set, shift_markers
from gaitkinetics import kinematics
from gaitkinetics.anthro import (
    SEGMENT_IDS,
    SEGMENT_KINDS,
    SegmentId,
    SubjectProfile,
    parse_table,
    segment_mass,
)
from gaitkinetics.errors import InputError
from gaitkinetics.ingest import (
    MarkerTrajectorySet,
    fill_gaps,
    parse_marker_file,
    write_marker_file,
)
from gaitkinetics.kinematics import (
    ComTrajectory,
    PointRule,
    SegmentDefinition,
    _segment_com_series,
    bundled_definitions_path,
    com_trajectory,
    filter_com_trajectory,
    hand_com,
    load_segment_definitions,
    parse_segment_definitions,
    write_com_csv,
)
from gaitkinetics.signal import UniformSeries, lowpass

SUBJECT = SubjectProfile(mass_kg=80.0, height_m=1.80, sex="m")


def segment_state(traj, definition, table, subject, frame):
    """Pose of one segment at one frame, taken from the geometry that
    ``com_trajectory`` runs, over one range of the whole trial; its basis
    must be right-handed orthonormal."""
    origin, _, axes, length, com = _segment_com_series(
        traj, slice(0, traj.n_frames), definition, table, subject
    )
    basis = np.stack([u[:, frame] for u in axes], axis=-1)
    assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-9)
    assert abs(np.linalg.det(basis) - 1.0) <= 1e-9
    return SimpleNamespace(
        origin=origin[:, frame], basis=basis, length_m=float(length[frame]), com=com[:, frame]
    )


def _static_markers(points, n_frames=2, rate=200.0):
    """Constant marker positions over a few frames."""
    markers = {
        name: np.tile(np.asarray(p, dtype=float), (n_frames, 1))
        for name, p in points.items()
    }
    return marker_set(rate, markers)


def _table_with(offsets):
    """Uniform-mass table; ``offsets`` maps kind -> (P_AP, P_ML, P_SI)."""
    lines = []
    for kind in SEGMENT_KINDS:
        ap, ml, si = offsets.get(kind, (0.0, 0.0, 0.0))
        lines.append(f"{kind}\tm\t0.0625\t{ap!r}\t{ml!r}\t{si!r}")
    return parse_table("\n".join(lines) + "\n")


def _thigh_definition(side):
    return SegmentDefinition(
        segment=SegmentId("thigh", side),
        origin=PointRule.parse("ORI"),
        distal=PointRule.parse("DIS"),
        ref=PointRule.parse("REF"),
        ref_kind="lateral",
    )


# Axis-aligned fixture: origin at the world origin, segment pointing down
# the z axis, reference chosen so the segment basis is exactly the world
# basis.  Every arithmetic step below is exact in binary floating point.
RIGHT_THIGH_MARKERS = {
    "ORI": (0.0, 0.0, 0.0),
    "DIS": (0.0, 0.0, -0.4),
    "REF": (0.0, -1.0, -0.2),
}


def test_axis_aligned_segment_basis_is_the_world_basis():
    traj = _static_markers(RIGHT_THIGH_MARKERS)
    state = segment_state(traj, _thigh_definition("right"), _table_with({}), SUBJECT, 0)
    assert np.array_equal(state.basis, np.eye(3))
    assert state.length_m == 0.4
    assert np.array_equal(state.origin, [0.0, 0.0, 0.0])


def test_zero_offsets_place_the_com_at_the_origin_exactly():
    traj = _static_markers(RIGHT_THIGH_MARKERS)
    state = segment_state(traj, _thigh_definition("right"), _table_with({}), SUBJECT, 0)
    assert np.array_equal(state.com, [0.0, 0.0, 0.0])


def test_longitudinal_offset_scales_with_segment_length_exactly():
    traj = _static_markers(RIGHT_THIGH_MARKERS)
    table = _table_with({"thigh": (0.0, 0.0, -0.5)})
    state = segment_state(traj, _thigh_definition("right"), table, SUBJECT, 0)
    # origin + 0.4 m * (-0.5) along +z
    assert np.array_equal(state.com, [0.0, 0.0, -0.2])


def test_left_side_mirrors_the_mediolateral_offset():
    table = _table_with({"thigh": (0.0, 0.3, 0.0)})
    right = segment_state(
        _static_markers(RIGHT_THIGH_MARKERS),
        _thigh_definition("right"),
        table,
        SUBJECT,
        0,
    )
    left_markers = {
        "ORI": (0.0, 0.0, 0.0),
        "DIS": (0.0, 0.0, -0.4),
        "REF": (0.0, 1.0, -0.2),  # lateral side of the left leg
    }
    left = segment_state(
        _static_markers(left_markers), _thigh_definition("left"), table, SUBJECT, 0
    )
    # identical geometry up to reflection: the y offsets are opposite
    assert np.array_equal(left.basis, right.basis)
    assert left.com[1] == -right.com[1] != 0.0
    assert left.com[0] == right.com[0]
    assert left.com[2] == right.com[2]


def test_foot_style_segment_uses_the_forward_axis():
    markers = {
        "HEL": (0.0, 0.0, 0.0),
        "TOE": (0.2, 0.0, 0.0),
        "ANK": (0.05, 0.0, 0.08),
        "REF": (0.05, -1.0, 0.08),
    }
    definition = SegmentDefinition(
        segment=SegmentId("foot", "right"),
        origin=PointRule.parse("ANK"),
        distal=PointRule.parse("TOE"),
        ref=PointRule.parse("REF"),
        ref_kind="lateral",
        style="anteroposterior",
        forward=(PointRule.parse("HEL"), PointRule.parse("TOE")),
    )
    table = _table_with({"foot": (0.5, 0.0, 0.0)})
    state = segment_state(_static_markers(markers), definition, table, SUBJECT, 0)
    assert np.allclose(state.basis, np.eye(3), atol=1e-15)
    # |ankle - toe| = sqrt(0.15^2 + 0.08^2) = 0.17 m, half of it forward
    assert abs(state.length_m - 0.17) <= 1e-15
    assert np.max(np.abs(state.com - np.array([0.135, 0.0, 0.08]))) <= 1e-12


def test_zero_length_forward_axis_is_rejected():
    markers = {"HEL": (0.1, 0.0, 0.0), "TOE": (0.1, 0.0, 0.0), "ANK": (0.05, 0.0, 0.08)}
    definition = SegmentDefinition(
        segment=SegmentId("foot", "left"),
        origin=PointRule.parse("ANK"),
        distal=PointRule.parse("TOE"),
        ref=PointRule.parse("ANK"),
        ref_kind="lateral",
        style="anteroposterior",
        forward=(PointRule.parse("HEL"), PointRule.parse("TOE")),
    )
    message = "^left_foot: forward axis has zero length at frame 0"
    with pytest.raises(InputError, match=message):
        segment_state(_static_markers(markers), definition, _table_with({}), SUBJECT, 0)


def test_collinear_axis_reference_is_rejected():
    markers = dict(RIGHT_THIGH_MARKERS)
    markers["REF"] = (0.0, 0.0, -1.0)  # on the longitudinal axis
    with pytest.raises(InputError, match="collinear"):
        segment_state(
            _static_markers(markers), _thigh_definition("right"), _table_with({}), SUBJECT, 0
        )


def test_coincident_endpoints_are_rejected():
    markers = dict(RIGHT_THIGH_MARKERS)
    markers["DIS"] = (0.0, 0.0, 0.0)
    with pytest.raises(InputError, match="coincide"):
        segment_state(
            _static_markers(markers), _thigh_definition("right"), _table_with({}), SUBJECT, 0
        )


def _foot_definition():
    return SegmentDefinition(
        segment=SegmentId("foot", "right"),
        origin=PointRule.parse("ANK"),
        distal=PointRule.parse("TOE"),
        ref=PointRule.parse("REF"),
        ref_kind="lateral",
        style="anteroposterior",
        forward=(PointRule.parse("HEL"), PointRule.parse("TOE")),
    )


def test_geometry_faults_name_their_first_frame():
    thigh, foot = _thigh_definition("right"), _foot_definition()
    markers = {**RIGHT_THIGH_MARKERS, "HEL": (0.0, 0.0, -0.5), "TOE": (0.2, 0.0, -0.5),
               "ANK": (0.05, 0.0, -0.42)}
    table = _table_with({"thigh": (0.1, 0.02, -0.4), "foot": (0.5, 0.0, 0.0)})
    for definition, marker, value, first, message in (
        (thigh, "DIS", markers["ORI"], 1, "right_thigh: origin and distal coincide at frame 1"),
        (thigh, "REF", (0.0, 0.0, -1.0), 2,
         "right_thigh: axis reference is collinear .* at frame 2"),
        (foot, "HEL", markers["TOE"], 3, "right_foot: forward axis has zero length at frame 3"),
        (thigh, "REF", (np.nan,) * 3, 4, "right_thigh: marker 'REF' missing at frame 4"),
    ):
        traj = _static_markers(markers, n_frames=7)
        for frame in (first, 6):  # the first faulty frame is named
            traj.markers[marker][frame] = value
            traj.missing[marker][frame] = np.isnan(value).any()
        with pytest.raises(InputError, match=f"^{message}"):
            segment_state(traj, definition, table, SUBJECT, 0)


# ------------------------------------------------------------------ hands


def test_hand_com_lies_half_a_hand_beyond_the_wrist():
    com = hand_com(np.array([0.3, 0.0, 0.0]), np.array([0.0, 0.0, 0.0]))
    assert np.max(np.abs(com - np.array([0.411, 0.0, 0.0]))) <= 1e-12
    com_down = hand_com(np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.3]))
    assert np.max(np.abs(com_down - np.array([0.0, 0.0, -0.111]))) <= 1e-12


def test_hand_com_distance_is_proportional_to_forearm_length():
    # 20 component-major (3, n) points at once
    rng = np.random.default_rng(2)
    wrist = rng.normal(size=(3, 20))
    elbow = rng.normal(size=(3, 20))
    forearm = np.linalg.norm(wrist - elbow, axis=0)
    reach = np.linalg.norm(hand_com(wrist, elbow) - wrist, axis=0)
    assert np.all(np.abs(reach - 0.5 * 0.74 * forearm) <= 1e-12 * np.maximum(1.0, forearm))


def test_hand_com_rejects_coincident_wrist_and_elbow():
    with pytest.raises(InputError, match="coincide"):
        hand_com(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))


# ------------------------------------------------------- whole-body CoM


def _slice_markers(traj, start, stop):
    positions = traj.positions[:, start:stop].copy()
    return MarkerTrajectorySet(traj.sample_rate_hz, traj.names, positions)


def test_whole_body_com_matches_a_brute_force_weighted_mean(
    walker, table, definitions
):
    short = _slice_markers(walker.markers, 0, 2)
    com = com_trajectory(short, definitions, table, walker.subject)
    expect = np.average(com.segment_coms, axis=1, weights=com.masses_kg)
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(com.whole_body - expect)) <= 1e-12 * scale
    assert com.masses_kg.sum() == pytest.approx(walker.subject.mass_kg, rel=0.01)
    # the trajectory computes its whole-body mean; no copy can be passed in
    with pytest.raises(TypeError, match="whole_body"):
        ComTrajectory(
            com.sample_rate_hz, com.segment_coms, com.masses_kg,
            whole_body=expect,
        )
    # its segments are the model's 16, which no caller passes in
    assert com.segment_ids is SEGMENT_IDS
    with pytest.raises(TypeError, match="segment_ids"):
        ComTrajectory(
            com.sample_rate_hz, com.segment_coms, com.masses_kg, segment_ids=SEGMENT_IDS
        )


def test_com_is_equivariant_under_translation(walker, table, definitions):
    short = _slice_markers(walker.markers, 0, 40)
    com = com_trajectory(short, definitions, table, walker.subject)
    delta = np.array([1.7, -2.3, 0.9])
    shifted = com_trajectory(
        shift_markers(short, delta), definitions, table, walker.subject
    )
    moved = com.whole_body + delta[:, np.newaxis]
    assert np.max(np.abs(shifted.whole_body - moved)) <= 1e-12


def _rotation(axis, angle):
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def test_com_is_equivariant_under_rotation(walker, table, definitions):
    short = _slice_markers(walker.markers, 0, 40)
    rot = _rotation([1.0, 2.0, 3.0], 0.7)
    assert np.max(np.abs(rot.T @ rot - np.eye(3))) <= 1e-14

    rotated_markers = {
        name: pos @ rot.T for name, pos in short.markers.items()
    }
    rotated = marker_set(short.sample_rate_hz, rotated_markers)
    com = com_trajectory(short, definitions, table, walker.subject)
    com_rot = com_trajectory(rotated, definitions, table, walker.subject)
    expect = rot @ com.whole_body
    assert np.max(np.abs(com_rot.whole_body - expect)) <= 1e-9


@pytest.mark.parametrize("mass_kg", [5e-324, 1e-310, 3e-306])
def test_com_refuses_a_segment_mass_below_the_normal_floats(walker, table, definitions, mass_kg):
    subject = SubjectProfile(mass_kg=mass_kg, height_m=1.80, sex="m")
    with pytest.raises(InputError, match=f"^subject_mass_kg {mass_kg} kg gives "):
        com_trajectory(_slice_markers(walker.markers, 0, 4), definitions, table, subject)


def test_com_of_a_tiny_but_normal_mass_is_the_com_of_any_mass(walker, table, definitions):
    short = _slice_markers(walker.markers, 0, 4)
    com = com_trajectory(short, definitions, table, SUBJECT)
    tiny = com_trajectory(short, definitions, table, SubjectProfile(1e-300, 1.80, "m"))
    assert np.max(np.abs(tiny.whole_body - com.whole_body)) <= 1e-12


def test_com_requires_every_marker_present(walker, table, definitions):
    short = _slice_markers(walker.markers, 0, 4)
    keep = [m for m, name in enumerate(short.names) if name != "LASI"]
    short = MarkerTrajectorySet(
        short.sample_rate_hz, [short.names[m] for m in keep], short.positions[keep]
    )
    with pytest.raises(InputError, match="not present"):
        com_trajectory(short, definitions, table, walker.subject)


def test_com_rejects_occluded_frames(walker, table, definitions):
    short = _slice_markers(walker.markers, 0, 4)
    short.missing["LASI"][2] = True
    short.markers["LASI"][2] = np.nan
    with pytest.raises(InputError, match="missing at frame 2"):
        com_trajectory(short, definitions, table, walker.subject)


@pytest.mark.parametrize(
    "marker, segment",
    [("T10", "thorax"), ("RKNE_MED", "right_thigh"), ("LANK_LAT", "left_shank")],
)
def test_a_shared_point_rule_reports_the_first_segment_that_needs_it(
    walker, table, definitions, marker, segment
):
    # T10 is in STRN+T10 (thorax and abdomen), the knee and ankle centres
    # are each one segment's distal end and the next one's origin
    short = _slice_markers(walker.markers, 0, 4)
    short.missing[marker][1] = True
    short.markers[marker][1] = np.nan
    message = f"^{segment}: marker '{marker}' missing at frame 1"
    with pytest.raises(InputError, match=message):
        com_trajectory(short, definitions, table, walker.subject)


class _CountingDict(dict):
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_com_evaluates_each_point_rule_once_per_use(walker, table, definitions):
    short = _slice_markers(walker.markers, 0, 4)
    expect = com_trajectory(short, definitions, table, walker.subject)
    short.markers = _CountingDict(short.markers)
    com = com_trajectory(short, definitions, table, walker.subject)
    rules = [rule for d in definitions.values() for rule in d.point_rules()]
    # 46 uses of 31 distinct rules: a rule two segments share is evaluated
    # for each of them, once per frame range (this trial has one)
    assert (len(rules), len(set(rules))) == (46, 31)
    assert short.markers.reads == sum(len(rule.weights) for rule in rules) == 79
    assert com.segment_coms.tobytes() == expect.segment_coms.tobytes()


def test_frame_ranges_change_no_bit_and_name_whole_trial_frames(
    monkeypatch, walker, table, definitions
):
    short = _slice_markers(walker.markers, 0, 40)
    expect = com_trajectory(short, definitions, table, walker.subject)
    monkeypatch.setattr(kinematics, "_FRAMES_PER_CHUNK", 7)
    com = com_trajectory(short, definitions, table, walker.subject)
    assert com.segment_coms.tobytes() == expect.segment_coms.tobytes()
    assert com.whole_body.tobytes() == expect.whole_body.tobytes()
    # the toe planted on the ankle centre (LANK_LAT+LANK_MED) in the fourth range
    ankle = 0.5 * short.markers["LANK_LAT"][24] + 0.5 * short.markers["LANK_MED"][24]
    short.markers["LTOE"][24] = ankle
    with pytest.raises(InputError, match="^left_foot: origin and distal coincide at frame 24$"):
        com_trajectory(short, definitions, table, walker.subject)


def test_filtered_trajectory_keeps_the_weighted_mean_invariant(walker_com):
    expect = np.average(
        walker_com.segment_coms, axis=1, weights=walker_com.masses_kg
    )
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(walker_com.whole_body - expect)) <= 1e-12 * scale


def test_attached_acceleration_matches_differentiating_the_positions(walker_com):
    assert walker_com.whole_body_acceleration is not None
    # the trajectory's whole_body is the raw one: low-pass it, then differentiate
    smooth = lowpass(
        UniformSeries(walker_com.sample_rate_hz, walker_com.whole_body), CUTOFF_HZ, FILTER_ORDER
    )
    direct = differentiate(smooth, 2).values
    assert np.max(np.abs(walker_com.whole_body_acceleration - direct)) <= 1e-7


def test_filtering_preserves_a_static_trajectory_bitwise(
    static_trial, table, definitions
):
    com = com_trajectory(static_trial.markers, definitions, table, static_trial.subject)
    smooth = filter_com_trajectory(com, CUTOFF_HZ, FILTER_ORDER)
    feet = [com.segment_index(SegmentId("foot", side)) for side in ("left", "right")]
    raw = np.ascontiguousarray(com.segment_coms[:2, feet].transpose(1, 0, 2))
    assert smooth.foot_ground.tobytes() == raw.tobytes()


def test_filtering_low_passes_only_the_feet_and_the_whole_body(
    monkeypatch, walker_com_raw
):
    """One 4-channel low-pass of the feet's (x, y) rows and one 3-channel
    acceleration of the whole body; the model's tracks are shared."""
    calls = {"lowpass": [], "smoothed_acceleration": []}

    def spy(name):
        run = getattr(kinematics, name)

        def record(series, *args, **kwargs):
            calls[name].append(series.values.shape)
            return run(series, *args, **kwargs)

        return record

    for name in calls:
        monkeypatch.setattr(kinematics, name, spy(name))
    com = walker_com_raw
    smooth = filter_com_trajectory(com, CUTOFF_HZ, FILTER_ORDER)
    assert calls == {"lowpass": [(4, com.n_frames)], "smoothed_acceleration": [(3, com.n_frames)]}
    assert smooth.segment_coms is com.segment_coms
    assert smooth.masses_kg is com.masses_kg
    assert smooth.whole_body.tobytes() == com.whole_body.tobytes()
    assert com.foot_ground is None and com.whole_body_acceleration is None


# ---------------------------------- row-major reference (bit for bit)
#
# The geometry as it was computed on (n_frames, 3) arrays, with
# np.linalg.norm, np.sum and np.cross over the last axis, before it moved
# to component-major (3, n_frames) rows.  Kept as the reference the
# component-major code must reproduce bit for bit.


def _ref_eval_point(traj, rule):
    acc = None
    for name, w in rule.weights:
        term = w * traj.markers[name]
        acc = term if acc is None else acc + term
    return acc


def _ref_unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _ref_perp_unit(w, axis):
    w_perp = w - np.sum(w * axis, axis=-1, keepdims=True) * axis
    return w_perp / np.linalg.norm(w_perp, axis=-1)[..., np.newaxis]


def _ref_basis_series(traj, definition, origin, distal):
    w = _ref_eval_point(traj, definition.ref) - origin
    if definition.style == "longitudinal":
        sup, inf = (origin, distal) if definition.superior == "origin" else (distal, origin)
        u_z = _ref_unit(sup - inf)
        p = _ref_perp_unit(w, u_z)
        if definition.ref_kind in ("anterior", "posterior"):
            u_x = p if definition.ref_kind == "anterior" else -p
            u_y = np.cross(u_z, u_x)
        else:
            toward_left = 1.0 if definition.segment.side == "left" else -1.0
            if definition.ref_kind == "medial":
                toward_left = -toward_left
            u_y = toward_left * p
            u_x = np.cross(u_y, u_z)
    else:
        fwd_from = _ref_eval_point(traj, definition.forward[0])
        fwd_to = _ref_eval_point(traj, definition.forward[1])
        u_x = _ref_unit(fwd_to - fwd_from)
        p = _ref_perp_unit(w, u_x)
        toward_left = 1.0 if definition.segment.side == "left" else -1.0
        if definition.ref_kind == "medial":
            toward_left = -toward_left
        u_y = toward_left * p
        u_z = np.cross(u_x, u_y)
    return np.stack([u_x, u_y, u_z], axis=-1)


def _ref_segment_com_series(traj, definition, table, subject):
    seg = definition.segment
    origin = _ref_eval_point(traj, definition.origin)
    distal = _ref_eval_point(traj, definition.distal)
    length = np.linalg.norm(origin - distal, axis=-1)
    basis = _ref_basis_series(traj, definition, origin, distal)
    params = table.get(seg.kind, subject.sex)
    p_ml = -params.p_ml if seg.side == "left" else params.p_ml
    offset = (
        params.p_ap * basis[..., 0] + p_ml * basis[..., 1] + params.p_si * basis[..., 2]
    )
    com = origin + length[..., np.newaxis] * offset
    return origin, basis, length, com


def _ref_hand_com(wrist, elbow):
    seg = wrist - elbow
    dist = np.linalg.norm(seg, axis=-1, keepdims=True)
    return wrist + 0.5 * (0.74 * dist) * (seg / dist)


def _ref_com_trajectory(traj, defs, table, subject):
    """(segment_coms, whole_body) as the row-major code computed them."""
    coms = np.empty((3, len(SEGMENT_IDS), traj.n_frames))
    masses = np.array([segment_mass(table, subject, sid) for sid in SEGMENT_IDS])
    forearms = {}
    for i, sid in enumerate(SEGMENT_IDS):
        if sid.kind == "hand":
            continue
        origin, _, _, com = _ref_segment_com_series(traj, defs[sid], table, subject)
        if sid.kind == "forearm":
            forearms[sid.side] = (_ref_eval_point(traj, defs[sid].distal), origin)
        coms[:, i, :] = com.T
    for i, sid in enumerate(SEGMENT_IDS):
        if sid.kind == "hand":
            coms[:, i, :] = _ref_hand_com(*forearms[sid.side]).T
    whole = np.zeros((3, traj.n_frames))
    for i in range(len(masses)):
        whole += masses[i] * coms[:, i, :]
    return coms, whole / float(np.sum(masses))


def _assert_com_matches_the_reference(traj, definitions, table, subject):
    com = com_trajectory(traj, definitions, table, subject)
    ref_coms, ref_whole = _ref_com_trajectory(traj, definitions, table, subject)
    assert com.segment_coms.tobytes() == ref_coms.tobytes()
    assert com.whole_body.tobytes() == ref_whole.tobytes()


@pytest.mark.parametrize("n_frames", [1, 2, 3, 2000])
def test_com_trajectory_is_bitwise_the_row_major_reference(
    walker, table, definitions, n_frames
):
    assert walker.markers.n_frames == 2000
    short = _slice_markers(walker.markers, 0, n_frames)
    _assert_com_matches_the_reference(short, definitions, table, walker.subject)


def test_com_of_a_parsed_gap_filled_mm_file_is_bitwise_the_reference(
    tmp_path, walker, table, definitions
):
    traj = _slice_markers(walker.markers, 0, 600)
    rng = np.random.default_rng(5)
    for name in traj.names:
        traj.markers[name] *= 1000.0
    for _ in range(30):
        name = traj.names[int(rng.integers(len(traj.names)))]
        start = int(rng.integers(5, traj.n_frames - 15))
        traj.markers[name][start : start + int(rng.integers(1, 8))] = np.nan
    path = tmp_path / "walker_mm.tsv"
    write_marker_file(path, traj)
    text = path.read_text(encoding="utf-8").replace("UNITS\tm\n", "UNITS\tmm\n", 1)
    path.write_text(text, encoding="utf-8")

    filled = fill_gaps(parse_marker_file(path))
    assert not any(mask.any() for mask in filled.missing.values())
    # every marker is a view into the one (n_markers, n, 3) array
    assert all(np.shares_memory(pos, filled.positions) for pos in filled.markers.values())
    _assert_com_matches_the_reference(filled, definitions, table, walker.subject)


def _custom_definitions():
    """Definitions reaching every branch of the basis construction."""
    rule = PointRule.parse
    yield SegmentDefinition(
        segment=SegmentId("pelvis"), origin=rule("LASI+RASI+LPSI+RPSI"),
        distal=rule("LTRO+RTRO"), ref=rule("LASI+RASI"), ref_kind="anterior",
    )
    yield SegmentDefinition(
        segment=SegmentId("pelvis"), origin=rule("LASI+RASI+LPSI+RPSI"),
        distal=rule("LTRO+RTRO"), ref=rule("LPSI+RPSI"), ref_kind="posterior",
    )
    yield SegmentDefinition(
        segment=SegmentId("head_neck"), origin=rule("C7"),
        distal=rule("LFHD+RFHD+LBHD+RBHD"), superior="distal",
        ref=rule("LFHD+RFHD"), ref_kind="anterior",
    )
    for side, s in (("left", "L"), ("right", "R")):
        yield SegmentDefinition(
            segment=SegmentId("thigh", side), origin=rule(f"{s}ASI*0.5+{s}TRO*0.5"),
            distal=rule(f"{s}KNE_LAT+{s}KNE_MED"), ref=rule(f"{s}KNE_LAT"),
            ref_kind="lateral",
        )
        yield SegmentDefinition(
            segment=SegmentId("shank", side), origin=rule(f"{s}KNE_LAT+{s}KNE_MED"),
            distal=rule(f"{s}ANK_LAT+{s}ANK_MED"), superior="distal",
            ref=rule(f"{s}KNE_MED"), ref_kind="medial",
        )
        for ref, kind in ((f"{s}ANK_LAT", "lateral"), (f"{s}ANK_MED", "medial")):
            yield SegmentDefinition(
                segment=SegmentId("foot", side), origin=rule(f"{s}ANK_LAT+{s}ANK_MED"),
                distal=rule(f"{s}TOE"), ref=rule(ref), ref_kind=kind,
                style="anteroposterior",
                forward=(rule(f"{s}HEE"), rule(f"{s}TOE")),
            )


@pytest.mark.parametrize(
    "definition",
    list(_custom_definitions()),
    ids=lambda d: f"{d.segment}-{d.style}-{d.ref_kind}-superior_{d.superior}",
)
def test_segment_state_is_bitwise_the_row_major_reference(
    walker, table, definition
):
    traj = _slice_markers(walker.markers, 0, 300)
    origin, basis, length, com = _ref_segment_com_series(
        traj, definition, table, walker.subject
    )
    for frame in (0, 137, 299):
        state = segment_state(traj, definition, table, walker.subject, frame)
        assert state.origin.tobytes() == origin[frame].tobytes()
        assert state.basis.tobytes() == basis[frame].tobytes()
        assert state.length_m == length[frame]
        assert state.com.tobytes() == com[frame].tobytes()


# ----------------------------------------------------------- point rules


def test_point_rule_parsing():
    centroid = PointRule.parse("A+B")
    assert centroid.weights == (("A", 0.5), ("B", 0.5))
    weighted = PointRule.parse("A*0.3+B*0.7")
    assert weighted.weights == (("A", 0.3), ("B", 0.7))


@pytest.mark.parametrize(
    "text, message",
    [
        ("A*0.3+B", "mixes"),
        ("A*0.3+B*0.3", "sum"),
        ("A+A", "repeats"),
        ("A*x+B*0.5", "bad weight"),
        ("A++B", "bad point rule"),
        ("A*nan+B*nan", "weight of A is nan, expected a finite number"),
        ("A*nan", "weight of A is nan"),
        ("A*inf+B*-inf+C*1", "weight of A is inf"),
    ],
)
def test_point_rule_errors(text, message):
    with pytest.raises(InputError, match=message):
        PointRule.parse(text)


# ------------------------------------------------------------ definitions


def test_bundled_definitions_cover_all_marker_defined_segments(definitions):
    assert len(definitions) == 14
    assert SegmentId("hand", "left") not in definitions
    assert SegmentId("hand", "right") not in definitions
    for sid in definitions:
        assert definitions[sid].segment == sid


def test_definition_parsing_reports_missing_segments():
    with pytest.raises(InputError, match="missing segment definition"):
        parse_segment_definitions(
            "pelvis - origin=A distal=B ref=C ref_kind=anterior\n"
        )


def test_definition_parsing_rejects_bad_lines():
    full = bundled_definitions_path().read_text(encoding="utf-8")
    with pytest.raises(InputError, match="duplicate definition"):
        parse_segment_definitions(
            full + "\npelvis - origin=A distal=B ref=C ref_kind=anterior\n"
        )
    with pytest.raises(InputError, match="bad token"):
        parse_segment_definitions("pelvis - origin\n")
    with pytest.raises(InputError, match="missing ref="):
        parse_segment_definitions("pelvis - origin=A distal=B ref_kind=anterior\n")
    with pytest.raises(InputError, match="forward must be"):
        parse_segment_definitions(
            "foot left origin=A distal=B ref=C ref_kind=lateral "
            "style=anteroposterior forward=AB\n"
        )
    with pytest.raises(InputError, match="hands take no"):
        parse_segment_definitions("hand left origin=A distal=B ref=C ref_kind=lateral\n")


def test_definition_validation_rules():
    base = dict(
        origin=PointRule.parse("A"),
        distal=PointRule.parse("B"),
        ref=PointRule.parse("C"),
    )
    with pytest.raises(InputError, match="unknown style"):
        SegmentDefinition(
            segment=SegmentId("pelvis"), ref_kind="anterior", style="spiral", **base
        )
    with pytest.raises(InputError, match="unknown ref_kind"):
        SegmentDefinition(segment=SegmentId("pelvis"), ref_kind="behind", **base)
    with pytest.raises(InputError, match="needs a sided segment"):
        SegmentDefinition(segment=SegmentId("pelvis"), ref_kind="lateral", **base)
    with pytest.raises(InputError, match="needs forward"):
        SegmentDefinition(
            segment=SegmentId("foot", "left"),
            ref_kind="lateral",
            style="anteroposterior",
            **base,
        )


# ------------------------------------------------------------- CSV export


def test_com_csv_lists_time_and_positions(tmp_path, walker, table, definitions):
    short = _slice_markers(walker.markers, 0, 2)
    com = com_trajectory(short, definitions, table, walker.subject)
    path = tmp_path / "com.csv"
    write_com_csv(path, com)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "time_s,com_x,com_y,com_z"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == repr(0.0)
    assert [float(v) for v in first[1:]] == list(com.whole_body[:, 0])

    wide = tmp_path / "com_segments.csv"
    write_com_csv(wide, com, include_segments=True)
    header = wide.read_text(encoding="utf-8").splitlines()[0].split(",")
    assert len(header) == 4 + 3 * len(com.segment_ids)
    assert "left_thigh_x" in header
