"""Gait-event detection, stance thresholds, and timeline assembly."""

import numpy as np
import pytest

from gaitkinetics.errors import InputError, NoGaitDataError
from gaitkinetics.events import (
    DOUBLE_STANCE,
    NO_STANCE,
    PHASE_LABELS,
    SS_LEFT,
    SS_RIGHT,
    FootEvents,
    GaitTimeline,
    Phase,
    build_timeline,
    detect_events_zeni,
    detect_stance_threshold,
    write_events_csv,
)
from gaitkinetics.signal import UniformSeries

RATE = 200.0


def _series(values):
    return UniformSeries(RATE, np.asarray(values, dtype=float))


def _sinusoid_trio(n=600, offset=0.0, flip=False):
    """Forward-drifting sacrum with sinusoidal foot excursions around it."""
    t = np.arange(n) / RATE
    sacrum = 0.5 * t + offset
    heel = sacrum + np.sin(2.0 * np.pi * t)
    toe = sacrum + np.sin(2.0 * np.pi * t)
    if flip:
        sacrum, heel, toe = -sacrum, -heel, -toe
    return _series(heel), _series(toe), _series(sacrum)


def test_detection_finds_analytic_extrema_within_one_frame():
    heel, toe, sacrum = _sinusoid_trio()
    hs, to = detect_events_zeni(heel, toe, sacrum, min_period_s=0.5)
    # relative maxima at t = 0.25 + k, minima at t = 0.75 + k
    assert len(hs) == 3 and np.max(np.abs(hs - np.array([50, 250, 450]))) <= 1
    assert len(to) == 3 and np.max(np.abs(to - np.array([150, 350, 550]))) <= 1


def test_detection_is_invariant_under_constant_offsets():
    base = detect_events_zeni(*_sinusoid_trio(), min_period_s=0.5)
    moved = detect_events_zeni(*_sinusoid_trio(offset=57.0), min_period_s=0.5)
    assert np.array_equal(base[0], moved[0])
    assert np.array_equal(base[1], moved[1])


def test_detection_normalizes_the_walking_direction():
    forward = detect_events_zeni(*_sinusoid_trio(), min_period_s=0.5)
    backward = detect_events_zeni(*_sinusoid_trio(flip=True), min_period_s=0.5)
    assert np.array_equal(forward[0], backward[0])
    assert np.array_equal(forward[1], backward[1])


def test_detection_requires_net_sacrum_displacement():
    n = 600
    t = np.arange(n) / RATE
    sacrum = _series(np.full(n, 2.0))
    heel = _series(2.0 + np.sin(2.0 * np.pi * t))
    with pytest.raises(NoGaitDataError, match="displacement"):
        detect_events_zeni(heel, heel, sacrum)


def test_detection_requires_extrema():
    t = np.arange(600) / RATE
    sacrum = _series(0.5 * t)
    heel = _series(0.5 * t + 0.01 * t)  # monotone relative series
    with pytest.raises(NoGaitDataError, match="heel-strike"):
        detect_events_zeni(heel, heel, sacrum)
    # heel strikes found, but a toe that never turns back has no toe-off
    swinging = _series(0.5 * t + 0.2 * np.cos(2.0 * np.pi * t))
    with pytest.raises(NoGaitDataError, match="^no toe-off extremum found"):
        detect_events_zeni(swinging, heel, sacrum)


def test_detection_suppresses_events_closer_than_the_minimum_period():
    n = 600
    t = np.arange(n) / RATE
    sacrum = 0.5 * t

    def bump(center, height, half_width=15):
        # raised cosine with compact support: exactly zero outside the window,
        # so the relative series is bitwise flat away from the bumps
        k = np.arange(n)
        phase = np.pi * (k - center) / (2.0 * half_width)
        return np.where(
            np.abs(k - center) <= half_width, height * np.cos(phase) ** 2, 0.0
        )

    heel = sacrum + bump(100, 1.0) + bump(140, 0.8)  # 0.2 s apart
    toe = sacrum - bump(300, 1.0)
    hs, to = detect_events_zeni(
        _series(heel), _series(toe), _series(sacrum), min_period_s=0.5
    )
    assert list(hs) == [100]  # the weaker nearby maximum is suppressed
    assert list(to) == [300]


def test_detection_rejects_mismatched_series():
    heel, toe, sacrum = _sinusoid_trio()
    with pytest.raises(InputError, match="rate"):
        detect_events_zeni(heel, UniformSeries(100.0, toe.values), sacrum)
    with pytest.raises(InputError, match="length"):
        detect_events_zeni(heel, _series(toe.values[0][:-1]), sacrum)
    two_channel = UniformSeries(RATE, np.vstack([heel.values[0], heel.values[0]]))
    with pytest.raises(InputError, match="single-channel"):
        detect_events_zeni(two_channel, toe, sacrum)
    with pytest.raises(InputError, match="min_period"):
        detect_events_zeni(heel, toe, sacrum, min_period_s=-1.0)


# -------------------------------------------------------- stance threshold


def test_stance_threshold_constant_tracks():
    low = _series(np.full(50, 0.02))
    assert detect_stance_threshold(low, 0.06) == [(0, 49)]
    high = _series(np.full(50, 0.10))
    assert detect_stance_threshold(high, 0.06) == []


def test_stance_threshold_finds_crossings_within_one_frame():
    t = np.arange(400) / RATE  # 2 s
    z = 0.06 + 0.05 * np.sin(2.0 * np.pi * t)
    intervals = detect_stance_threshold(_series(z), 0.06)
    assert len(intervals) == 2
    (s1, e1), (s2, e2) = intervals
    assert abs(s1 - 101) <= 1 and abs(e1 - 200) <= 1
    assert abs(s2 - 301) <= 1 and abs(e2 - 399) <= 1
    # maximal and disjoint: a gap of above-threshold frames separates them
    assert s2 > e1 + 1


def test_stance_threshold_validation():
    series = _series(np.full(10, 0.02))
    with pytest.raises(InputError, match="positive"):
        detect_stance_threshold(series, 0.0)
    two_channel = UniformSeries(RATE, np.zeros((2, 10)))
    with pytest.raises(InputError, match="single-channel"):
        detect_stance_threshold(two_channel, 0.06)


# ------------------------------------------------------------- foot events


def test_foot_events_must_alternate():
    FootEvents("left", (10, 100), (50, 140))  # valid interleaving
    with pytest.raises(InputError, match="consecutive"):
        FootEvents("left", (10, 20), (50,))
    with pytest.raises(InputError, match="coincide"):
        FootEvents("left", (10,), (10,))
    with pytest.raises(InputError, match="strictly increasing"):
        FootEvents("left", (20, 10), ())
    with pytest.raises(InputError, match="foot"):
        FootEvents("back", (10,), ())


# ---------------------------------------------------------------- timeline


def _mixed_timeline():
    left = FootEvents("left", heel_strikes=(100,), toe_offs=(150,))
    right = FootEvents("right", heel_strikes=(), toe_offs=(130,))
    return build_timeline(left, right, n_frames=200, sample_rate_hz=100.0)


def test_timeline_phases_tile_and_label_the_trial():
    timeline = _mixed_timeline()
    got = [
        (p.label, p.start, p.end, p.incomplete) for p in timeline.phases
    ]
    assert got == [
        (SS_RIGHT, 0, 99, True),  # cut by the trial start
        (DOUBLE_STANCE, 100, 130, False),
        (SS_LEFT, 131, 150, False),
        (NO_STANCE, 151, 199, True),  # runs into the trial end
    ]
    ds = timeline.phases[1]
    assert ds.leading_foot == "left"
    assert ds.trailing_foot == "right"


@pytest.mark.parametrize(
    "n_frames, tail",
    [
        (20, [(DOUBLE_STANCE, 10, 10, False), (SS_LEFT, 11, 19, True)]),
        (11, [(DOUBLE_STANCE, 10, 10, False)]),  # a one-frame run ends the trial
    ],
)
def test_timeline_keeps_one_frame_runs_and_runs_at_both_ends(n_frames, tail):
    left = FootEvents("left", heel_strikes=(10,), toe_offs=(4,))
    right = FootEvents("right", heel_strikes=(4,), toe_offs=(10,))
    timeline = build_timeline(left, right, n_frames=n_frames, sample_rate_hz=100.0)
    got = [(p.label, p.start, p.end, p.incomplete) for p in timeline.phases]
    assert got == [
        (SS_LEFT, 0, 3, True),  # left already in stance at the trial start
        (DOUBLE_STANCE, 4, 4, False),
        (SS_RIGHT, 5, 9, False),
        *tail,
    ]
    feet = [(p.leading_foot, p.trailing_foot) for p in timeline.phases[1::2][:2]]
    assert feet == [("right", "left"), ("left", "right")]


def test_timeline_stance_masks_follow_the_phases():
    timeline = _mixed_timeline()
    left = timeline.stance_mask("left")
    right = timeline.stance_mask("right")
    assert not left[:100].any() and left[100:151].all() and not left[151:].any()
    assert right[:131].all() and not right[131:].any()
    labels = [PHASE_LABELS[code] for code in timeline.stance]
    assert labels == [p.label for p in timeline.phases for _ in range(p.start, p.end + 1)]


def test_timeline_single_foot_trial_is_one_incomplete_phase():
    left = FootEvents("left", heel_strikes=(0,), toe_offs=())
    right = FootEvents("right", heel_strikes=(), toe_offs=())
    timeline = build_timeline(left, right, n_frames=50, sample_rate_hz=100.0)
    assert [(p.label, p.start, p.end, p.incomplete) for p in timeline.phases] == [
        (SS_LEFT, 0, 49, True)
    ]


def test_timeline_with_no_events_is_all_no_stance():
    empty_l = FootEvents("left", (), ())
    empty_r = FootEvents("right", (), ())
    for n_frames in (30, 1):
        timeline = build_timeline(empty_l, empty_r, n_frames, sample_rate_hz=100.0)
        assert [(p.label, p.start, p.end) for p in timeline.phases] == [
            (NO_STANCE, 0, n_frames - 1)
        ]
        assert timeline.phases[0].incomplete


def test_timeline_validation_rejects_broken_tilings_and_frames():
    left = FootEvents("left", (10,), ())
    right = FootEvents("right", (), ())
    # the timeline derives its phases, so no broken tiling can be passed in
    with pytest.raises(TypeError, match="phases"):
        GaitTimeline(
            sample_rate_hz=100.0,
            n_frames=30,
            left=left,
            right=right,
            phases=[Phase(SS_LEFT, 0, 10), Phase(NO_STANCE, 15, 29)],
        )
    with pytest.raises(InputError, match="outside"):
        build_timeline(FootEvents("left", (40,), ()), right, 30, 100.0)
    with pytest.raises(InputError, match="in order"):
        build_timeline(right, left, 30, 100.0)


def _random_foot_events(rng, foot, n_frames):
    """Alternating events on random distinct frames, starting with either kind."""
    most = n_frames if rng.random() < 0.5 else min(n_frames, 8)  # dense or sparse
    count = int(rng.integers(0, most + 1))
    frames = np.sort(rng.choice(n_frames, size=count, replace=False)).tolist()
    first = int(rng.integers(2))  # 0: heel strike first, 1: toe-off first
    heel_strikes = frames[first::2]
    toe_offs = frames[1 - first :: 2]
    return FootEvents(foot, heel_strikes, toe_offs)


def _oracle_in_stance(events, frame):
    """Per-frame stance rule, walked event by event."""
    latest = None
    for f in sorted(events.heel_strikes + events.toe_offs):
        if f <= frame:
            latest = f
    if latest is None:
        return bool(events.toe_offs) and (
            not events.heel_strikes or events.toe_offs[0] < events.heel_strikes[0]
        )
    return latest in events.heel_strikes or frame in events.toe_offs


def _oracle_phases(left, right, n_frames):
    names = {(False, False): NO_STANCE, (True, False): SS_LEFT,
             (False, True): SS_RIGHT, (True, True): DOUBLE_STANCE}
    labels = [
        names[_oracle_in_stance(left, f), _oracle_in_stance(right, f)]
        for f in range(n_frames)
    ]
    phases = []
    start = 0
    for f in range(1, n_frames + 1):
        if f < n_frames and labels[f] == labels[start]:
            continue
        end = f - 1
        if labels[start] == DOUBLE_STANCE:
            leading = next((ev.foot for ev in (left, right) if start in ev.heel_strikes), None)
            trailing = next((ev.foot for ev in (left, right) if end in ev.toe_offs), None)
            incomplete = leading is None or trailing is None or leading == trailing
        else:
            leading = trailing = None
            incomplete = start == 0 or end == n_frames - 1
        phases.append((labels[start], start, end, incomplete, leading, trailing))
        start = f
    return phases


def test_timeline_matches_the_per_frame_stance_rule_on_random_events():
    rng = np.random.default_rng(20261018)
    seen = dict.fromkeys(
        ("starts with toe-off", "ends with heel strike", "toe-off meets other heel strike",
         "own toe-off and heel strike adjacent"),
        0,
    )
    for _ in range(2500):
        n_frames = int(rng.integers(1, 121))
        left = _random_foot_events(rng, "left", n_frames)
        right = _random_foot_events(rng, "right", n_frames)
        timeline = build_timeline(left, right, n_frames, sample_rate_hz=100.0)
        got = [
            (p.label, p.start, p.end, p.incomplete, p.leading_foot, p.trailing_foot)
            for p in timeline.phases
        ]
        assert got == _oracle_phases(left, right, n_frames), (left, right, n_frames)

        for ev, other in ((left, right), (right, left)):
            events = sorted(
                [(f, "hs") for f in ev.heel_strikes] + [(f, "to") for f in ev.toe_offs]
            )
            if events and events[0][1] == "to":
                seen["starts with toe-off"] += 1
            if events and events[-1][1] == "hs":
                seen["ends with heel strike"] += 1
            if set(ev.toe_offs) & set(other.heel_strikes):
                seen["toe-off meets other heel strike"] += 1
            if any(
                b - a == 1 and {ka, kb} == {"hs", "to"}
                for (a, ka), (b, kb) in zip(events, events[1:])
            ):
                seen["own toe-off and heel strike adjacent"] += 1
    assert all(count > 0 for count in seen.values()), seen


def test_events_csv_lists_events_sorted_by_frame(tmp_path):
    timeline = _mixed_timeline()
    path = tmp_path / "events.csv"
    write_events_csv(path, timeline)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "foot,event_type,frame,time_s"
    assert lines[1] == f"left,heel_strike,100,{1.0!r}"
    assert lines[2] == f"right,toe_off,130,{1.3!r}"
    assert lines[3] == f"left,toe_off,150,{1.5!r}"


# ----------------------------------------------------- scripted walker


def test_detected_walker_events_match_the_script(walker, walker_timeline):
    for scripted, detected in (
        (walker.left_events, walker_timeline.left),
        (walker.right_events, walker_timeline.right),
    ):
        assert len(detected.heel_strikes) == len(scripted.heel_strikes)
        assert len(detected.toe_offs) == len(scripted.toe_offs)
        hs_err = np.abs(np.array(detected.heel_strikes) - np.array(scripted.heel_strikes))
        to_err = np.abs(np.array(detected.toe_offs) - np.array(scripted.toe_offs))
        assert np.max(hs_err) <= 2
        assert np.max(to_err) <= 2


def test_walker_timeline_alternates_single_and_double_stance(walker_timeline):
    labels = [p.label for p in walker_timeline.phases]
    assert DOUBLE_STANCE in labels
    assert SS_LEFT in labels and SS_RIGHT in labels
    assert NO_STANCE not in labels
    # double stance must separate the two single-stance kinds
    for before, after in zip(labels, labels[1:]):
        assert not (before == SS_LEFT and after == SS_RIGHT)
        assert not (before == SS_RIGHT and after == SS_LEFT)
