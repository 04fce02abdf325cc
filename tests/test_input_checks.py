"""The input checks of the public constructors and helpers: each refuses
bad input with its own message."""

import re

import numpy as np
import pytest

from gaitkinetics.anthro import AnthropometricTable, SegmentId
from gaitkinetics.errors import InputError, InternalInvariantError
from gaitkinetics.events import SS_LEFT, FootEvents, GaitTimeline, Phase
from gaitkinetics.grf import BilateralGrf, ButterflyDiagram, GrfSeries
from gaitkinetics.ingest import ForcePlateSeries, MarkerTrajectorySet, fill_gaps
from gaitkinetics.kinematics import ComTrajectory, PointRule, com_trajectory
from gaitkinetics.signal import UniformSeries
from gaitkinetics.synth import WalkerParams, synth_force_plates

N_SEGMENTS = len(ComTrajectory.segment_ids)


def _timeline(n_frames, rate=200.0):
    return GaitTimeline(rate, n_frames, FootEvents("left", (), ()), FootEvents("right", (), ()))


# one constructor per series type, each taking the sample rate and valid data
SERIES = {
    "UniformSeries": lambda rate: UniformSeries(rate, np.arange(5.0)),
    "MarkerTrajectorySet": lambda rate: MarkerTrajectorySet(rate, ["A"], np.zeros((1, 5, 3))),
    "ForcePlateSeries": lambda rate: ForcePlateSeries(rate, np.zeros((1, 5, 5))),
    "GrfSeries": lambda rate: GrfSeries(rate, np.zeros((3, 5))),
    "ComTrajectory":
        lambda rate: ComTrajectory(rate, np.zeros((3, N_SEGMENTS, 5)), np.ones(N_SEGMENTS)),
    "GaitTimeline": lambda rate: _timeline(5, rate),
}


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize("kind", sorted(SERIES))
def test_every_series_refuses_a_sample_rate_that_is_not_positive_and_finite(kind, rate):
    message = f"sample rate must be positive and finite, got {rate}"
    with pytest.raises(InputError, match=re.escape(message)):
        SERIES[kind](rate)


@pytest.mark.parametrize(
    "names, positions, message",
    [
        ([], np.zeros((0, 5, 3)), "marker set is empty"),
        (["A"], np.zeros((5, 3)), "positions must be (n_markers, n_frames, 3)"),
        (["A"], np.zeros((1, 5, 2)), "positions must be (n_markers, n_frames, 3)"),
        (["A", "B"], np.zeros((1, 5, 3)), "2 marker name(s) but positions of 1 marker(s)"),
        (["A"], np.zeros((2, 5, 3)), "1 marker name(s) but positions of 2 marker(s)"),
        (["A", "B", "A"], np.zeros((3, 5, 3)), "duplicate marker name 'A'"),
        (["A", ""], np.zeros((2, 5, 3)), "marker name 2 is empty"),
        (["A"], np.zeros((1, 0, 3)), "marker trial has zero frames"),
    ],
)
def test_marker_set_checks(names, positions, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        MarkerTrajectorySet(200.0, names, positions)


def _plates(at, value=np.nan):
    values = np.zeros((2, 5, 5))
    values[at] = value
    return values


@pytest.mark.parametrize(
    "values, message",
    [
        (np.zeros((1, 5, 3)), "values must be (n_plates, n_frames, 5)"),
        (np.zeros((5, 5)), "values must be (n_plates, n_frames, 5)"),
        (np.zeros((1, 0, 5)), "force trial has zero frames"),
        (_plates((0, 2, 1)), "force data contains non-finite values"),
        (_plates((1, 4, 4), np.inf), "force data contains non-finite values"),
        (_plates((1, 0, 3), -np.inf), "force data contains non-finite values"),
    ],
)
def test_force_plate_series_checks(values, message):
    with pytest.raises(InputError, match=re.escape(message)):
        ForcePlateSeries(2000.0, values)


def test_phase_checks():
    with pytest.raises(InputError, match="unknown phase label 'walking'"):
        Phase("walking", 0, 1)
    with pytest.raises(InputError, match="phase end 4 before start 5"):
        Phase(SS_LEFT, 5, 4)


def test_timeline_checks():
    with pytest.raises(InputError, match="timeline needs at least one frame"):
        _timeline(0)
    with pytest.raises(InputError, match="foot must be 'left' or 'right', got 'middle'"):
        _timeline(5).foot_events("middle")


def test_bilateral_grf_refuses_a_timeline_of_another_span():
    zeros = GrfSeries(200.0, np.zeros((3, 5)))
    with pytest.raises(InternalInvariantError, match="timeline span differs from force series"):
        BilateralGrf(zeros, zeros, zeros, _timeline(6), 80.0, 9.81, np.zeros(5, np.uint8))


def test_butterfly_diagram_invariants():
    with pytest.raises(InternalInvariantError, match="disagree on entry count"):
        ButterflyDiagram(("left",), [0, 1], np.zeros((1, 3)), np.zeros((1, 3)), 1e-3)
    with pytest.raises(InternalInvariantError, match="bases must lie on the ground plane"):
        ButterflyDiagram(("left",), [0], [[0.0, 0.0, 0.1]], np.zeros((1, 3)), 1e-3)


def test_point_rule_needs_a_marker():
    with pytest.raises(InputError, match="point rule needs at least one marker"):
        PointRule(weights=())


def _com(segment_coms=None, masses=None):
    if segment_coms is None:
        segment_coms = np.zeros((3, N_SEGMENTS, 5))
    if masses is None:
        masses = np.ones(N_SEGMENTS)
    return ComTrajectory(200.0, segment_coms, masses)


def _nan_track():
    coms = np.zeros((3, N_SEGMENTS, 5))
    coms[1, 2, 3] = np.nan
    return coms


@pytest.mark.parametrize(
    "arguments, message",
    [
        ({"segment_coms": np.zeros((3, N_SEGMENTS - 1, 5))},
         "segment_coms must be (3, n_segments, n_frames)"),
        ({"masses": np.ones(N_SEGMENTS - 1)}, "masses_kg must be positive, one per segment"),
        ({"masses": np.r_[0.0, np.ones(N_SEGMENTS - 1)]},
         "masses_kg must be positive, one per segment"),
        ({"segment_coms": _nan_track()}, "segment_coms contains non-finite values"),
    ],
)
def test_com_trajectory_invariants(arguments, message):
    with pytest.raises(InternalInvariantError, match=re.escape(message)):
        _com(**arguments)


def test_com_trajectory_needs_every_segment_definition(walker, definitions, table):
    partial = {sid: d for sid, d in definitions.items() if sid != SegmentId("thigh", "left")}
    with pytest.raises(InputError, match="missing segment definition for left_thigh"):
        com_trajectory(walker.markers, partial, table, walker.subject)


def test_table_refuses_an_unknown_kind_or_sex(table):
    row = table.get("head_neck", "m")
    with pytest.raises(InputError, match="unknown segment kind 'wing' in table"):
        AnthropometricTable(rows={("wing", "m"): row})
    with pytest.raises(InputError, match=re.escape("unknown sex tag 'x' in table (expected m/f)")):
        AnthropometricTable(rows={("head_neck", "x"): row})


def test_fill_gaps_refuses_a_negative_limit():
    traj = MarkerTrajectorySet(200.0, ["A"], np.zeros((1, 5, 3)))
    with pytest.raises(InputError, match="max_gap_frames must be non-negative"):
        fill_gaps(traj, max_gap_frames=-1)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"cycle_s": 0.0}, "cycle_s must be positive, got 0.0"),
        ({"left_to_offset_s": 0.2}, "event offsets must satisfy 0 <= right HS < left TO"),
        ({"right_to_offset_s": 0.97}, "feet disagree on stance duration"),
    ],
)
def test_walker_params_checks(fields, message):
    with pytest.raises(InputError, match=re.escape(message)):
        WalkerParams(**fields)


def test_synthetic_plates_need_at_least_the_marker_rate():
    with pytest.raises(InputError, match="force rate must be at least the marker rate, got 100.0"):
        synth_force_plates(WalkerParams(duration_s=0.5), force_rate_hz=100.0)
