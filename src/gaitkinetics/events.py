"""Gait event detection and stance-phase timeline construction.

Heel strikes are local maxima of the heel's antero-posterior position
relative to the sacrum; toe-offs are local minima of the toe's relative
position (extrema of the sacrum-relative marker excursions).  Both series
are sign-normalized first so that progression increases with time, using
the sacrum's net displacement over the trial.  Extrema closer than a
minimum period to a stronger extremum of the same kind are suppressed.

A foot is in stance from each heel strike to its next toe-off, inclusive;
the stance starts at frame 0 when the foot's first event is a toe-off and
runs to the last frame when its last event is a heel strike.  A timeline
tiles the trial into double stance (heel strike of one foot to the first
subsequent toe-off of the other), single stance, and no-stance intervals.
Phases cut off by the trial edges are flagged incomplete.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NoGaitDataError
from .ingest import _runs, _write_csv
from .signal import UniformSeries, find_peaks

__all__ = [
    "SS_LEFT",
    "SS_RIGHT",
    "DOUBLE_STANCE",
    "NO_STANCE",
    "PHASE_LABELS",
    "FootEvents",
    "Phase",
    "GaitTimeline",
    "detect_events_zeni",
    "detect_stance_threshold",
    "build_timeline",
    "write_events_csv",
]

SS_LEFT = "single_stance_left"
SS_RIGHT = "single_stance_right"
DOUBLE_STANCE = "double_stance"
NO_STANCE = "no_stance"
# indexed by stance code: left in stance + 2 x right in stance
PHASE_LABELS = (NO_STANCE, SS_LEFT, SS_RIGHT, DOUBLE_STANCE)

DEFAULT_MIN_PERIOD_S = 0.4
DEFAULT_STANCE_THRESHOLD_M = 0.06


@dataclass(frozen=True)
class FootEvents:
    """Detected heel-strike and toe-off frames for one foot."""

    foot: str
    heel_strikes: tuple[int, ...]
    toe_offs: tuple[int, ...]

    def __post_init__(self):
        if self.foot not in ("left", "right"):
            raise InputError(f"foot must be 'left' or 'right', got {self.foot!r}")
        object.__setattr__(self, "heel_strikes", tuple(int(f) for f in self.heel_strikes))
        object.__setattr__(self, "toe_offs", tuple(int(f) for f in self.toe_offs))
        for label, seq in (("heel_strikes", self.heel_strikes), ("toe_offs", self.toe_offs)):
            if any(b <= a for a, b in zip(seq, seq[1:])):
                raise InputError(f"{self.foot} {label} must be strictly increasing")
        merged = sorted(
            [(f, "hs") for f in self.heel_strikes] + [(f, "to") for f in self.toe_offs]
        )
        for (fa, ta), (fb, tb) in zip(merged, merged[1:]):
            if fa == fb:
                raise InputError(
                    f"{self.foot}: events coincide at frame {fa} (non-alternating)"
                )
            if ta == tb:
                raise InputError(
                    f"{self.foot}: consecutive {ta!r} events at frames {fa} and {fb} "
                    "without the other event type between them"
                )


@dataclass(frozen=True)
class Phase:
    """One timeline interval, frames start..end inclusive."""

    label: str
    start: int
    end: int
    incomplete: bool = False
    leading_foot: str | None = None  # double stance: foot that just struck
    trailing_foot: str | None = None  # double stance: foot about to toe-off

    def __post_init__(self):
        if self.label not in (SS_LEFT, SS_RIGHT, DOUBLE_STANCE, NO_STANCE):
            raise InputError(f"unknown phase label {self.label!r}")
        if self.end < self.start:
            raise InputError(f"phase end {self.end} before start {self.start}")


@dataclass
class GaitTimeline:
    """Per-foot events and the stance they give each frame of the trial.

    ``stance`` holds one code per frame: 0 no foot in stance, 1 left only,
    2 right only, 3 both, so ``PHASE_LABELS[code]`` is the frame's phase
    label.  ``phases`` lists its runs, which tile the trial.
    """

    sample_rate_hz: float
    n_frames: int
    left: FootEvents
    right: FootEvents
    stance: np.ndarray = field(init=False, repr=False)
    phases: list[Phase] = field(init=False)

    def __post_init__(self):
        if self.left.foot != "left" or self.right.foot != "right":
            raise InputError("a timeline takes (left_events, right_events) in order")
        if self.n_frames < 1:
            raise InputError("timeline needs at least one frame")
        if not self.sample_rate_hz > 0:
            raise InputError(f"sample rate must be positive, got {self.sample_rate_hz}")
        for ev in (self.left, self.right):
            for frame in ev.heel_strikes + ev.toe_offs:
                if not 0 <= frame < self.n_frames:
                    raise InputError(
                        f"{ev.foot} event frame {frame} outside [0, {self.n_frames})"
                    )
        n = self.n_frames
        self.stance = _stance_mask(self.left, n) + 2 * _stance_mask(self.right, n)
        self.phases = _phases(self.stance, self.left, self.right)

    def foot_events(self, foot: str) -> FootEvents:
        if foot == "left":
            return self.left
        if foot == "right":
            return self.right
        raise InputError(f"foot must be 'left' or 'right', got {foot!r}")

    def stance_mask(self, foot: str) -> np.ndarray:
        """True where the given foot is in stance (single or double)."""
        self.foot_events(foot)  # validates the name
        return (self.stance & (1 if foot == "left" else 2)) != 0


def _normalize_direction(heel, toe, sacrum):
    """Flip signs so antero-posterior progression increases over the trial."""
    disp = sacrum[-1] - sacrum[0]
    if disp == 0.0:
        raise NoGaitDataError(
            "sacrum shows no net antero-posterior displacement; "
            "cannot establish walking direction"
        )
    if disp < 0:
        return -heel, -toe, -sacrum
    return heel, toe, sacrum


def detect_events_zeni(
    heel_ap: UniformSeries,
    toe_ap: UniformSeries,
    sacrum_ap: UniformSeries,
    min_period_s: float = DEFAULT_MIN_PERIOD_S,
) -> tuple[np.ndarray, np.ndarray]:
    """Heel-strike and toe-off frames from sacrum-relative AP extrema.

    Returns (heel_strike_frames, toe_off_frames) as int arrays.  Weaker
    extrema within ``min_period_s`` of a stronger one are suppressed.
    Raises NoGaitDataError when either extremum family is empty.
    """
    rate = heel_ap.sample_rate_hz
    for name, s in (("toe_ap", toe_ap), ("sacrum_ap", sacrum_ap)):
        if s.sample_rate_hz != rate:
            raise InputError(f"{name} sample rate differs from heel_ap")
        if s.n_samples != heel_ap.n_samples:
            raise InputError(f"{name} length differs from heel_ap")
    for name, s in (("heel_ap", heel_ap), ("toe_ap", toe_ap), ("sacrum_ap", sacrum_ap)):
        if s.n_channels != 1:
            raise InputError(f"{name} must be single-channel")
    if min_period_s < 0:
        raise InputError(f"min_period_s must be non-negative, got {min_period_s}")

    heel, toe, sacrum = _normalize_direction(
        heel_ap.values[0], toe_ap.values[0], sacrum_ap.values[0]
    )
    rel_heel = heel - sacrum
    rel_toe = toe - sacrum
    distance = max(1, int(round(min_period_s * rate)))

    heel_strikes = find_peaks(rel_heel, distance=distance)
    toe_offs = find_peaks(-rel_toe, distance=distance)
    if heel_strikes.size == 0:
        raise NoGaitDataError("no heel-strike extremum found (series too short?)")
    if toe_offs.size == 0:
        raise NoGaitDataError("no toe-off extremum found (series too short?)")
    return heel_strikes.astype(int), toe_offs.astype(int)


def detect_stance_threshold(
    foot_z: UniformSeries, threshold_m: float = DEFAULT_STANCE_THRESHOLD_M
) -> list[tuple[int, int]]:
    """Maximal frame intervals (inclusive) where foot height < threshold."""
    if foot_z.n_channels != 1:
        raise InputError("foot_z must be single-channel")
    if not threshold_m > 0:
        raise InputError(f"stance threshold must be positive, got {threshold_m}")
    starts, ends = _runs(foot_z.values[0] < threshold_m)
    return list(zip(starts.tolist(), (ends - 1).tolist()))


def _stance_mask(events: FootEvents, n_frames: int) -> np.ndarray:
    """One foot's stance frames under ``build_timeline``'s rule.

    Pairing starts with ends needs no checks: ``FootEvents`` already
    guarantees that the events alternate.
    """
    starts = list(events.heel_strikes)
    ends = list(events.toe_offs)
    if ends and (not starts or ends[0] < starts[0]):
        starts.insert(0, 0)
    if len(ends) < len(starts):
        ends.append(n_frames - 1)
    mask = np.zeros(n_frames, dtype=bool)
    for start, end in zip(starts, ends):
        mask[start : end + 1] = True
    return mask


def _phases(stance: np.ndarray, left: FootEvents, right: FootEvents) -> list[Phase]:
    """The runs of equal ``stance`` codes, as phases.

    A double-stance phase is complete only when its start is a heel strike
    of one foot and its end a toe-off of the other; single/no-stance phases
    touching the trial edges are flagged incomplete.
    """
    last = stance.size - 1
    cuts = np.flatnonzero(np.diff(stance)) + 1  # first frame of each run but the first
    phases: list[Phase] = []
    for start, end in zip([0, *cuts.tolist()], [*(cuts - 1).tolist(), last]):
        label = PHASE_LABELS[stance[start]]
        if label == DOUBLE_STANCE:
            leading = next((ev.foot for ev in (left, right) if start in ev.heel_strikes), None)
            trailing = next((ev.foot for ev in (left, right) if end in ev.toe_offs), None)
            complete = leading is not None and trailing is not None and leading != trailing
            phases.append(Phase(label, start, end, not complete, leading, trailing))
        else:
            phases.append(Phase(label, start, end, incomplete=start == 0 or end == last))
    return phases


def build_timeline(
    left_events: FootEvents,
    right_events: FootEvents,
    n_frames: int,
    sample_rate_hz: float,
) -> GaitTimeline:
    """The stance timeline of a trial from each foot's events.

    A foot is in stance from each heel strike to its next toe-off
    (inclusive); a stance starts at frame 0 when the foot's first event is
    a toe-off and runs to the last frame when its last event is a heel
    strike.  See ``GaitTimeline`` for the phases this gives.
    """
    return GaitTimeline(
        sample_rate_hz=sample_rate_hz, n_frames=n_frames, left=left_events, right=right_events
    )


def write_events_csv(path, timeline: GaitTimeline) -> None:
    """Write detected events as ``foot,event_type,frame,time_s`` rows."""
    rows = []
    for ev in (timeline.left, timeline.right):
        rows += [(frame, ev.foot, "heel_strike") for frame in ev.heel_strikes]
        rows += [(frame, ev.foot, "toe_off") for frame in ev.toe_offs]
    rows.sort()
    frames = np.array([frame for frame, _, _ in rows], dtype=int)
    columns = [[foot for _, foot, _ in rows], [kind for _, _, kind in rows], frames]
    _write_csv(
        path, ["foot,event_type,frame,time_s"], columns + [frames / timeline.sample_rate_hz]
    )
