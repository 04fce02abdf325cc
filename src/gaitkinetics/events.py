"""Gait event detection and stance-phase timeline construction.

Heel strikes are local maxima of the heel's antero-posterior position
relative to the sacrum; toe-offs are local minima of the toe's relative
position (extrema of the sacrum-relative marker excursions).  Both series
are sign-normalized first so that progression increases with time, using
the sacrum's net displacement over the trial.  Extrema closer than a
minimum period to a stronger extremum of the same kind are suppressed.

A timeline tiles the trial into double stance (heel strike of one foot to
the first subsequent toe-off of the other), single stance, and no-stance
intervals.  Phases cut off by the trial edges are flagged incomplete.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InternalInvariantError, NoGaitDataError
from .ingest import _runs, _write_csv
from .signal import UniformSeries, find_peaks

__all__ = [
    "SS_LEFT",
    "SS_RIGHT",
    "DOUBLE_STANCE",
    "NO_STANCE",
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

    @property
    def n_frames(self) -> int:
        return self.end - self.start + 1


@dataclass
class GaitTimeline:
    """Per-foot events plus a phase tiling of the whole trial."""

    sample_rate_hz: float
    n_frames: int
    left: FootEvents
    right: FootEvents
    phases: list[Phase] = field(default_factory=list)

    def __post_init__(self):
        if not self.sample_rate_hz > 0:
            raise InputError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if self.n_frames < 1:
            raise InputError("timeline needs at least one frame")
        for ev in (self.left, self.right):
            for frame in ev.heel_strikes + ev.toe_offs:
                if not 0 <= frame < self.n_frames:
                    raise InputError(
                        f"{ev.foot} event frame {frame} outside [0, {self.n_frames})"
                    )
        # phases must tile [0, n_frames - 1] without gaps or overlap
        cursor = 0
        for phase in self.phases:
            if phase.start != cursor:
                raise InternalInvariantError(
                    f"phase tiling broken at frame {cursor} (next phase starts "
                    f"at {phase.start})"
                )
            cursor = phase.end + 1
        if cursor != self.n_frames:
            raise InternalInvariantError(
                f"phase tiling ends at frame {cursor - 1}, trial has {self.n_frames}"
            )

    def foot_events(self, foot: str) -> FootEvents:
        if foot == "left":
            return self.left
        if foot == "right":
            return self.right
        raise InputError(f"foot must be 'left' or 'right', got {foot!r}")

    def stance_mask(self, foot: str) -> np.ndarray:
        """True where the given foot is in stance (single or double)."""
        mask = np.zeros(self.n_frames, dtype=bool)
        own_ss = SS_LEFT if foot == "left" else SS_RIGHT
        self.foot_events(foot)  # validates the name
        for phase in self.phases:
            if phase.label == own_ss or phase.label == DOUBLE_STANCE:
                mask[phase.start : phase.end + 1] = True
        return mask

    def phase_at(self, frame: int) -> Phase:
        for phase in self.phases:
            if phase.start <= frame <= phase.end:
                return phase
        raise InputError(f"frame {frame} outside the timeline")

    def times(self, frames) -> np.ndarray:
        return np.asarray(frames, dtype=float) / self.sample_rate_hz


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


@dataclass(frozen=True)
class _Stance:
    """One stance interval of a single foot, with boundary provenance."""

    start: int
    end: int
    hs_observed: bool  # start frame is a detected heel strike
    to_observed: bool  # end frame is a detected toe-off


def _stance_intervals(events: FootEvents, n_frames: int) -> list[_Stance]:
    merged = sorted(
        [(f, "hs") for f in events.heel_strikes] + [(f, "to") for f in events.toe_offs]
    )
    stances: list[_Stance] = []
    open_start: int | None = None
    open_observed = False
    for i, (frame, kind) in enumerate(merged):
        if kind == "hs":
            if open_start is not None:
                raise InputError(
                    f"{events.foot}: heel strike at frame {frame} while already in stance"
                )
            open_start, open_observed = frame, True
        else:
            if open_start is None:
                if i != 0:
                    raise InputError(
                        f"{events.foot}: toe-off at frame {frame} without a stance to end"
                    )
                # foot was already in stance when the trial began
                open_start, open_observed = 0, False
            stances.append(
                _Stance(start=open_start, end=frame, hs_observed=open_observed, to_observed=True)
            )
            open_start, open_observed = None, False
    if open_start is not None:
        # stance still open when the trial ended
        stances.append(
            _Stance(start=open_start, end=n_frames - 1, hs_observed=open_observed, to_observed=False)
        )
    return stances


def build_timeline(
    left_events: FootEvents,
    right_events: FootEvents,
    n_frames: int,
    sample_rate_hz: float,
) -> GaitTimeline:
    """Tile the trial into single/double/no-stance phases from foot events.

    Stance runs from each heel strike to that foot's next toe-off
    (inclusive); stances cut by the trial edges are synthesized from the
    edge frame.  A double-stance phase is complete only when its start is a
    detected heel strike and its end a detected toe-off of the other foot;
    single/no-stance phases touching the trial edges are flagged incomplete.
    """
    if left_events.foot != "left" or right_events.foot != "right":
        raise InputError("build_timeline expects (left_events, right_events) in order")
    if n_frames < 1:
        raise InputError("timeline needs at least one frame")

    stances = {
        "left": _stance_intervals(left_events, n_frames),
        "right": _stance_intervals(right_events, n_frames),
    }
    occupancy = {}
    hs_at = {}
    to_at = {}
    for foot in ("left", "right"):
        occ = np.zeros(n_frames, dtype=bool)
        hs_set, to_set = set(), set()
        for st in stances[foot]:
            occ[st.start : st.end + 1] = True
            if st.hs_observed:
                hs_set.add(st.start)
            if st.to_observed:
                to_set.add(st.end)
        occupancy[foot] = occ
        hs_at[foot] = hs_set
        to_at[foot] = to_set

    labels = np.where(
        occupancy["left"] & occupancy["right"],
        0,
        np.where(occupancy["left"], 1, np.where(occupancy["right"], 2, 3)),
    )
    label_names = {0: DOUBLE_STANCE, 1: SS_LEFT, 2: SS_RIGHT, 3: NO_STANCE}

    phases: list[Phase] = []
    cuts = np.flatnonzero(np.diff(labels)) + 1  # first frame of each run but the first
    for start, end in zip([0, *cuts.tolist()], [*(cuts - 1).tolist(), n_frames - 1]):
        label = label_names[int(labels[start])]
        if label == DOUBLE_STANCE:
            leading = next(
                (foot for foot in ("left", "right") if start in hs_at[foot]), None
            )
            trailing = next(
                (foot for foot in ("left", "right") if end in to_at[foot]), None
            )
            complete = (
                leading is not None
                and trailing is not None
                and leading != trailing
            )
            phases.append(
                Phase(
                    label=label,
                    start=start,
                    end=end,
                    incomplete=not complete,
                    leading_foot=leading,
                    trailing_foot=trailing,
                )
            )
        else:
            incomplete = start == 0 or end == n_frames - 1
            phases.append(Phase(label=label, start=start, end=end, incomplete=incomplete))

    return GaitTimeline(
        sample_rate_hz=sample_rate_hz,
        n_frames=n_frames,
        left=left_events,
        right=right_events,
        phases=phases,
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
