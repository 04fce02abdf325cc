"""Segment coordinate frames and centre-of-mass estimation from markers.

Each segment is located by marker-derived endpoints: an origin at the
proximal joint centre and a distal endpoint whose distance to the origin
defines the segment length.  A right-handed orthonormal basis is built per
frame (X antero-posterior, Y medio-lateral toward the subject's left,
Z toward the superior end of the segment; the foot uses its long axis as X
instead).  The segment CoM is the origin plus the length-scaled offset
triple from the anthropometric table; left-side segments mirror the ML
offset sign.  Hands carry no markers: their CoM sits beyond the wrist on
the elbow-to-wrist line, at half a hand length (74% of the forearm marker
distance) past the wrist centre.

The whole-body CoM is the segment-mass-weighted mean over all 16 segments,
accumulated in a fixed segment order so results are bitwise reproducible.
``filter_com_trajectory`` low-passes only the two products later stages
read and attaches them; the segment and whole-body tracks stay raw.
"""

import copy
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import ClassVar

import numpy as np

from .anthro import (
    SEGMENT_IDS,
    AnthropometricTable,
    SegmentId,
    SubjectProfile,
    segment_mass,
)
from .errors import InputError, InternalInvariantError, _check_sample_rate
from .ingest import MarkerTrajectorySet, _marker_positions, _read_text, _write_csv
from .signal import UniformSeries, lowpass, smoothed_acceleration

__all__ = [
    "PointRule",
    "SegmentDefinition",
    "ComTrajectory",
    "load_segment_definitions",
    "parse_segment_definitions",
    "bundled_definitions_path",
    "hand_com",
    "com_trajectory",
    "filter_com_trajectory",
    "write_com_csv",
]

HAND_LENGTH_PER_FOREARM = 0.74  # hand length as a fraction of elbow-wrist distance

_COLLINEAR_SIN = np.sin(1e-3)  # reference within 1e-3 rad of the primary axis
# segments are evaluated over consecutive ranges of at most this many frames,
# so that each (3, k) temporary stays at about 96 KiB whatever the trial's
# length: under glibc's 128 KiB mmap threshold, so it is served from the heap
_FRAMES_PER_CHUNK = 4096


@dataclass(frozen=True)
class PointRule:
    """Affine combination of markers; weights sum to 1."""

    weights: tuple[tuple[str, float], ...]

    def __post_init__(self):
        if not self.weights:
            raise InputError("point rule needs at least one marker")
        names = [n for n, _ in self.weights]
        if len(set(names)) != len(names):
            raise InputError(f"point rule repeats a marker: {names}")
        for name, w in self.weights:
            if not math.isfinite(w):
                raise InputError(f"point rule weight of {name} is {w}, expected a finite number")
        total = sum(w for _, w in self.weights)
        if not abs(total - 1.0) <= 1e-9:
            raise InputError(f"point rule weights sum to {total}, expected 1")

    @classmethod
    def parse(cls, text: str) -> "PointRule":
        """Parse ``A+B`` (centroid) or ``A*0.3+B*0.7`` (explicit weights)."""
        terms = [t.strip() for t in text.split("+")]
        if any(not t for t in terms):
            raise InputError(f"bad point rule {text!r}")
        explicit = ["*" in t for t in terms]
        if any(explicit) and not all(explicit):
            raise InputError(
                f"point rule {text!r} mixes weighted and unweighted markers"
            )
        if all(explicit):
            pairs = []
            for t in terms:
                name, _, wtext = t.partition("*")
                try:
                    w = float(wtext)
                except ValueError as exc:
                    raise InputError(f"bad weight in point rule {text!r}") from exc
                pairs.append((name.strip(), w))
            return cls(weights=tuple(pairs))
        share = 1.0 / len(terms)
        return cls(weights=tuple((t, share) for t in terms))


@dataclass(frozen=True)
class SegmentDefinition:
    """Marker recipe for one segment's endpoints and axes.

    style "longitudinal": the primary axis is Z, from the inferior to the
    superior endpoint (``superior`` names which of origin/distal that is).
    style "anteroposterior" (feet): the primary axis is X, from
    ``forward[0]`` to ``forward[1]``.

    ``ref``/``ref_kind`` orient the remaining axes: the reference point,
    seen from the origin and projected off the primary axis, points
    anterior, posterior, lateral, or medial.  lateral/medial require a
    sided segment.
    """

    segment: SegmentId
    origin: PointRule
    distal: PointRule
    ref: PointRule
    ref_kind: str
    style: str = "longitudinal"
    superior: str = "origin"
    forward: tuple[PointRule, PointRule] | None = None

    def __post_init__(self):
        if self.style not in ("longitudinal", "anteroposterior"):
            raise InputError(f"{self.segment}: unknown style {self.style!r}")
        if self.ref_kind not in ("anterior", "posterior", "lateral", "medial"):
            raise InputError(f"{self.segment}: unknown ref_kind {self.ref_kind!r}")
        if self.ref_kind in ("lateral", "medial") and self.segment.side is None:
            raise InputError(
                f"{self.segment}: ref_kind {self.ref_kind!r} needs a sided segment"
            )
        if self.style == "longitudinal":
            if self.superior not in ("origin", "distal"):
                raise InputError(
                    f"{self.segment}: superior must be 'origin' or 'distal'"
                )
        else:
            if self.forward is None:
                raise InputError(f"{self.segment}: anteroposterior style needs forward=")
            if self.ref_kind not in ("lateral", "medial"):
                raise InputError(
                    f"{self.segment}: anteroposterior style needs a lateral/medial ref"
                )
        if self.segment.kind == "hand":
            raise InputError("hands take no marker definition (wrist fallback rule)")

    def point_rules(self) -> tuple[PointRule, ...]:
        """Origin, distal, ref and (anteroposterior style) the forward pair."""
        return (self.origin, self.distal, self.ref, *(self.forward or ()))


@dataclass
class ComTrajectory:
    """Per-segment and whole-body CoM tracks.

    segment_coms has shape (3, n_segments, n_frames) in the order of
    ``segment_ids``, the model's 16 segments; whole_body is computed from
    them, as the mass-weighted mean over segments.  Both are the model's
    output and are never low-passed.  The two low-passed tracks are None
    until ``filter_com_trajectory`` sets them on its copy.
    """

    segment_ids: ClassVar[tuple[SegmentId, ...]] = SEGMENT_IDS
    sample_rate_hz: float
    segment_coms: np.ndarray
    masses_kg: np.ndarray
    # set by filter_com_trajectory, low-passed: the (3, n_frames) whole-body acceleration,
    # read by total_grf, and the (2, 2, n_frames) left then right foot CoM (x, y), by butterfly
    whole_body_acceleration: np.ndarray | None = field(default=None, init=False)
    foot_ground: np.ndarray | None = field(default=None, init=False)
    whole_body: np.ndarray = field(init=False)

    def __post_init__(self):
        _check_sample_rate(self.sample_rate_hz)
        self.segment_coms = np.asarray(self.segment_coms, dtype=float)
        self.masses_kg = np.asarray(self.masses_kg, dtype=float)
        n_seg = len(self.segment_ids)
        if self.segment_coms.ndim != 3 or self.segment_coms.shape[:2] != (3, n_seg):
            raise InternalInvariantError("segment_coms must be (3, n_segments, n_frames)")
        if self.masses_kg.shape != (n_seg,) or not np.all(self.masses_kg > 0):
            raise InternalInvariantError("masses_kg must be positive, one per segment")
        if not np.all(np.isfinite(self.segment_coms)):
            raise InternalInvariantError("segment_coms contains non-finite values")
        self.whole_body = _weighted_mean(self.segment_coms, self.masses_kg)

    @property
    def n_frames(self) -> int:
        return self.segment_coms.shape[2]

    def segment_index(self, segment: SegmentId) -> int:
        return self.segment_ids.index(segment)

    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) / self.sample_rate_hz


def _weighted_mean(segment_coms: np.ndarray, masses: np.ndarray) -> np.ndarray:
    # fixed left-to-right accumulation in segment order (bitwise reproducible)
    acc = np.zeros((3, segment_coms.shape[2]))
    for i in range(len(masses)):
        acc += masses[i] * segment_coms[:, i, :]
    return acc / float(np.sum(masses))


def parse_segment_definitions(text: str, source: str = "<definitions>"):
    """Parse a segment-definition config.

    One segment per line: ``kind side token...`` where side is ``-`` for
    axial segments and the tokens are ``key=value`` pairs (origin, distal,
    ref, ref_kind, and optionally style, superior, forward=FROM:TO).
    ``#`` starts a comment.  Returns a dict keyed by SegmentId.
    """
    defs: dict[SegmentId, SegmentDefinition] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 3:
            raise InputError(f"{source}:{lineno}: expected 'kind side key=value...'")
        kind, side_text = parts[0], parts[1]
        side = None if side_text == "-" else side_text
        segment = SegmentId(kind, side)
        if segment in defs:
            raise InputError(f"{source}:{lineno}: duplicate definition for {segment}")
        kw: dict[str, str] = {}
        for token in parts[2:]:
            key, eq, value = token.partition("=")
            if not eq or not value:
                raise InputError(f"{source}:{lineno}: bad token {token!r}")
            if key in kw:
                raise InputError(f"{source}:{lineno}: duplicate key {key!r}")
            kw[key] = value
        for needed in ("origin", "distal", "ref", "ref_kind"):
            if needed not in kw:
                raise InputError(f"{source}:{lineno}: missing {needed}=")
        try:
            forward = None
            if "forward" in kw:
                head, sep, tail = kw["forward"].partition(":")
                if not sep:
                    raise InputError("forward must be FROM:TO")
                forward = (PointRule.parse(head), PointRule.parse(tail))
            defs[segment] = SegmentDefinition(
                segment=segment,
                origin=PointRule.parse(kw["origin"]),
                distal=PointRule.parse(kw["distal"]),
                ref=PointRule.parse(kw["ref"]),
                ref_kind=kw["ref_kind"],
                style=kw.get("style", "longitudinal"),
                superior=kw.get("superior", "origin"),
                forward=forward,
            )
        except InputError as exc:
            raise InputError(f"{source}:{lineno}: {exc}") from exc

    needed = [
        sid for sid in SEGMENT_IDS if sid.kind != "hand"
    ]
    missing = [str(sid) for sid in needed if sid not in defs]
    if missing:
        raise InputError(f"{source}: missing segment definition(s): " + ", ".join(missing))
    return defs


def load_segment_definitions(path):
    return parse_segment_definitions(_read_text(path, "segment definitions"), source=str(path))


def bundled_definitions_path():
    """Path of the default marker-set definitions shipped with the package."""
    return resources.files("gaitkinetics").joinpath("data", "segment_definitions.txt")


def _eval_point(traj: MarkerTrajectorySet, rule: PointRule, segment: SegmentId, frames: slice):
    """Evaluate an affine marker combination over a frame range -> (3, k)."""
    acc = None
    for name, w in rule.weights:
        term = w * _marker_positions(traj, name, segment)[frames]
        acc = term if acc is None else acc + term
    # summed on the contiguous (k, 3) marker rows, transposed once
    return np.ascontiguousarray(acc.T)


# Vector algebra on component-major (3, n) arrays, one row per coordinate.
# Written out row by row: numpy reduces a length-3 last axis of (n, 3) data
# several times slower, and these expressions give the same bits as
# np.linalg.norm / np.sum / np.cross over that axis.


def _norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def _refuse(bad: np.ndarray, frames: slice, segment: SegmentId, fault: str) -> None:
    """Raise for the first True of ``bad``, named by its whole-trial frame."""
    if np.any(bad):
        raise InputError(f"{segment}: {fault} at frame {frames.start + int(np.argmax(bad))}")


def _unit(v: np.ndarray, segment: SegmentId, frames: slice) -> np.ndarray:
    """v / |v| for the forward axis of an anteroposterior segment."""
    norm = _norm(v)
    _refuse(norm <= 0, frames, segment, "forward axis has zero length")
    return v / norm


def _perp_unit(w: np.ndarray, axis: np.ndarray, segment: SegmentId, frames: slice) -> np.ndarray:
    """Unit component of w orthogonal to a unit axis; rejects near-collinear."""
    w_perp = w - _dot(w, axis) * axis
    norm_p = _norm(w_perp)
    _refuse(
        norm_p <= _COLLINEAR_SIN * _norm(w), frames, segment,
        "axis reference is collinear with the primary axis (within 1e-3 rad)",
    )
    return w_perp / norm_p


def _basis_series(traj, frames, definition: SegmentDefinition, origin, distal, length):
    """Per-frame right-handed orthonormal basis as the axes (u_x, u_y, u_z),
    each (3, k).  ``length`` is the nonzero origin-distal distance."""
    seg = definition.segment
    # +1 where the reference lies toward +x (anterior) or +y (the subject's
    # left: lateral of a left segment, medial of a right one)
    sign = -1.0 if definition.ref_kind in ("posterior", "medial") else 1.0
    if definition.ref_kind in ("lateral", "medial") and seg.side == "right":
        sign = -sign
    w = _eval_point(traj, definition.ref, seg, frames) - origin

    if definition.style == "longitudinal":
        sup, inf = (origin, distal) if definition.superior == "origin" else (distal, origin)
        u_z = (sup - inf) / length  # the norm of sup - inf, whichever end is up
        p = sign * _perp_unit(w, u_z, seg, frames)
        if definition.ref_kind in ("anterior", "posterior"):
            u_x, u_y = p, _cross(u_z, p)
        else:
            u_y, u_x = p, _cross(p, u_z)
    else:
        fwd_from = _eval_point(traj, definition.forward[0], seg, frames)
        fwd_to = _eval_point(traj, definition.forward[1], seg, frames)
        u_x = _unit(fwd_to - fwd_from, seg, frames)
        u_y = sign * _perp_unit(w, u_x, seg, frames)
        u_z = _cross(u_x, u_y)

    return u_x, u_y, u_z


def _segment_com_series(traj, frames, definition, table, subject):
    """CoM track for one marker-defined segment over the range ``frames``.

    Returns (origin, distal, axes, length, com): origin, distal and com are
    (3, k), axes the (u_x, u_y, u_z) of ``_basis_series``, length (k,).
    """
    seg = definition.segment
    origin = _eval_point(traj, definition.origin, seg, frames)
    distal = _eval_point(traj, definition.distal, seg, frames)
    length = _norm(origin - distal)
    _refuse(length <= 0, frames, seg, "origin and distal coincide")
    u_x, u_y, u_z = axes = _basis_series(traj, frames, definition, origin, distal, length)
    params = table.get(seg.kind, subject.sex)
    p_ml = -params.p_ml if seg.side == "left" else params.p_ml
    offset = params.p_ap * u_x + p_ml * u_y + params.p_si * u_z
    com = origin + length * offset
    return origin, distal, axes, length, com


def hand_com(wrist_center: np.ndarray, elbow_center: np.ndarray) -> np.ndarray:
    """Hand CoM from forearm endpoints (marker-less fallback).

    The hand length is taken as 74% of the elbow-to-wrist distance and the
    CoM placed half a hand length beyond the wrist along the elbow-to-wrist
    direction, i.e. at wrist + 0.37 * (wrist - elbow).  Points are (3,) or
    component-major (3, n).
    """
    seg = wrist_center - elbow_center
    dist = _norm(seg)
    if np.any(dist <= 0):
        raise InputError("hand fallback: wrist and elbow centres coincide")
    hand_length = HAND_LENGTH_PER_FOREARM * dist
    return wrist_center + 0.5 * hand_length * (seg / dist)


def com_trajectory(
    traj: MarkerTrajectorySet,
    defs: dict[SegmentId, SegmentDefinition],
    table: AnthropometricTable,
    subject: SubjectProfile,
) -> ComTrajectory:
    """Whole-body and per-segment CoM tracks over all frames."""
    for sid in SEGMENT_IDS:
        if sid.kind != "hand" and sid not in defs:
            raise InputError(f"missing segment definition for {sid}")

    coms = np.empty((3, len(SEGMENT_IDS), traj.n_frames))
    masses = np.array([segment_mass(table, subject, sid) for sid in SEGMENT_IDS])
    ranges = [
        slice(start, start + _FRAMES_PER_CHUNK)
        for start in range(0, traj.n_frames, _FRAMES_PER_CHUNK)
    ]

    try:
        # an overflow would turn the geometry checks' inputs into inf and NaN
        with np.errstate(over="raise"):
            for i, sid in enumerate(SEGMENT_IDS):
                if sid.kind == "hand":
                    continue
                for frames in ranges:
                    origin, distal, _, _, com = _segment_com_series(
                        traj, frames, defs[sid], table, subject
                    )
                    coms[:, i, frames] = com
                    if sid.kind == "forearm":
                        # the hand from the forearm's wrist (distal) and elbow (origin)
                        hand = SEGMENT_IDS.index(SegmentId("hand", sid.side))
                        coms[:, hand, frames] = hand_com(distal, origin)
    except FloatingPointError:
        raise InputError(f"{sid}: marker coordinates too large for the segment geometry") from None
    # a mass that rounds into the subnormals shifts the mass-weighted mean
    for sid, mass in zip(SEGMENT_IDS, masses):
        if mass < np.finfo(float).tiny:
            raise InputError(
                f"subject_mass_kg {subject.mass_kg} kg gives {sid} a mass of {mass} kg, "
                f"below the smallest normal float {np.finfo(float).tiny:.3g}"
            )
    try:
        with np.errstate(over="raise"):
            return ComTrajectory(
                sample_rate_hz=traj.sample_rate_hz,
                segment_coms=coms,
                masses_kg=masses,
            )
    except FloatingPointError:
        raise InputError(
            f"subject_mass_kg {subject.mass_kg} kg overflows the mass-weighted CoM mean"
        ) from None


def filter_com_trajectory(com: ComTrajectory, cutoff_hz: float, order: int = 4) -> ComTrajectory:
    """A shallow copy of ``com`` with the two low-passed products later stages read.

    ``whole_body_acceleration`` (for ``total_grf``) is the raw whole body
    low-passed and differentiated in extended precision (see
    ``smoothed_acceleration``), so that force estimation does not amplify
    the storage rounding of the metre-scale positions.  ``foot_ground`` (for
    ``butterfly``) is the feet's CoM (x, y) rows, low-passed in one call.
    """
    feet = [com.segment_index(SegmentId("foot", side)) for side in ("left", "right")]
    rows = com.segment_coms[:2, feet].transpose(1, 0, 2).reshape(4, com.n_frames)
    ground = lowpass(UniformSeries(com.sample_rate_hz, rows), cutoff_hz, order=order).values
    acc = smoothed_acceleration(
        UniformSeries(com.sample_rate_hz, com.whole_body), cutoff_hz, order=order
    ).values
    smooth = copy.copy(com)
    smooth.whole_body_acceleration, smooth.foot_ground = acc, ground.reshape(2, 2, com.n_frames)
    return smooth


def write_com_csv(path, com: ComTrajectory, include_segments: bool = False) -> None:
    """Write the whole-body (and optionally per-segment) CoM as CSV."""
    header = ["time_s", "com_x", "com_y", "com_z"]
    if include_segments:
        for sid in com.segment_ids:
            header += [f"{sid}_x", f"{sid}_y", f"{sid}_z"]
    columns = [com.times(), *com.whole_body]
    if include_segments:
        for i in range(len(com.segment_ids)):
            columns += [*com.segment_coms[:, i]]
    _write_csv(path, [",".join(header)], columns)
