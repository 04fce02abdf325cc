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
"""

from collections import Counter
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
from .errors import InputError, InternalInvariantError
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
        total = sum(w for _, w in self.weights)
        if abs(total - 1.0) > 1e-9:
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
    them, as the mass-weighted mean over segments.
    """

    segment_ids: ClassVar[tuple[SegmentId, ...]] = SEGMENT_IDS
    sample_rate_hz: float
    segment_coms: np.ndarray
    masses_kg: np.ndarray
    # whole-body acceleration attached by filter_com_trajectory, the one
    # source total_grf reads; None for a trajectory that has not been
    # low-passed
    whole_body_acceleration: np.ndarray | None = None
    whole_body: np.ndarray = field(init=False)

    def __post_init__(self):
        if not self.sample_rate_hz > 0:
            raise InputError(f"sample rate must be positive, got {self.sample_rate_hz}")
        self.segment_coms = np.asarray(self.segment_coms, dtype=float)
        self.masses_kg = np.asarray(self.masses_kg, dtype=float)
        n_seg = len(self.segment_ids)
        if self.segment_coms.ndim != 3 or self.segment_coms.shape[:2] != (3, n_seg):
            raise InternalInvariantError("segment_coms must be (3, n_segments, n_frames)")
        if self.masses_kg.shape != (n_seg,) or not np.all(self.masses_kg > 0):
            raise InternalInvariantError("masses_kg must be positive, one per segment")
        if not np.all(np.isfinite(self.segment_coms)):
            raise InternalInvariantError("segment_coms contains non-finite values")
        acc = self.whole_body_acceleration
        if acc is not None:
            self.whole_body_acceleration = acc = np.asarray(acc, dtype=float)
            if acc.shape != (3, self.n_frames):
                raise InternalInvariantError("whole_body_acceleration must be (3, n_frames)")
            if not np.all(np.isfinite(acc)):
                raise InternalInvariantError("whole_body_acceleration contains non-finite values")
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
        forward = None
        if "forward" in kw:
            head, sep, tail = kw["forward"].partition(":")
            if not sep:
                raise InputError(f"{source}:{lineno}: forward must be FROM:TO")
            forward = (PointRule.parse(head), PointRule.parse(tail))
        try:
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


def _eval_point(traj: MarkerTrajectorySet, rule: PointRule, segment: SegmentId):
    """Evaluate an affine marker combination over all frames -> (3, n)."""
    acc = None
    for name, w in rule.weights:
        term = w * _marker_positions(traj, name, segment)
        acc = term if acc is None else acc + term
    # summed on the contiguous (n, 3) marker arrays, transposed once
    return np.ascontiguousarray(acc.T)


class _Points:
    """``_eval_point`` for the rules of some definitions, each evaluated once.

    A result shared by several segments is held only until its last use:
    keeping every result for the whole call would leave ~18 MB live on a
    120 s trial and cost more in page faults than the repeats it saves.
    A missing marker is reported with the first segment that needs it.
    Callers never change a returned array in place.
    """

    def __init__(self, traj: MarkerTrajectorySet, definitions):
        self.traj = traj
        self.uses = Counter(rule for d in definitions for rule in d.point_rules())
        self.held: dict[PointRule, np.ndarray] = {}

    def __call__(self, rule: PointRule, segment: SegmentId) -> np.ndarray:
        self.uses[rule] -= 1
        if rule in self.held:
            return self.held[rule] if self.uses[rule] else self.held.pop(rule)
        value = _eval_point(self.traj, rule, segment)
        if self.uses[rule]:
            self.held[rule] = value
        return value


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


def _unit(v: np.ndarray, segment: SegmentId) -> np.ndarray:
    """v / |v| for the forward axis of an anteroposterior segment."""
    norm = _norm(v)
    bad = norm <= 0
    if np.any(bad):
        frame = int(np.argmax(bad))
        raise InputError(f"{segment}: forward axis has zero length at frame {frame}")
    return v / norm


def _perp_unit(w: np.ndarray, axis: np.ndarray, segment: SegmentId) -> np.ndarray:
    """Unit component of w orthogonal to a unit axis; rejects near-collinear."""
    w_perp = w - _dot(w, axis) * axis
    norm_w = _norm(w)
    norm_p = _norm(w_perp)
    bad = norm_p <= _COLLINEAR_SIN * norm_w
    if np.any(bad):
        frame = int(np.argmax(bad))
        raise InputError(
            f"{segment}: axis reference is collinear with the primary axis "
            f"(within 1e-3 rad) at frame {frame}"
        )
    return w_perp / norm_p


def _basis_series(point: _Points, definition: SegmentDefinition, origin, distal, length):
    """Per-frame right-handed orthonormal basis as the axes (u_x, u_y, u_z),
    each (3, n).  ``length`` is the nonzero origin-distal distance."""
    seg = definition.segment
    ref_pt = point(definition.ref, seg)
    w = ref_pt - origin

    if definition.style == "longitudinal":
        sup, inf = (origin, distal) if definition.superior == "origin" else (distal, origin)
        u_z = (sup - inf) / length  # the norm of sup - inf, whichever end is up
        p = _perp_unit(w, u_z, seg)
        if definition.ref_kind in ("anterior", "posterior"):
            u_x = p if definition.ref_kind == "anterior" else -p
            u_y = _cross(u_z, u_x)
        else:
            toward_left = 1.0 if definition.segment.side == "left" else -1.0
            if definition.ref_kind == "medial":
                toward_left = -toward_left
            u_y = toward_left * p
            u_x = _cross(u_y, u_z)
    else:
        fwd_from = point(definition.forward[0], seg)
        fwd_to = point(definition.forward[1], seg)
        u_x = _unit(fwd_to - fwd_from, seg)
        p = _perp_unit(w, u_x, seg)
        toward_left = 1.0 if definition.segment.side == "left" else -1.0
        if definition.ref_kind == "medial":
            toward_left = -toward_left
        u_y = toward_left * p
        u_z = _cross(u_x, u_y)

    return u_x, u_y, u_z


def _segment_com_series(point: _Points, definition, table, subject):
    """CoM track for one marker-defined segment.

    Returns (origin, distal, axes, length, com): origin, distal and com are
    (3, n), axes the (u_x, u_y, u_z) of ``_basis_series``, length (n,).
    """
    seg = definition.segment
    origin = point(definition.origin, seg)
    distal = point(definition.distal, seg)
    length = _norm(origin - distal)
    if np.any(length <= 0):
        frame = int(np.argmax(length <= 0))
        raise InputError(f"{seg}: origin and distal coincide at frame {frame}")
    u_x, u_y, u_z = axes = _basis_series(point, definition, origin, distal, length)
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
    masses = np.empty(len(SEGMENT_IDS))
    point = _Points(traj, [defs[sid] for sid in SEGMENT_IDS if sid.kind != "hand"])

    try:
        # an overflow would turn the geometry checks' inputs into inf and NaN
        with np.errstate(over="raise"):
            for i, sid in enumerate(SEGMENT_IDS):
                masses[i] = segment_mass(table, subject, sid)
                if sid.kind == "hand":
                    continue
                origin, distal, _, _, com = _segment_com_series(point, defs[sid], table, subject)
                coms[:, i, :] = com
                if sid.kind == "forearm":
                    # the hand from the forearm's wrist (distal) and elbow (origin) right
                    # away, so that no segment's endpoints are held through those that follow
                    hand = SEGMENT_IDS.index(SegmentId("hand", sid.side))
                    coms[:, hand, :] = hand_com(distal, origin)
                del origin, distal, com
    except FloatingPointError:
        raise InputError(f"{sid}: marker coordinates too large for the segment geometry") from None
    try:
        with np.errstate(over="raise"):
            return ComTrajectory(
                sample_rate_hz=traj.sample_rate_hz,
                segment_coms=coms,
                masses_kg=masses,
            )
    except FloatingPointError:
        raise InputError(
            f"subject mass {subject.mass_kg} kg overflows the mass-weighted CoM mean"
        ) from None


def filter_com_trajectory(com: ComTrajectory, cutoff_hz: float, order: int = 4) -> ComTrajectory:
    """Low-pass every segment CoM track; the returned trajectory computes
    its whole-body mean from the filtered segments.

    The whole-body acceleration is computed alongside, by the same filter
    and difference stencils carried in extended precision (see
    ``smoothed_acceleration``), and attached to the returned trajectory so
    that downstream force estimation does not amplify the storage rounding
    of the metre-scale positions.
    """
    n_seg = len(com.segment_ids)
    flat = com.segment_coms.reshape(3 * n_seg, com.n_frames)
    filtered = lowpass(
        UniformSeries(com.sample_rate_hz, flat), cutoff_hz, order=order
    ).values.reshape(3, n_seg, com.n_frames)
    acc = smoothed_acceleration(
        UniformSeries(com.sample_rate_hz, com.whole_body), cutoff_hz, order=order
    ).values
    return ComTrajectory(
        sample_rate_hz=com.sample_rate_hz,
        segment_coms=filtered,
        masses_kg=com.masses_kg,
        whole_body_acceleration=acc,
    )


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
