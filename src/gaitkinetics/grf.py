"""Ground reaction force estimation and per-limb decomposition.

Total GRF follows from whole-body CoM acceleration: horizontal components
are mass times horizontal acceleration, the vertical component adds weight
(F_z = m * (a_z + g) with z up).

During double stance the total is split between the trailing limb (R1, must
reach zero at the toe-off ending the phase) and the leading limb (R2, zero
at the heel strike opening it) by minimizing the integrated squared rate of
change of both limb forces.  The minimizer has a closed form, per axis:

    R1(t) = (F(t) + F(t0))/2 - (F(t1) + F(t0))/2 * (t - t0)/(t1 - t0)
    R2(t) = (F(t) - F(t0))/2 + (F(t1) + F(t0))/2 * (t - t0)/(t1 - t0)

(the subject mass cancels between the acceleration and force forms).  Both
limb curves share the curvature of the total: the second derivative of each
equals half that of the total force.
"""

from dataclasses import dataclass, field

import numpy as np

from .anthro import SubjectProfile
from .errors import InputError, InternalInvariantError, _check_sample_rate
from .events import NO_STANCE, PHASE_LABELS, SS_LEFT, SS_RIGHT, GaitTimeline
from .ingest import _VALUES_PER_BLOCK, _runs, _write_csv
from .kinematics import ComTrajectory

__all__ = [
    "DEFAULT_GRAVITY_MPS2",
    "DEFAULT_BUTTERFLY_SCALE_M_PER_N",
    "NEGATIVE_VERTICAL_FRACTION",
    "EXCLUSION_REASONS",
    "GrfSeries",
    "GrfDiagnostics",
    "BilateralGrf",
    "ButterflyDiagram",
    "total_grf",
    "decompose_ds",
    "decompose_gait",
    "butterfly",
    "write_bilateral_csv",
    "write_diagnostics_csv",
    "write_butterfly_csv",
    "write_butterfly_svg",
]

DEFAULT_GRAVITY_MPS2 = 9.81
# butterfly vector length per newton of force
DEFAULT_BUTTERFLY_SCALE_M_PER_N = 0.001
# per-limb vertical force below -2% of body weight is flagged as implausible
NEGATIVE_VERTICAL_FRACTION = 0.02
# indexed by a frame's status code: none for 0, an analysed frame, else why the split left it out
EXCLUSION_REASONS = (
    "", "double stance without detected boundary events", "zero-length double stance",
    "double stance boundary force derived from flagged frames", "no foot in stance",
)
# the farthest butterfly vector tip (m) that the SVG's arithmetic spans with room to spare
_MAX_TIP_M = 1e300

@dataclass
class GrfSeries:
    """Force series in newtons, rows (F_x AP, F_y ML, F_z vertical)."""

    sample_rate_hz: float
    force: np.ndarray  # (3, n_frames)

    def __post_init__(self):
        _check_sample_rate(self.sample_rate_hz)
        self.force = np.asarray(self.force, dtype=float)
        if self.force.ndim != 2 or self.force.shape[0] != 3:
            raise InputError("force must be (3, n_frames)")
        if self.force.shape[1] < 1:
            raise InputError("force series is empty")
        if not np.all(np.isfinite(self.force)):
            raise InputError("force series contains non-finite values")

    @property
    def n_frames(self) -> int:
        return self.force.shape[1]

    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) / self.sample_rate_hz


@dataclass
class GrfDiagnostics:
    """Excluded intervals and per-frame implausible-force flags."""

    excluded_intervals: list[tuple[int, int, str]]
    negative_vertical_left: np.ndarray
    negative_vertical_right: np.ndarray


@dataclass
class BilateralGrf:
    """Total plus per-limb ground reaction forces over one trial.

    ``status``, a code per frame into ``EXCLUSION_REASONS``, is the one record
    of the frames the split left out, which hold zeros: ``analyzed`` is
    ``status == 0``, where left + right equals the total componentwise, and
    ``diagnostics`` lists each run of one nonzero code as an excluded interval
    and adds the analyzed frames with a limb's vertical force below -2% of body weight.
    """

    total: GrfSeries
    left: GrfSeries
    right: GrfSeries
    timeline: GaitTimeline
    mass_kg: float
    gravity_mps2: float
    status: np.ndarray  # (n_frames,) integer codes into EXCLUSION_REASONS
    analyzed: np.ndarray = field(init=False)
    diagnostics: GrfDiagnostics = field(init=False)

    def __post_init__(self):
        n = self.total.n_frames
        if self.left.n_frames != n or self.right.n_frames != n:
            raise InternalInvariantError("total/left/right frame counts differ")
        if self.timeline.n_frames != n:
            raise InternalInvariantError("timeline span differs from force series")
        if not 0 < self.mass_kg < np.inf:
            raise InputError(f"mass must be positive and finite, got {self.mass_kg}")
        if not 0 < self.gravity_mps2 < np.inf:
            raise InputError(f"gravity must be positive and finite, got {self.gravity_mps2}")
        status = self.status = np.asarray(self.status)
        known = status.dtype.kind in "iu" and np.isin(status, range(len(EXCLUSION_REASONS))).all()
        if status.shape != (n,) or not known:
            raise InternalInvariantError("status must hold one EXCLUSION_REASONS code per frame")
        self.analyzed = status == 0
        resid = self.left.force + self.right.force - self.total.force
        scale = max(1.0, float(np.max(np.abs(self.total.force))))
        if self.analyzed.any() and not (
            np.max(np.abs(resid[:, self.analyzed])) <= 1e-9 * scale
        ):
            raise InternalInvariantError(
                "left + right does not reproduce the total force on analyzed frames"
            )
        # stance code 1 is left single stance, 2 right
        for code, swing in ((1, self.right.force), (2, self.left.force)):
            if np.any(swing[:, self.timeline.stance == code] != 0.0):
                raise InternalInvariantError("swing limb carries force during single stance")
        floor = -NEGATIVE_VERTICAL_FRACTION * self.mass_kg * self.gravity_mps2
        self.diagnostics = GrfDiagnostics(
            [(s, e - 1, EXCLUSION_REASONS[code])
             for s, e, code in zip(*(part.tolist() for part in _runs(status))) if code],
            self.analyzed & (self.left.force[2] < floor),
            self.analyzed & (self.right.force[2] < floor),
        )

    @property
    def n_frames(self) -> int:
        return self.total.n_frames

    def limb(self, foot: str) -> GrfSeries:
        if foot == "left":
            return self.left
        if foot == "right":
            return self.right
        raise InputError(f"foot must be 'left' or 'right', got {foot!r}")


@dataclass
class ButterflyDiagram:
    """Per-frame force vectors anchored at the stance foot's ground point;
    each tip is the base plus ``scale_m_per_n`` times the force."""

    feet: tuple[str, ...]
    frames: np.ndarray  # (k,) int
    bases: np.ndarray  # (k, 3), z = 0 (ground projection of the foot CoM)
    forces: np.ndarray  # (k, 3) newtons
    scale_m_per_n: float
    tips: np.ndarray = field(init=False)  # (k, 3) metres

    def __post_init__(self):
        k = len(self.feet)
        self.frames = np.asarray(self.frames, dtype=int)
        self.bases = np.asarray(self.bases, dtype=float)
        self.forces = np.asarray(self.forces, dtype=float)
        if self.frames.shape != (k,) or self.bases.shape != (k, 3) or self.forces.shape != (k, 3):
            raise InternalInvariantError("butterfly arrays disagree on entry count")
        if k and np.any(self.bases[:, 2] != 0.0):
            raise InternalInvariantError("butterfly bases must lie on the ground plane")
        scale = self.scale_m_per_n
        if not scale > 0:
            raise InputError(f"display scale must be positive, got {scale}")
        peak = float(np.abs(self.forces).max(initial=0.0))
        if not float(np.abs(self.bases).max(initial=0.0)) + scale * peak <= _MAX_TIP_M:
            raise InputError(
                f"butterfly_scale_m_per_n {scale} m/N scales the {peak:g} N peak force "
                f"(which grows with subject_mass_kg) past {_MAX_TIP_M:g} m, more than a "
                "butterfly diagram can span"
            )
        self.tips = self.bases + scale * self.forces

    @property
    def n_entries(self) -> int:
        return len(self.feet)


def total_grf(
    com: ComTrajectory,
    subject: SubjectProfile,
    gravity_mps2: float = DEFAULT_GRAVITY_MPS2,
) -> GrfSeries:
    """Whole-body GRF from the CoM acceleration of a low-passed trajectory.

    F = m * a, with gravity added back on the vertical axis.  The
    acceleration is the one ``filter_com_trajectory`` attaches (computed in
    extended precision, so it does not inherit the storage rounding of the
    positions); a trajectory without it, straight from ``com_trajectory``,
    is refused.
    """
    if not gravity_mps2 > 0:
        raise InputError(f"gravity must be positive, got {gravity_mps2}")
    acc = com.whole_body_acceleration
    if acc is None:
        raise InputError(
            "CoM trajectory carries no acceleration; low-pass it with "
            "filter_com_trajectory first"
        )
    try:
        with np.errstate(over="raise"):
            force = subject.mass_kg * acc
            force[2] += np.multiply(subject.mass_kg, gravity_mps2)
    except FloatingPointError:
        raise InputError(
            f"subject_mass_kg {subject.mass_kg} kg and gravity_mps2 {gravity_mps2} m/s^2 "
            "overflow the ground reaction force"
        ) from None
    return GrfSeries(sample_rate_hz=com.sample_rate_hz, force=force)


def decompose_ds(force: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form minimum rate-of-change split of one double stance.

    ``force`` is the total over the window, ``(3, k)`` with k >= 2, from the
    leading foot's strike to the trailing foot's toe-off.  Returns (r1, r2),
    r1 the trailing limb (exactly zero at the last sample), r2 the leading
    limb (exactly zero at the first).  The split is applied per axis;
    formulated directly in force units it needs no subject mass.
    """
    f = np.asarray(force, dtype=float)
    if f.ndim != 2 or f.shape[0] != 3 or f.shape[1] < 2:
        raise InputError(f"double stance force must be (3, k) with k >= 2, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise InputError("double stance force contains non-finite values")
    tau = np.arange(f.shape[1]) / (f.shape[1] - 1)  # endpoints are exactly 0.0 and 1.0
    # on halves, so that no sum of two forces can overflow; halving commutes
    # with rounding, so the bits are those of 0.5 * (f + f0) and the like
    h = 0.5 * f
    h0, h1 = h[:, :1], h[:, -1:]
    ramp = (h1 + h0) * tau
    return h + h0 - ramp, h - h0 + ramp


def decompose_gait(
    total: GrfSeries,
    timeline: GaitTimeline,
    mass_kg: float,
    gravity_mps2: float = DEFAULT_GRAVITY_MPS2,
    flagged_frames: np.ndarray | None = None,
) -> BilateralGrf:
    """Assign the total GRF to limbs across a whole timeline.

    Single stance gives the stance limb the entire total and the swing limb
    exactly zero.  Complete double stances are split with ``decompose_ds``.
    Incomplete double stances (missing a detected boundary event) and
    no-stance intervals are excluded: their limb forces stay zero, and each
    of their frames gets the code of its reason in ``EXCLUSION_REASONS`` in
    the ``status`` that ``BilateralGrf`` derives the rest from.

    ``flagged_frames`` optionally marks frames whose force values are
    untrustworthy (for example derived from gap-filled markers); a double
    stance whose boundary force falls on a flagged frame is refused and
    excluded with a diagnostic, since the split leans on those two samples.
    """
    if timeline.n_frames != total.n_frames:
        raise InputError(
            f"timeline spans {timeline.n_frames} frames, force series {total.n_frames}"
        )
    if timeline.sample_rate_hz != total.sample_rate_hz:
        raise InputError("timeline and force series sample rates differ")
    n = total.n_frames
    flagged = np.zeros(n, bool) if flagged_frames is None else np.asarray(flagged_frames, bool)
    if flagged.shape != (n,):
        raise InputError("flagged_frames mask must be (n_frames,)")

    left = np.zeros((3, n))
    right = np.zeros((3, n))
    status = np.zeros(n, dtype=np.uint8)  # 0, analysed, until a reason is set

    for phase in timeline.phases:
        s, e = phase.start, phase.end
        frames = slice(s, e + 1)
        if phase.label == SS_LEFT:
            left[:, frames] = total.force[:, frames]
        elif phase.label == SS_RIGHT:
            right[:, frames] = total.force[:, frames]
        elif phase.label == NO_STANCE:
            status[frames] = 4
        elif phase.incomplete:  # the rest are double stances
            status[frames] = 1
        elif e == s:
            status[frames] = 2
        elif flagged[s] or flagged[e]:
            status[frames] = 3
        else:
            trailing = left if phase.trailing_foot == "left" else right
            leading = left if phase.leading_foot == "left" else right
            trailing[:, frames], leading[:, frames] = decompose_ds(total.force[:, frames])

    return BilateralGrf(
        total=total,
        left=GrfSeries(total.sample_rate_hz, left),
        right=GrfSeries(total.sample_rate_hz, right),
        timeline=timeline,
        mass_kg=mass_kg,
        gravity_mps2=gravity_mps2,
        status=status,
    )


def butterfly(
    bilateral: BilateralGrf,
    com: ComTrajectory,
    scale_m_per_n: float = DEFAULT_BUTTERFLY_SCALE_M_PER_N,
) -> ButterflyDiagram:
    """Force vectors anchored at the stance foot's ground projection, drawn
    at ``scale_m_per_n`` metres per newton.

    One entry per analyzed stance frame per foot in stance; swing and
    excluded frames produce no entries.  The anchor is the low-passed foot
    CoM projected onto the ground plane (a centre-of-pressure stand-in), the
    ``foot_ground`` that ``filter_com_trajectory`` attaches; a trajectory
    without it, straight from ``com_trajectory``, is refused.
    """
    if com.n_frames != bilateral.n_frames:
        raise InputError("CoM trajectory and force series frame counts differ")
    if com.foot_ground is None:
        raise InputError("CoM trajectory carries no foot ground points; "
                         "low-pass it with filter_com_trajectory first")
    feet: list[str] = []
    frames, bases, forces = [], [], []
    for foot, ground_xy in zip(("left", "right"), com.foot_ground):
        stance = np.flatnonzero(bilateral.timeline.stance_mask(foot) & bilateral.analyzed)
        feet += [foot] * stance.size
        frames.append(stance)
        ground = ground_xy[:, stance].T
        bases.append(np.column_stack([ground, np.zeros(stance.size)]))
        forces.append(bilateral.limb(foot).force[:, stance].T)
    return ButterflyDiagram(
        feet=tuple(feet),
        frames=np.concatenate(frames),
        bases=np.concatenate(bases),
        forces=np.concatenate(forces),
        scale_m_per_n=scale_m_per_n,
    )


def write_bilateral_csv(path, bilateral: BilateralGrf) -> None:
    """Write total and per-limb forces with the phase label per frame."""
    header = ["time_s,Fx_total,Fy_total,Fz_total,Fx_L,Fy_L,Fz_L,Fx_R,Fy_R,Fz_R,phase_label"]
    labels = np.array(PHASE_LABELS, dtype=object)[bilateral.timeline.stance]
    columns = [bilateral.total.times(), *bilateral.total.force]
    columns += [*bilateral.left.force, *bilateral.right.force, labels]
    _write_csv(path, header, columns)


def write_diagnostics_csv(path, bilateral: BilateralGrf) -> None:
    """Write excluded intervals and implausible-force flags."""
    d = bilateral.diagnostics
    rows = [("excluded", s, e, reason) for s, e, reason in d.excluded_intervals]
    for foot, mask in (("left", d.negative_vertical_left), ("right", d.negative_vertical_right)):
        detail = f"{foot} limb below -{NEGATIVE_VERTICAL_FRACTION:g} body weight"
        rows += [("negative_vertical", s, e - 1, detail) for s, e, on in zip(*_runs(mask)) if on]
    columns = np.array(rows, dtype=str).reshape(-1, 4).T  # record, start, end, detail
    _write_csv(path, ["record,start_frame,end_frame,detail"], columns)


def write_butterfly_csv(path, diagram: ButterflyDiagram) -> None:
    """Write anchors and scaled vector tips: base_x,base_y,tip_x,tip_y,tip_z,foot."""
    _write_csv(
        path,
        ["base_x,base_y,tip_x,tip_y,tip_z,foot"],
        [diagram.bases[:, 0], diagram.bases[:, 1], *diagram.tips.T, diagram.feet],
    )


_SVG_COLORS = {"left": "#1f77b4", "right": "#d62728"}


def write_butterfly_svg(path, diagram: ButterflyDiagram) -> None:
    """Render the sagittal-plane butterfly picture as a standalone SVG.

    X maps the antero-posterior anchor/tip positions, Y the scaled vertical
    force; the file embeds everything it needs (no external references).
    """
    tips = diagram.tips
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

    def px(x):
        return 20.0 + (x - x_min + pad) * sx

    def py(y):
        return height - 20.0 - (y + pad) * sy

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:g}" height="{height:g}" '
        f'viewBox="0 0 {width:g} {height:g}">',
        f'<rect width="{width:g}" height="{height:g}" fill="white"/>',
        f'<line x1="{px(x_min):.3f}" y1="{py(0.0):.3f}" x2="{px(x_max):.3f}" y2="{py(0.0):.3f}" '
        'stroke="#444444" stroke-width="1"/>',
    ]
    # numpy evaluates px and py with the same float operations, in the same
    # order, as on single values
    line = (b'<line x1="', px(diagram.bases[:, 0]), b'" y1="%.3f" x2="' % py(0.0),
            px(tips[:, 0]), b'" y2="', py(tips[:, 2]), b'" stroke="',
            np.array([_SVG_COLORS[foot] for foot in diagram.feet], dtype="S7"),
            b'" stroke-width="0.6"/>\n')
    tail = [
        '<text x="20" y="16" font-family="sans-serif" font-size="12" fill="#222222">'
        "per-limb ground reaction force, sagittal view "
        f"(display scale {diagram.scale_m_per_n:g} m/N; left {_SVG_COLORS['left']}, "
        f"right {_SVG_COLORS['right']})</text>",
        "</svg>",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(head) + "\n").encode())
        # formatted a block of entries at a time, which bounds the text held
        step = _VALUES_PER_BLOCK // 4
        for a in range(0, diagram.n_entries, step):
            fh.write(_join_columns([
                part if isinstance(part, bytes) else part[a : a + step] for part in line
            ]))
        fh.write(("\n".join(tail) + "\n").encode())


def _fixed_3(values: np.ndarray) -> np.ndarray:
    """``format(v, ".3f")`` of each value of a 1-D float array, as the rows of
    a uint8 array of its bytes, padded with zero bytes.

    The digits come from ``rint(v * 1000)``, which rounds as ``format`` does
    unless the product lies within its rounding error of a half (an exact
    tie such as 0.0625 among them); those values are formatted by
    ``format`` itself.  So are those that are not finite and those whose
    product is 2**44 or more, for which that margin is half a unit or more,
    so that every integer taken is exact."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * 1000.0
        exact = np.abs(scaled - np.floor(scaled) - 0.5) > 2.0**-45 * np.abs(scaled)
    k = np.abs(np.rint(np.where(exact, scaled, 0.0))).astype(np.int64)  # in thousandths
    n_whole = len(str(k.max(initial=0) // 1000))  # digits before the point
    text = np.zeros((len(values), n_whole + 5), np.uint8)  # sign, digits, point, 3 digits
    text[:, 0] = np.signbit(values) * ord("-")
    text[:, n_whole + 1] = ord(".")
    # the digits from the last, each with a division by a constant, which numpy does fast
    for col in [n_whole + 4, n_whole + 3, n_whole + 2, *range(n_whole, 0, -1)]:
        q = k // 10
        digit = k - q * 10 + ord("0")
        text[:, col] = digit if col >= n_whole else np.where(k > 0, digit, 0)  # no leading 0
        k = q
    slow = np.flatnonzero(~exact).tolist()
    spelt = [format(v, ".3f").encode() for v in values[slow].tolist()]
    width = max(map(len, spelt), default=0)
    if width > text.shape[1]:
        text = np.pad(text, ((0, 0), (0, width - text.shape[1])))
    for i, b in zip(slow, spelt):
        text[i] = 0
        text[i, : len(b)] = np.frombuffer(b, np.uint8)
    return text


def _join_columns(parts) -> bytes:
    """One line of text per entry: ``parts`` in order, each a constant
    (bytes), an array of fixed-width byte strings or a float array, which
    is formatted as ``%.3f``."""
    n = next(len(part) for part in parts if not isinstance(part, bytes))
    columns = [
        np.broadcast_to(np.frombuffer(part, np.uint8), (n, len(part))) if isinstance(part, bytes)
        else _fixed_3(part) if part.dtype.kind == "f"
        else part.view(np.uint8).reshape(n, -1)
        for part in parts
    ]
    text = np.concatenate(columns, axis=1).ravel()
    return text[text != 0].tobytes()
