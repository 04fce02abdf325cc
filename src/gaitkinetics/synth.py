"""Deterministic synthetic gait generator used by tests and demos.

Produces a full-body marker trial of treadmill-free straight-line walking
with scripted, exactly known heel-strike and toe-off frames, plus matching
force-plate data sampled at a higher rate.  The generator is analytic and
noise-free so downstream checks can use tight tolerances; nothing here is
fitted to data.

Design notes
------------
* Sacrum-relative heel and toe forward positions are pure cosines whose
  extrema fall exactly on the scripted event frames.  Sinusoids pass
  through the zero-phase low-pass filter with their extrema untouched, so
  event detection on the filtered series reproduces the script exactly
  (piecewise waveforms do not have this property: filtering visibly
  shifts their corner extrema).  The trade-off is that foot markers
  oscillate forward and back rather than staying planted; stance
  semantics live in the foot height channel, which stays at ground level
  through each scripted stance window and lifts during swing.
* Scripted events keep clear of the first and last half second of the
  trial so filter edge transients cannot touch them.
* The pelvis (and everything carried above it) bobs vertically at twice
  the cycle frequency, phased so the total vertical force peaks early and
  late in each stance, yielding the double-humped per-limb profile.
* Cycle length in frames is integral, so scripted events land on exact
  frame indices.
"""

import argparse
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .anthro import SubjectProfile
from .errors import InputError
from .events import FootEvents
from .ingest import ForcePlateSeries, MarkerTrajectorySet, write_force_file, write_marker_file

__all__ = [
    "WalkerParams",
    "SynthTrial",
    "generate_walker",
    "synth_force_plates",
    "write_demo_files",
]


@dataclass(frozen=True)
class WalkerParams:
    """Tunable constants of the synthetic walker.

    The four event offsets are within-cycle times (seconds) of the scripted
    events; both feet must share one stance duration and their events must
    interleave HS(right) < TO(left) < HS(left) < TO(right) inside a cycle.
    """

    sample_rate_hz: float = 200.0
    duration_s: float = 10.0
    cycle_s: float = 1.1
    speed_mps: float = 1.2
    right_hs_offset_s: float = 0.30
    left_to_offset_s: float = 0.43
    left_hs_offset_s: float = 0.85
    right_to_offset_s: float = 0.98
    bob_amplitude_m: float = 0.012
    sway_amplitude_m: float = 0.03
    foot_ap_amplitude_m: float = 0.28
    heel_lift_m: float = 0.10
    toe_lift_m: float = 0.07
    mass_kg: float = 80.0
    height_m: float = 1.78

    def __post_init__(self):
        for name in (
            "sample_rate_hz",
            "duration_s",
            "cycle_s",
            "speed_mps",
            "mass_kg",
            "height_m",
        ):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        order = (
            self.right_hs_offset_s,
            self.left_to_offset_s,
            self.left_hs_offset_s,
            self.right_to_offset_s,
        )
        if not (0 <= order[0] < order[1] < order[2] < order[3] < self.cycle_s):
            raise InputError(
                "event offsets must satisfy 0 <= right HS < left TO < left HS "
                f"< right TO < cycle, got {order} in cycle {self.cycle_s}"
            )
        right_stance = self.right_to_offset_s - self.right_hs_offset_s
        left_stance = self.left_to_offset_s + self.cycle_s - self.left_hs_offset_s
        if abs(right_stance - left_stance) > 1e-12:
            raise InputError(
                f"feet disagree on stance duration: {right_stance} vs {left_stance}"
            )
        if not right_stance < self.cycle_s:
            raise InputError("stance duration must be shorter than the cycle")

    @property
    def stance_s(self) -> float:
        return self.right_to_offset_s - self.right_hs_offset_s

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_s * self.sample_rate_hz))


@dataclass
class SynthTrial:
    """A generated trial: markers, subject, and scripted ground truth."""

    markers: MarkerTrajectorySet
    subject: SubjectProfile
    left_events: FootEvents
    right_events: FootEvents
    params: WalkerParams


def _foot_track(
    t: np.ndarray, hs_offset_s: float, to_offset_s: float, params: WalkerParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Heel/toe AP positions and swing-lift fraction for one foot.

    The sacrum-relative heel position is a cosine peaking exactly at the
    scripted heel strikes; the relative toe position is a cosine dipping
    exactly at the scripted toe-offs.  ``lift`` is 0 through each scripted
    stance window and sin(pi * progress) through swing.
    """
    T = params.cycle_s
    S = params.stance_s
    omega = 2.0 * np.pi / T
    A = params.foot_ap_amplitude_m
    base = params.speed_mps * t
    heel_x = base - 0.06 + A * np.cos(omega * (t - hs_offset_s))
    toe_x = base + 0.18 - A * np.cos(omega * (t - to_offset_s))
    u = np.mod(t - hs_offset_s, T)
    p = np.clip((u - S) / (T - S), 0.0, 1.0)
    lift = np.where(u <= S, 0.0, np.sin(np.pi * p))
    return heel_x, toe_x, lift


def _walker_markers(t: np.ndarray, params: WalkerParams) -> dict[str, np.ndarray]:
    """Evaluate every marker of the trial at the given times (seconds)."""
    T = params.cycle_s
    omega = 2.0 * np.pi / T
    v = params.speed_mps
    x0 = v * t
    # lateral sway toward the single-stance foot, once per cycle
    yc = -params.sway_amplitude_m * np.sin(omega * (t - params.right_hs_offset_s))
    # vertical bob at twice the cycle frequency, phased so the downward
    # acceleration (hence the vertical force) peaks early and late in stance
    bob_ref = params.right_hs_offset_s + 0.05 * T - 0.25 * T
    zb = params.bob_amplitude_m * np.cos(2.0 * omega * (t - bob_ref))
    arm = np.cos(omega * (t - params.right_hs_offset_s))

    out: dict[str, np.ndarray] = {}

    def put(name: str, x, y, z) -> None:
        out[name] = np.column_stack(
            [np.broadcast_to(x, t.shape), np.broadcast_to(y, t.shape), np.broadcast_to(z, t.shape)]
        ).astype(float)

    # trunk, pelvis and head ride the forward motion, sway and bob together
    trunk = {
        "SACR": (-0.13, 0.0, 0.99),
        "LASI": (0.09, 0.12, 0.96),
        "RASI": (0.09, -0.12, 0.96),
        "LPSI": (-0.12, 0.05, 0.98),
        "RPSI": (-0.12, -0.05, 0.98),
        "LTRO": (0.0, 0.14, 0.92),
        "RTRO": (0.0, -0.14, 0.92),
        "C7": (-0.05, 0.0, 1.50),
        "CLAV": (0.06, 0.0, 1.45),
        "STRN": (0.09, 0.0, 1.30),
        "T8": (-0.10, 0.0, 1.25),
        "T10": (-0.09, 0.0, 1.20),
        "LFHD": (0.08, 0.07, 1.68),
        "RFHD": (0.08, -0.07, 1.68),
        "LBHD": (-0.10, 0.07, 1.66),
        "RBHD": (-0.10, -0.07, 1.66),
        "LSHO": (0.0, 0.20, 1.45),
        "RSHO": (0.0, -0.20, 1.45),
    }
    for name, (dx, dy, dz) in trunk.items():
        put(name, x0 + dx, yc + dy, dz + zb)

    # arms swing in anti-phase with the same-side leg
    for side, sign, swing in (("L", 1.0, arm), ("R", -1.0, -arm)):
        put(f"{side}ELB_LAT", x0 + 0.02 + 0.06 * swing, yc + sign * 0.25, 1.16 + zb)
        put(f"{side}ELB_MED", x0 + 0.02 + 0.06 * swing, yc + sign * 0.19, 1.16 + zb)
        put(f"{side}WRI_LAT", x0 + 0.04 + 0.11 * swing, yc + sign * 0.26, 0.89 + zb)
        put(f"{side}WRI_MED", x0 + 0.04 + 0.11 * swing, yc + sign * 0.20, 0.89 + zb)

    # legs: heights carry stance semantics, forward positions the events
    heel_z0, toe_z0 = 0.025, 0.020
    for side, sign, hs_off, to_off in (
        ("L", 1.0, params.left_hs_offset_s, params.left_to_offset_s),
        ("R", -1.0, params.right_hs_offset_s, params.right_to_offset_s),
    ):
        heel_x, toe_x, lift = _foot_track(t, hs_off, to_off, params)
        y_foot = sign * 0.10
        heel_z = heel_z0 + params.heel_lift_m * lift
        toe_z = toe_z0 + params.toe_lift_m * lift
        put(f"{side}HEE", heel_x, y_foot, heel_z)
        put(f"{side}TOE", toe_x, y_foot, toe_z)
        put(f"{side}MT5", heel_x + 0.7 * (toe_x - heel_x), y_foot + sign * 0.04, toe_z + 0.008)
        ankle_x = heel_x + 0.25 * (toe_x - heel_x)
        ankle_z = heel_z + 0.25 * (toe_z - heel_z) + 0.065
        put(f"{side}ANK_LAT", ankle_x, y_foot + sign * 0.035, ankle_z)
        put(f"{side}ANK_MED", ankle_x, y_foot - sign * 0.035, ankle_z)
        hip_x = x0 + 0.045
        hip_y = yc + sign * 0.13
        knee_bend = 0.03 + 0.12 * lift
        knee_x = 0.5 * hip_x + 0.5 * ankle_x + knee_bend
        knee_y = 0.5 * hip_y + 0.5 * y_foot
        knee_z = 0.5 * 0.94 + 0.5 * ankle_z
        put(f"{side}KNE_LAT", knee_x, knee_y + sign * 0.05, knee_z)
        put(f"{side}KNE_MED", knee_x, knee_y - sign * 0.05, knee_z)

    return out


def _scripted_events(params: WalkerParams, n_frames: int) -> tuple[FootEvents, FootEvents]:
    rate = params.sample_rate_hz

    def frames(offset_s: float) -> np.ndarray:
        vals = []
        k = 0
        while True:
            f = int(round((offset_s + k * params.cycle_s) * rate))
            if f >= n_frames:
                break
            vals.append(f)
            k += 1
        return np.array(vals, dtype=int)

    left = FootEvents(
        foot="left",
        heel_strikes=frames(params.left_hs_offset_s),
        toe_offs=frames(params.left_to_offset_s),
    )
    right = FootEvents(
        foot="right",
        heel_strikes=frames(params.right_hs_offset_s),
        toe_offs=frames(params.right_to_offset_s),
    )
    return left, right


def generate_walker(params: WalkerParams | None = None) -> SynthTrial:
    """Generate the standard walking trial with scripted ground truth."""
    params = params or WalkerParams()
    n = params.n_frames
    t = np.arange(n) / params.sample_rate_hz
    positions = _walker_markers(t, params)
    left, right = _scripted_events(params, n)
    return SynthTrial(
        markers=MarkerTrajectorySet(params.sample_rate_hz, positions),
        subject=SubjectProfile(
            mass_kg=params.mass_kg, height_m=params.height_m, sex="m"
        ),
        left_events=left,
        right_events=right,
        params=params,
    )


def _stance_weight(t: np.ndarray, params: WalkerParams) -> np.ndarray:
    """Fraction of total load carried by the right foot at each time.

    1 during right single stance, 0 during left single stance, linear
    crossfades through the two double-stance windows.
    """
    T = params.cycle_s
    u = np.mod(t - params.right_hs_offset_s, T)
    ds1 = params.left_to_offset_s - params.right_hs_offset_s
    lhs = params.left_hs_offset_s - params.right_hs_offset_s
    rto = params.right_to_offset_s - params.right_hs_offset_s
    w = np.ones_like(u)
    ramp_in = u < ds1
    w[ramp_in] = u[ramp_in] / ds1
    ramp_out = (u >= lhs) & (u < rto)
    w[ramp_out] = 1.0 - (u[ramp_out] - lhs) / (rto - lhs)
    w[u >= rto] = 0.0
    return w


def synth_force_plates(
    params: WalkerParams | None = None,
    force_rate_hz: float = 2000.0,
    gravity_mps2: float = 9.81,
) -> ForcePlateSeries:
    """Synthesize a two-plate force recording matching the walker trial.

    The ground-truth total force is computed from the analytic marker
    model: the walker's markers are sampled at the force rate, the
    whole-body CoM is assembled through the same segment model the
    pipeline uses, and the force follows from central-difference
    acceleration.  Plate 1 carries the right foot, plate 2 the left, with
    linear load transfer through double stance.
    """
    from .anthro import bundled_table_path, load_table
    from .kinematics import bundled_definitions_path, com_trajectory, load_segment_definitions

    params = params or WalkerParams()
    if force_rate_hz <= 0 or force_rate_hz < params.sample_rate_hz:
        raise InputError(
            f"force rate must be at least the marker rate, got {force_rate_hz}"
        )
    n = int(round(params.duration_s * force_rate_hz))
    t = np.arange(n) / force_rate_hz
    positions = _walker_markers(t, params)
    table = load_table(bundled_table_path())
    definitions = load_segment_definitions(bundled_definitions_path())
    subject = SubjectProfile(mass_kg=params.mass_kg, height_m=params.height_m, sex="m")
    com = com_trajectory(
        MarkerTrajectorySet(force_rate_hz, positions), definitions, table, subject
    )
    z = com.whole_body
    acc = np.zeros_like(z)
    acc[:, 1:-1] = (z[:, 2:] - 2.0 * z[:, 1:-1] + z[:, :-2]) * force_rate_hz**2
    acc[:, 0] = acc[:, 1]
    acc[:, -1] = acc[:, -2]
    force = params.mass_kg * acc
    force[2] += params.mass_kg * gravity_mps2

    w_right = _stance_weight(t, params)
    forces = np.stack([force.T * w_right[:, None], force.T * (1.0 - w_right)[:, None]])
    heel_r, toe_r, _ = _foot_track(
        t, params.right_hs_offset_s, params.right_to_offset_s, params
    )
    heel_l, toe_l, _ = _foot_track(
        t, params.left_hs_offset_s, params.left_to_offset_s, params
    )
    cop = np.stack(
        [
            np.column_stack([0.5 * (heel_r + toe_r), np.full(n, -0.10)]),
            np.column_stack([0.5 * (heel_l + toe_l), np.full(n, 0.10)]),
        ]
    )
    return ForcePlateSeries(
        sample_rate_hz=force_rate_hz, forces=forces, cop=cop, noise_floor_n=5.0
    )


def write_demo_files(out_dir) -> tuple[Path, Path]:
    """Write a demo marker trial and matching force recording to a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trial = generate_walker()
    marker_path = out / "walker_markers.tsv"
    force_path = out / "walker_forces.tsv"
    write_marker_file(marker_path, trial.markers)
    write_force_file(force_path, synth_force_plates(trial.params))
    return marker_path, force_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m gaitkinetics.synth",
        description="Write the bundled synthetic walking trial to disk.",
    )
    parser.add_argument("out_dir", help="directory for the demo marker/force files")
    args = parser.parse_args(argv)
    marker_path, force_path = write_demo_files(args.out_dir)
    print(f"wrote {marker_path}")
    print(f"wrote {force_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
