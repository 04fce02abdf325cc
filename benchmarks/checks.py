"""Correctness checks on a trial's outputs.

Each check compares against the scripted ground truth written by the input
generator, or tests a property the method must have; none compares against
stored outputs of an earlier run.  A check returns a list of problems,
empty when the trial passes.
"""

import csv
import filecmp
from pathlib import Path

import numpy as np

EVENT_TOLERANCE_FRAMES = 2
SUM_TOLERANCE = 1e-9  # of the largest |total force|
WEIGHT_TOLERANCE = 0.01  # of m*g, mean vertical force over whole cycles
PLATE_RMSE_TOLERANCE_N = 1.0  # per axis, against the synthesised plates
GRAVITY_MPS2 = 9.81
MARKER_RATE_HZ = 200.0
# the CLI's validation drops four 5 Hz cutoff periods at each end as filter settling
SETTLING_FRAMES = int(np.ceil(4 * MARKER_RATE_HZ / 5.0))
# ``signal.lowpass`` mirror-pads 3 * order = 12 samples at each end; an event
# whose tolerance window reaches into that padding is not checked
EVENT_EDGE_FRAMES = 3 * 4 + EVENT_TOLERANCE_FRAMES
FEET = ("left", "right")
KINDS = ("heel_strike", "toe_off")


def read_cli_outputs(out_dir):
    """The arrays the checks need, read from the CLI's grf/events/diagnostics CSVs."""
    out = Path(out_dir)
    with open(out / "grf.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    forces = np.array([[float(v) for v in row[1:10]] for row in rows]).T
    result = {
        "total": forces[0:3],
        "left": forces[3:6],
        "right": forces[6:9],
        "labels": np.array([row[10] for row in rows]),
    }
    events = {f"{foot}:{kind}": [] for foot in FEET for kind in KINDS}
    with open(out / "events.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            events[f"{row['foot']}:{row['event_type']}"].append(int(row["frame"]))
    result.update({key: np.array(frames, dtype=int) for key, frames in events.items()})
    with open(out / "grf_diagnostics.csv", newline="", encoding="utf-8") as fh:
        excluded = [
            (int(row["start_frame"]), int(row["end_frame"]))
            for row in csv.DictReader(fh)
            if row["record"] == "excluded"
        ]
    result["excluded"] = np.array(excluded, dtype=int).reshape(-1, 2)
    return result


def read_api_outputs(out_dir):
    """The same arrays, from the ``outputs.npz`` a Python API trial saves."""
    with np.load(Path(out_dir) / "outputs.npz") as data:
        return dict(data)


def _runs(mask):
    """Inclusive (start, end) runs of True in a boolean array."""
    edges = np.diff(np.concatenate([[0], mask.astype(np.int8), [0]]))
    return list(zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1))


def check_events(out, truth, spec):
    """Detected and scripted events agree within the tolerance, both ways.

    Events within EVENT_EDGE_FRAMES of either end are not checked: there the
    filter's mirror padding, not the gait, places the extrema (see the FOUND
    line on ``detect_events_zeni`` in CHANGES.md).
    """
    problems = []

    def checked(frame):
        return EVENT_EDGE_FRAMES <= frame < spec["frames"] - EVENT_EDGE_FRAMES

    for foot in FEET:
        for kind in KINDS:
            detected = out[f"{foot}:{kind}"]
            scripted = truth[f"{spec['id']}:{foot}:{kind}"]
            for frame in filter(checked, detected):
                if np.min(np.abs(scripted - frame)) > EVENT_TOLERANCE_FRAMES:
                    problems.append(f"{foot} {kind} at frame {frame} matches no scripted event")
            for frame in filter(checked, scripted):
                if detected.size == 0 or np.min(np.abs(detected - frame)) > EVENT_TOLERANCE_FRAMES:
                    problems.append(f"scripted {foot} {kind} at frame {frame} not detected")
    return problems


def check_forces(out, truth, spec):
    """Limb sum, swing zeros, double-stance boundary zeros, whole-cycle weight."""
    problems = []
    total, left, right, labels = out["total"], out["left"], out["right"], out["labels"]
    n = total.shape[1]
    if n != spec["frames"]:
        return [f"{n} force frames, expected {spec['frames']}"]
    analysed = np.ones(n, dtype=bool)
    for start, end in out["excluded"]:
        analysed[start : end + 1] = False

    scale = np.max(np.abs(total))
    resid = np.abs(left + right - total)[:, analysed]
    if resid.size and resid.max() > SUM_TOLERANCE * scale:
        problems.append(f"left + right misses the total by {resid.max():.3g} N")

    for label, swing in (("single_stance_left", right), ("single_stance_right", left)):
        if np.any(swing[:, labels == label] != 0.0):
            problems.append(f"swing limb carries force during {label}")

    strikes = {foot: set(out[f"{foot}:heel_strike"].tolist()) for foot in FEET}
    for start, end in _runs((labels == "double_stance") & analysed):
        leading = [foot for foot in FEET if start in strikes[foot]]
        if len(leading) != 1:
            problems.append(f"split double stance at frame {start} opens on no heel strike")
            continue
        trailing = "right" if leading[0] == "left" else "left"
        opening = out[leading[0]][:, start]
        closing = out[trailing][:, end]
        if np.any(np.concatenate([opening, closing]).view(np.uint64) != 0):
            problems.append(f"double stance {start}..{end}: boundary force is not +0.0")

    scripted = truth[f"{spec['id']}:left:heel_strike"]
    cycle_frames = [
        np.arange(a, b)
        for a, b in zip(scripted, scripted[1:])
        if a >= SETTLING_FRAMES and b <= n - SETTLING_FRAMES
    ]
    weight = spec["mass_kg"] * GRAVITY_MPS2
    if not cycle_frames:
        problems.append("no whole cycle clear of the trial edges")
    else:
        mean_fz = float(np.mean(total[2, np.concatenate(cycle_frames)]))
        if abs(mean_fz - weight) > WEIGHT_TOLERANCE * weight:
            problems.append(f"mean vertical force {mean_fz:.2f} N over whole cycles, m*g {weight:.2f} N")
    return problems


def check_plates(out, truth, spec):
    """Per-axis RMSE of the total force against the synthesised plates."""
    plate = truth[f"{spec['id']}:plate_total"].T
    span = slice(SETTLING_FRAMES, plate.shape[1] - SETTLING_FRAMES)
    rmse = np.sqrt(np.mean((out["total"][:, span] - plate[:, span]) ** 2, axis=1))
    return [
        f"{axis} RMSE {value:.3g} N against the plates exceeds {PLATE_RMSE_TOLERANCE_N} N"
        for axis, value in zip("xyz", rmse)
        if value > PLATE_RMSE_TOLERANCE_N
    ]


def check_trial(out, truth, spec):
    problems = check_events(out, truth, spec) + check_forces(out, truth, spec)
    if f"{spec['id']}:plate_total" in truth:
        problems += check_plates(out, truth, spec)
    return problems


def same_outputs(dir_a, dir_b):
    """True when two output directories hold the same files, byte for byte."""
    a, b = Path(dir_a), Path(dir_b)
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all(filecmp.cmp(a / name, b / name, shallow=False) for name in names)
