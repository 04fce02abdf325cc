"""Command-line pipeline: markers in, CoM / events / forces / reports out.

Subcommands
-----------
com        whole-body (optionally per-segment) centre-of-mass CSV
           (raw positions; low-pass smoothing applies only where
           derivatives are taken, i.e. in grf/validate)
events     heel-strike / toe-off detection and the stance timeline CSV
grf        total + per-limb ground reaction forces, butterfly exports,
           and a force-plate comparison when a force file is supplied
validate   force-plate comparison report only
butterfly  butterfly CSV + SVG only

Every option can come from (highest precedence first) a command-line
flag, the ``GAITKINETICS_OUTPUT_DIR`` environment variable (output
directory only), a ``key = value`` config file given with --config, or
the built-in default.  The effective configuration is printed at the
start of each run with the source of every value.

Exit codes: 0 success, 2 input/config error, 3 no usable gait data,
4 internal invariant violation.
"""

import argparse
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .anthro import SubjectProfile, bundled_table_path, load_table
from .errors import InputError, InternalInvariantError, NoGaitDataError
from .events import (
    DEFAULT_MIN_PERIOD_S,
    DEFAULT_STANCE_THRESHOLD_M,
    FootEvents,
    build_timeline,
    detect_events_zeni,
    detect_stance_threshold,
    write_events_csv,
)
from .grf import (
    DEFAULT_GRAVITY_MPS2,
    butterfly,
    decompose_gait,
    total_grf,
    write_bilateral_csv,
    write_butterfly_csv,
    write_butterfly_svg,
    write_diagnostics_csv,
)
from .ingest import IngestConfig, _write_csv, fill_gaps, parse_force_file, parse_marker_file
from .kinematics import (
    bundled_definitions_path,
    com_trajectory,
    filter_com_trajectory,
    load_segment_definitions,
    write_com_csv,
)
from .metrics import compare, write_comparison_csv, write_comparison_text
from .signal import UniformSeries, decimate, lowpass

__all__ = [
    "PipelineConfig",
    "parse_config_file",
    "build_config",
    "run_com",
    "run_events",
    "run_grf",
    "run_validate",
    "run_butterfly",
    "main",
]

ENV_OUTPUT_DIR = "GAITKINETICS_OUTPUT_DIR"


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise InputError(f"expected a boolean, got {text!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the pipeline; one flat namespace shared by all
    subcommands and the config file."""

    marker_file: str | None = None
    force_file: str | None = None
    anthro_table: str | None = None  # None -> bundled table
    segment_definitions: str | None = None  # None -> bundled definitions
    subject_mass_kg: float | None = None
    subject_height_m: float | None = None
    subject_sex: str | None = None
    cutoff_hz: float = 5.0
    filter_order: int = 4
    stance_threshold_m: float = DEFAULT_STANCE_THRESHOLD_M
    min_event_period_s: float = DEFAULT_MIN_PERIOD_S
    gravity_mps2: float = DEFAULT_GRAVITY_MPS2
    max_gap_frames: int = 10
    noise_floor_n: float = 5.0
    butterfly_scale_m_per_n: float = 0.001
    include_segment_coms: bool = False
    output_dir: str = "."
    left_heel_marker: str = "LHEE"
    right_heel_marker: str = "RHEE"
    left_toe_marker: str = "LTOE"
    right_toe_marker: str = "RTOE"
    sacrum_marker: str = "SACR"

    def __post_init__(self):
        for name in ("cutoff_hz", "min_event_period_s", "gravity_mps2",
                     "stance_threshold_m", "butterfly_scale_m_per_n"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        if self.filter_order <= 0 or self.filter_order % 2:
            raise InputError(f"filter_order must be even and positive, got {self.filter_order}")
        if self.max_gap_frames < 0:
            raise InputError(f"max_gap_frames must be >= 0, got {self.max_gap_frames}")
        if self.noise_floor_n < 0:
            raise InputError(f"noise_floor_n must be >= 0, got {self.noise_floor_n}")
        if self.subject_mass_kg is not None and not self.subject_mass_kg > 0:
            raise InputError(f"subject_mass_kg must be positive, got {self.subject_mass_kg}")
        if self.subject_height_m is not None and not self.subject_height_m > 0:
            raise InputError(f"subject_height_m must be positive, got {self.subject_height_m}")
        if self.subject_sex is not None and self.subject_sex not in ("m", "f"):
            raise InputError(f"subject_sex must be 'm' or 'f', got {self.subject_sex!r}")


_CONVERTERS = {
    "marker_file": str,
    "force_file": str,
    "anthro_table": str,
    "segment_definitions": str,
    "subject_mass_kg": float,
    "subject_height_m": float,
    "subject_sex": str,
    "cutoff_hz": float,
    "filter_order": int,
    "stance_threshold_m": float,
    "min_event_period_s": float,
    "gravity_mps2": float,
    "max_gap_frames": int,
    "noise_floor_n": float,
    "butterfly_scale_m_per_n": float,
    "include_segment_coms": _parse_bool,
    "output_dir": str,
    "left_heel_marker": str,
    "right_heel_marker": str,
    "left_toe_marker": str,
    "right_toe_marker": str,
    "sacrum_marker": str,
}


def parse_config_file(path) -> dict[str, str]:
    """Read a ``key = value`` config file; ``#`` starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONVERTERS:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise InputError(f"{path}:{lineno}: duplicate config key {key!r}")
        values[key] = value
    return values


def build_config(
    flag_values: dict[str, object],
    file_values: dict[str, str] | None = None,
    env: dict[str, str] | None = None,
) -> tuple[PipelineConfig, dict[str, str]]:
    """Merge flag/env/file/default values into a PipelineConfig.

    Returns the config plus a provenance map (field -> which layer won).
    """
    file_values = file_values or {}
    env = os.environ if env is None else env
    merged: dict[str, object] = {}
    provenance: dict[str, str] = {}
    for field in fields(PipelineConfig):
        name = field.name
        flag = flag_values.get(name)
        if flag is not None:
            merged[name] = flag
            provenance[name] = "flag"
        elif name == "output_dir" and env.get(ENV_OUTPUT_DIR):
            merged[name] = env[ENV_OUTPUT_DIR]
            provenance[name] = "env"
        elif name in file_values:
            try:
                merged[name] = _CONVERTERS[name](file_values[name])
            except ValueError as exc:
                raise InputError(f"config key {name}: {exc}") from exc
            provenance[name] = "config"
        else:
            provenance[name] = "default"
    return PipelineConfig(**merged), provenance


def _print_header(command: str, config: PipelineConfig, provenance: dict[str, str]) -> None:
    print(f"gaitkinetics {command}")
    for field in fields(PipelineConfig):
        value = getattr(config, field.name)
        print(f"  {field.name} = {value}  [{provenance[field.name]}]")


def _require(config: PipelineConfig, *names: str) -> None:
    missing = [n for n in names if getattr(config, n) is None]
    if missing:
        raise InputError(
            "missing required option(s): " + ", ".join(missing)
            + " (set via flag or config file)"
        )


def _out_dir(config: PipelineConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_markers(config: PipelineConfig):
    """Parse the marker file and fill short gaps.

    Returns (filled trajectory, per-frame flag of gap-derived samples).
    """
    _require(config, "marker_file")
    ingest_cfg = IngestConfig(
        noise_floor_n=config.noise_floor_n, max_gap_frames=config.max_gap_frames
    )
    raw = parse_marker_file(config.marker_file, ingest_cfg)
    filled = fill_gaps(raw, config.max_gap_frames)
    n = raw.n_frames
    flagged = np.zeros(n, dtype=bool)
    for name in raw.markers:
        flagged |= raw.missing[name] & ~filled.missing[name]
    return filled, flagged


def _load_model(config: PipelineConfig):
    _require(config, "subject_mass_kg", "subject_height_m", "subject_sex")
    table_path = config.anthro_table or bundled_table_path()
    defs_path = config.segment_definitions or bundled_definitions_path()
    table = load_table(table_path)
    definitions = load_segment_definitions(defs_path)
    subject = SubjectProfile(
        mass_kg=config.subject_mass_kg,
        height_m=config.subject_height_m,
        sex=config.subject_sex,
    )
    return table, definitions, subject


def _compute_filtered_com(config: PipelineConfig, traj, table, definitions, subject):
    com = com_trajectory(traj, definitions, table, subject)
    return filter_com_trajectory(com, config.cutoff_hz, config.filter_order)


def _marker_series(traj, name: str, axis: int) -> UniformSeries:
    if name not in traj.markers:
        raise InputError(f"marker {name!r} not present in trial")
    if traj.missing[name].any():
        bad = int(np.count_nonzero(traj.missing[name]))
        raise InputError(
            f"marker {name!r} still has {bad} occluded frame(s) after gap "
            f"filling; cannot use it for event detection"
        )
    return UniformSeries(traj.sample_rate_hz, traj.markers[name][:, axis])


def _detect_timeline(config: PipelineConfig, traj):
    """Detect per-foot events on low-passed AP series and build the timeline."""

    def filtered_ap(name: str) -> UniformSeries:
        series = _marker_series(traj, name, axis=0)
        return lowpass(series, config.cutoff_hz, config.filter_order)

    sacrum = filtered_ap(config.sacrum_marker)
    events = {}
    try:
        for foot, heel_name, toe_name in (
            ("left", config.left_heel_marker, config.left_toe_marker),
            ("right", config.right_heel_marker, config.right_toe_marker),
        ):
            hs, to = detect_events_zeni(
                filtered_ap(heel_name),
                filtered_ap(toe_name),
                sacrum,
                config.min_event_period_s,
            )
            events[foot] = FootEvents(foot=foot, heel_strikes=hs, toe_offs=to)
    except NoGaitDataError as exc:
        raise NoGaitDataError(f"no complete gait cycle found: {exc}") from exc
    return build_timeline(
        events["left"], events["right"], traj.n_frames, traj.sample_rate_hz
    )


def run_com(config: PipelineConfig) -> list[Path]:
    """Export the raw (unsmoothed) CoM positions.

    Smoothing exists to protect derivatives; the position export stays
    unfiltered so it works on trials of any length (even two frames) and
    reports exactly the weighted mean the segment model produces.
    """
    traj, _ = _load_markers(config)
    table, definitions, subject = _load_model(config)
    com = com_trajectory(traj, definitions, table, subject)
    out = _out_dir(config) / "com.csv"
    write_com_csv(out, com, include_segments=config.include_segment_coms)
    return [out]


def run_events(config: PipelineConfig) -> list[Path]:
    traj, _ = _load_markers(config)
    timeline = _detect_timeline(config, traj)
    out = _out_dir(config)
    events_path = out / "events.csv"
    write_events_csv(events_path, timeline)
    stance_path = out / "stance_intervals.csv"
    _write_stance_intervals(config, traj, stance_path)
    return [events_path, stance_path]


def _write_stance_intervals(config: PipelineConfig, traj, path: Path) -> None:
    """Cross-check view: stance intervals from the heel-height threshold."""
    feet, intervals = [], []
    for foot, name in (
        ("left", config.left_heel_marker),
        ("right", config.right_heel_marker),
    ):
        series = _marker_series(traj, name, axis=2)
        for interval in detect_stance_threshold(series, config.stance_threshold_m):
            feet.append(foot)
            intervals.append(interval)
    frames = np.array(intervals, dtype=int).reshape(-1, 2).T
    _write_csv(
        path,
        ["foot,start_frame,end_frame,start_time_s,end_time_s"],
        [feet, *frames, *(frames / traj.sample_rate_hz)],
    )


def _compute_bilateral(config: PipelineConfig):
    """Full chain shared by grf and butterfly: markers -> per-limb forces."""
    traj, flagged = _load_markers(config)
    table, definitions, subject = _load_model(config)
    com = _compute_filtered_com(config, traj, table, definitions, subject)
    timeline = _detect_timeline(config, traj)
    total = total_grf(com, subject, config.gravity_mps2)
    bilateral = decompose_gait(
        total,
        timeline,
        subject.mass_kg,
        config.gravity_mps2,
        flagged_frames=flagged,
    )
    return traj, com, timeline, bilateral


def _compare_against_plates(config: PipelineConfig, marker_force) -> tuple[Path, Path]:
    plates = parse_force_file(
        config.force_file,
        IngestConfig(noise_floor_n=config.noise_floor_n, max_gap_frames=config.max_gap_frames),
    )
    ratio = plates.sample_rate_hz / marker_force.sample_rate_hz
    factor = int(round(ratio))
    if factor < 1 or abs(ratio - factor) > 1e-9:
        raise InputError(
            f"force rate {plates.sample_rate_hz} Hz is not an integer multiple "
            f"of the marker rate {marker_force.sample_rate_hz} Hz"
        )
    plate_total = UniformSeries(plates.sample_rate_hz, plates.total_force().T)
    plate_at_marker_rate = decimate(plate_total, factor)
    plate_smooth = lowpass(plate_at_marker_rate, config.cutoff_hz, config.filter_order)
    n = min(plate_smooth.n_samples, marker_force.n_frames)
    # Zero-phase filtering of a finite trial rings for a few cutoff periods
    # at each end; those frames reflect the trial boundary, not the gait,
    # so they are excluded from the comparison statistics.
    margin = int(np.ceil(4.0 * marker_force.sample_rate_hz / config.cutoff_hz))
    if n <= 2 * margin + 1:
        raise InputError(
            f"only {n} overlapping samples; need more than {2 * margin + 1} to "
            f"compare after dropping {margin} filter-settling samples per end"
        )
    span = slice(margin, n - margin)
    a = UniformSeries(marker_force.sample_rate_hz, marker_force.force[:, span])
    b = UniformSeries(plate_smooth.sample_rate_hz, plate_smooth.values[:, span])
    report = compare(a, b, compensate_bias=True)
    out = _out_dir(config)
    csv_path, text_path = out / "validation.csv", out / "validation.txt"
    write_comparison_csv(csv_path, report)
    write_comparison_text(text_path, report)
    return csv_path, text_path


def run_grf(config: PipelineConfig) -> list[Path]:
    traj, com, timeline, bilateral = _compute_bilateral(config)
    out = _out_dir(config)
    written = []
    write_bilateral_csv(out / "grf.csv", bilateral)
    written.append(out / "grf.csv")
    write_diagnostics_csv(out / "grf_diagnostics.csv", bilateral)
    written.append(out / "grf_diagnostics.csv")
    write_events_csv(out / "events.csv", timeline)
    written.append(out / "events.csv")
    diagram = butterfly(bilateral, com)
    write_butterfly_csv(out / "butterfly.csv", diagram, config.butterfly_scale_m_per_n)
    written.append(out / "butterfly.csv")
    write_butterfly_svg(out / "butterfly.svg", diagram, config.butterfly_scale_m_per_n)
    written.append(out / "butterfly.svg")
    if config.force_file is not None:
        written.extend(_compare_against_plates(config, bilateral.total))
    return written


def run_validate(config: PipelineConfig) -> list[Path]:
    _require(config, "force_file")
    traj, flagged = _load_markers(config)
    table, definitions, subject = _load_model(config)
    com = _compute_filtered_com(config, traj, table, definitions, subject)
    total = total_grf(com, subject, config.gravity_mps2)
    return list(_compare_against_plates(config, total))


def run_butterfly(config: PipelineConfig) -> list[Path]:
    traj, com, timeline, bilateral = _compute_bilateral(config)
    out = _out_dir(config)
    diagram = butterfly(bilateral, com)
    write_butterfly_csv(out / "butterfly.csv", diagram, config.butterfly_scale_m_per_n)
    write_butterfly_svg(out / "butterfly.svg", diagram, config.butterfly_scale_m_per_n)
    return [out / "butterfly.csv", out / "butterfly.svg"]


_COMMANDS = {
    "com": run_com,
    "events": run_events,
    "grf": run_grf,
    "validate": run_validate,
    "butterfly": run_butterfly,
}


def _flag_name(field_name: str) -> str:
    return "--" + field_name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitkinetics",
        description="Centre-of-mass, gait-event and ground-reaction-force "
        "estimation from motion-capture marker files.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "com": "write the whole-body centre-of-mass trajectory CSV",
        "events": "detect heel strikes / toe-offs and write the events CSV",
        "grf": "full pipeline: forces, events, butterfly, optional validation",
        "validate": "compare marker-derived force against a force-plate file",
        "butterfly": "write butterfly diagram CSV and SVG",
    }
    for command, blurb in descriptions.items():
        sub = subparsers.add_parser(command, help=blurb, description=blurb)
        sub.add_argument("--config", help="path to a key = value config file")
        for field in fields(PipelineConfig):
            converter = _CONVERTERS[field.name]
            sub.add_argument(
                _flag_name(field.name),
                type=converter,
                default=None,
                metavar=field.name.upper(),
                help=f"override config key {field.name}",
            )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        flag_values = {
            field.name: getattr(args, field.name) for field in fields(PipelineConfig)
        }
        file_values = parse_config_file(args.config) if args.config else {}
        config, provenance = build_config(flag_values, file_values)
        _print_header(args.command, config, provenance)
        written = _COMMANDS[args.command](config)
        for path in written:
            print(f"wrote {path}")
        return 0
    except NoGaitDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalInvariantError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
