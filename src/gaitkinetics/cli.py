"""Command-line pipeline: markers in, CoM / events / forces / reports out.

Subcommands
-----------
com        whole-body (optionally per-segment) centre-of-mass CSV
           (raw positions; low-pass smoothing applies only where
           derivatives are taken, i.e. in grf/validate)
events     heel-strike / toe-off detection, written as the events CSV
grf        total + per-limb ground reaction forces, butterfly exports,
           and a force-plate comparison when a force file is supplied
validate   force-plate comparison report only

Every option can come from (highest precedence first) a command-line
flag, the ``GAITKINETICS_OUTPUT_DIR`` environment variable (output
directory only), a ``key = value`` config file given with --config, or
the built-in default.  The effective configuration is printed at the
start of each run with the source of every value.

Exit codes: 0 success, 2 input/config error, 3 no usable gait data,
4 internal invariant violation.
"""

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args

import numpy as np

from .anthro import SubjectProfile, bundled_table_path, load_table
from .errors import InputError, InternalInvariantError, NoGaitDataError, SeriesTooShortError
from .events import (
    DEFAULT_MIN_PERIOD_S,
    FootEvents,
    build_timeline,
    detect_events_zeni,
    write_events_csv,
)
from .grf import (
    DEFAULT_BUTTERFLY_SCALE_M_PER_N,
    DEFAULT_GRAVITY_MPS2,
    butterfly,
    decompose_gait,
    total_grf,
    write_bilateral_csv,
    write_butterfly_csv,
    write_butterfly_svg,
    write_diagnostics_csv,
)
from .ingest import (
    DEFAULT_MAX_GAP_FRAMES,
    MarkerTrajectorySet,
    _interpolated_gaps,
    _marker_positions,
    _read_text,
    parse_force_file,
    parse_marker_file,
)
from .kinematics import (
    bundled_definitions_path,
    com_trajectory,
    filter_com_trajectory,
    load_segment_definitions,
    write_com_csv,
)
from .metrics import ComparisonReport, compare, write_comparison_csv, write_comparison_text
from .signal import MAX_FILTER_ORDER, UniformSeries, decimate, lowpass

__all__ = [
    "PipelineConfig",
    "parse_config_file",
    "build_config",
    "run_com",
    "run_events",
    "run_grf",
    "run_validate",
    "main",
]

ENV_OUTPUT_DIR = "GAITKINETICS_OUTPUT_DIR"


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    # argparse names the flag in this error's message; build_config names
    # the config key
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


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
    min_event_period_s: float = DEFAULT_MIN_PERIOD_S
    gravity_mps2: float = DEFAULT_GRAVITY_MPS2
    max_gap_frames: int = DEFAULT_MAX_GAP_FRAMES
    butterfly_scale_m_per_n: float = DEFAULT_BUTTERFLY_SCALE_M_PER_N
    include_segment_coms: bool = False
    output_dir: str = "."
    left_heel_marker: str = "LHEE"
    right_heel_marker: str = "RHEE"
    left_toe_marker: str = "LTOE"
    right_toe_marker: str = "RTOE"
    sacrum_marker: str = "SACR"

    def __post_init__(self):
        for name in ("cutoff_hz", "min_event_period_s", "gravity_mps2",
                     "butterfly_scale_m_per_n"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)}")
        if self.filter_order not in range(2, MAX_FILTER_ORDER + 1, 2):
            raise InputError(
                f"filter_order must be even, from 2 to {MAX_FILTER_ORDER}, got {self.filter_order}"
            )
        if self.max_gap_frames < 0:
            raise InputError(f"max_gap_frames must be >= 0, got {self.max_gap_frames}")
        if self.subject_mass_kg is not None and not self.subject_mass_kg > 0:
            raise InputError(f"subject_mass_kg must be positive, got {self.subject_mass_kg}")
        if self.subject_height_m is not None and not self.subject_height_m > 0:
            raise InputError(f"subject_height_m must be positive, got {self.subject_height_m}")
        if self.subject_sex is not None and self.subject_sex not in ("m", "f"):
            raise InputError(f"subject_sex must be 'm' or 'f', got {self.subject_sex!r}")
        for field in fields(self):
            value = getattr(self, field.name)
            if _converter(field) is float and value is not None and not math.isfinite(value):
                raise InputError(f"{field.name} must be finite, got {value}")


def _converter(field):
    """Parser of a PipelineConfig field's flag and config-file text: its
    type without ``None``, with booleans read by ``_parse_bool``."""
    (kind,) = [t for t in get_args(field.type) or (field.type,) if t is not type(None)]
    return _parse_bool if kind is bool else kind


def parse_config_file(path) -> dict[str, str]:
    """Read a ``key = value`` config file; ``#`` starts a comment."""
    text = _read_text(path, "config file")
    names = {field.name for field in fields(PipelineConfig)}
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in names:
            raise InputError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise InputError(f"{path}:{lineno}: duplicate config key {key!r}")
        values[key] = value
    return values


def build_config(
    flag_values: dict[str, object],
    file_values: dict[str, str] | None = None,
) -> tuple[PipelineConfig, dict[str, str]]:
    """Merge flag/env/file/default values into a PipelineConfig.

    Returns the config plus a provenance map (field -> which layer won).
    """
    file_values = file_values or {}
    merged: dict[str, object] = {}
    provenance: dict[str, str] = {}
    for field in fields(PipelineConfig):
        name = field.name
        flag = flag_values.get(name)
        if flag is not None:
            merged[name] = flag
            provenance[name] = "flag"
        elif name == "output_dir" and os.environ.get(ENV_OUTPUT_DIR):
            merged[name] = os.environ[ENV_OUTPUT_DIR]
            provenance[name] = "env"
        elif name in file_values:
            try:
                merged[name] = _converter(field)(file_values[name])
            except (ValueError, argparse.ArgumentTypeError) as exc:
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


def _write_outputs(config: PipelineConfig, writers) -> list[Path]:
    """Make the output directory and write each ``(file name, write)`` of
    ``writers`` in order, ``write`` taking the file's path.  A run calls this
    once it has computed and checked everything, so a run that fails on its
    input writes nothing; a path that cannot be made or written is bad input
    too, named in the error."""
    out = Path(config.output_dir)
    target = f"output directory {out}"
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, write in writers:
            target = str(out / name)
            write(out / name)
    except OSError as exc:
        raise InputError(f"cannot write {target}: {exc}") from exc
    return [out / name for name, _ in writers]


@contextlib.contextmanager
def _naming_short_series(path):
    """Prefix ``path`` to the error of a series from it too short to filter."""
    try:
        yield
    except SeriesTooShortError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_markers(config: PipelineConfig):
    """Parse the marker file and fill its short gaps as ``fill_gaps`` does, but
    in the parsed positions, not a copy.  Returns the filled trajectory and
    the (n_markers, n_frames) flags of its filled samples."""
    _require(config, "marker_file")
    traj = parse_marker_file(config.marker_file)
    samples, values = _interpolated_gaps(traj, config.max_gap_frames)
    fills = np.zeros(traj.occluded.shape, dtype=bool)  # its pages are touched only where filled
    fills[samples] = True
    if len(values):
        traj.positions[samples] = values
        traj = MarkerTrajectorySet(traj.sample_rate_hz, traj.names, traj.positions)
    return traj, fills


def _com(config: PipelineConfig, traj):
    """The subject, the segment definitions and the raw CoM trajectory of ``traj``."""
    _require(config, "subject_mass_kg", "subject_height_m", "subject_sex")
    table = load_table(config.anthro_table or bundled_table_path())
    defs_path = config.segment_definitions or bundled_definitions_path()
    definitions = load_segment_definitions(defs_path)
    subject = SubjectProfile(config.subject_mass_kg, config.subject_height_m, config.subject_sex)
    return subject, definitions, com_trajectory(traj, definitions, table, subject)


def _filtered_total(config: PipelineConfig, com, subject):
    """The low-passed CoM trajectory and the total force it gives."""
    with _naming_short_series(config.marker_file):
        com = filter_com_trajectory(com, config.cutoff_hz, config.filter_order)
    return com, total_grf(com, subject, config.gravity_mps2)


def _event_markers(config: PipelineConfig) -> tuple[str, ...]:
    """The sacrum, left heel and toe, and right heel and toe markers."""
    return (config.sacrum_marker, config.left_heel_marker, config.left_toe_marker,
            config.right_heel_marker, config.right_toe_marker)


def _timeline(config: PipelineConfig, traj):
    """Detect per-foot events on the low-passed AP coordinates of the event
    markers, copied from ``traj``, and build the timeline."""
    rate = traj.sample_rate_hz
    with _naming_short_series(config.marker_file):
        ap = np.stack([_marker_positions(traj, name, config.marker_file)[:, 0]
                       for name in _event_markers(config)])
        filtered = lowpass(UniformSeries(rate, ap), config.cutoff_hz, config.filter_order).values
        sacrum, left_heel, left_toe, right_heel, right_toe = (
            UniformSeries(rate, row) for row in filtered
        )
        events = {}
        try:
            for foot, heel, toe in (
                ("left", left_heel, left_toe),
                ("right", right_heel, right_toe),
            ):
                hs, to = detect_events_zeni(heel, toe, sacrum, config.min_event_period_s)
                events[foot] = FootEvents(foot=foot, heel_strikes=hs, toe_offs=to)
        except (NoGaitDataError, InputError) as exc:  # InputError: events that do not alternate
            raise NoGaitDataError(f"no complete gait cycle found: {exc}") from exc
        return build_timeline(events["left"], events["right"], traj.n_frames, rate)


def run_com(config: PipelineConfig) -> list[Path]:
    """Export the raw (unsmoothed) CoM positions.

    Smoothing exists to protect derivatives; the position export stays
    unfiltered so it works on trials of any length (even two frames) and
    reports exactly the weighted mean the segment model produces.
    """
    traj, _ = _load_markers(config)
    _, _, com = _com(config, traj)
    segments = config.include_segment_coms
    return _write_outputs(
        config, [("com.csv", lambda p: write_com_csv(p, com, include_segments=segments))]
    )


def run_events(config: PipelineConfig) -> list[Path]:
    traj, _ = _load_markers(config)
    timeline = _timeline(config, traj)
    return _write_outputs(config, [("events.csv", lambda p: write_events_csv(p, timeline))])


def _compute_bilateral(config: PipelineConfig):
    """grf's chain: markers -> per-limb forces.  Only a fill in a marker
    that the CoM model or the events read flags a frame."""
    traj, fills = _load_markers(config)
    subject, definitions, com = _com(config, traj)
    timeline = _timeline(config, traj)
    read = {name for d in definitions.values() for rule in d.point_rules()
            for name, _ in rule.weights}.union(_event_markers(config))
    flagged = fills[[m for m, name in enumerate(traj.names) if name in read]].any(axis=0)
    del traj, fills  # the marker set is not held through the filter
    com, total = _filtered_total(config, com, subject)
    bilateral = decompose_gait(
        total, timeline, subject.mass_kg, config.gravity_mps2, flagged_frames=flagged
    )
    return com, timeline, bilateral


def _compare_against_plates(config: PipelineConfig, marker_force) -> ComparisonReport:
    plates = parse_force_file(config.force_file)
    # compare needs the decimated plate rate to equal the marker rate exactly
    ratio = plates.sample_rate_hz / marker_force.sample_rate_hz
    factor = round(ratio) if math.isfinite(ratio) else 0
    if factor < 1 or plates.sample_rate_hz / factor != marker_force.sample_rate_hz:
        raise InputError(
            f"{config.force_file}: force rate {plates.sample_rate_hz} Hz is not an integer "
            f"multiple of the marker rate {marker_force.sample_rate_hz} Hz of {config.marker_file}"
        )
    with _naming_short_series(config.force_file):
        plate_total = UniformSeries(plates.sample_rate_hz, plates.total_force().T)
        del plates  # the plate arrays are not held through the decimation
        try:
            plate_at_marker_rate = decimate(plate_total, factor)
        except SeriesTooShortError:
            raise  # named by _naming_short_series
        except InputError:  # no anti-alias low-pass at 0.4 x the marker rate
            raise InputError(f"{config.force_file}: force rate {plate_total.sample_rate_hz} Hz "
                             f"is too far above the marker rate {marker_force.sample_rate_hz} Hz "
                             f"to low-pass before decimating by {factor:g}") from None
        plate_smooth = lowpass(plate_at_marker_rate, config.cutoff_hz, config.filter_order)
    n = min(plate_smooth.n_samples, marker_force.n_frames)
    # Zero-phase filtering of a finite trial rings for a few cutoff periods
    # at each end; those frames reflect the trial boundary, not the gait,
    # so they are excluded from the comparison statistics.
    margin = int(np.ceil(4.0 * marker_force.sample_rate_hz / config.cutoff_hz))
    if n <= 2 * margin + 1:
        raise InputError(
            f"{config.force_file}: only {n} samples overlap the markers; need more than "
            f"{2 * margin + 1} to compare after dropping {margin} filter-settling samples "
            f"(four periods of cutoff_hz) per end"
        )
    span = slice(margin, n - margin)
    a = UniformSeries(marker_force.sample_rate_hz, marker_force.force[:, span])
    b = UniformSeries(plate_smooth.sample_rate_hz, plate_smooth.values[:, span])
    try:
        return compare(a, b)
    except InputError as exc:  # the squared difference overflows
        raise InputError(f"{config.force_file} against {config.marker_file}: {exc}") from None


def _validation_writers(report: ComparisonReport) -> list:
    return [
        ("validation.csv", lambda p: write_comparison_csv(p, report)),
        ("validation.txt", lambda p: write_comparison_text(p, report)),
    ]


def run_grf(config: PipelineConfig) -> list[Path]:
    com, timeline, bilateral = _compute_bilateral(config)
    diagram = butterfly(bilateral, com, config.butterfly_scale_m_per_n)
    del com  # not held across the plate parse
    writers = [
        ("grf.csv", lambda p: write_bilateral_csv(p, bilateral)),
        ("grf_diagnostics.csv", lambda p: write_diagnostics_csv(p, bilateral)),
        ("events.csv", lambda p: write_events_csv(p, timeline)),
        ("butterfly.csv", lambda p: write_butterfly_csv(p, diagram)),
        ("butterfly.svg", lambda p: write_butterfly_svg(p, diagram)),
    ]
    if config.force_file is not None:
        report = _compare_against_plates(config, bilateral.total)
        writers += _validation_writers(report)
    return _write_outputs(config, writers)


def run_validate(config: PipelineConfig) -> list[Path]:
    _require(config, "force_file")
    traj, _ = _load_markers(config)
    subject, _, com = _com(config, traj)
    del traj  # the marker set is not held through the filter
    _, total = _filtered_total(config, com, subject)
    del com  # not held across the plate parse
    report = _compare_against_plates(config, total)
    return _write_outputs(config, _validation_writers(report))


# subcommand -> (run, help line)
_COMMANDS = {
    "com": (run_com, "write the whole-body centre-of-mass trajectory CSV"),
    "events": (run_events, "detect heel strikes / toe-offs and write the events CSV"),
    "grf": (run_grf, "full pipeline: forces, events, butterfly, optional validation"),
    "validate": (run_validate, "compare marker-derived force against a force-plate file"),
}


def _build_parser() -> argparse.ArgumentParser:
    """The program's parser: each subcommand takes --config and one flag per
    PipelineConfig field, all built once and shared through ``parents``."""
    options = argparse.ArgumentParser(add_help=False)
    options.add_argument("--config", help="path to a key = value config file")
    for field in fields(PipelineConfig):
        options.add_argument(
            "--" + field.name.replace("_", "-"),
            type=_converter(field),
            default=None,
            metavar=field.name.upper(),
            help=f"override config key {field.name}",
        )
    parser = argparse.ArgumentParser(
        prog="gaitkinetics",
        description="Centre-of-mass, gait-event and ground-reaction-force "
        "estimation from motion-capture marker files.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, blurb) in _COMMANDS.items():
        subparsers.add_parser(name, help=blurb, description=blurb, parents=[options])
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
        run, _ = _COMMANDS[args.command]
        written = run(config)
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
