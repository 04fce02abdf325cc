"""Whole-body centre-of-mass kinetics from motion-capture marker data.

The pipeline: parse marker trajectories, assemble a 16-segment
centre-of-mass estimate from anthropometric tables, low-pass and
differentiate it into a total ground reaction force, detect gait events
from sacrum-relative foot kinematics, split the force between the limbs
during double stance with a minimum rate-of-change rule, and compare
against force-plate recordings when available.
"""

from .anthro import (
    SEGMENT_IDS,
    AnthropometricTable,
    SegmentId,
    SegmentParameters,
    SubjectProfile,
    bundled_table_path,
    load_table,
    segment_mass,
)
from .errors import (
    GaitKineticsError,
    InputError,
    InternalInvariantError,
    NoGaitDataError,
)
from .events import (
    FootEvents,
    GaitTimeline,
    Phase,
    build_timeline,
    detect_events_zeni,
)
from .grf import (
    BilateralGrf,
    ButterflyDiagram,
    GrfSeries,
    butterfly,
    decompose_ds,
    decompose_gait,
    total_grf,
)
from .ingest import (
    ForcePlateSeries,
    MarkerTrajectorySet,
    fill_gaps,
    parse_force_file,
    parse_marker_file,
    write_force_file,
    write_marker_file,
)
from .kinematics import (
    ComTrajectory,
    SegmentDefinition,
    bundled_definitions_path,
    com_trajectory,
    filter_com_trajectory,
    hand_com,
    load_segment_definitions,
)
from .metrics import ComparisonReport, StanceShape, compare, stance_vgrf_shape
from .signal import UniformSeries, decimate, lowpass, smoothed_acceleration

__version__ = "0.1.0"

__all__ = [
    "AnthropometricTable",
    "BilateralGrf",
    "ButterflyDiagram",
    "ComTrajectory",
    "ComparisonReport",
    "FootEvents",
    "ForcePlateSeries",
    "GaitKineticsError",
    "GaitTimeline",
    "GrfSeries",
    "InputError",
    "InternalInvariantError",
    "MarkerTrajectorySet",
    "NoGaitDataError",
    "Phase",
    "SEGMENT_IDS",
    "SegmentDefinition",
    "SegmentId",
    "SegmentParameters",
    "StanceShape",
    "SubjectProfile",
    "UniformSeries",
    "build_timeline",
    "bundled_definitions_path",
    "bundled_table_path",
    "butterfly",
    "com_trajectory",
    "compare",
    "decimate",
    "decompose_ds",
    "decompose_gait",
    "detect_events_zeni",
    "smoothed_acceleration",
    "fill_gaps",
    "filter_com_trajectory",
    "hand_com",
    "load_segment_definitions",
    "load_table",
    "lowpass",
    "parse_force_file",
    "parse_marker_file",
    "segment_mass",
    "stance_vgrf_shape",
    "total_grf",
    "write_force_file",
    "write_marker_file",
    "__version__",
]
