"""Body segment parameter tables and subject scaling.

A table assigns each (segment kind, sex) pair a mass ratio and a
dimensionless centre-of-mass offset triple (P_AP, P_ML, P_SI).  Bilateral
segments (arms, legs) share one row per sex; the ML offset is stored in
right-side convention and mirrored in sign when a left-side segment is
evaluated.  Table values are data, not code: the bundled reference file can
be swapped for any other source that satisfies the same invariants.

Table file format (tab-separated, ``#`` comments allowed):

    segment<TAB>sex<TAB>mass_ratio<TAB>P_AP<TAB>P_ML<TAB>P_SI
"""

import math
from dataclasses import dataclass
from importlib import resources

from .errors import InputError
from .ingest import _read_text

__all__ = [
    "SEGMENT_KINDS",
    "AXIAL_KINDS",
    "BILATERAL_KINDS",
    "SEGMENT_IDS",
    "SegmentId",
    "SegmentParameters",
    "AnthropometricTable",
    "SubjectProfile",
    "load_table",
    "parse_table",
    "segment_mass",
    "bundled_table_path",
]

AXIAL_KINDS = ("head_neck", "thorax", "abdomen", "pelvis")
BILATERAL_KINDS = ("upper_arm", "forearm", "hand", "thigh", "shank", "foot")
SEGMENT_KINDS = AXIAL_KINDS + BILATERAL_KINDS

_SEXES = ("m", "f")


@dataclass(frozen=True)
class SegmentId:
    """One of the 16 model segments: a kind plus an optional side."""

    kind: str
    side: str | None = None

    def __post_init__(self):
        if self.kind not in SEGMENT_KINDS:
            raise InputError(f"unknown segment kind {self.kind!r}")
        if self.kind in AXIAL_KINDS:
            if self.side is not None:
                raise InputError(f"axial segment {self.kind!r} takes no side")
        elif self.side not in ("left", "right"):
            raise InputError(f"bilateral segment {self.kind!r} needs side left/right")

    def __str__(self) -> str:
        return self.kind if self.side is None else f"{self.side}_{self.kind}"


# Canonical evaluation order; whole-body sums always accumulate in this
# order so results are bitwise reproducible.
SEGMENT_IDS: tuple[SegmentId, ...] = tuple(
    [SegmentId(k) for k in AXIAL_KINDS]
    + [SegmentId(k, side) for k in BILATERAL_KINDS for side in ("left", "right")]
)


@dataclass(frozen=True)
class SegmentParameters:
    """Mass ratio and dimensionless CoM offsets for one (kind, sex)."""

    mass_ratio: float
    p_ap: float
    p_ml: float
    p_si: float

    def __post_init__(self):
        if not 0.0 < self.mass_ratio < 1.0:
            raise InputError(f"mass_ratio must be in (0, 1), got {self.mass_ratio}")
        for label, v in (("P_AP", self.p_ap), ("P_ML", self.p_ml), ("P_SI", self.p_si)):
            if not abs(v) <= 1.0:
                raise InputError(f"{label} must satisfy |value| <= 1, got {v}")


@dataclass
class AnthropometricTable:
    """Rows keyed by (segment kind, sex).

    Every sex present must cover all segment kinds, and its whole-body mass
    ratio sum (bilateral kinds counted twice) must lie in [0.99, 1.01].
    The sum is checked, never renormalized.
    """

    rows: dict[tuple[str, str], SegmentParameters]

    def __post_init__(self):
        for (kind, sex) in self.rows:
            if kind not in SEGMENT_KINDS:
                raise InputError(f"unknown segment kind {kind!r} in table")
            if sex not in _SEXES:
                raise InputError(f"unknown sex tag {sex!r} in table (expected m/f)")
        if not self.rows:
            raise InputError("anthropometric table is empty")
        for sex in self.sexes:
            missing = [k for k in SEGMENT_KINDS if (k, sex) not in self.rows]
            if missing:
                raise InputError(
                    f"table incomplete for sex {sex!r}: missing segment(s) "
                    + ", ".join(missing)
                )
            total = sum(
                self.rows[(k, sex)].mass_ratio * (1 if k in AXIAL_KINDS else 2)
                for k in SEGMENT_KINDS
            )
            if not 0.99 <= total <= 1.01:
                raise InputError(
                    f"mass ratios for sex {sex!r} sum to {total:.4f}, "
                    "outside [0.99, 1.01]"
                )

    @property
    def sexes(self) -> tuple[str, ...]:
        return tuple(sorted({sex for (_, sex) in self.rows}))

    def get(self, kind: str, sex: str) -> SegmentParameters:
        if sex not in _SEXES:
            raise InputError(f"unknown sex tag {sex!r} (expected m/f)")
        try:
            return self.rows[(kind, sex)]
        except KeyError:
            raise InputError(
                f"table has no row for segment {kind!r}, sex {sex!r}"
            ) from None


@dataclass(frozen=True)
class SubjectProfile:
    """Per-subject scaling inputs."""

    mass_kg: float
    height_m: float
    sex: str

    def __post_init__(self):
        if not self.mass_kg > 0:
            raise InputError(f"subject mass must be positive, got {self.mass_kg}")
        if not self.height_m > 0:
            raise InputError(f"subject height must be positive, got {self.height_m}")
        for name, value in (("mass", self.mass_kg), ("height", self.height_m)):
            if not math.isfinite(value):
                raise InputError(f"subject {name} must be finite, got {value}")
        if self.sex not in _SEXES:
            raise InputError(f"subject sex must be 'm' or 'f', got {self.sex!r}")


def parse_table(text: str, source: str = "<table>") -> AnthropometricTable:
    """Parse table text (see module docstring for the row format)."""
    rows: dict[tuple[str, str], SegmentParameters] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise InputError(
                f"{source}:{lineno}: expected 6 tab-separated fields, got {len(fields)}"
            )
        kind, sex = fields[0], fields[1]
        try:
            numbers = [float(f) for f in fields[2:]]
        except ValueError as exc:
            raise InputError(f"{source}:{lineno}: non-numeric value") from exc
        if (kind, sex) in rows:
            raise InputError(f"{source}:{lineno}: duplicate row for ({kind}, {sex})")
        if kind not in SEGMENT_KINDS:
            raise InputError(f"{source}:{lineno}: unknown segment kind {kind!r}")
        if sex not in _SEXES:
            raise InputError(f"{source}:{lineno}: unknown sex tag {sex!r}")
        rows[(kind, sex)] = SegmentParameters(*numbers)
    try:
        return AnthropometricTable(rows=rows)
    except InputError as exc:  # empty, incomplete, or mass ratios that do not sum to 1
        raise InputError(f"{source}: {exc}") from None


def load_table(path) -> AnthropometricTable:
    return parse_table(_read_text(path, "anthropometric table"), source=str(path))


def segment_mass(table: AnthropometricTable, subject: SubjectProfile, segment: SegmentId) -> float:
    """Mass in kg of one segment: subject mass times the table ratio.

    Left and right instances of a bilateral kind weigh the same.
    """
    return subject.mass_kg * table.get(segment.kind, subject.sex).mass_ratio


def bundled_table_path():
    """Filesystem path of the reference table shipped with the package."""
    return resources.files("gaitkinetics").joinpath("data", "segment_parameters.txt")
