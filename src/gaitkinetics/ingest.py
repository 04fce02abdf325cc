"""Readers and writers for marker and force-plate TSV trials.

Marker files
    line 1: ``RATE<TAB><hz>``
    line 2: ``UNITS<TAB>mm`` or ``UNITS<TAB>m``
    line 3: ``MARKERS<TAB>name1<TAB>name2...``
    data  : one row per frame, ``time<TAB>x<TAB>y<TAB>z`` triplets per marker.
    An occluded sample is either a blank triplet (three empty or
    spaces-only fields) or an exact ``0<TAB>0<TAB>0`` triplet.  Positions are
    stored internally in metres; mm inputs are divided by 1000.

Force-plate files
    line 1: ``RATE<TAB><hz>``
    line 2: ``PLATES<TAB><n>``
    data  : ``time`` then ``Fx Fy Fz COPx COPy`` per plate (newtons, metres).

In both, the first time stamp is free and each later one must follow the
previous by 1/RATE within a quarter of a sample period, so a dropped or
repeated row is rejected; blank lines may only end the file.

Both writers emit shortest round-trip float text (``repr``), so a
write/parse cycle reproduces the numeric payload bit for bit.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = [
    "IngestConfig",
    "MarkerTrajectorySet",
    "ForcePlateSeries",
    "parse_marker_file",
    "write_marker_file",
    "parse_force_file",
    "write_force_file",
    "fill_gaps",
]

_UNITS = ("m", "mm")

# A time stamp may miss 1/RATE after the previous one by this many sample
# periods; a dropped or repeated row misses it by a whole period.
_TIME_STEP_TOLERANCE = 0.25

# _write_csv formats this many values at a time
_VALUES_PER_BLOCK = 1 << 12


@dataclass(frozen=True)
class IngestConfig:
    """Options shared by the file readers.

    expected_unit: require the marker file's UNITS tag to match ("m" or
        "mm"); None accepts either.
    noise_floor_n: vertical plate force below ``-noise_floor_n`` newtons is
        flagged as implausible but kept.
    max_gap_frames: largest interior occlusion run that ``fill_gaps`` will
        interpolate across.
    """

    expected_unit: str | None = None
    noise_floor_n: float = 5.0
    max_gap_frames: int = 10

    def __post_init__(self):
        if self.expected_unit is not None and self.expected_unit not in _UNITS:
            raise InputError(
                f"expected_unit must be one of {sorted(_UNITS)}, "
                f"got {self.expected_unit!r}"
            )
        if self.noise_floor_n < 0:
            raise InputError("noise_floor_n must be non-negative")
        if self.max_gap_frames < 0:
            raise InputError("max_gap_frames must be non-negative")


@dataclass
class MarkerTrajectorySet:
    """Uniformly sampled marker positions in metres.

    markers: mapping marker name -> (n_frames, 3) float array.
    missing: mapping marker name -> (n_frames,) bool; True marks occluded
        samples.  Positions are NaN exactly where missing, finite elsewhere.
    """

    sample_rate_hz: float
    markers: dict[str, np.ndarray]
    missing: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.sample_rate_hz > 0:
            raise InputError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if not self.markers:
            raise InputError("marker set is empty")
        if set(self.markers) != set(self.missing):
            raise InputError("markers and missing masks name different markers")
        n = None
        for name, pos in self.markers.items():
            pos = np.asarray(pos, dtype=float)
            if pos.ndim != 2 or pos.shape[1] != 3:
                raise InputError(f"marker {name!r}: positions must be (n_frames, 3)")
            mask = np.asarray(self.missing[name], dtype=bool)
            if mask.shape != (pos.shape[0],):
                raise InputError(f"marker {name!r}: missing mask length mismatch")
            if n is None:
                n = pos.shape[0]
            elif pos.shape[0] != n:
                raise InputError(f"marker {name!r}: frame count differs from others")
            if not np.all(np.isfinite(pos[~mask])):
                raise InputError(f"marker {name!r}: non-finite position in a present frame")
            self.markers[name] = pos
            self.missing[name] = mask
        if n == 0:
            raise InputError("marker trial has zero frames")

    @property
    def n_frames(self) -> int:
        return next(iter(self.markers.values())).shape[0]

    @property
    def marker_names(self) -> list[str]:
        return list(self.markers)

    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) / self.sample_rate_hz


@dataclass
class ForcePlateSeries:
    """Uniformly sampled per-plate forces (N) and centres of pressure (m).

    forces: (n_plates, n_frames, 3); cop: (n_plates, n_frames, 2).
    below_noise flags frames whose vertical force undershoots the noise
    floor; they are kept, not rejected.
    """

    sample_rate_hz: float
    forces: np.ndarray
    cop: np.ndarray
    noise_floor_n: float = 5.0
    below_noise: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if not self.sample_rate_hz > 0:
            raise InputError(f"sample rate must be positive, got {self.sample_rate_hz}")
        self.forces = np.asarray(self.forces, dtype=float)
        self.cop = np.asarray(self.cop, dtype=float)
        if self.forces.ndim != 3 or self.forces.shape[2] != 3:
            raise InputError("forces must be (n_plates, n_frames, 3)")
        if self.cop.shape != self.forces.shape[:2] + (2,):
            raise InputError("cop must be (n_plates, n_frames, 2)")
        if self.forces.shape[1] == 0:
            raise InputError("force trial has zero frames")
        if not (np.all(np.isfinite(self.forces)) and np.all(np.isfinite(self.cop))):
            raise InputError("force data contains non-finite values")
        if self.below_noise is None:
            self.below_noise = self.forces[:, :, 2] < -self.noise_floor_n
        self.below_noise = np.asarray(self.below_noise, dtype=bool)
        if self.below_noise.shape != self.forces.shape[:2]:
            raise InputError("below_noise mask shape mismatch")

    @property
    def n_plates(self) -> int:
        return self.forces.shape[0]

    @property
    def n_frames(self) -> int:
        return self.forces.shape[1]

    def total_force(self) -> np.ndarray:
        """Sum over plates, shape (n_frames, 3)."""
        return self.forces.sum(axis=0)

    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) / self.sample_rate_hz


def _read_lines(path) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    lines = text.split("\n")
    # tolerate a trailing newline; reject CRLF quietly by stripping \r
    return [ln.rstrip("\r") for ln in lines] if "\r" in text else lines


def _header_value(lines: list[str], row: int, tag: str, path) -> str:
    if row >= len(lines):
        raise InputError(f"{path}: missing header line {row + 1} ({tag})")
    parts = lines[row].split("\t")
    if len(parts) < 2 or parts[0] != tag:
        raise InputError(
            f"{path}: header line {row + 1} must be '{tag}<TAB>value', got {lines[row]!r}"
        )
    return parts[1]


def _parse_rate(lines: list[str], path) -> float:
    raw = _header_value(lines, 0, "RATE", path)
    try:
        rate = float(raw)
    except ValueError as exc:
        raise InputError(f"{path}: RATE value {raw!r} is not a number") from exc
    if not rate > 0:
        raise InputError(f"{path}: RATE must be positive, got {rate}")
    return rate


def _data_rows(path, lines: list[str], first: int, n_cols: int) -> list[str]:
    """The data lines from index ``first`` on, each checked to hold ``n_cols`` fields.

    Blank lines may only end the file: one between data rows would shift
    every later frame, so it is rejected.
    """
    end = len(lines)
    while end > first and lines[end - 1] == "":
        end -= 1
    rows = lines[first:end]
    if not rows:
        raise InputError(f"{path}: zero data frames")
    if "" in rows:
        line = first + rows.index("") + 1
        raise InputError(f"{path}: line {line} is blank; blank lines may only end the file")
    tabs = np.array([row.count("\t") for row in rows])
    bad = np.flatnonzero(tabs != n_cols - 1)
    if bad.size:
        r = int(bad[0])
        raise InputError(
            f"{path}: data row {r + 1} has {tabs[r] + 1} columns, expected {n_cols}"
        )
    return rows


def _loadtxt(rows: list[str]) -> np.ndarray:
    return np.loadtxt(rows, delimiter="\t", comments=None, ndmin=2)


def _is_number(text: str) -> bool:
    """True when ``_loadtxt`` reads ``text`` as a row of one or more numbers."""
    if not text.strip():
        return False
    try:
        _loadtxt([text])
    except ValueError:
        return False
    return True


def _parse_rows(path, rows: list[str], fields: list[str], rate: float) -> np.ndarray:
    """Parse checked data rows into an (n_rows, n_fields) float array.

    ``fields`` names each column for error messages.  Column 0 is the time
    stamp: the first is free, and each later one must follow the one before
    by 1/rate within ``_TIME_STEP_TOLERANCE`` sample periods, which a dropped
    or repeated row breaks.
    """
    try:
        data = _loadtxt(rows)
    except ValueError:
        r = next(r for r, row in enumerate(rows) if not _is_number(row))
        c = next(c for c, f in enumerate(rows[r].split("\t")) if not _is_number(f))
        raise InputError(f"{path}: data row {r + 1}, {fields[c]}: non-numeric value") from None
    times = data[:, 0]
    bad = np.flatnonzero(~(np.abs(np.diff(times) * rate - 1.0) <= _TIME_STEP_TOLERANCE))
    if bad.size:
        r = int(bad[0]) + 1
        raise InputError(
            f"{path}: data row {r + 1}: time {float(times[r])!r} s follows "
            f"{float(times[r - 1])!r} s, but rows must step by 1/RATE = {1.0 / rate!r} s "
            "(dropped or repeated row?)"
        )
    return data


def _zero_blank_triplets(path, rows: list[str], names: list[str]) -> None:
    """Rewrite blank coordinate triplets in place as ``0``, the other occlusion mark.

    A field is blank when it is empty or holds only spaces; only rows that
    can hold one are split, one at a time.  A triplet with one or two blank
    fields is rejected.
    """
    for r, row in enumerate(rows):
        if not ("\t\t" in row or row[-1] == "\t" or " " in row):
            continue
        fields = row.split("\t")
        # a blank time is left blank, so that it fails to parse
        blank = [False] + [not f.strip(" ") for f in fields[1:]]
        partial = np.flatnonzero(np.reshape(blank[1:], (-1, 3)).sum(axis=1) % 3)
        if partial.size:
            raise InputError(
                f"{path}: data row {r + 1}, marker {names[partial[0]]!r}: "
                "partially blank coordinate triplet"
            )
        rows[r] = "\t".join(["0" if b else f for f, b in zip(fields, blank)])


def parse_marker_file(path, config: IngestConfig | None = None) -> MarkerTrajectorySet:
    """Parse a marker TSV file into a MarkerTrajectorySet (metres)."""
    config = config or IngestConfig()
    lines = _read_lines(path)
    rate = _parse_rate(lines, path)

    unit = _header_value(lines, 1, "UNITS", path)
    if unit not in _UNITS:
        raise InputError(f"{path}: unknown unit tag {unit!r} (expected 'mm' or 'm')")
    if config.expected_unit is not None and unit != config.expected_unit:
        raise InputError(
            f"{path}: unit tag {unit!r} does not match expected {config.expected_unit!r}"
        )

    if len(lines) < 3:
        raise InputError(f"{path}: missing header line 3 (MARKERS)")
    marker_parts = lines[2].split("\t")
    if marker_parts[0] != "MARKERS" or len(marker_parts) < 2:
        raise InputError(f"{path}: header line 3 must be 'MARKERS<TAB>name...'")
    names = marker_parts[1:]
    if len(set(names)) != len(names):
        raise InputError(f"{path}: duplicate marker names in header")

    rows = _data_rows(path, lines, 3, 1 + 3 * len(names))
    del lines
    _zero_blank_triplets(path, rows, names)
    fields = ["time"] + [f"marker {name!r}" for name in names for _ in range(3)]
    data = _parse_rows(path, rows, fields, rate)
    del rows  # release the text before the per-marker arrays are built

    xyz = data[:, 1:].reshape(len(data), len(names), 3)
    # an all-zero triplet (a blank one was zeroed above) marks an occlusion
    missing = np.ascontiguousarray((xyz == 0.0).all(axis=2).T)
    pos = np.ascontiguousarray(xyz.transpose(1, 0, 2))
    if unit == "mm":
        pos /= 1000.0  # correctly rounded, value by value
    pos[missing] = np.nan
    return MarkerTrajectorySet(
        sample_rate_hz=rate, markers=dict(zip(names, pos)), missing=dict(zip(names, missing))
    )


def _text(values):
    """Shortest round-trip text of a numeric array, NaN as an empty field;
    any other column is already text."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        return values
    text = list(map(repr, values.tolist()))
    if values.dtype.kind == "f" and np.isnan(values).any():
        return np.where(np.isnan(values), "", np.array(text, dtype=object))
    return text


def _write_csv(path, header: list[str], columns, sep: str = ",") -> None:
    """Write the ``header`` lines, then one ``sep``-joined row per sample of ``columns``.

    A numeric array column is written as ``repr`` text, so parsing the file
    restores it bit for bit; a column of strings is written as is.  Rows are
    formatted a block at a time, which bounds the text held in memory.
    """
    n = len(columns[0])
    step = max(1, _VALUES_PER_BLOCK // len(columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in header))
        for a in range(0, n, step):
            text = [_text(column[a : a + step]) for column in columns]
            fh.write("\n".join(map(sep.join, zip(*text))) + "\n")


def write_marker_file(path, traj: MarkerTrajectorySet) -> None:
    """Write a MarkerTrajectorySet as a TSV file in metres.

    Occluded frames become blank triplets, so parse(write(x)) restores the
    positions and the missing mask exactly.
    """
    names = traj.marker_names
    columns = [traj.times()]
    for name in names:
        pos = np.where(traj.missing[name][:, None], np.nan, traj.markers[name])
        columns += list(pos.T)
    header = [f"RATE\t{traj.sample_rate_hz!r}", "UNITS\tm", "MARKERS\t" + "\t".join(names)]
    _write_csv(path, header, columns, sep="\t")


def parse_force_file(path, config: IngestConfig | None = None) -> ForcePlateSeries:
    """Parse a force-plate TSV file (newtons / metres)."""
    config = config or IngestConfig()
    lines = _read_lines(path)
    rate = _parse_rate(lines, path)
    raw_plates = _header_value(lines, 1, "PLATES", path)
    try:
        n_plates = int(raw_plates)
    except ValueError as exc:
        raise InputError(f"{path}: PLATES value {raw_plates!r} is not an integer") from exc
    if n_plates < 1:
        raise InputError(f"{path}: PLATES must be >= 1, got {n_plates}")

    rows = _data_rows(path, lines, 2, 1 + 5 * n_plates)
    del lines
    fields = ["time"] + [f"plate {p + 1}" for p in range(n_plates) for _ in range(5)]
    data = _parse_rows(path, rows, fields, rate)
    del rows  # release the text before the per-plate arrays are built

    plates = data[:, 1:].reshape(len(data), n_plates, 5).transpose(1, 0, 2)
    return ForcePlateSeries(
        sample_rate_hz=rate,
        forces=np.ascontiguousarray(plates[:, :, :3]),
        cop=np.ascontiguousarray(plates[:, :, 3:]),
        noise_floor_n=config.noise_floor_n,
    )


def write_force_file(path, series: ForcePlateSeries) -> None:
    """Write a ForcePlateSeries as a TSV file (bit-exact round trip)."""
    columns = [series.times()]
    for p in range(series.n_plates):
        columns += [*series.forces[p].T, *series.cop[p].T]
    header = [f"RATE\t{series.sample_rate_hz!r}", f"PLATES\t{series.n_plates}"]
    _write_csv(path, header, columns, sep="\t")


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index and one past the last index of each run of True in a 1-D mask."""
    edges = np.diff(mask.astype(np.int8), prepend=0, append=0)
    return np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)


def fill_gaps(traj: MarkerTrajectorySet, max_gap_frames: int | None = None) -> MarkerTrajectorySet:
    """Linearly interpolate interior occlusion runs of <= max_gap_frames.

    Runs longer than the threshold, and runs touching the first or last
    frame (no bracketing sample on one side), are left missing.  Present
    frames are passed through untouched, so the output mask is a subset of
    the input mask.
    """
    if max_gap_frames is None:
        max_gap_frames = IngestConfig().max_gap_frames
    if max_gap_frames < 0:
        raise InputError("max_gap_frames must be non-negative")

    n = traj.n_frames
    new_pos = {}
    new_miss = {}
    for name in traj.marker_names:
        pos = traj.markers[name].copy()
        mask = traj.missing[name].copy()
        starts, ends = _runs(mask)
        run = np.repeat(np.arange(starts.size), ends - starts)  # of each missing frame
        fill = ((starts > 0) & (ends < n) & (ends - starts <= max_gap_frames))[run]
        j, run = np.flatnonzero(mask)[fill], run[fill]
        lo, hi = starts[run] - 1, ends[run]
        t = ((j - lo) / (hi - lo))[:, None]
        pos[j] = pos[lo] + (pos[hi] - pos[lo]) * t
        mask[j] = False
        new_pos[name] = pos
        new_miss[name] = mask
    return MarkerTrajectorySet(
        sample_rate_hz=traj.sample_rate_hz, markers=new_pos, missing=new_miss
    )
