"""Readers and writers for marker and force-plate TSV trials.

Marker files
    line 1: ``RATE<TAB><hz>``
    line 2: ``UNITS<TAB>mm`` or ``UNITS<TAB>m``
    line 3: ``MARKERS<TAB>name1<TAB>name2...``
    data  : one row per frame, ``time<TAB>x<TAB>y<TAB>z`` triplets per marker.
    An occluded sample is either a blank triplet (three empty or
    spaces-only fields) or an exact ``0<TAB>0<TAB>0`` triplet; either is
    held as a NaN triplet.  Positions are stored internally in metres; mm
    inputs are divided by 1000.

Force-plate files
    line 1: ``RATE<TAB><hz>``
    line 2: ``PLATES<TAB><n>``
    data  : ``time`` then ``Fx Fy Fz COPx COPy`` per plate (newtons, metres).

In both, the first time stamp is free and each later one must follow the
previous by 1/RATE within a quarter of a sample period, so a dropped or
repeated row is rejected; blank lines may only end the file.  Files must
be UTF-8 text.  A parser counts the file's lines first and allocates its
result's arrays from the count, then parses the data about
``_BYTES_PER_BLOCK`` bytes at a time, copying each block's values into
place.  So a parse holds its result plus one block of text, its lines and
its values, never a second copy of the data.

Both writers emit shortest round-trip float text (``repr``), so a
write/parse cycle reproduces the numeric payload bit for bit.
"""

import codecs
import functools
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

__all__ = [
    "DEFAULT_NOISE_FLOOR_N",
    "DEFAULT_MAX_GAP_FRAMES",
    "MarkerTrajectorySet",
    "ForcePlateSeries",
    "parse_marker_file",
    "write_marker_file",
    "parse_force_file",
    "write_force_file",
    "fill_gaps",
]

# vertical plate force below -DEFAULT_NOISE_FLOOR_N newtons is flagged as
# implausible but kept
DEFAULT_NOISE_FLOOR_N = 5.0
# the longest interior occlusion run that fill_gaps interpolates across
DEFAULT_MAX_GAP_FRAMES = 10

_UNITS = ("m", "mm")

# A time stamp may miss 1/RATE after the previous one by this many sample
# periods; a dropped or repeated row misses it by a whole period.
_TIME_STEP_TOLERANCE = 0.25

# _write_csv formats this many values at a time
_VALUES_PER_BLOCK = 1 << 12

# the parsers read data lines this many bytes at a time, then to the end of the line
_BYTES_PER_BLOCK = 1 << 20


@dataclass
class MarkerTrajectorySet:
    """Uniformly sampled marker positions in metres.

    markers: mapping marker name -> (n_frames, 3) float array.  A frame's
        triplet is all finite, or all NaN where the marker was occluded.
    missing: mapping marker name -> (n_frames,) bool, True on the NaN
        triplets; derived from the positions, never passed in.
    """

    sample_rate_hz: float
    markers: dict[str, np.ndarray]
    missing: dict[str, np.ndarray] = field(init=False)

    def __post_init__(self):
        if not self.sample_rate_hz > 0:
            raise InputError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if not self.markers:
            raise InputError("marker set is empty")
        self.missing = {}
        n = None
        for name, pos in self.markers.items():
            pos = np.asarray(pos, dtype=float)
            if pos.ndim != 2 or pos.shape[1] != 3:
                raise InputError(f"marker {name!r}: positions must be (n_frames, 3)")
            if n is None:
                n = pos.shape[0]
            elif pos.shape[0] != n:
                raise InputError(f"marker {name!r}: frame count differs from others")
            bad = np.isnan(pos)  # element by element: numpy reduces (n, 3) rows slowly
            mask = bad[:, 0].copy()
            bad ^= mask[:, np.newaxis]  # a coordinate whose NaN-ness differs from x's
            bad |= np.isinf(pos)
            if bad.any():
                raise InputError(
                    f"marker {name!r}: non-finite position at frame {int(np.argmax(bad)) // 3}; "
                    "an occluded frame is an all-NaN triplet"
                )
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
    below_noise flags frames whose vertical force is below ``-noise_floor_n``
    newtons; they are kept, not rejected.
    """

    sample_rate_hz: float
    forces: np.ndarray
    cop: np.ndarray
    noise_floor_n: float = DEFAULT_NOISE_FLOOR_N
    below_noise: np.ndarray = field(init=False)

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
        if self.noise_floor_n < 0:
            raise InputError("noise_floor_n must be non-negative")
        self.below_noise = self.forces[:, :, 2] < -self.noise_floor_n

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


def _count_lines(path) -> int:
    """Number of lines of ``path`` less the blank one after a final ``\\n``:
    its newlines, plus one if it does not end in one.  Read a block at a
    time into one buffer, no larger than the file.  The file is read again
    to be parsed, so it must be a regular file, not a pipe."""
    n, last = 0, ord("\n")
    try:
        with open(path, "rb", buffering=0) as fh:
            info = os.fstat(fh.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise InputError(f"cannot read {path}: not a regular file")
            buffer = bytearray(min(_BYTES_PER_BLOCK, info.st_size + 1))
            while size := fh.readinto(buffer):
                n += buffer.count(b"\n", 0, size)
                last = buffer[size - 1]
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return n + (last != ord("\n"))


def _read_text(path, what: str) -> str:
    """The whole of a small UTF-8 text file; ``what`` names the kind of file
    in the error of a file that cannot be read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {what} {path}: not UTF-8 text ({exc.reason})") from None


def _read_block(fh, decode, size: int) -> str:
    """The next ``size`` bytes of ``fh`` and the rest of the line they end
    in, decoded; "" at the end of the file."""
    block = decode(fh.read(size))
    block += decode(fh.readline())  # resized in place, not copied
    return block


def _text_blocks(path, n_header: int):
    """Yield the first ``n_header`` lines of ``path`` as one list (fewer if
    the file ends first), then its remaining text in blocks of whole lines
    of at least ``_BYTES_PER_BLOCK`` bytes (less at the end).

    The file is read as bytes and decoded as UTF-8 a block at a time.  Each
    block ends in ``\\n``, except perhaps the file's last.  Lines are split
    at ``\\n`` only; header lines lose any trailing ``\\r``, data lines keep
    it.  Once yielded, a block is held only by the caller.
    """
    decode = codecs.getincrementaldecoder("utf-8")().decode
    try:
        with open(path, "rb") as fh:
            header = [fh.readline()]
            while len(header) < n_header and header[-1].endswith(b"\n"):
                header.append(fh.readline())
            yield [decode(line).rstrip("\n").rstrip("\r") for line in header]
            if header[-1].endswith(b"\n"):
                # a read allocates its whole size, so none is larger than the file
                size = min(_BYTES_PER_BLOCK, os.fstat(fh.fileno()).st_size + 1)
                yield from iter(functools.partial(_read_block, fh, decode, size), "")
            decode(b"", True)  # a character cut short by the end of the file
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


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
    if np.isinf(rate):
        raise InputError(f"{path}: RATE must be finite, got {rate}")
    return rate


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


def _column_name(c: int, width: int, names: list[str] | None) -> str:
    """How messages name data column ``c``: the time, then ``width`` columns
    per marker of ``names``, or per plate when there are no names."""
    if c == 0:
        return "time"
    group = (c - 1) // width
    return f"marker {names[group]!r}" if names is not None else f"plate {group + 1}"


def _parse_rows(
    path, rows: list[str], start: int, n_groups: int, width: int,
    names: list[str] | None = None, look_first: bool = False,
) -> tuple[np.ndarray, bool]:
    """Parse data rows, the first of which is data row ``start + 1``, into an
    (n_rows, 1 + n_groups * width) float array, a time and then ``width``
    values per marker or plate.  With ``names`` (marker files), blank
    triplets read as ``0``.  Returns the array and whether a blank triplet
    was found.

    The rows are looked at one by one only when the block as a whole does
    not parse, or first with ``look_first``: then a row with the wrong number
    of fields is reported first, a partially blank triplet next, and a field
    that is not a number last.
    """
    n_fields = 1 + n_groups * width
    if not look_first:
        try:
            values = _loadtxt(rows)
            if values.shape[1] == n_fields:
                return values, False
        except ValueError:
            pass
    for r, row in enumerate(rows):
        n_cols = row.count("\t") + 1
        if n_cols != n_fields:
            raise InputError(
                f"{path}: data row {start + r + 1} has {n_cols} columns, expected {n_fields}"
            )
    zeroed = names is not None and _zero_blank_triplets(path, rows, start, names)
    try:
        return _loadtxt(rows), zeroed
    except ValueError:
        pass
    r = next(r for r, row in enumerate(rows) if not _is_number(row))
    c = next(c for c, f in enumerate(rows[r].split("\t")) if not _is_number(f))
    raise InputError(
        f"{path}: data row {start + r + 1}, {_column_name(c, width, names)}: non-numeric value"
    )


def _zero_blank_triplets(path, rows: list[str], start: int, names: list[str]) -> bool:
    """Rewrite blank coordinate triplets in place as ``0``, the other occlusion
    mark; True if any was.

    ``rows`` begin at data row ``start + 1`` and hold one field per
    coordinate.  A field is blank when it is empty or holds only spaces;
    only rows that can hold one are split, one at a time.  A triplet with
    one or two blank fields is rejected.
    """
    zeroed = False
    for r, row in enumerate(rows):
        if not ("\t\t" in row or row[-1] == "\t" or " " in row):
            continue
        fields = row.split("\t")
        # a blank time is left blank, so that it fails to parse
        blank = bytes([False] + [not f.strip(" ") for f in fields[1:]])
        first = blank[1::3]  # each triplet's first flag; triplets compared as bytes
        if blank[2::3] != first or blank[3::3] != first:
            m = next(m for m in range(len(names)) if len(set(blank[3 * m + 1 : 3 * m + 4])) > 1)
            raise InputError(
                f"{path}: data row {start + r + 1}, marker {names[m]!r}: "
                "partially blank coordinate triplet"
            )
        if any(first):
            rows[r] = "\t".join(["0" if b else f for f, b in zip(fields, blank)])
            zeroed = True
    return zeroed


def _data_blocks(path, blocks, first: int, n_groups: int, width: int, rate: float,
                 capacity: int, names: list[str] | None = None):
    """Parse the data text ``blocks`` of ``_text_blocks``, which begin at
    line ``first + 1`` of the file, a block at a time.

    Yields ``(start, groups)`` per block: its k rows are data rows
    ``start + 1`` to ``start + k``, and ``groups`` is a (n_groups, k, width)
    view of the values after the time, one group of ``width`` per marker or
    plate.  ``names`` (marker files only) names each marker; with it, blank
    triplets read as ``0``.  The first block is yielded at ``start`` 0, so
    only after its rows matched the header's column count: the caller sizes
    nothing from the header before then.  A value that is not finite is
    rejected with its row and marker or plate.

    Blank lines may only end the file: one between data rows would shift
    every later frame, so it is rejected, also when the row after it comes
    in a later block.  A file with more than ``capacity`` data rows changed
    since its lines were counted, and is rejected.  The first time stamp is
    free, and each later one must follow the one before by 1/rate within
    ``_TIME_STEP_TOLERANCE`` sample periods, which a dropped or repeated row
    breaks; this is reported after the last block, so that any other fault
    is reported first.
    """
    start = 0  # data rows before the block
    blank = None  # line number of the first of the blank lines that end the text so far
    bad_step = None  # (data row, time, time before) of the first bad step
    previous = np.empty(0)  # the last time of the block before
    after_blanks = False  # whether the block before held a blank triplet
    for text in blocks:
        rows = text.split("\n")
        if "\r" in text:
            rows = [row.rstrip("\r") for row in rows]
        n_lines = len(rows) - text.endswith("\n")  # a final \n ends a line, starts none
        del text  # the rows hold the same characters
        while rows and rows[-1] == "":
            rows.pop()
        if rows and blank is None and "" in rows:
            blank = first + start + rows.index("") + 1
        if rows and blank is not None:
            raise InputError(f"{path}: line {blank} is blank; blank lines may only end the file")
        if blank is None and len(rows) < n_lines:
            blank = first + start + len(rows) + 1
        if rows:
            if start + len(rows) > capacity:
                raise InputError(
                    f"{path}: more than the {capacity} data rows counted before "
                    "parsing; the file changed while it was read"
                )
            # a block after one with blank triplets likely holds some too, and
            # would fail to parse before they are zeroed
            values, after_blanks = _parse_rows(
                path, rows, start, n_groups, width, names, after_blanks
            )
            del rows
            finite = np.isfinite(values[:, 1:])
            if not finite.all():
                r, c = divmod(int(np.argmin(finite)), finite.shape[1])
                column = _column_name(c + 1, width, names)
                raise InputError(f"{path}: data row {start + r + 1}, {column}: non-finite value")
            times = np.concatenate([previous, values[:, 0]])
            bad = np.flatnonzero(~(np.abs(np.diff(times) * rate - 1.0) <= _TIME_STEP_TOLERANCE))
            if bad_step is None and bad.size:
                r = int(bad[0]) + 1
                bad_step = (start + r - previous.size, times[r], times[r - 1])
            previous = times[-1:]
            yield start, values[:, 1:].reshape(len(values), -1, width).transpose(1, 0, 2)
            del values  # not held through the next read
        start += n_lines
    if start == 0 or blank == first + 1:  # no line, or blank lines only
        raise InputError(f"{path}: zero data frames")
    if bad_step is not None:
        r, t, before = bad_step
        raise InputError(
            f"{path}: data row {r + 1}: time {float(t)!r} s follows "
            f"{float(before)!r} s, but rows must step by 1/RATE = {1.0 / rate!r} s "
            "(dropped or repeated row?)"
        )


def parse_marker_file(path) -> MarkerTrajectorySet:
    """Parse a marker TSV file into a MarkerTrajectorySet (metres)."""
    capacity = max(0, _count_lines(path) - 3)
    blocks = _text_blocks(path, 3)
    lines = next(blocks)
    rate = _parse_rate(lines, path)

    unit = _header_value(lines, 1, "UNITS", path)
    if unit not in _UNITS:
        raise InputError(f"{path}: unknown unit tag {unit!r} (expected 'mm' or 'm')")

    if len(lines) < 3:
        raise InputError(f"{path}: missing header line 3 (MARKERS)")
    marker_parts = lines[2].split("\t")
    if marker_parts[0] != "MARKERS" or len(marker_parts) < 2:
        raise InputError(f"{path}: header line 3 must be 'MARKERS<TAB>name...'")
    names = marker_parts[1:]
    if len(set(names)) != len(names):
        raise InputError(f"{path}: duplicate marker names in header")

    n = 0
    for start, groups in _data_blocks(path, blocks, 3, len(names), 3, rate, capacity, names):
        if start == 0:  # the first rows matched the header
            pos = np.empty((len(names), capacity, 3))
        n = start + groups.shape[1]
        pos[:, start:n] = groups
        # an all-zero triplet (a blank one was zeroed) marks an occlusion
        pos[:, start:n][(groups == 0.0).all(axis=2)] = np.nan
    pos = pos[:, :n]  # a view, when trailing blank lines were counted
    if unit == "mm":
        pos /= 1000.0  # correctly rounded, value by value
    return MarkerTrajectorySet(sample_rate_hz=rate, markers=dict(zip(names, pos)))


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

    Occluded (NaN) frames become blank triplets, so parse(write(x))
    restores the positions exactly.
    """
    names = traj.marker_names
    columns = [traj.times()]
    for name in names:
        columns += list(traj.markers[name].T)
    header = [f"RATE\t{traj.sample_rate_hz!r}", "UNITS\tm", "MARKERS\t" + "\t".join(names)]
    _write_csv(path, header, columns, sep="\t")


def parse_force_file(path, noise_floor_n: float = DEFAULT_NOISE_FLOOR_N) -> ForcePlateSeries:
    """Parse a force-plate TSV file (newtons / metres); see ``ForcePlateSeries``
    for ``noise_floor_n``."""
    capacity = max(0, _count_lines(path) - 2)
    blocks = _text_blocks(path, 2)
    lines = next(blocks)
    rate = _parse_rate(lines, path)
    raw_plates = _header_value(lines, 1, "PLATES", path)
    try:
        n_plates = int(raw_plates)
    except ValueError as exc:
        raise InputError(f"{path}: PLATES value {raw_plates!r} is not an integer") from exc
    if n_plates < 1:
        raise InputError(f"{path}: PLATES must be >= 1, got {n_plates}")
    n = 0
    for start, groups in _data_blocks(path, blocks, 2, n_plates, 5, rate, capacity):
        if start == 0:  # the first rows matched the header
            forces = np.empty((n_plates, capacity, 3))
            cop = np.empty((n_plates, capacity, 2))
        n = start + groups.shape[1]
        forces[:, start:n] = groups[:, :, :3]
        cop[:, start:n] = groups[:, :, 3:]
    return ForcePlateSeries(
        sample_rate_hz=rate, forces=forces[:, :n], cop=cop[:, :n], noise_floor_n=noise_floor_n
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


def fill_gaps(
    traj: MarkerTrajectorySet, max_gap_frames: int = DEFAULT_MAX_GAP_FRAMES
) -> MarkerTrajectorySet:
    """Linearly interpolate interior occlusion runs of <= max_gap_frames.

    Runs longer than the threshold, and runs touching the first or last
    frame (no bracketing sample on one side), are left missing.  Present
    frames are passed through untouched, so the output's missing frames are
    a subset of the input's.  A marker with samples to fill gets a new
    position array; every other marker shares its array with ``traj``.
    """
    if max_gap_frames < 0:
        raise InputError("max_gap_frames must be non-negative")

    n = traj.n_frames
    new_pos = {}
    for name, pos in traj.markers.items():
        mask = traj.missing[name]
        starts, ends = _runs(mask)
        run = np.repeat(np.arange(starts.size), ends - starts)  # of each missing frame
        fill = ((starts > 0) & (ends < n) & (ends - starts <= max_gap_frames))[run]
        if fill.any():
            j, run = np.flatnonzero(mask)[fill], run[fill]
            lo, hi = starts[run] - 1, ends[run]
            t = ((j - lo) / (hi - lo))[:, None]
            pos = pos.copy()
            pos[j] = pos[lo] + (pos[hi] - pos[lo]) * t
        new_pos[name] = pos
    return MarkerTrajectorySet(sample_rate_hz=traj.sample_rate_hz, markers=new_pos)


def _marker_positions(traj: MarkerTrajectorySet, name: str, who) -> np.ndarray:
    """The (n_frames, 3) positions of marker ``name``, refused unless the
    trial has it and it is tracked on every frame; ``who`` (the segment or
    the file that needs it) opens the message."""
    if name not in traj.markers:
        raise InputError(f"{who}: marker {name!r} not present in trial")
    missing = traj.missing[name]
    if missing.any():
        raise InputError(
            f"{who}: marker {name!r} missing at frame {int(np.argmax(missing))} "
            f"({int(np.count_nonzero(missing))} frame(s) still occluded after gap filling)"
        )
    return traj.markers[name]
