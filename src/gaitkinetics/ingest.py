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
be UTF-8 text.  A parser opens the file once and counts its data lines
through that handle; ``_read_data`` allocates the one result array from
the count, then reads the data as bytes about ``_BYTES_PER_BLOCK`` at a
time, copying each block's values into place.  That array is the
record's: a marker set's positions, or a plate set's values, whose forces
and centres of pressure are views of it.
So a parse holds its result plus one block of text and its values, never a
second copy of the data.

Each block first loses the carriage returns that end its lines and the
blank lines that end it, so both of its paths see rows that end in ``\n``
alone.  A block whose rows are each exactly the
header's count of JSON numbers between tabs is read from its bytes by
``orjson``'s compiled reader, which rounds correctly: a quarter at a
time, never decoded or split into lines, with a marker block's blank
triplets read as ``0``.  The block itself is never written.  Any other
block (a blank time, a partially blank or spaces-only triplet, ``+1``,
``.5``, ``nan``, spaces around a number, the integer ``-0``, a fault) is
decoded and split into rows, which are checked one by one and read by
``np.loadtxt``, which rounds correctly too and words every error.  On the
17-digit ``repr`` floats the writers emit, one core of a 2-core x86-64 box
took about 150 ns a value on the 121-field marker rows, 130 ns on the
11-field plate rows and 165 ns on the mm marker rows of occluded trials,
the fill of their blank triplets included.

Every writer emits shortest round-trip float text spelt as ``repr``
spells it, so a write/parse cycle reproduces the numeric payload bit for
bit.  ``_write_csv`` formats a block of rows at a time: each run of
adjacent float columns becomes one (rows, c) array, which one ``orjson``
call writes with its Ryu formatter, the same digits as ``repr``; the text
is split into rows at ``],[`` and joined with the block's string and
integer columns.  ``_float_rows`` respells, in the block's text, the few
tokens that ``orjson`` spells otherwise: an exponent
gets a sign and at least two digits (``1e16`` -> ``1e+16``, ``1.5e-7`` ->
``1.5e-07``), a value in [1e-5, 1e-4), which ``orjson`` writes
positionally, gets an exponent (``0.000025`` -> ``2.5e-05``), and a value
that is not finite, which ``orjson`` writes ``null``, becomes an empty
field (NaN), ``inf`` or ``-inf``.  On the same box, with the output
discarded, ``grf.csv`` took about 100-130 ns a value of a 10 s trial's
forces and times, against 160-170 ns a column at a time and 350-670 ns
with ``repr``; ``orjson`` alone takes about 55-95 ns of it.
"""

import codecs
import functools
import os
import re
import stat
from dataclasses import dataclass, field

import numpy as np
import orjson

from .errors import InputError, _check_sample_rate

__all__ = [
    "NOISE_FLOOR_N",
    "DEFAULT_MAX_GAP_FRAMES",
    "MarkerTrajectorySet",
    "ForcePlateSeries",
    "parse_marker_file",
    "write_marker_file",
    "parse_force_file",
    "write_force_file",
    "fill_gaps",
]

# vertical plate force below -NOISE_FLOOR_N newtons is flagged as
# implausible but kept
NOISE_FLOOR_N = 5.0
# the longest interior occlusion run that fill_gaps interpolates across
DEFAULT_MAX_GAP_FRAMES = 10

_UNITS = ("m", "mm")

# A time stamp may miss 1/RATE after the previous one by this many sample
# periods; a dropped or repeated row misses it by a whole period.
_TIME_STEP_TOLERANCE = 0.25

# _write_csv formats this many values at a time
_VALUES_PER_BLOCK = 1 << 12

# the parsers read data lines this many bytes at a time, then to the end of the line
_BYTES_PER_BLOCK = 1 << 18

# _slices cuts a block into about this many slices of whole rows, 64 KiB each, which
# _read_numbers reads one at a time; each slice's temporaries are several times its size
_SLICES_PER_BLOCK = 4
# how _read_numbers makes a slice one JSON array: the tabs and newlines become
# its commas, the bytes of numbers stay, and every other byte becomes a "?",
# which JSON refuses
_TO_JSON = bytes(
    c if c in b"0123456789.eE+-" else ord(",") if c in b"\t\n" else ord("?") for c in range(256)
)
# in a block, a -0 that JSON reads as the integer 0
_INTEGER_MINUS_ZERO = re.compile(rb"-0[\t\n]")
# in orjson's text of floats, the exponents and the values in [1e-5, 1e-4),
# which _float_rows respells as repr does
_EXPONENT = re.compile(rb"e(-?)(\d+)")
_BELOW_1E_4 = re.compile(rb"0\.0000(\d)(\d*)")


@dataclass
class MarkerTrajectorySet:
    """Uniformly sampled marker positions in metres.

    names: the marker names, in file order.
    positions: (n_markers, n_frames, 3) float array, one row per name.  A
        frame's triplet is all finite, or all NaN where the marker was
        occluded.
    occluded: (n_markers, n_frames) bool, True on the NaN triplets; derived
        from the positions in one pass, never passed in.
    markers, missing: name -> that marker's rows of ``positions`` and
        ``occluded``, views in file order.
    """

    sample_rate_hz: float
    names: list[str]
    positions: np.ndarray
    occluded: np.ndarray = field(init=False)
    markers: dict[str, np.ndarray] = field(init=False)
    missing: dict[str, np.ndarray] = field(init=False)

    def __post_init__(self):
        _check_sample_rate(self.sample_rate_hz)
        names = self.names = list(self.names)
        pos = self.positions = np.asarray(self.positions, dtype=float)
        if pos.ndim != 3 or pos.shape[2] != 3:
            raise InputError("positions must be (n_markers, n_frames, 3)")
        if not names:
            raise InputError("marker set is empty")
        if len(names) != len(pos):
            raise InputError(f"{len(names)} marker name(s) but positions of {len(pos)} marker(s)")
        if "" in names:
            raise InputError(f"marker name {names.index('') + 1} is empty")
        if len(set(names)) != len(names):
            twice = next(name for name in names if names.count(name) > 1)
            raise InputError(f"duplicate marker name {twice!r}")
        if pos.shape[1] == 0:
            raise InputError("marker trial has zero frames")
        # a NaN or inf carries into the sum, so a finite one screens the whole
        # array in one pass with no temporary; an overflow takes the full check
        with np.errstate(over="ignore", invalid="ignore"):
            tracked = np.isfinite(pos.sum())
        if tracked:
            occluded = np.zeros(pos.shape[:2], dtype=bool)
        else:
            occluded = np.isnan(pos[..., 0])
            # one marker at a time, so that no temporary is the size of the array
            for name, marker, missing in zip(names, pos, occluded):
                ok = np.isfinite(marker)
                ok[missing] = np.isnan(marker[missing])  # an occluded triplet is all NaN
                if not ok.all():  # the first faulty marker in file order, at its first faulty frame
                    raise InputError(
                        f"marker {name!r}: non-finite position at frame {int(np.argmin(ok)) // 3}; "
                        "an occluded frame is an all-NaN triplet"
                    )
        self.occluded = occluded
        self.markers = dict(zip(names, pos))
        self.missing = dict(zip(names, occluded))

    @property
    def n_frames(self) -> int:
        return self.positions.shape[1]

    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) / self.sample_rate_hz


@dataclass
class ForcePlateSeries:
    """Uniformly sampled per-plate forces (N) and centres of pressure (m).

    values: (n_plates, n_frames, 5), each frame's Fx, Fy, Fz and COPx,
    COPy; ``forces`` and ``cop`` are views of its first three and last two
    columns.  below_noise flags frames whose vertical force is below
    ``-NOISE_FLOOR_N`` newtons; they are kept, not rejected.
    """

    sample_rate_hz: float
    values: np.ndarray
    below_noise: np.ndarray = field(init=False)

    def __post_init__(self):
        _check_sample_rate(self.sample_rate_hz)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[2] != 5:
            raise InputError("values must be (n_plates, n_frames, 5)")
        if self.values.shape[1] == 0:
            raise InputError("force trial has zero frames")
        with np.errstate(over="ignore", invalid="ignore"):  # the marker set's screen
            if not (np.isfinite(self.values.sum()) or np.isfinite(self.values).all()):
                raise InputError("force data contains non-finite values")
        self.below_noise = self.forces[:, :, 2] < -NOISE_FLOOR_N

    @property
    def forces(self) -> np.ndarray:
        """(n_plates, n_frames, 3)"""
        return self.values[..., :3]

    @property
    def cop(self) -> np.ndarray:
        """(n_plates, n_frames, 2)"""
        return self.values[..., 3:]

    @property
    def n_plates(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]

    def total_force(self) -> np.ndarray:
        """Sum over plates, shape (n_frames, 3)."""
        return self.forces.sum(axis=0)

    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) / self.sample_rate_hz


def _count_lines(fh, size: int) -> int:
    """Number of lines of ``fh`` from where it stands, less the blank one
    after a final ``\\n``: its newlines, plus one if it does not end in one.
    Read ``size`` bytes at a time into one buffer, in which numpy marks and
    counts the newlines in place."""
    n, last = 0, ord("\n")
    buffer = bytearray(size)
    codes = np.frombuffer(buffer, np.uint8)
    while size := fh.readinto(buffer):
        last = buffer[size - 1]
        newline = codes[:size].view(bool)  # the bytes, overwritten in place
        n += int(np.count_nonzero(np.equal(codes[:size], ord("\n"), out=newline)))
    return n + (last != ord("\n"))


def _read_text(path, what: str) -> str:
    """The whole of a small UTF-8 text file, less a byte-order mark that
    starts it; ``what`` names the kind of file in the error of a file that
    cannot be read or decoded."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {what} {path}: not UTF-8 text ({exc.reason})") from None


def _read_block(fh, size: int, decode) -> bytearray:
    """The next ``size`` bytes of ``fh`` and the rest of the line they end
    in; empty at the end of the file.  A block that is not ASCII is fed to
    ``decode``, which raises at the first byte that is not UTF-8."""
    block = bytearray(size)
    del block[fh.readinto(block) :]
    block += fh.readline()  # resized in place, not copied
    if not block.isascii():
        decode(block)
    return block


def _text_blocks(path, n_header: int):
    """Yield the first ``n_header`` lines of ``path`` as one list of
    strings (fewer if the file ends first) with the number of lines after
    them, then those lines' bytes in blocks of whole lines of at least
    ``_BYTES_PER_BLOCK`` bytes (less at the end).

    The file is opened once: it must be a regular file, not a pipe, since
    its lines are counted through the same handle before it is read again
    from the end of the header.  Each block ends in ``\\n``, except perhaps
    the file's last.  Header lines are split at ``\\n`` only and lose any
    trailing ``\\r``, and the first loses a byte-order mark that starts the
    file.  Every byte is checked to be UTF-8 as it is read; a character cut
    short by the end of the file is reported after the last block, so that
    the faults of the lines before it come first.  Once yielded, a block is
    held only by the caller.
    """
    decode = codecs.getincrementaldecoder("utf-8")().decode
    try:
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            if not stat.S_ISREG(info.st_mode):
                raise InputError(f"cannot read {path}: not a regular file")
            header = [fh.readline().removeprefix(codecs.BOM_UTF8)]
            while len(header) < n_header and header[-1].endswith(b"\n"):
                header.append(fh.readline())
            lines = [decode(line).rstrip("\n").rstrip("\r") for line in header]
            # a block allocates its whole size, so none is larger than the file
            size, data = min(_BYTES_PER_BLOCK, info.st_size + 1), fh.tell()
            yield lines, _count_lines(fh, size)
            fh.seek(data)
            yield from iter(functools.partial(_read_block, fh, size, decode), b"")
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


def _read_numbers(data, n_fields: int, triplets: bool = False) -> np.ndarray | None:
    """The rows of ``data``, bytes of text, as a (rows, n_fields) array when
    each row is ``n_fields`` JSON numbers apart by tabs and ends in ``\\n``;
    None otherwise.  ``data`` is only read.

    The first row's width is checked before anything is sized from
    ``n_fields``, which a header may claim to be huge.  Then each slice of
    ``_slices`` is read in one step.  One numpy scan finds its bytes up to
    ``\\r``, which must be exactly the tabs and newlines of such rows: a
    carriage return or any other control byte and any ragged, blank or
    unended row gives None.  The same positions give the empty fields, each
    a field that starts where it ends.  With ``triplets`` (a marker block),
    empty fields that are whole blank triplets are filled by
    ``_fill_blank_triplets``; any other empty field gives None.  JSON reads
    the integer ``-0`` without its sign, so a slice with one gives None too;
    it is searched for only when some value may be an integer: a value that
    JSON reads has at most one ``.``, so a slice with as many ``.`` bytes as
    values, less the zeros of the fill, has none.  Then one ``translate``
    makes the tabs and newlines the commas of one flat JSON array and every
    other byte that is not part of a number one that JSON refuses, and
    ``orjson``, which rounds correctly, reads it or refuses it, which gives
    None: a space, ``true``, ``"1"``, ``[1]``, ``+1``, ``1.``, ``.5``,
    ``01``, ``nan``, a value past the float range.
    """
    end = data.find(b"\n")
    if not data.endswith(b"\n") or data.count(b"\t", 0, end) != n_fields - 1:
        return None
    row = b"\t" * (n_fields - 1) + b"\n"
    codes = np.frombuffer(data, np.uint8)
    values = []  # an array a slice
    for a, b in _slices(data):  # a slice at a time, so the temporaries stay small
        part = codes[a:b]
        ends = np.flatnonzero(part <= 13)  # each field's tab or newline, and any other control byte
        n = len(ends)
        if part[ends].tobytes() != row * (n // n_fields):
            return None
        # an empty field's separator follows another or starts the slice, where
        # index -1 reads the slice's last byte, a \n
        ends -= 1
        empty = np.flatnonzero(part[ends] <= 13)
        first = empty[::3]  # the empty fields go in threes, each the x, y and z of one marker
        if empty.size and not (
            triplets and empty.size % 3 == 0 and (first % n_fields % 3 == 1).all()
            and (empty[1::3] == first + 1).all() and (empty[2::3] == first + 2).all()
        ):  # a time (column 0) or a partial triplet breaks the threes
            return None
        n_dots = int(np.count_nonzero(part == ord(".")))
        if n_dots < n - 3 * len(first) and _INTEGER_MINUS_ZERO.search(data, a, b):
            return None
        text = data[a : b - 1].translate(_TO_JSON)
        if empty.size:
            text = _fill_blank_triplets(text, (ends[first] + 1).tolist())
        try:
            numbers = orjson.loads(b"[%b]" % text)
        except orjson.JSONDecodeError:
            return None
        values.append(np.fromiter(numbers, float, n))
    return np.concatenate(values).reshape(-1, n_fields)


def _slices(data):
    """The (start, end) of each slice of whole rows of ``data``, which ends
    in ``\\n``: about a quarter of its bytes each."""
    size = -(-len(data) // _SLICES_PER_BLOCK)
    a = 0
    while a < len(data):
        b = data.find(b"\n", a + size - 1) + 1 or len(data)  # after a row's \n
        yield a, b
        a = b


def _fill_blank_triplets(text, at: list[int]) -> bytes:
    """``text``, a slice's JSON text, with ``0,0,0`` in place of the empty
    x, y and z of each blank triplet whose x ends at the comma at ``at``,
    in order."""
    return b"0,0,0".join(text[i + 2 : j] for i, j in zip([-2, *at], [*at, len(text)]))


def _is_number(text: str) -> bool:
    """True when ``_loadtxt`` reads ``text`` as a row of one or more numbers;
    never for text with a ``\\r``, which ``np.loadtxt`` reads as a line end."""
    if not text.strip() or "\r" in text:
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
    path, rows: list[str], start: int, n_groups: int, width: int, names: list[str] | None = None
) -> np.ndarray:
    """Parse data rows that ``_read_numbers`` did not read as a block, the
    first of which is data row ``start + 1``, into an (n_rows, 1 + n_groups *
    width) float array, a time and then ``width`` values per marker or
    plate.  With ``names`` (marker files), blank triplets read as ``0``.

    The rows are read by ``np.loadtxt``, which reads the spellings that JSON
    does not (``+1``, ``.5``, ``nan``, a padded number, the integer ``-0``).
    Faults are named: a row with the wrong number of fields first, a
    partially blank triplet next, a field that is not a number next, and a
    value after the time that is not finite last.  Only this path can read
    one: JSON refuses ``NaN``, ``Infinity`` and a number past the float
    range.
    """
    n_fields = 1 + n_groups * width
    for r, row in enumerate(rows):
        n_cols = row.count("\t") + 1
        if n_cols != n_fields:
            raise InputError(
                f"{path}: data row {start + r + 1} has {n_cols} columns, expected {n_fields}"
            )
    if names is not None:
        _zero_blank_triplets(path, rows, start, names)
    try:
        values = _loadtxt(rows)
    except ValueError:
        r = next(r for r, row in enumerate(rows) if not _is_number(row))
        c = next(c for c, f in enumerate(rows[r].split("\t")) if not _is_number(f))
        raise InputError(
            f"{path}: data row {start + r + 1}, {_column_name(c, width, names)}: non-numeric value"
        ) from None
    finite = np.isfinite(values[:, 1:])
    if not finite.all():
        r, c = divmod(int(np.argmin(finite)), finite.shape[1])
        column = _column_name(c + 1, width, names)
        raise InputError(f"{path}: data row {start + r + 1}, {column}: non-finite value")
    return values


def _zero_blank_triplets(path, rows: list[str], start: int, names: list[str]) -> None:
    """Rewrite blank coordinate triplets in place as ``0``, the other occlusion
    mark.

    ``rows`` begin at data row ``start + 1`` and hold one field per
    coordinate.  A field is blank when it is empty or holds only spaces;
    only rows that can hold one are split, one at a time.  A triplet with
    one or two blank fields is rejected.
    """
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


def _read_data(path, blocks, first: int, n_groups: int, width: int, rate: float,
               capacity: int, names: list[str] | None = None) -> np.ndarray:
    """Parse the data ``blocks`` of ``_text_blocks``, which begin at line
    ``first + 1`` of the file, into a (n_groups, n_rows, width) array: the
    values after the time, one group of ``width`` per marker or plate.
    Each block first loses every run of ``\\r`` that ends a line and the
    blank lines that end it.  ``_read_numbers`` then reads it from its
    bytes, a marker block with blank triplets too, and a block it does not
    read is decoded and split into rows for ``_parse_rows``; each block
    takes its own path.

    The array is sized for ``capacity`` rows only once the first block's
    rows matched the header's column count, so nothing is sized from the
    header before then; each block is copied into place, and a view of the
    rows read is returned.  A file with more than ``capacity`` data rows
    changed since its lines were counted, and is rejected.  ``names``
    (marker files only) names each marker; with it, a blank or all-zero
    triplet marks an occlusion and is read as a NaN triplet.  A value that
    is not finite is rejected by ``_parse_rows`` with its row and marker or
    plate.

    Blank lines may only end the file: one between data rows would shift
    every later frame, so it is rejected, also when the row after it comes
    in a later block.  The first time stamp is free, and each later one
    must follow the one before by 1/rate within ``_TIME_STEP_TOLERANCE``
    sample periods, which a dropped or repeated row breaks; this is
    reported after the last block, so that any other fault is reported
    first.
    """
    n_fields = 1 + n_groups * width
    start = 0  # data rows before the block, and in the result
    blank = None  # line number of the first of the blank lines that end the text so far
    bad_step = None  # (data row, time, time before) of the first bad step
    previous = np.empty(0)  # the last time of the block before
    out = None  # the result, once sized
    for data in blocks:
        if b"\r" in data:  # one byte, which is found fast
            # as bytes, whose rstrip copies only a line it shortens: at about
            # 1-2.5 ms a MiB, faster than even replace(b"\r\n", b"\n")
            data = b"\n".join([line.rstrip(b"\r") for line in bytes(data).split(b"\n")])
        ends_blank = data.endswith(b"\n\n") or data == b"\n"
        if ends_blank:  # cut off the blank lines, but not the last row's \n
            rows_end = len(data.rstrip(b"\n"))
            data = data[: rows_end + (rows_end > 0)]
        values = _read_numbers(data, n_fields, names is not None)
        if values is None:
            # a character cut short by the end of the file is left out here;
            # _text_blocks reports it after the last block
            rows = codecs.utf_8_decode(data)[0].split("\n")
            if rows[-1] == "":  # a final \n ends a row, starts none
                rows.pop()
            if blank is None and "" in rows:
                blank = first + start + rows.index("") + 1
            n_rows = len(rows)
        else:
            n_rows = len(values)
        del data  # not held through the next read
        if n_rows and blank is not None:
            raise InputError(f"{path}: line {blank} is blank; blank lines may only end the file")
        if blank is None and ends_blank:
            blank = first + start + n_rows + 1
        if n_rows:
            if start + n_rows > capacity:
                raise InputError(
                    f"{path}: more than the {capacity} data rows counted before "
                    "parsing; the file changed while it was read"
                )
            if values is None:
                values = _parse_rows(path, rows, start, n_groups, width, names)
                del rows
            times = np.concatenate([previous, values[:, 0]])
            bad = np.flatnonzero(~(np.abs(np.diff(times) * rate - 1.0) <= _TIME_STEP_TOLERANCE))
            if bad_step is None and bad.size:
                r = int(bad[0]) + 1
                bad_step = (start + r - previous.size, times[r], times[r - 1])
            previous = times[-1:]
            if out is None:  # the first rows matched the header
                out = np.empty((n_groups, capacity, width))
            block = out[:, start : start + n_rows]
            block[...] = values[:, 1:].reshape(n_rows, n_groups, width).transpose(1, 0, 2)
            del values  # not held through the next read
            if names is not None:
                # an all-zero triplet (a blank one was zeroed) marks an occlusion;
                # compared element by element: numpy reduces a length-3 axis slowly
                zero = (block[..., 0] == 0.0) & (block[..., 1] == 0.0) & (block[..., 2] == 0.0)
                block[zero] = np.nan
        start += n_rows
    if start == 0:
        raise InputError(f"{path}: zero data frames")
    if bad_step is not None:
        r, t, before = bad_step
        raise InputError(
            f"{path}: data row {r + 1}: time {float(t)!r} s follows "
            f"{float(before)!r} s, but rows must step by 1/RATE = {1.0 / rate!r} s "
            "(dropped or repeated row?)"
        )
    return out[:, :start]  # a view, when trailing blank lines were counted


def parse_marker_file(path) -> MarkerTrajectorySet:
    """Parse a marker TSV file into a MarkerTrajectorySet (metres)."""
    blocks = _text_blocks(path, 3)
    lines, capacity = next(blocks)
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
    if "" in names:  # a trailing tab, say, would shift every column after it
        raise InputError(f"{path}: header line 3: marker name {names.index('') + 1} is empty")
    if len(set(names)) != len(names):
        raise InputError(f"{path}: duplicate marker names in header")

    pos = _read_data(path, blocks, 3, len(names), 3, rate, capacity, names)
    if unit == "mm":
        pos /= 1000.0  # correctly rounded, value by value
    return MarkerTrajectorySet(sample_rate_hz=rate, names=names, positions=pos)


def _repr_exponent(match) -> bytes:
    """``repr``'s spelling of an exponent: ``e16`` -> ``e+16``, ``e-7`` -> ``e-07``."""
    return b"e%b%02d" % (match[1] or b"+", int(match[2]))


def _repr_below_1e_4(match) -> bytes:
    """``repr``'s spelling of a value in [1e-5, 1e-4) that ``orjson`` writes
    positionally: ``0.000025`` -> ``2.5e-05``; not inside ``10.00001``."""
    if match.string[match.start() - 1] not in b"[,-":
        return match[0]
    return match[1] + (b"." + match[2] if match[2] else b"") + b"e-05"


def _spell_non_finite(text: bytes, block: np.ndarray) -> bytes:
    """``orjson``'s ``text`` of ``block`` with each ``null``, the spelling of
    every value that is not finite, spelt as the value at its place: NaN as
    nothing, and ``inf`` or ``-inf``."""
    odd = block[~np.isfinite(block)]  # in the order orjson writes them
    spelt = np.where(np.isnan(odd), b"", np.where(odd > 0, b"inf", b"-inf")).tolist()
    pieces = text.split(b"null")
    return b"".join([b for pair in zip(pieces, spelt) for b in pair] + pieces[-1:])


def _float_rows(block: np.ndarray, sep: str) -> list[str]:
    """The rows of a C-contiguous (rows, c) float array as text, their
    values ``sep`` apart: the shortest round-trip text of each value, spelt
    as ``repr`` spells it, with NaN as an empty field.

    One ``orjson`` call writes the whole block, with the same shortest
    digits as ``repr``, many times faster; it spells them otherwise only in
    an exponent (``1e16``, ``1.5e-7``), a value in [1e-5, 1e-4)
    (``0.000025``) and a value that is not finite (``null``), which are
    respelt in the block's text, each kind in one pass and only when the
    block holds one.  The exponent's one byte ``e`` is found in the text
    fast; the other two kinds numpy finds in the block several times faster
    than a search of the text for ``0.0000`` or ``null``."""
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"e" in text:
        text = _EXPONENT.sub(_repr_exponent, text)
    size = np.abs(block)
    if ((size >= 1e-5) & (size < 1e-4)).any():
        text = _BELOW_1E_4.sub(_repr_below_1e_4, text)
    if not np.isfinite(size).all():
        text = _spell_non_finite(text, block)
    if sep != ",":
        text = text.replace(b",", sep.encode())
    return text[2:-2].decode().split(f"]{sep}[")  # [[row],[row]] -> rows


def _write_csv(path, header: list[str], columns, sep: str = ",") -> None:
    """Write the ``header`` lines, then one ``sep``-joined row per sample of ``columns``.

    A float array column is written as ``repr`` text, so parsing the file
    restores it bit for bit; an integer array column as its digits; any
    other column, of strings, as it is.  Rows are formatted a block at a
    time, which bounds the text held in memory: each run of adjacent float
    columns as one array by ``_float_rows``, and the block's rows are then
    joined with the other columns.
    """
    runs = []  # (float?, columns): each run of adjacent float columns, every other column alone
    for column in columns:
        is_float = isinstance(column, np.ndarray) and column.dtype.kind == "f"
        if is_float and runs and runs[-1][0]:
            runs[-1][1].append(column)
        else:
            runs.append((is_float, [column]))
    n = len(columns[0])
    step = max(1, _VALUES_PER_BLOCK // len(columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in header))
        for a in range(0, n, step):
            fields = [
                _float_rows(np.stack([c[a : a + step] for c in run], axis=1, dtype=float), sep)
                if is_float else _strings(run[0][a : a + step])
                for is_float, run in runs
            ]
            fh.write("\n".join(map(sep.join, zip(*fields))) + "\n")


def _strings(values) -> list[str]:
    """A column that is not float as text: an integer array's values as
    their digits, strings as they are."""
    if not isinstance(values, np.ndarray):
        return values
    return list(map(str, values.tolist())) if values.dtype.kind in "iu" else values.tolist()


def write_marker_file(path, traj: MarkerTrajectorySet) -> None:
    """Write a MarkerTrajectorySet as a TSV file in metres.

    Occluded (NaN) frames become blank triplets, so parse(write(x))
    restores the positions exactly.
    """
    columns = [traj.times(), *(column for pos in traj.positions for column in pos.T)]
    header = [f"RATE\t{traj.sample_rate_hz!r}", "UNITS\tm", "MARKERS\t" + "\t".join(traj.names)]
    _write_csv(path, header, columns, sep="\t")


def parse_force_file(path) -> ForcePlateSeries:
    """Parse a force-plate TSV file (newtons / metres)."""
    blocks = _text_blocks(path, 2)
    lines, capacity = next(blocks)
    rate = _parse_rate(lines, path)
    raw_plates = _header_value(lines, 1, "PLATES", path)
    try:
        n_plates = int(raw_plates)
    except ValueError as exc:
        raise InputError(f"{path}: PLATES value {raw_plates!r} is not an integer") from exc
    if n_plates < 1:
        raise InputError(f"{path}: PLATES must be >= 1, got {n_plates}")
    values = _read_data(path, blocks, 2, n_plates, 5, rate, capacity)
    return ForcePlateSeries(sample_rate_hz=rate, values=values)


def write_force_file(path, series: ForcePlateSeries) -> None:
    """Write a ForcePlateSeries as a TSV file (bit-exact round trip)."""
    columns = [series.times(), *(column for plate in series.values for column in plate.T)]
    header = [f"RATE\t{series.sample_rate_hz!r}", f"PLATES\t{series.n_plates}"]
    _write_csv(path, header, columns, sep="\t")


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The start, the end (one past the last index) and the value of each run
    of equal values in a non-empty 1-D array, in order."""
    starts = np.concatenate(([0], np.flatnonzero(values[1:] != values[:-1]) + 1))
    return starts, np.append(starts[1:], values.size), values[starts]


def fill_gaps(
    traj: MarkerTrajectorySet, max_gap_frames: int = DEFAULT_MAX_GAP_FRAMES
) -> MarkerTrajectorySet:
    """Linearly interpolate interior occlusion runs of <= max_gap_frames.

    Runs longer than the threshold, and runs touching the first or last
    frame (no bracketing sample on one side), are left missing.  Present
    frames are passed through untouched, so the output's missing frames are
    a subset of the input's.  With samples to fill, the positions are copied
    once, as a whole; with none, ``traj`` itself is returned.
    """
    samples, values = _interpolated_gaps(traj, max_gap_frames)
    if not len(values):
        return traj
    positions = traj.positions.copy()
    positions[samples] = values
    return MarkerTrajectorySet(traj.sample_rate_hz, traj.names, positions)


def _interpolated_gaps(traj: MarkerTrajectorySet, max_gap_frames: int):
    """The samples that ``fill_gaps`` fills, a (marker, frame) pair of index arrays
    that also writes through a view whose ``reshape`` is a copy, and their
    interpolated (samples, 3) positions."""
    if max_gap_frames < 0:
        raise InputError("max_gap_frames must be non-negative")
    n = traj.n_frames
    missing = traj.occluded.ravel()  # every marker's mask, end to end
    starts, ends, gap = _runs(missing)
    starts, ends = starts[gap], ends[gap]
    run = np.repeat(np.arange(starts.size), ends - starts)  # of each missing sample
    # bracketed on both sides: within one marker's mask, off its first and last frames
    inner = (starts // n == (ends - 1) // n) & (starts % n > 0) & (ends % n > 0)
    fill = (inner & (ends - starts <= max_gap_frames))[run]
    j, run = np.flatnonzero(missing)[fill], run[fill]
    lo, hi = starts[run] - 1, ends[run]
    t = ((j - lo) / (hi - lo))[:, None]
    m, frame = np.divmod(j, n)
    lo, hi, pos = lo - m * n, hi - m * n, traj.positions
    return (m, frame), pos[m, lo] + (pos[m, hi] - pos[m, lo]) * t


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
