"""Seeded property tests of the trial parsers, the options and the walker,
run through ``cli.main``.

A short demo trial's marker and force files are mutated the ways real files
go wrong: rows dropped, repeated or cut short, the file cut after its first
few rows, blank lines, blank or partly blank triplets, non-finite or
non-numeric fields, numbers in syntaxes that JSON reads otherwise or not at
all, tabs added or removed, CRLF line ends, bytes that are not UTF-8, and
edited header lines.  The unmutated trial is also run with option values
drawn across their whole range, and walkers are drawn with other rates,
lengths, speeds and masses, walking either way along x, with marker noise.
Every case must end in exit 0, 2 or 3 with no exception and no warning; a
failed run writes nothing, and an exit 2 names what is wrong.  An option or
walker run that exits 0 gives the same bytes when it is run again.  Apart
from ``cli.main``, the parsers are given files with numbers written in
other syntaxes for the same values, and must read the same bits.
"""

import contextlib
import io
import math
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gaitkinetics import cli
from gaitkinetics.ingest import (
    parse_force_file,
    parse_marker_file,
    write_force_file,
    write_marker_file,
)
from gaitkinetics.synth import WalkerParams, generate_walker, synth_force_plates

SUBJECT_ARGS = ["--subject-mass-kg", "80", "--subject-height-m", "1.78", "--subject-sex", "m"]

# fixed seeds and no example database, so every run tries the same cases
FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)

# a line index, a marker or field index, a character position: each is
# taken modulo the size of what it indexes when the mutation is applied
INDEX = st.integers(0, 1 << 20)
FIELD_TEXT = st.sampled_from(
    ["nan", "inf", "-inf", "1e999", "NaN", "", "  ", "abc", "0", "1e-320",
     # what JSON reads as other values or rows, or refuses
     "-0", "+1", "1.", ".5", "01", " 1.5", "1,2", "1],[2", "true", "null", '"1.5"', "1e400"]
)
# ways to write a number's value otherwise: a plus sign, a leading zero, a
# point with no zero before it, an exponent, a space before it
RESPELLINGS = st.sampled_from(["plus", "zero", "point", "exponent", "space"])
NOT_UTF8 = st.sampled_from([b"\xff", b"\xc3", b"\x80\xfe", b"\xed\xa0\x80"])

DATA_MUTATIONS = st.one_of(
    st.tuples(st.just("keep"), st.integers(0, 20)),  # only the first 0-20 data rows
    st.tuples(st.just("drop"), INDEX),
    st.tuples(st.just("repeat"), INDEX),
    st.tuples(st.just("truncate"), INDEX, INDEX),
    st.tuples(st.just("blank_line"), INDEX),
    st.tuples(st.just("field"), INDEX, INDEX, FIELD_TEXT),
    st.tuples(st.just("respell"), INDEX, INDEX, RESPELLINGS),
    st.tuples(st.just("add_tab"), INDEX, INDEX),
    st.tuples(st.just("remove_tab"), INDEX, INDEX),
    st.tuples(st.just("crlf")),
    st.tuples(st.just("bytes"), INDEX, INDEX, NOT_UTF8),
)
# the bits of the third number pick the fields of the triplet to overwrite:
# all three (an occlusion when blank or zero) or one or two of them
TRIPLETS = st.tuples(
    st.just("triplet"), INDEX, INDEX, st.sampled_from([7, 7, 7, 1, 2, 3, 4, 5, 6]),
    st.sampled_from(["", " ", "   ", "0"]),
)
RATES = st.sampled_from([
    "0", "-200", "abc", "inf", "nan", "1e999", "", "100", "200.0001", "2000",
    "1e300", "1e-300", "2000.0000000001", "1999.9999999999",
])
MARKER_HEADER = st.one_of(
    st.tuples(st.just("header"), st.just(0), RATES),
    st.tuples(st.just("header"), st.just(1), st.sampled_from(["mm", "cm", "", "M"])),
    st.tuples(st.just("names"), st.sampled_from(["drop", "duplicate", "rename", "add"]), INDEX),
)
PLATE_HEADER = st.one_of(
    st.tuples(st.just("header"), st.just(0), RATES),
    st.tuples(
        st.just("header"), st.just(1), st.sampled_from(["0", "1", "3", "x", "-1", "", "200000"])
    ),
)


_ROW_MUTATIONS = (
    "drop", "repeat", "truncate", "field", "respell", "triplet", "add_tab", "remove_tab"
)


class _DemoFiles(dict):
    """The lines of each file, by kind; shown short in a failure report."""

    def __repr__(self):
        return "<demo files>"


@pytest.fixture(scope="module")
def demo_files(tmp_path_factory):
    """The lines of a 2 s demo trial's marker and force files."""
    root = tmp_path_factory.mktemp("fuzz")
    params = WalkerParams(duration_s=2.0)
    write_marker_file(root / "markers.tsv", generate_walker(params).markers)
    write_force_file(root / "forces.tsv", synth_force_plates(params))
    return _DemoFiles(
        (kind, (root / f"{kind}.tsv").read_bytes().split(b"\n")[:-1])
        for kind in ("markers", "forces")
    )


def _mutate(lines: list[bytes], n_header: int, mutation) -> list[bytes]:
    """``lines`` with one mutation applied; data rows follow ``n_header``
    header lines, and a mutation's first index picks one of them."""
    lines = list(lines)
    kind, *args = mutation
    n_data = len(lines) - n_header
    if kind in _ROW_MUTATIONS and n_data == 0:  # an earlier "keep" left no row
        return lines
    row = n_header + args[0] % n_data if kind in _ROW_MUTATIONS else None
    if kind == "keep":
        del lines[n_header + args[0] :]
    elif kind == "drop":
        del lines[row]
    elif kind == "repeat":
        lines.insert(row, lines[row])
    elif kind == "truncate":
        lines[row] = lines[row][: args[1] % (len(lines[row]) + 1)]
    elif kind == "blank_line":
        lines.insert(n_header + args[0] % (n_data + 1), b"")
    elif kind in ("field", "respell", "triplet", "remove_tab"):
        fields = lines[row].split(b"\t")
        if kind == "field":
            fields[args[1] % len(fields)] = args[2].encode()
        elif kind == "respell":
            k = args[1] % len(fields)
            fields[k] = _respell(fields[k], args[2])
        elif kind == "triplet":
            first = 1 + 3 * (args[1] % ((len(fields) - 1) // 3))
            for k in range(3):
                if args[2] >> k & 1:
                    fields[first + k] = args[3].encode()
        elif len(fields) > 1:  # join a field to the next
            k = args[1] % (len(fields) - 1)
            fields[k : k + 2] = [fields[k] + fields[k + 1]]
        lines[row] = b"\t".join(fields)
    elif kind == "add_tab":
        cut = args[1] % (len(lines[row]) + 1)
        lines[row] = lines[row][:cut] + b"\t" + lines[row][cut:]
    elif kind == "crlf":
        lines = [line + b"\r" for line in lines]
    elif kind == "bytes":
        at = args[0] % len(lines)
        cut = args[1] % (len(lines[at]) + 1)
        lines[at] = lines[at][:cut] + args[2] + lines[at][cut:]
    elif kind == "header":
        tag = lines[args[0]].split(b"\t")[0]
        lines[args[0]] = tag + b"\t" + args[1].encode()
    elif kind == "names":
        names = lines[2].split(b"\t")[1:]
        k = args[1] % len(names)
        if args[0] == "drop":
            del names[k]
        elif args[0] == "duplicate":
            names.insert(k, names[k])
        elif args[0] == "rename":
            names[k] = b"X" + names[k]
        else:
            names.insert(k, b"EXTRA")
        lines[2] = b"\t".join([b"MARKERS", *names])
    return lines


def _respell(field: bytes, how: str) -> bytes:
    """``field`` written another way, ``how``, when that keeps its value."""
    sign, number = (field[:1], field[1:]) if field.startswith(b"-") else (b"", field)
    new = {
        "plus": b"+" + number if not sign else field,
        "zero": sign + b"0" + number,
        "point": sign + number[1:] if number.startswith(b"0.") else field,
        "exponent": field + b"E0" if b"e" not in number else field,
        "space": b" " + field,
    }[how]
    try:
        return new if repr(float(new)) == repr(float(field)) else field
    except ValueError:  # a field that is not a number
        return field


def _main(argv: list[str], out: Path) -> tuple[int, str]:
    """Run ``cli.main`` on ``argv``, which writes to ``out``, with every warning
    an error, and check what every run must: exit 0, 2 or 3 with no
    traceback, and a failed run writes nothing and prints one error line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = cli.main([*argv, "--output-dir", str(out)])
    err = stderr.getvalue()
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    if code != 0:
        assert not out.exists(), f"exit {code} wrote {sorted(out.iterdir())}"
        assert err.startswith("error: ") and err.count("\n") == 1, err
    return code, err


def _run_grf(markers: list[bytes], forces: list[bytes], bad: str):
    """Write the two files, run ``grf`` on them and check the outcome; ``bad``
    names the file that was mutated."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        paths = {"markers": root / "markers.tsv", "forces": root / "forces.tsv"}
        paths["markers"].write_bytes(b"\n".join(markers) + b"\n")
        paths["forces"].write_bytes(b"\n".join(forces) + b"\n")
        argv = ["grf", "--marker-file", str(paths["markers"]),
                "--force-file", str(paths["forces"]), *SUBJECT_ARGS]
        code, err = _main(argv, root / "out")
        if code == 2:
            assert _names_the_fault(err, paths[bad]), err
        return code, err


def _names_the_fault(err: str, path: Path) -> bool:
    """An exit 2 names the file it read the fault in.  The one exception is
    a marker that the parse accepted but the CoM model cannot use (one the
    header renamed, or an occlusion that gap filling left): that message
    names the segment and the marker.  The event detection's refusal of
    such a marker names the marker file."""
    return str(path) in err or " marker '" in err


@FUZZ
@given(mutations=st.lists(st.one_of(DATA_MUTATIONS, TRIPLETS, MARKER_HEADER), min_size=1,
                          max_size=3))
@example(mutations=[("triplet", 0, 0, 7, "")])  # SACR occluded at frame 0
@example(mutations=[("header", 0, "200.0001")])  # a marker rate the plates do not divide
@example(mutations=[("keep", 7)])  # too short to filter
@example(mutations=[("keep", 1)])  # a single row
def test_mutated_marker_files_exit_cleanly(demo_files, mutations):
    lines = demo_files["markers"]
    for mutation in mutations:
        lines = _mutate(lines, 3, mutation)
    _run_grf(lines, demo_files["forces"], "markers")


@FUZZ
@given(mutations=st.lists(st.one_of(DATA_MUTATIONS, PLATE_HEADER), min_size=1, max_size=3))
@example(mutations=[("field", 0, 3, "nan")])  # a plate's Fz
@example(mutations=[("keep", 6)])  # too short to filter
@example(mutations=[("keep", 1)])  # a single row
def test_mutated_force_files_exit_cleanly(demo_files, mutations):
    lines = demo_files["forces"]
    for mutation in mutations:
        lines = _mutate(lines, 2, mutation)
    _run_grf(demo_files["markers"], lines, "forces")


def _parsed_bytes(kind: str, lines: list[bytes]) -> bytes:
    """The bytes of the arrays that the parser of ``kind`` reads from ``lines``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trial.tsv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        if kind == "markers":
            return parse_marker_file(path).positions.tobytes()
        return parse_force_file(path).values.tobytes()


@FUZZ
@given(
    kind=st.sampled_from(["markers", "forces"]),
    respellings=st.lists(
        st.tuples(st.just("respell"), INDEX, INDEX, RESPELLINGS), min_size=1, max_size=20
    ),
)
def test_numbers_written_otherwise_parse_to_the_same_bits(demo_files, kind, respellings):
    lines = demo_files[kind]
    n_header = 3 if kind == "markers" else 2
    for respelling in respellings:
        lines = _mutate(lines, n_header, respelling)
    assert _parsed_bytes(kind, lines) == _parsed_bytes(kind, demo_files[kind])


# ---------------------------------------------------------------- options

# log-uniform over the whole positive float range, from the smallest
# subnormal 2**-1074 to just under the float maximum
HUGE_RANGE = st.floats(-1074.0, 1024.0, exclude_max=True).map(lambda e: 2.0**e)
# the demo trial is sampled at 200 Hz, so its Nyquist frequency is 100 Hz
NYQUIST_HZ = 100.0
OPTIONS = {
    "cutoff_hz": st.floats(-9.0, math.log10(NYQUIST_HZ), exclude_max=True).map(
        lambda e: min(10.0**e, math.nextafter(NYQUIST_HZ, 0.0))
    ),
    # 10 is past the highest order accepted, 8
    "filter_order": st.integers(1, 5).map(lambda k: 2 * k),
    "gravity_mps2": HUGE_RANGE,
    "min_event_period_s": HUGE_RANGE,
    "butterfly_scale_m_per_n": HUGE_RANGE,
    "subject_mass_kg": HUGE_RANGE,
    "max_gap_frames": st.integers(0, 10**9),
}
SOME_OPTIONS = st.lists(st.sampled_from(sorted(OPTIONS)), min_size=1, max_size=3, unique=True)


@pytest.fixture(scope="module")
def demo_paths(demo_files, tmp_path_factory):
    """The 2 s demo trial's marker and force files on disk."""
    root = tmp_path_factory.mktemp("options")
    paths = {}
    for kind, lines in demo_files.items():
        paths[kind] = root / f"{kind}.tsv"
        paths[kind].write_bytes(b"\n".join(lines) + b"\n")
    return paths


def _rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def _check_grf_outputs(out: Path) -> None:
    """On analysed frames, left + right is the total; at each analysed double
    stance, the limb that strikes at its first frame and the one that toes
    off at its last carry exactly 0.0 there."""
    rows = _rows(out / "grf.csv")
    forces = np.array([row[1:10] for row in rows], dtype=float).reshape(-1, 3, 3)
    total, limbs = forces[:, 0], {"left": forces[:, 1], "right": forces[:, 2]}
    analysed = np.ones(len(rows), dtype=bool)
    for record, start, end, _ in _rows(out / "grf_diagnostics.csv"):
        if record == "excluded":
            analysed[int(start) : int(end) + 1] = False
    resid = np.abs(limbs["left"] + limbs["right"] - total)[analysed]
    assert resid.size == 0 or resid.max() <= 1e-9 * np.abs(total).max()
    foot_at = {(kind, int(frame)): foot for foot, kind, frame, _ in _rows(out / "events.csv")}
    double = np.array([row[10] == "double_stance" for row in rows])
    edges = np.diff(double.astype(np.int8), prepend=0, append=0)
    for start, stop in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)):
        if analysed[start]:
            assert limbs[foot_at["heel_strike", start]][start].tolist() == [0.0] * 3
            assert limbs[foot_at["toe_off", stop - 1]][stop - 1].tolist() == [0.0] * 3


@FUZZ
@given(
    command=st.sampled_from(["com", "events", "grf", "validate"]),
    options=SOME_OPTIONS.flatmap(lambda names: st.fixed_dictionaries(
        {name: OPTIONS[name] for name in names}
    )),
)
@example(command="grf", options={"cutoff_hz": 1e-7})  # a pole rounds onto z = 1
@example(command="grf", options={"butterfly_scale_m_per_n": 1e308})  # tips overflow
# the limb split's forces pass half the float maximum; this small a scale
# leaves the plate comparison to refuse them
@example(command="grf", options={"subject_mass_kg": 8.2e306, "butterfly_scale_m_per_n": 1e-300})
# a mass alone that makes the default scale overflow the diagram's tips
@example(command="grf", options={"subject_mass_kg": 1e304})
# a force that overflows only with both, and the message must name both
@example(command="grf", options={"subject_mass_kg": 1e10, "gravity_mps2": 1e300})
# a mass that overflows the mass-weighted CoM mean
@example(command="grf", options={"subject_mass_kg": 1e308})
# a period whose frame count overflows, which the series length caps
@example(command="events", options={"min_event_period_s": sys.float_info.max})
# a mass that leaves every segment mass 0
@example(command="com", options={"subject_mass_kg": 5e-324})
def test_option_values_exit_cleanly(demo_paths, command, options):
    argv = [command, "--marker-file", str(demo_paths["markers"]),
            "--force-file", str(demo_paths["forces"]), *SUBJECT_ARGS]
    for name, value in options.items():
        argv += ["--" + name.replace("_", "-"), repr(value)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code, err = _main(argv, out)
        if code == 2:
            named = [*options, str(demo_paths["markers"]), str(demo_paths["forces"]), " marker '"]
            assert any(name in err for name in named), err
        if code == 0 and command == "grf":
            _check_grf_outputs(out)
        if code == 0:
            _check_rerun(argv, out)


def _check_rerun(argv: list[str], out: Path) -> None:
    """Running ``argv`` again, into a fresh directory, writes the same files
    with the same bytes as the run that wrote ``out``."""
    again = out.parent / "again"
    assert _main(argv, again) == (0, "")
    names = sorted(path.name for path in out.iterdir())
    assert names == sorted(path.name for path in again.iterdir())
    for name in names:
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


# ---------------------------------------------------------------- walkers

WALKERS = st.builds(
    WalkerParams,
    sample_rate_hz=st.floats(100.0, 1000.0),
    duration_s=st.floats(1.0, 4.0),
    speed_mps=st.floats(1.0, 1.5),  # the benchmark's speed and mass ranges
    mass_kg=st.floats(55.0, 100.0),
)


@settings(FUZZ, max_examples=25)
@given(
    params=WALKERS,
    backwards=st.booleans(),
    noise_m=st.sampled_from([0.0, 0.002]) | st.floats(0.0, 0.002),
    seed=st.integers(0, 2**32 - 1),
)
def test_walker_variants_exit_cleanly(params, backwards, noise_m, seed):
    """A walker along +x, or along -x (the trial turned 180 degrees about z),
    with Gaussian marker noise of up to 2 mm, through ``grf``."""
    trial = generate_walker(params).markers
    rng = np.random.default_rng(seed)
    turn = np.array([-1.0, -1.0, 1.0]) if backwards else np.ones(3)
    # one draw of the whole array: each marker's draws, one marker after another
    positions = (trial.positions + rng.normal(0.0, noise_m, trial.positions.shape)) * turn
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "markers.tsv", Path(tmp) / "out"
        write_marker_file(path, type(trial)(trial.sample_rate_hz, trial.names, positions))
        argv = ["grf", "--marker-file", str(path), "--subject-mass-kg", repr(params.mass_kg),
                "--subject-height-m", repr(params.height_m), "--subject-sex", "m"]
        code, err = _main(argv, out)
        if code == 0:
            _check_grf_outputs(out)
            _check_rerun(argv, out)
        else:
            assert _main(argv, out) == (code, err)
