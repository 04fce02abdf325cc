"""Marker/force file parsing, writing, and gap filling."""

import math
import os
import re
import struct
import tempfile
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import marker_set, per_marker_check, per_marker_fill_gaps
from gaitkinetics import ingest
from gaitkinetics.errors import InputError
from gaitkinetics.ingest import (
    ForcePlateSeries,
    MarkerTrajectorySet,
    fill_gaps,
    parse_force_file,
    parse_marker_file,
    write_force_file,
    write_marker_file,
)
from gaitkinetics.synth import WalkerParams, generate_walker, synth_force_plates


def _marker_text(rows, names=("M1",), rate="200.0", units="m"):
    head = [f"RATE\t{rate}", f"UNITS\t{units}", "MARKERS\t" + "\t".join(names)]
    return "\n".join(head + list(rows)) + "\n"


def _write(tmp_path, text, name="trial.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------- markers


def test_marker_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    awkward = np.array([0.1, 1.0 / 3.0, np.pi, -2.5e-7])
    n = 25
    markers = {
        "A": rng.normal(size=(n, 3)),
        "B": rng.normal(size=(n, 3)) * 1e-6,
    }
    markers["A"][:4, 0] = awkward
    markers["B"][[5, 6, 7, 20]] = np.nan
    traj = marker_set(123.5, markers)
    assert np.flatnonzero(traj.missing["B"]).tolist() == [5, 6, 7, 20]

    path = tmp_path / "round.tsv"
    write_marker_file(path, traj)
    back = parse_marker_file(path)

    assert back.sample_rate_hz == traj.sample_rate_hz
    assert back.names == traj.names
    for name in traj.markers:
        present = ~traj.missing[name]
        assert np.array_equal(back.missing[name], traj.missing[name])
        assert np.array_equal(back.markers[name][present], traj.markers[name][present])

    # a second write of the parsed set reproduces the file byte for byte
    path2 = tmp_path / "round2.tsv"
    write_marker_file(path2, back)
    assert path2.read_bytes() == path.read_bytes()


def test_marker_millimetres_are_scaled_to_metres(tmp_path):
    text = _marker_text(
        ["0.0\t100.0\t200.0\t300.0", "0.005\t100.0\t200.0\t300.0"], units="mm"
    )
    traj = parse_marker_file(_write(tmp_path, text))
    assert traj.sample_rate_hz == 200.0
    assert traj.n_frames == 2
    assert np.array_equal(traj.markers["M1"][0], [0.1, 0.2, 0.3])


def test_marker_blank_triplet_marks_occlusion(tmp_path):
    text = _marker_text(["0.0\t1.0\t2.0\t3.0", "0.005\t\t\t", "0.01\t1.0\t2.0\t3.0"])
    traj = parse_marker_file(_write(tmp_path, text))
    assert np.array_equal(traj.missing["M1"], [False, True, False])
    assert np.all(np.isnan(traj.markers["M1"][1]))


def test_marker_all_zero_triplet_marks_occlusion(tmp_path):
    text = _marker_text(["0.0\t1.0\t2.0\t3.0", "0.005\t0.0\t0.0\t0.0"])
    traj = parse_marker_file(_write(tmp_path, text))
    assert np.array_equal(traj.missing["M1"], [False, True])


def test_marker_partially_blank_triplet_is_rejected(tmp_path):
    text = _marker_text(["0.0\t1.0\t\t3.0"])
    with pytest.raises(InputError, match="partially blank"):
        parse_marker_file(_write(tmp_path, text))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda t: t.replace("RATE\t200.0", "RATE\tfast"), "RATE"),
        (lambda t: t.replace("RATE\t200.0", "RATE\t0.0"), "positive"),
        (lambda t: t.replace("UNITS\tm", "UNITS\tfurlong"), "unknown unit"),
        (lambda t: t.replace("MARKERS\tM1", "NAMES\tM1"), "MARKERS"),
        (lambda t: t.replace("MARKERS\tM1", "MARKERS\tM1\tM1"), "duplicate"),
        # a spreadsheet export may end the line with a tab, or hold an empty name
        (lambda t: t.replace("MARKERS\tM1", "MARKERS\tM1\t"), "line 3: marker name 2 is empty$"),
        (lambda t: t.replace("\tM1\n", "\t\tM1\r\n"), "line 3: marker name 1 is empty$"),
        (lambda t: t.replace("2.0\t3.0", "2.0\t3.0\t4.0"), "columns"),
        (lambda t: t.replace("1.0\t2.0", "one\t2.0"), "non-numeric"),
    ],
)
def test_marker_header_and_row_errors(tmp_path, mutate, message):
    good = _marker_text(["0.0\t1.0\t2.0\t3.0"])
    with pytest.raises(InputError, match=message):
        parse_marker_file(_write(tmp_path, mutate(good)))


def test_marker_file_with_zero_frames_is_rejected(tmp_path):
    with pytest.raises(InputError, match="zero data frames"):
        parse_marker_file(_write(tmp_path, _marker_text([])))


# ------------------------------------------------------------- gap filling


def _gapped(z_values, missing_frames, rate=100.0):
    n = len(z_values)
    pos = np.column_stack([np.full(n, 1.0), np.full(n, 2.0), np.asarray(z_values, float)])
    pos[list(missing_frames)] = np.nan
    return MarkerTrajectorySet(rate, ["M"], pos[np.newaxis])


def test_fill_gaps_interpolates_single_missing_frame():
    traj = _gapped([0.0, -1.0, 2.0], [1])
    filled = fill_gaps(traj, max_gap_frames=5)
    assert not filled.missing["M"].any()
    assert np.array_equal(filled.markers["M"][1], [1.0, 2.0, 1.0])
    # the input is left as it was
    assert traj.missing["M"][1] and np.isnan(traj.markers["M"][1]).all()


def test_fill_gaps_fills_runs_up_to_the_limit_only():
    z = np.arange(10, dtype=float)
    exactly_max = _gapped(z, [3, 4, 5], rate=100.0)
    filled = fill_gaps(exactly_max, max_gap_frames=3)
    assert not filled.missing["M"].any()
    assert np.allclose(filled.markers["M"][:, 2], z)

    too_long = _gapped(z, [3, 4, 5, 6], rate=100.0)
    kept = fill_gaps(too_long, max_gap_frames=3)
    assert np.array_equal(kept.missing["M"], too_long.missing["M"])


def test_fill_gaps_leaves_edge_runs_missing():
    traj = _gapped(np.arange(6, dtype=float), [0, 5])
    filled = fill_gaps(traj, max_gap_frames=5)
    assert np.array_equal(filled.missing["M"], traj.missing["M"])


def test_fill_gaps_passes_present_frames_through_bitwise():
    rng = np.random.default_rng(3)
    z = rng.normal(size=20)
    traj = _gapped(z, [8, 9])
    filled = fill_gaps(traj, max_gap_frames=4)
    present = ~traj.missing["M"]
    assert np.array_equal(filled.markers["M"][present], traj.markers["M"][present])
    # the output mask is a subset of the input mask
    assert not np.any(filled.missing["M"] & present)


def test_fill_gaps_matches_linear_interpolation_reference():
    rng = np.random.default_rng(11)
    n = 60
    walk = np.cumsum(rng.normal(size=(n, 3)), axis=0)
    drop = sorted(rng.choice(np.arange(1, n - 1), size=8, replace=False))
    mask = np.zeros(n, dtype=bool)
    mask[drop] = True
    pos = walk.copy()
    pos[mask] = np.nan
    traj = MarkerTrajectorySet(100.0, ["M"], pos[np.newaxis])
    filled = fill_gaps(traj, max_gap_frames=10)

    frames = np.arange(n, dtype=float)
    for axis in range(3):
        expect = np.interp(frames, frames[~mask], walk[~mask, axis])
        assert np.max(np.abs(filled.markers["M"][:, axis] - expect)) <= 1e-12


# ------------------------------------------------------------ force plates


def _force_text(rows, n_plates=1, rate="1000.0"):
    head = [f"RATE\t{rate}", f"PLATES\t{n_plates}"]
    return "\n".join(head + list(rows)) + "\n"


def test_force_file_row_parses_forces_and_cop(tmp_path):
    text = _force_text(["0.0005\t1.0\t2.0\t600.0\t0.1\t0.2"])
    plates = parse_force_file(_write(tmp_path, text, "force.tsv"))
    assert plates.sample_rate_hz == 1000.0
    assert plates.n_plates == 1
    assert np.array_equal(plates.forces[0, 0], [1.0, 2.0, 600.0])
    assert np.array_equal(plates.cop[0, 0], [0.1, 0.2])


def test_force_file_with_zero_frames_is_rejected(tmp_path):
    with pytest.raises(InputError, match="zero data frames"):
        parse_force_file(_write(tmp_path, _force_text([]), "force.tsv"))


def test_force_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.normal(size=(2, 30, 5))
    values[..., :3] *= 400.0
    series = ForcePlateSeries(sample_rate_hz=2000.0, values=values)
    path = tmp_path / "plates.tsv"
    write_force_file(path, series)
    back = parse_force_file(path)
    assert back.sample_rate_hz == series.sample_rate_hz
    assert np.array_equal(back.forces, series.forces)
    assert np.array_equal(back.cop, series.cop)

    path2 = tmp_path / "plates2.tsv"
    write_force_file(path2, back)
    assert path2.read_bytes() == path.read_bytes()


def test_force_total_sums_over_plates():
    values = np.zeros((2, 4, 5))
    values[0, :, 2] = 100.0
    values[1, :, 2] = 50.0
    values[0, :, 0] = 7.0
    values[:, :, 3:] = 0.5  # centres of pressure, which are not summed
    series = ForcePlateSeries(1000.0, values)
    total = series.total_force()
    assert total.shape == (4, 3)
    assert np.array_equal(total[0], [7.0, 0.0, 150.0])


def test_force_below_noise_flags_implausible_vertical():
    assert ingest.NOISE_FLOOR_N == 5.0
    values = np.zeros((1, 5, 5))
    values[0, :, 2] = [0.0, -4.0, -5.0, -6.0, 10.0]
    series = ForcePlateSeries(1000.0, values)
    assert np.array_equal(series.below_noise[0], [False, False, False, True, False])
    for name in ("noise_floor_n", "below_noise"):
        with pytest.raises(TypeError, match=name):
            ForcePlateSeries(1000.0, values, **{name: 5.0})


def test_plate_forces_and_cop_are_views_of_the_one_array():
    values = np.arange(2 * 3 * 5, dtype=float).reshape(2, 3, 5)
    series = ForcePlateSeries(1000.0, values)
    assert series.values is values
    assert np.shares_memory(series.forces, values) and np.shares_memory(series.cop, values)
    assert np.array_equal(series.forces, values[..., :3])
    assert np.array_equal(series.cop, values[..., 3:])


@pytest.mark.parametrize("frames", [6, 9])
@pytest.mark.parametrize("at", [(0, 0, 0), (1, 5, 2), (1, 2, 3), (0, 5, 4), (0, 7, 1)])
def test_plate_views_of_one_array_are_checked_for_finite_values(frames, at):
    # as a parsed file holds them: the first `frames` rows of one
    # (n_plates, rows, 5) array are data
    for bad in (np.nan, np.inf, -np.inf):
        values = np.ones((2, 9, 5))
        values[at] = bad
        if at[1] < frames:
            with pytest.raises(InputError, match="force data contains non-finite values"):
                ForcePlateSeries(1000.0, values[:, :frames])
        else:  # a value outside the view is no value of the series
            assert ForcePlateSeries(1000.0, values[:, :frames]).n_frames == frames
    # finite values whose sum overflows fail the screen and pass the full check
    values = np.full((2, 9, 5), np.finfo(float).max)
    assert ForcePlateSeries(1000.0, values[:, :frames]).n_frames == frames
    values[at] = np.inf
    with pytest.raises(InputError, match="force data contains non-finite values"):
        ForcePlateSeries(1000.0, values)


@pytest.mark.parametrize(
    "rate, message",
    [("inf", "must be finite, got inf"), ("-inf", "must be positive, got -inf"),
     ("nan", "must be positive, got nan"), ("0", "must be positive, got 0.0")],
)
@pytest.mark.parametrize("kind", ["markers", "plates"])
def test_rate_must_be_positive_and_finite(tmp_path, kind, rate, message):
    if kind == "markers":
        path = _write(tmp_path, _marker_text(["0.0\t1.0\t2.0\t3.0"], rate=rate))
        parse = parse_marker_file
    else:
        path = _write(tmp_path, _force_text(["0.0\t1\t2\t3\t4\t5"], rate=rate), "force.tsv")
        parse = parse_force_file
    with pytest.raises(InputError) as caught:
        parse(path)
    assert str(caught.value) == f"{path}: RATE {message}"


def test_plates_header_is_checked_against_the_first_row_before_allocating(tmp_path):
    # the arrays and field names of 200,000 plates would take about 80 MiB
    path = _write(tmp_path, _force_text(_timed_rows([0.0, 0.001], 10), 200_000), "force.tsv")
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as caught:
            parse_force_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == f"{path}: data row 1 has 11 columns, expected 1000001"
    assert peak < 1 << 20, f"peak {peak / (1 << 20):.2f} MiB"


def test_markers_header_is_checked_against_the_first_row_before_allocating(tmp_path):
    # a 0.66 MiB file; sizing the arrays and 300,001 column names from its
    # header took a 34 MiB peak, its header's names alone take about 14 MiB
    names = [f"M{k}" for k in range(100_000)]
    path = _write(tmp_path, _marker_text(_timed_rows([0.0, 0.005], 3), names))
    del names
    tracemalloc.start()
    try:
        with pytest.raises(InputError) as caught:
            parse_marker_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == f"{path}: data row 1 has 4 columns, expected 300001"
    assert peak < 17 << 20, f"peak {peak / (1 << 20):.2f} MiB"


# ------------------------------------------------------- parser edge cases


def test_marker_blank_triplet_in_the_last_marker(tmp_path):
    text = _marker_text(
        ["0.0\t1.0\t2.0\t3.0\t4.0\t5.0\t6.0", "0.005\t1.0\t2.0\t3.0\t\t\t"],
        names=("M1", "M2"),
    )
    traj = parse_marker_file(_write(tmp_path, text))
    assert np.array_equal(traj.missing["M1"], [False, False])
    assert np.array_equal(traj.missing["M2"], [False, True])
    assert np.all(np.isnan(traj.markers["M2"][1]))
    assert np.array_equal(traj.markers["M1"][1], [1.0, 2.0, 3.0])


def test_marker_spaces_only_fields_read_as_blank(tmp_path):
    text = _marker_text(["0.0\t1.0\t2.0\t3.0", "0.005\t \t  \t ", "0.01\t 1.5 \t2.0\t3.0"])
    traj = parse_marker_file(_write(tmp_path, text))
    assert np.array_equal(traj.missing["M1"], [False, True, False])
    assert np.array_equal(traj.markers["M1"][2], [1.5, 2.0, 3.0])


def test_marker_all_zero_triplet_in_millimetres_is_missing(tmp_path):
    text = _marker_text(
        ["0.0\t0\t0.0\t-0.0\t100.0\t200.0\t300.0", "0.005\t1.0\t0.0\t0.0\t0.0\t0.0\t0.0"],
        names=("M1", "M2"),
        units="mm",
    )
    traj = parse_marker_file(_write(tmp_path, text))
    assert np.array_equal(traj.missing["M1"], [True, False])
    assert np.array_equal(traj.missing["M2"], [False, True])
    assert np.all(np.isnan(traj.markers["M1"][0]))
    assert np.array_equal(traj.markers["M1"][1], [0.001, 0.0, 0.0])
    assert np.array_equal(traj.markers["M2"][0], [0.1, 0.2, 0.3])


@pytest.mark.parametrize(
    "rows, message",
    [
        (["0.0\t1\t2\t3\t4\t5\t6", "0.005\t1\t2\t3\t4\t5\t6", "0.01\t1\t2\t3\t4\tx\t6"],
         "data row 3, marker 'M2': non-numeric value"),
        (["0.0\t1\t2\t3\t4\t5\t6", "0.005\t1\t2\t3\t4\t5"],
         "data row 2 has 6 columns, expected 7"),
        (["0.0\t1\t2\t3\t4\t5\t6", "0.005\t1\t2\t3\t4\t\t6"],
         "data row 2, marker 'M2': partially blank"),
        (["0.0\t1\t2\t3\t4\t5\t6", "\t1\t2\t3\t4\t5\t6"],
         "data row 2, time: non-numeric value"),
        # a field too many and then one too few: as many values as whole rows
        (["0.0\t1\t2\t3\t4\t5\t6", "0.005\t1\t2\t3\t4\t5\t6\t7", "0.01\t1\t2\t3\t4\t5"],
         "data row 2 has 8 columns, expected 7"),
        # a \r inside a row, where np.loadtxt would end the line
        (["0.0\t1.5\r\t2.5\t3.5\t4\t5\t6", "0.005\t1\t2\t3\t4\t5\t6"],
         "data row 1, marker 'M1': non-numeric value"),
    ],
)
def test_marker_row_errors_name_the_data_row(tmp_path, rows, message):
    text = _marker_text(rows, names=("M1", "M2"))
    with pytest.raises(InputError, match=message):
        parse_marker_file(_write(tmp_path, text))


def test_force_row_errors_name_the_data_row(tmp_path):
    rows = ["0.0\t1\t2\t3\t4\t5", "0.001\t1\t2\tthree\t4\t5"]
    with pytest.raises(InputError, match="data row 2, plate 1: non-numeric value"):
        parse_force_file(_write(tmp_path, _force_text(rows), "force.tsv"))


def _timed_rows(times, width):
    return [repr(float(t)) + "\t1.0" * width for t in times]


@pytest.mark.parametrize(
    "times, bad_row",
    [
        ([0.0, 0.005, 0.015, 0.02], 3),  # dropped row
        ([0.0, 0.005, 0.005, 0.01], 3),  # repeated row
        ([0.0, 0.005, 0.01, 0.0], 4),  # running backwards
    ],
)
def test_dropped_or_repeated_rows_are_rejected(tmp_path, times, bad_row):
    marker = _write(tmp_path, _marker_text(_timed_rows(times, 3)))
    with pytest.raises(InputError, match=f"data row {bad_row}: time"):
        parse_marker_file(marker)
    force_times = [t / 5.0 for t in times]  # 1 kHz
    force = _write(tmp_path, _force_text(_timed_rows(force_times, 5)), "force.tsv")
    with pytest.raises(InputError, match=f"data row {bad_row}: time"):
        parse_force_file(force)


def test_time_column_start_is_free_and_jitter_is_tolerated(tmp_path):
    times = 12.5 + np.arange(6) / 200.0
    times[3] += 0.2 / 200.0
    traj = parse_marker_file(_write(tmp_path, _marker_text(_timed_rows(times, 3))))
    assert traj.n_frames == 6
    force = _force_text(_timed_rows(0.0005 + np.arange(4) / 1000.0, 5))
    assert parse_force_file(_write(tmp_path, force, "force.tsv")).n_frames == 4


def test_blank_interior_lines_are_rejected_and_trailing_ones_allowed(tmp_path):
    rows = _timed_rows([0.0, 0.005, 0.01], 3)
    gapped = _marker_text(rows[:2] + [""] + rows[2:])
    with pytest.raises(InputError, match="line 6 is blank"):
        parse_marker_file(_write(tmp_path, gapped))
    trailing = _marker_text(rows) + "\n\n"
    assert parse_marker_file(_write(tmp_path, trailing)).n_frames == 3

    force_rows = _timed_rows([0.0, 0.001], 5)
    gapped = _force_text([force_rows[0], "", force_rows[1]])
    with pytest.raises(InputError, match="line 4 is blank"):
        parse_force_file(_write(tmp_path, gapped, "force.tsv"))


@pytest.mark.parametrize(
    "newline", ["\r\n", "\r\r\n", "\r\r\r\n", "\r" * 1000 + "\n"],
    ids=["crlf", "cr2lf", "cr3lf", "cr1000lf"],
)
@pytest.mark.parametrize("last", ["\n", "", "\n\r"], ids=["newline", "no-newline", "lone-cr"])
def test_crlf_line_endings_parse_like_lf(tmp_path, newline, last):
    text = _marker_text(_timed_rows([0.0, 0.005, 0.01], 3) + ["0.015\t\t\t"])
    lf = parse_marker_file(_write(tmp_path, text))
    path = tmp_path / "crlf.tsv"
    # without its newline, the last line ends in carriage returns alone; a
    # lone one after it is a last line of nothing but a carriage return
    path.write_bytes((text.replace("\n", newline).removesuffix("\n") + last).encode("utf-8"))
    crlf = parse_marker_file(path)
    assert np.array_equal(crlf.missing["M1"], lf.missing["M1"])
    assert crlf.markers["M1"].tobytes() == lf.markers["M1"].tobytes()


def test_synth_walker_with_gaps_round_trips_bit_for_bit(tmp_path):
    traj = generate_walker().markers
    assert traj.n_frames == 2000
    rng = np.random.default_rng(19)
    names = traj.names
    for _ in range(80):
        name = names[int(rng.integers(len(names)))]
        start = int(rng.integers(0, traj.n_frames - 12))
        stop = start + int(rng.integers(1, 12))
        traj.missing[name][start:stop] = True
        traj.markers[name][start:stop] = np.nan

    path = tmp_path / "walker.tsv"
    write_marker_file(path, traj)
    back = parse_marker_file(path)
    assert back.names == names
    for name in names:
        assert np.array_equal(back.missing[name], traj.missing[name])
        assert back.markers[name].tobytes() == traj.markers[name].tobytes()
    again = tmp_path / "again.tsv"
    write_marker_file(again, back)
    assert again.read_bytes() == path.read_bytes()


def reference_fill_gaps(pos, mask, max_gap_frames):
    """Frame-by-frame linear fill of interior runs of <= max_gap_frames."""
    pos, mask = pos.copy(), mask.copy()
    n = len(mask)
    k = 0
    while k < n:
        if not mask[k]:
            k += 1
            continue
        start = k
        while k < n and mask[k]:
            k += 1
        end = k - 1
        if start == 0 or end == n - 1 or end - start + 1 > max_gap_frames:
            continue
        lo, hi = start - 1, end + 1
        for j in range(start, end + 1):
            t = (j - lo) / (hi - lo)
            pos[j] = pos[lo] + (pos[hi] - pos[lo]) * t
        mask[start : end + 1] = False
    return pos, mask


@pytest.mark.parametrize("max_gap_frames", [0, 1, 4, 10])
def test_fill_gaps_is_bitwise_the_frame_by_frame_formula(max_gap_frames):
    rng = np.random.default_rng(max_gap_frames)
    n = 400
    markers, missing = {}, {}
    for name in ("A", "B", "C"):
        mask = rng.random(n) < 0.25
        mask[:3] = name == "A"  # a run touching the first frame
        mask[-2:] = name == "B"  # and one touching the last
        pos = np.cumsum(rng.normal(size=(n, 3)), axis=0) * 0.37 + 1e3
        pos[mask] = np.nan
        markers[name], missing[name] = pos, mask
    traj = marker_set(200.0, markers)
    filled = fill_gaps(traj, max_gap_frames=max_gap_frames)
    for name in markers:
        pos, mask = reference_fill_gaps(markers[name], missing[name], max_gap_frames)
        assert np.array_equal(filled.missing[name], mask)
        assert filled.markers[name].tobytes() == pos.tobytes()


@pytest.mark.parametrize("max_gap_frames", [0, 2, 3, 10])
def test_fill_gaps_of_all_markers_at_once_matches_the_per_marker_loop(max_gap_frames):
    rng = np.random.default_rng(3)
    n = 40
    masks = {name: np.zeros(n, dtype=bool) for name in "ABCDE"}
    masks["A"][n - 3 :] = True  # touches the last frame, and the next marker's run
    masks["B"][:3] = True  # touches the first frame, right after the last marker's
    masks["B"][n - 1] = True
    masks["C"][[1, 2, 3, n - 2]] = True  # runs of exactly 3 beside the first and last frames
    masks["C"][10:13] = True
    masks["D"][5:7] = masks["D"][20:31] = True  # of 2 and of 11 frames
    masks["E"][rng.random(n) < 0.3] = True
    markers = {}
    for name, mask in masks.items():
        pos = np.cumsum(rng.normal(size=(n, 3)), axis=0) * 0.37 + 1e3
        pos[mask] = np.nan
        markers[name] = pos
    traj = marker_set(200.0, markers)
    filled = fill_gaps(traj, max_gap_frames=max_gap_frames)
    expected = per_marker_fill_gaps(traj, max_gap_frames)
    assert filled.names == list(expected)
    for name in markers:
        assert filled.markers[name].tobytes() == expected[name].tobytes()
        assert np.array_equal(filled.missing[name], np.isnan(expected[name][:, 0]))


def _seeded_positions(rng, n_markers, n_frames):
    return np.cumsum(rng.normal(size=(n_markers, n_frames, 3)), axis=1) * 0.37 + 1e3


@pytest.mark.parametrize("seed", range(40))
def test_marker_set_check_names_what_the_per_marker_loop_names(seed):
    rng = np.random.default_rng(seed)
    n_markers, n = int(rng.integers(1, 7)), int(rng.integers(1, 30))
    names = [f"M{m}" for m in range(n_markers)]
    positions = _seeded_positions(rng, n_markers, n)
    for _ in range(int(rng.integers(0, 12))):  # NaN triplets, occlusions
        positions[rng.integers(n_markers), rng.integers(n)] = np.nan
    for _ in range(int(rng.integers(0, 3))):  # faults: a partly NaN triplet or an infinity
        m, frame, axis = rng.integers(n_markers), rng.integers(n), rng.integers(3)
        positions[m, frame, axis] = rng.choice([np.nan, np.inf, -np.inf])
    try:
        expected = per_marker_check(names, positions)
    except InputError as exc:
        with pytest.raises(InputError) as caught:
            MarkerTrajectorySet(200.0, names, positions)
        assert str(caught.value) == str(exc)
        return
    traj = MarkerTrajectorySet(200.0, names, positions)
    assert list(traj.missing) == names
    for name in names:
        assert np.array_equal(traj.missing[name], expected[name])


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize("max_gap_frames", [0, 1, 3, 10])
def test_fill_gaps_matches_the_per_marker_fill_on_seeded_masks(seed, max_gap_frames):
    rng = np.random.default_rng(seed)
    n_markers, n = int(rng.integers(1, 7)), int(rng.integers(2, 40))
    mask = rng.random((n_markers, n)) < rng.random()
    for m in range(n_markers):  # runs of exactly max_gap_frames, at the ends and inside
        start = int(rng.choice([0, n - max_gap_frames, rng.integers(n)]))
        mask[m, max(start, 0) : start + max_gap_frames] = True
    if n_markers > 1:  # one marker's run ends its mask where the next one's run begins
        m = int(rng.integers(n_markers - 1))
        mask[m, -int(rng.integers(1, n)) :] = mask[m + 1, : int(rng.integers(1, n))] = True
    positions = _seeded_positions(rng, n_markers, n)
    positions[mask] = np.nan
    traj = MarkerTrajectorySet(200.0, [f"M{m}" for m in range(n_markers)], positions)
    filled = fill_gaps(traj, max_gap_frames)
    expected = per_marker_fill_gaps(traj, max_gap_frames)
    assert filled.positions.tobytes() == np.stack(list(expected.values())).tobytes()
    assert np.array_equal(filled.occluded, np.isnan(filled.positions[..., 0]))
    assert (filled is traj) == all(expected[name] is traj.markers[name] for name in traj.names)


# ------------------------------------------------- block-by-block reading


def _gapped_walker(duration_s, seed):
    traj = generate_walker(WalkerParams(duration_s=duration_s)).markers
    rng = np.random.default_rng(seed)
    names = traj.names
    for _ in range(40):
        name = names[int(rng.integers(len(names)))]
        start = int(rng.integers(0, traj.n_frames - 12))
        stop = start + int(rng.integers(1, 12))
        traj.missing[name][start:stop] = True
        traj.markers[name][start:stop] = np.nan
    return traj


@pytest.mark.parametrize("bytes_per_block", [300, 5000])
def test_many_block_parse_is_bit_identical_to_one_block(tmp_path, monkeypatch, bytes_per_block):
    path = tmp_path / "walker.tsv"
    write_marker_file(path, _gapped_walker(2.0, seed=23))
    whole = parse_marker_file(path)
    monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", bytes_per_block)
    blocks = parse_marker_file(path)
    assert blocks.names == whole.names
    for name in whole.names:
        assert np.array_equal(blocks.missing[name], whole.missing[name])
        assert blocks.markers[name].tobytes() == whole.markers[name].tobytes()

    rng = np.random.default_rng(29)
    series = ForcePlateSeries(1000.0, rng.normal(size=(2, 300, 5)))
    plates = tmp_path / "plates.tsv"
    write_force_file(plates, series)
    back = parse_force_file(plates)
    assert back.forces.tobytes() == series.forces.tobytes()
    assert back.cop.tobytes() == series.cop.tobytes()


def _record(monkeypatch, name, what):
    """Wrap ``ingest.<name>`` so that each call appends ``what(args, result)``
    to the returned list; the result is None when the call raised."""
    calls, function = [], getattr(ingest, name)

    def recorded(*args):
        result = None
        try:
            result = function(*args)
            return result
        finally:
            calls.append(what(args, result))

    monkeypatch.setattr(ingest, name, recorded)
    return calls


def _occluded_rows(units, seed):
    """The data rows of a 2 s walker in ``units`` with blank triplets in the
    first and the last marker, in wholly blank rows and in random gaps."""
    traj = _gapped_walker(2.0, seed)
    names = traj.names
    for name, frames in ((names[0], [0, 1, 7]), (names[-1], [5, 6, 399]), (names[10], [200])):
        traj.markers[name][frames] = np.nan
    for pos in traj.markers.values():
        pos[[50, 51, 52, 130]] = np.nan  # wholly blank rows, three in a run
    scale = 1000.0 if units == "mm" else 1.0
    columns = [traj.times()] + [c * scale for n in names for c in traj.markers[n].T]
    values = zip(*[c.tolist() for c in columns])
    rows = ["\t".join("" if v != v else repr(v) for v in row) for row in values]
    return names, rows, {n: np.isnan(traj.markers[n][:, 0]) for n in names}


def _parse_by_rows(monkeypatch, parse, path):
    """``parse(path)`` with every block read row by row."""
    with monkeypatch.context() as patch:
        patch.setattr(ingest, "_read_numbers", lambda *args: None)
        return parse(path)


@pytest.mark.parametrize("units", ["m", "mm"])
@pytest.mark.parametrize("bytes_per_block", [1 << 20, 3000, 777])
def test_blank_triplets_read_from_bytes_match_the_row_path(
    tmp_path, monkeypatch, units, bytes_per_block
):
    names, rows, missing = _occluded_rows(units, seed=31)
    text = _marker_text(rows, names=names, units=units)
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    lf.write_bytes(text.encode("utf-8"))
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", bytes_per_block)
    filled = _record(monkeypatch, "_fill_blank_triplets", lambda args, _: len(args[1]))
    read, unchanged = ingest._read_numbers, []

    def read_numbers(data, *args):  # the block is only read, never written
        before = bytes(data)
        try:
            return read(data, *args)
        finally:
            unchanged.append(bytes(data) == before)

    monkeypatch.setattr(ingest, "_read_numbers", read_numbers)
    by_bytes = parse_marker_file(lf)
    assert filled and all(filled)
    assert unchanged and all(unchanged)
    by_rows = _parse_by_rows(monkeypatch, parse_marker_file, lf)
    by_crlf = parse_marker_file(crlf)
    for name in names:
        assert np.array_equal(by_bytes.missing[name], missing[name])
        assert np.array_equal(by_rows.missing[name], missing[name])
        assert by_bytes.markers[name].tobytes() == by_rows.markers[name].tobytes()
        assert by_crlf.markers[name].tobytes() == by_rows.markers[name].tobytes()


def _two_marker_rows(n):
    return [f"{k / 200.0!r}\t1.5\t2.5\t3.5\t4.5\t5.5\t6.5" for k in range(n)]


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda row: row + "\t7.5", "data row 150 has 8 columns, expected 7"),
        (lambda row: row.replace("5.5", "x"), "data row 150, marker 'M2': non-numeric value"),
        (lambda row: row.replace("\t5.5", "\t"), "data row 150, marker 'M2': partially blank"),
        (lambda row: "\n" + row, "line 153 is blank"),
    ],
)
def test_errors_in_a_later_block_name_the_same_row(tmp_path, monkeypatch, fault, message):
    rows = _two_marker_rows(200)
    rows[149] = fault(rows[149])
    path = _write(tmp_path, _marker_text(rows, names=("M1", "M2")))
    with pytest.raises(InputError, match=message):
        parse_marker_file(path)
    # every block size from one that splits a row to one that holds a few
    for bytes_per_block in range(20, 120, 7):
        monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", bytes_per_block)
        with pytest.raises(InputError, match=message):
            parse_marker_file(path)


@pytest.mark.parametrize("bytes_per_block", range(1, 80, 3))
def test_blank_lines_across_block_boundaries(tmp_path, monkeypatch, bytes_per_block):
    monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", bytes_per_block)
    rows = _two_marker_rows(6)
    trailing = _marker_text(rows, names=("M1", "M2")) + "\n" * 40
    assert parse_marker_file(_write(tmp_path, trailing)).n_frames == 6

    # blank lines that run on into a later block and then a data row
    gapped = _marker_text(rows[:3] + [""] * 30 + rows[3:], names=("M1", "M2"))
    with pytest.raises(InputError, match="line 7 is blank"):
        parse_marker_file(_write(tmp_path, gapped))


def test_crlf_split_between_blocks_parses(tmp_path, monkeypatch):
    rows = _two_marker_rows(12)
    lf = parse_marker_file(_write(tmp_path, _marker_text(rows, names=("M1", "M2"))))
    crlf = _marker_text(rows, names=("M1", "M2")).replace("\n", "\r\n")
    path = tmp_path / "crlf.tsv"
    path.write_bytes(crlf.encode("utf-8"))
    # the first data block ends between the first row's \r and its \n
    for bytes_per_block in (len(rows[0]) + 1, 2 * len(rows[0]) + 3):
        monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", bytes_per_block)
        back = parse_marker_file(path)
        for name in ("M1", "M2"):
            assert back.markers[name].tobytes() == lf.markers[name].tobytes()


def test_non_utf8_input_is_an_input_error(tmp_path, monkeypatch):
    good = _marker_text(_two_marker_rows(40), names=("M1", "M2")).encode("utf-8")
    in_header = tmp_path / "header.tsv"
    in_header.write_bytes(good.replace(b"RATE", b"RA\xffTE"))
    with pytest.raises(InputError, match="header.tsv: not UTF-8"):
        parse_marker_file(in_header)

    # mid-stream: the bad byte arrives in a later block of data
    monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", 64)
    mid = tmp_path / "mid.tsv"
    mid.write_bytes(good[: len(good) - 100] + b"\xff" + good[len(good) - 99 :])
    with pytest.raises(InputError, match="mid.tsv: not UTF-8"):
        parse_marker_file(mid)

    rows = _timed_rows([k / 1000.0 for k in range(40)], 5)
    plates = _force_text(rows).encode("utf-8")
    bad = tmp_path / "force.tsv"
    bad.write_bytes(plates[:-50] + b"\xfe" + plates[-49:])
    with pytest.raises(InputError, match="force.tsv: not UTF-8"):
        parse_force_file(bad)


def test_marker_parse_peak_memory_stays_near_the_parsed_arrays(tmp_path):
    traj = generate_walker(WalkerParams(duration_s=30.0)).markers
    assert traj.n_frames == 6000
    path = tmp_path / "walker30.tsv"
    write_marker_file(path, traj)
    del traj
    tracemalloc.start()
    try:
        back = parse_marker_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = back.positions.nbytes + back.occluded.nbytes
    assert peak < 3 * arrays, f"peak {peak / arrays:.2f} x the parsed arrays"


def test_fill_gaps_copies_the_positions_once_or_not_at_all():
    traj = generate_walker(WalkerParams(duration_s=30.0)).markers
    assert not traj.occluded.any()
    arrays = traj.positions.nbytes + traj.occluded.nbytes
    tracemalloc.start()
    try:
        filled = fill_gaps(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * arrays, f"peak {peak / arrays:.2f} x the marker arrays"
    assert filled is traj  # nothing to fill

    traj.positions[5, 100:104] = np.nan  # one short gap in one marker
    gapped = MarkerTrajectorySet(traj.sample_rate_hz, traj.names, traj.positions)
    tracemalloc.start()
    try:
        filled = fill_gaps(gapped)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one copy of the whole array and its mask, no copy a marker
    assert peak < 1.05 * arrays, f"peak {peak / arrays:.2f} x the marker arrays"
    assert not filled.occluded.any()
    assert not np.shares_memory(filled.positions, gapped.positions)
    assert np.isnan(gapped.positions[5, 100:104]).all()  # the input is left as it was


def test_building_a_marker_set_copies_no_positions():
    traj = generate_walker(WalkerParams(duration_s=30.0)).markers
    tracemalloc.start()
    try:
        MarkerTrajectorySet(traj.sample_rate_hz, traj.names, traj.positions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the derived mask, one bool per frame per marker
    peak -= traj.occluded.nbytes
    one_marker = traj.markers["LHEE"].nbytes
    assert peak < 0.5 * one_marker, f"peak {peak / one_marker:.2f} x one marker's positions"


def test_marker_set_rejects_non_finite_present_positions_only():
    # a triplet is all finite, or all NaN where the marker was occluded
    pos = np.zeros((5, 3))
    pos[2] = np.nan
    traj = MarkerTrajectorySet(100.0, ["M"], pos[np.newaxis].copy())
    assert traj.missing["M"].tolist() == [False, False, True, False, False]
    cases = ((3, (0.0, np.nan, 0.0)), (4, (0.0, 0.0, np.inf)), (1, (-np.inf,) * 3))
    for frame, value in cases:
        for good in (pos, np.zeros((5, 3))):  # with an occlusion, and tracked on every frame
            bad = good.copy()
            bad[frame] = value
            with pytest.raises(InputError, match=f"^marker 'M': non-finite position at frame {frame}"):
                MarkerTrajectorySet(100.0, ["M"], bad[np.newaxis])
    # finite positions whose sum overflows fail the screen and pass the full check
    huge = np.full((2, 5, 3), np.finfo(float).max)
    assert not MarkerTrajectorySet(100.0, ["M", "N"], huge).occluded.any()
    huge[1, 3] = (np.nan, 0.0, 0.0)
    with pytest.raises(InputError, match="^marker 'N': non-finite position at frame 3"):
        MarkerTrajectorySet(100.0, ["M", "N"], huge)
    # the mask is derived from the positions; none can be passed in
    with pytest.raises(TypeError, match="positional"):
        MarkerTrajectorySet(100.0, ["M"], pos[np.newaxis], traj.occluded)
    for derived in ("occluded", "markers", "missing"):
        with pytest.raises(TypeError, match=f"'{derived}'"):
            MarkerTrajectorySet(100.0, ["M"], pos[np.newaxis], **{derived: traj.occluded})


# ----------------------------------------- one copy of each parsed array


@pytest.fixture(scope="module")
def files_60s(tmp_path_factory):
    """A 60 s synth walker's marker file, the same with blank triplets in
    every block, and two plates of noise at 2 kHz."""
    root = tmp_path_factory.mktemp("trial_60s")
    markers, occluded, plates = root / "markers.tsv", root / "occluded.tsv", root / "plates.tsv"
    traj = generate_walker(WalkerParams(duration_s=60.0)).markers
    write_marker_file(markers, traj)
    rng = np.random.default_rng(61)
    names = traj.names
    for start in range(1, traj.n_frames - 12, 40):  # about 12 gaps a block
        traj.markers[names[int(rng.integers(len(names)))]][start : start + 10] = np.nan
    write_marker_file(occluded, traj)
    del traj
    rng = np.random.default_rng(60)
    n = 120_000
    series = ForcePlateSeries(2000.0, rng.normal(size=(2, n, 5)))
    write_force_file(plates, series)
    return {"markers": markers, "occluded": occluded, "plates": plates}


def _marker_bytes(traj):
    return traj.positions.nbytes + traj.occluded.nbytes


def _plate_bytes(series):
    return series.values.nbytes + series.below_noise.nbytes


@pytest.mark.parametrize(
    "kind, parse, retained_bytes",
    [
        ("markers", parse_marker_file, _marker_bytes),
        ("occluded", parse_marker_file, _marker_bytes),
        ("plates", parse_force_file, _plate_bytes),
    ],
)
def test_parse_holds_one_block_of_text_beyond_its_result(files_60s, kind, parse, retained_bytes):
    tracemalloc.start()
    try:
        result = parse(files_60s[kind])
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the final arrays are allocated once, and nothing else outlives the parse
    assert retained_bytes(result) <= retained <= retained_bytes(result) + (64 << 10)
    # beyond them: one block of text, its lines and its values (about 2.5 blocks
    # on these files), never a whole-trial copy (the result is 9-12 blocks)
    block = ingest._BYTES_PER_BLOCK
    assert peak - retained < 3 * block, f"{(peak - retained) / block:.2f} blocks"


def test_trailing_blank_lines_leave_views_of_the_same_values(tmp_path):
    traj = _gapped_walker(1.0, seed=3)
    path = tmp_path / "walker.tsv"
    write_marker_file(path, traj)
    plain = parse_marker_file(path)
    rng = np.random.default_rng(8)
    series = ForcePlateSeries(1000.0, rng.normal(size=(2, 50, 5)))
    plates = tmp_path / "plates.tsv"
    write_force_file(plates, series)
    for ending in ("\n", "\n\n\n", "\r\n\r\n"):
        for file in (path, plates):
            file.write_bytes(file.read_bytes().rstrip(b"\r\n") + b"\n" + ending.encode())
        back = parse_marker_file(path)
        assert back.n_frames == plain.n_frames
        for name in plain.names:
            assert back.markers[name].tobytes() == plain.markers[name].tobytes()
            assert np.array_equal(back.missing[name], plain.missing[name])
        got = parse_force_file(plates)
        assert got.forces.tobytes() == series.forces.tobytes()
        assert got.cop.tobytes() == series.cop.tobytes()
        assert got.total_force().tobytes() == series.total_force().tobytes()


@pytest.mark.parametrize("kind", ["markers", "forces"])
def test_a_file_that_grows_while_it_is_read_exits_2_naming_it(tmp_path, capsys, monkeypatch, kind):
    from gaitkinetics import cli

    params = WalkerParams(duration_s=4.0)
    files = {"markers": tmp_path / "markers.tsv", "forces": tmp_path / "forces.tsv"}
    write_marker_file(files["markers"], generate_walker(params).markers)
    write_force_file(files["forces"], synth_force_plates(params))
    count_lines = ingest._count_lines

    def count_then_append(path):
        n = count_lines(path)
        if path == str(files[kind]):
            lines = files[kind].read_text(encoding="utf-8").splitlines()
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("\n".join(lines[-3:]) + "\n")
        return n

    monkeypatch.setattr(ingest, "_count_lines", count_then_append)
    code = cli.main(
        ["grf", "--marker-file", str(files["markers"]), "--force-file", str(files["forces"]),
         "--subject-mass-kg", "80", "--subject-height-m", "1.78", "--subject-sex", "m",
         "--output-dir", str(tmp_path / "out")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert f"error: {files[kind]}: more than the " in err
    assert "the file changed while it was read" in err


# ------------------------------------------------ block checks of the text


@pytest.mark.parametrize(
    "fault, message",
    [
        # one row a field short and a later one a field over: the block's
        # tab count is right, the rows are not
        ({3: "0.015\t1\t2\t3\t4\t5", 5: "0.025\t1\t2\t3\t4\t5\t6\t7"},
         "data row 4 has 6 columns, expected 7"),
        ({3: "0.015\t1\t2\t3\t4\t5\t6\t", 5: "0.025\t1\t2\t3\t4\t5"},
         "data row 4 has 8 columns, expected 7"),
        # a partially blank triplet before a hidden miscount: columns first
        ({1: "0.005\t1\t2\t3\t4\t\t6", 3: "0.015\t1\t2\t3\t4\t5", 5: "0.025\t1\t2\t3\t4\t5\t6\t7"},
         "data row 4 has 6 columns, expected 7"),
        # a non-numeric field before a hidden miscount: columns first
        ({1: "0.005\t1\t2\tx\t4\t5\t6", 3: "0.015\t1\t2\t3\t4\t5", 5: "0.025\t1\t2\t3\t4\t5\t6\t7"},
         "data row 4 has 6 columns, expected 7"),
        ({4: "   "}, "data row 5 has 1 columns, expected 7"),
    ],
)
def test_rows_that_hide_a_miscount_from_the_block_are_named(tmp_path, fault, message):
    rows = _two_marker_rows(8)
    for r, row in fault.items():
        rows[r] = row
    path = _write(tmp_path, _marker_text(rows, names=("M1", "M2")))
    with pytest.raises(InputError, match=message):
        parse_marker_file(path)


@pytest.mark.parametrize(
    "fault, expected",
    [
        ("0.75\t1.5\t2.5\t3.5\t\t", "data row 151 has 6 columns, expected 7"),
        ("0.75\t1.5\t2.5\t3.5\t\t\t\t\t", "data row 151 has 9 columns, expected 7"),
        ("0.75\t1.5\t2.5\t3.5\t4.5\t\t6.5", "data row 151, marker 'M2': partially blank"),
        ("0.75\t1.5\t2.5\tx\t\t\t", "data row 151, marker 'M1': non-numeric value"),
        ("\t1.5\t2.5\t3.5\t\t\t", "data row 151, time: non-numeric value"),
        # three empty fields in a row that are not one marker's triplet
        ("\t\t\t3.5\t4.5\t5.5\t6.5", "data row 151, marker 'M1': partially blank"),
        ("0.75\t1.5\t2.5\t\t\t\t6.5", "data row 151, marker 'M1': partially blank"),
        # values: the triplets of M1 and M2 in that row
        ("0.75\t1.5\t2.5\t3.5\t \t  \t ", [1.5, 2.5, 3.5, np.nan, np.nan, np.nan]),
        ("0.75\t-0\t2.5\t3.5\t\t\t", [-0.0, 2.5, 3.5, np.nan, np.nan, np.nan]),
        # as many dots as values less the fill's zeros: JSON refuses the block
        ("0.75\t-0\t2.5.5\t3.5\t\t\t", "data row 151, marker 'M1': non-numeric value"),
    ],
)
def test_faults_after_blocks_with_blank_triplets_are_named(
    tmp_path, monkeypatch, fault, expected
):
    # every other row holds a blank triplet, so every block holds some
    rows = _two_marker_rows(200)
    rows[::2] = [row.replace("\t4.5\t5.5\t6.5", "\t\t\t") for row in rows[::2]]
    rows[150] = fault
    path = _write(tmp_path, _marker_text(rows, names=("M1", "M2")))
    for bytes_per_block in (1 << 20, 100, 400):
        monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", bytes_per_block)
        if isinstance(expected, str):
            with pytest.raises(InputError, match=expected):
                parse_marker_file(path)
        else:
            back = parse_marker_file(path)
            got = np.concatenate([back.markers["M1"][150], back.markers["M2"][150]])
            assert got.tobytes() == np.array(expected).tobytes()


def test_a_blank_field_in_a_force_file_is_named(tmp_path, monkeypatch):
    # no blank field is an occlusion in a force file
    rows = _timed_rows([k / 1000.0 for k in range(200)], 5)
    rows[150] = rows[150].replace("\t1.0", "\t", 1)
    path = _write(tmp_path, _force_text(rows), "force.tsv")
    for bytes_per_block in (1 << 20, 100, 400):
        monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", bytes_per_block)
        with pytest.raises(InputError, match="data row 151, plate 1: non-numeric value$"):
            parse_force_file(path)


def test_a_hidden_miscount_in_a_force_file_is_named(tmp_path):
    rows = _timed_rows([k / 1000.0 for k in range(6)], 5)
    rows[2] += "\t1.0"
    rows[4] = rows[4][: rows[4].rindex("\t")]
    with pytest.raises(InputError, match="data row 3 has 7 columns, expected 6"):
        parse_force_file(_write(tmp_path, _force_text(rows), "force.tsv"))


def _routes(monkeypatch):
    """The first data row of each block split row by row, and the number of
    blank triplets of each block filled."""
    split = _record(monkeypatch, "_parse_rows", lambda args, _: args[2])
    filled = _record(monkeypatch, "_fill_blank_triplets", lambda args, _: len(args[1]))
    return split, filled


def test_blocks_with_blank_triplets_are_filled_not_split_row_by_row(tmp_path, monkeypatch):
    rows = _two_marker_rows(300)
    for r in (0, 100, 250, 299):
        rows[r] = rows[r].replace("\t4.5\t5.5\t6.5", "\t\t\t")
    path = _write(tmp_path, _marker_text(rows, names=("M1", "M2")))
    monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", 1000)
    split, filled = _routes(monkeypatch)
    back = parse_marker_file(path)
    # of ten blocks of about 30 rows, four hold a blank triplet: each is
    # filled, and none is split
    assert split == [] and filled == [1] * 4
    assert np.flatnonzero(back.missing["M2"]).tolist() == [0, 100, 250, 299]
    assert not back.missing["M1"].any()

    # the carriage returns that end the lines are cut from the bytes, so the
    # blocks of a \r\n file are filled too, and none is split
    crlf = tmp_path / "crlf.tsv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert parse_marker_file(crlf).missing["M2"].tolist() == back.missing["M2"].tolist()
    assert split == [] and filled == [1] * 8
    # nor is a block that ends in blank lines: here the file's one block
    crlf.write_bytes(crlf.read_bytes() + b"\r\n" * 3)
    filled.clear()
    with monkeypatch.context() as patch:
        patch.setattr(ingest, "_BYTES_PER_BLOCK", 1 << 20)
        # slices of about 19 rows, so that each blank triplet is in one of its own
        patch.setattr(ingest, "_SLICES_PER_BLOCK", 16)
        assert parse_marker_file(crlf).missing["M2"].tolist() == back.missing["M2"].tolist()
    assert split == [] and filled == [1] * 4

    # so does a blank of spaces, in its block only; the others are filled
    rows[250] = rows[250].replace("\t\t\t", "\t \t \t ")
    split.clear()
    filled.clear()
    spaces = parse_marker_file(_write(tmp_path, _marker_text(rows, names=("M1", "M2"))))
    assert len(split) == 1 and split[0] <= 250 < split[0] + 40 and filled == [1] * 3
    assert spaces.missing["M2"].tolist() == back.missing["M2"].tolist()

    # empty fields that are not whole triplets, here a partially blank one,
    # leave their block unfilled to the row path, which names the fault
    rows[250] = rows[250].replace("\t \t \t ", "\t\t\t6.5")
    split.clear()
    filled.clear()
    with pytest.raises(InputError, match="data row 251, marker 'M2': partially blank"):
        parse_marker_file(_write(tmp_path, _marker_text(rows, names=("M1", "M2"))))
    assert len(split) == 1 and split[0] <= 250 < split[0] + 40
    assert filled == [1, 1]


def _json_reads(monkeypatch):
    """For each ``orjson.loads`` of the parser: True if it read its text,
    False if it refused it."""
    reads, loads = [], orjson.loads

    def recorded(text):
        try:
            result = loads(text)
        except orjson.JSONDecodeError:
            reads.append(False)
            raise
        reads.append(True)
        return result

    json = types.SimpleNamespace(loads=recorded, JSONDecodeError=orjson.JSONDecodeError)
    monkeypatch.setattr(ingest, "orjson", json)
    return reads


@pytest.mark.parametrize("bytes_per_block", [1 << 20, 1000])
def test_json_never_refuses_a_slice_of_a_clean_or_blank_triplet_block(
    tmp_path, monkeypatch, bytes_per_block
):
    rows = _two_marker_rows(300)
    clean = _write(tmp_path, _marker_text(rows, names=("M1", "M2")), "clean.tsv")
    for r in (0, 100, 250, 299):
        rows[r] = rows[r].replace("\t4.5\t5.5\t6.5", "\t\t\t")
    blanks = _write(tmp_path, _marker_text(rows, names=("M1", "M2")), "blanks.tsv")
    plates = _write(tmp_path, _force_text(_timed_rows([k / 1000.0 for k in range(300)], 5)))
    monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", bytes_per_block)
    split = _record(monkeypatch, "_parse_rows", lambda args, _: args[2])
    reads = _json_reads(monkeypatch)
    parse_marker_file(clean)
    parse_force_file(plates)
    assert reads and all(reads)
    # the blank triplets are filled before JSON reads their slice, once
    reads.clear()
    assert np.flatnonzero(parse_marker_file(blanks).missing["M2"]).tolist() == [0, 100, 250, 299]
    assert reads and all(reads) and split == []


@pytest.mark.parametrize("others", ["dots", "dotless", "blanks"])
def test_an_integer_minus_zero_keeps_its_sign_as_the_row_path_reads_it(
    tmp_path, monkeypatch, others
):
    # every value of these rows has a dot, but the -0; JSON reads -0 as 0
    rows = _two_marker_rows(200)
    if others == "dotless":  # floats without a dot, which the dot count cannot rule out
        rows[::7] = [row.replace("\t2.5\t", "\t1e-05\t") for row in rows[::7]]
    if others == "blanks":  # filled with dotless zeros
        rows[::2] = [row.replace("\t4.5\t5.5\t6.5", "\t\t\t") for row in rows[::2]]
    rows[151] = rows[151].replace("\t1.5\t", "\t-0\t")
    path = _write(tmp_path, _marker_text(rows, names=("M1", "M2")))
    for bytes_per_block in (1 << 20, 100, 400):
        monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", bytes_per_block)
        by_bytes = parse_marker_file(path)
        by_rows = _parse_by_rows(monkeypatch, parse_marker_file, path)
        assert by_bytes.markers["M1"][151].tobytes() == np.array([-0.0, 2.5, 3.5]).tobytes()
        for name in ("M1", "M2"):
            assert by_bytes.markers[name].tobytes() == by_rows.markers[name].tobytes()
            assert np.array_equal(by_bytes.missing[name], by_rows.missing[name])


def test_a_block_of_empty_and_spaces_only_triplets_reads_as_the_row_path(tmp_path, monkeypatch):
    rows = _two_marker_rows(200)
    rows[::2] = [row.replace("\t4.5\t5.5\t6.5", "\t\t\t") for row in rows[::2]]
    rows[1::10] = [row.replace("\t1.5\t2.5\t3.5", "\t \t  \t ") for row in rows[1::10]]
    path = _write(tmp_path, _marker_text(rows, names=("M1", "M2")))
    split = _record(monkeypatch, "_parse_rows", lambda args, _: args[2])
    for bytes_per_block in (1 << 20, 100, 400):
        monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", bytes_per_block)
        by_rows = _parse_by_rows(monkeypatch, parse_marker_file, path)
        split.clear()
        by_bytes = parse_marker_file(path)
        assert split  # a spaces-only field keeps its block off the bytes path
        assert np.flatnonzero(by_bytes.missing["M1"]).tolist() == list(range(1, 200, 10))
        assert np.flatnonzero(by_bytes.missing["M2"]).tolist() == list(range(0, 200, 2))
        for name in ("M1", "M2"):
            assert by_bytes.markers[name].tobytes() == by_rows.markers[name].tobytes()
            assert np.array_equal(by_bytes.missing[name], by_rows.missing[name])


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
@pytest.mark.parametrize("row", [1, 3])
def test_a_blank_last_field_alone_is_a_partially_blank_triplet(tmp_path, newline, row):
    rows = _two_marker_rows(4)
    rows[row] = rows[row].replace("\t6.5", "\t")
    text = _marker_text(rows, names=("M1", "M2")).replace("\n", newline)
    path = tmp_path / "trial.tsv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(InputError, match=f"data row {row + 1}, marker 'M2': partially blank"):
        parse_marker_file(path)
    # without its final newline, the block ends in the tab
    if row == 3:
        path.write_bytes(text.rstrip("\r\n").encode("utf-8"))
        with pytest.raises(InputError, match="data row 4, marker 'M2': partially blank"):
            parse_marker_file(path)


@pytest.mark.parametrize("bytes_per_block", [40, 90, 200])
def test_a_dropped_row_at_a_block_boundary_is_named(tmp_path, monkeypatch, bytes_per_block):
    monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", bytes_per_block)
    rows = _two_marker_rows(30)
    for dropped in range(1, 29):
        text = _marker_text(rows[:dropped] + rows[dropped + 1 :], names=("M1", "M2"))
        path = _write(tmp_path, text)
        with pytest.raises(InputError, match=f"data row {dropped + 1}: time"):
            parse_marker_file(path)


def test_a_pipe_is_rejected_by_name_not_waited_on(tmp_path):
    # the parsers read a file twice (count its lines, then parse it)
    fifo = tmp_path / "markers.fifo"
    os.mkfifo(fifo)
    text = _marker_text(_two_marker_rows(5), names=("M1", "M2"))

    def write():
        try:
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write(text)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    with pytest.raises(InputError, match=f"cannot read {fifo}: not a regular file"):
        parse_marker_file(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    with pytest.raises(InputError, match="cannot read /dev/null: not a regular file"):
        parse_force_file("/dev/null")


@pytest.mark.parametrize("bytes_per_block", [1, 2, 64, 1 << 20])
def test_a_character_cut_short_by_the_end_of_the_file_is_not_utf8(
    tmp_path, monkeypatch, bytes_per_block
):
    monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", bytes_per_block)
    text = _marker_text(_two_marker_rows(3), names=("M1", "Mé"))
    path = tmp_path / "trial.tsv"
    path.write_bytes(text.encode("utf-8"))
    assert parse_marker_file(path).names == ["M1", "Mé"]
    for cut in (text.encode("utf-8")[:-1] + b"\xc3", b"RATE\t200.0\nUNITS\tm\nMARKERS\tM\xc3"):
        path.write_bytes(cut)
        with pytest.raises(InputError, match="not UTF-8 text"):
            parse_marker_file(path)


# ------------------------------------------------------ the two number readers

NUMBERS = settings(derandomize=True, database=None, deadline=None, max_examples=80)

# repr of a random finite float64 bit pattern
REPR_OF_BITS = st.integers(0, 2**64 - 1).map(
    lambda b: struct.unpack("<d", b.to_bytes(8, "little"))[0]
).filter(math.isfinite).map(repr)


@st.composite
def _decimal_text(draw) -> str:
    """A JSON number of 1-25 digits, with a sign and an exponent or not."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.integers(1, len(digits)))
    whole, fraction = digits[:point].lstrip("0") or "0", digits[point:]
    text = draw(st.sampled_from(["", "-"])) + whole + ("." + fraction if fraction else "")
    exponent = draw(st.none() | st.integers(-340, 280))
    if exponent is not None:
        sign = "-" if exponent < 0 else draw(st.sampled_from(["", "+"]))
        text += draw(st.sampled_from("eE")) + sign + str(abs(exponent)).zfill(draw(st.integers(1, 4)))
    return text


INTEGER_TEXT = st.integers(-(2**70), 2**70).map(str) | st.sampled_from(
    ["0", "-0", str(2**53 + 1), str(2**63), str(2**64 - 1), str(2**64), str(2**64 + 1)]
)
NUMBER_TEXT = st.one_of(REPR_OF_BITS, _decimal_text(), INTEGER_TEXT)

# per file kind: the marker names or the plate count, the values per marker
# or plate, and the rate
_KINDS = {"markers": (("M1", "M2"), 3, 200.0), "plates": (2, 5, 1000.0)}


def _row_values(kind) -> int:
    groups, width, _ = _KINDS[kind]
    return (len(groups) if kind == "markers" else groups) * width


def _number_rows(kind, fields: list[str]) -> list[list[str]]:
    """The fields of data rows of ``kind`` whose values after the time are
    ``fields``, in order, padded with ``1.5`` to whole rows."""
    n = _row_values(kind)
    fields = fields + ["1.5"] * (-len(fields) % n)
    rate = _KINDS[kind][2]
    return [[repr(r / rate), *fields[r * n : (r + 1) * n]] for r in range(len(fields) // n)]


def _write_numbers(path, kind, rows: list[list[str]]) -> list[str]:
    """Write a trial of ``kind`` with these data rows; returns their lines."""
    groups, _, rate = _KINDS[kind]
    lines = ["\t".join(row) for row in rows]
    if kind == "markers":
        path.write_text(_marker_text(lines, names=groups, rate=repr(rate)), encoding="utf-8")
    else:
        path.write_text(_force_text(lines, n_plates=groups, rate=repr(rate)), encoding="utf-8")
    return lines


def _parsed_groups(path, kind) -> np.ndarray:
    """The values after the time, (rows, groups, width), as the parser holds them."""
    if kind == "markers":
        traj = parse_marker_file(path)
        return traj.positions.transpose(1, 0, 2)
    return parse_force_file(path).values.transpose(1, 0, 2)


@NUMBERS
@given(kind=st.sampled_from(sorted(_KINDS)), fields=st.lists(NUMBER_TEXT, min_size=1, max_size=40))
def test_a_parse_has_the_bits_of_loadtxt(kind, fields):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trial.tsv"
        lines = _write_numbers(path, kind, _number_rows(kind, fields))
        expected = np.loadtxt(lines, delimiter="\t", comments=None, ndmin=2)[:, 1:]
        expected = expected.reshape(len(lines), -1, _KINDS[kind][1])
        if kind == "markers":  # an all-zero triplet marks an occlusion
            expected[(expected == 0.0).all(axis=2)] = np.nan
        got = _parsed_groups(path, kind)
    assert got.tobytes() == expected.tobytes()


def test_clean_rows_are_read_without_loadtxt(tmp_path, monkeypatch):
    calls = []
    loadtxt = ingest._loadtxt
    monkeypatch.setattr(ingest, "_loadtxt", lambda rows: calls.append(rows) or loadtxt(rows))
    path = tmp_path / "trial.tsv"
    for kind, fields in (("markers", ["-0.0", "1e-5", "12345678901234567890123"]),
                         ("plates", ["0", "-1", "2E+3", "0.1"])):
        _write_numbers(path, kind, _number_rows(kind, fields * 50))
        _parsed_groups(path, kind)
        assert calls == []
    # a field that JSON does not read sends its whole block to loadtxt
    lines = _write_numbers(path, "plates", _number_rows("plates", ["1.5"] * 99 + ["+1"]))
    assert _parsed_groups(path, "plates")[-1, -1, -1] == 1.0
    assert calls == [lines]


@pytest.mark.parametrize("last", [False, True], ids=["first-value", "last-value"])
@pytest.mark.parametrize("kind", sorted(_KINDS))
@pytest.mark.parametrize(
    "field, short, expected",
    [
        # a field with a comma or brackets adds no value and no row to JSON
        ("1,2", True, "data row 2 has {n} columns, expected {width}"),
        ("1,2", False, "data row 2, {column}: non-numeric value"),
        ("1],[2", True, "data row 2 has {n} columns, expected {width}"),
        ("1],[2", False, "data row 2, {column}: non-numeric value"),
        # JSON words that np.array would read as numbers
        ("true", False, "data row 2, {column}: non-numeric value"),
        ("null", False, "data row 2, {column}: non-numeric value"),
        ('"1.5"', False, "data row 2, {column}: non-numeric value"),
        ('"1"', False, "data row 2, {column}: non-numeric value"),
        ("[1]", False, "data row 2, {column}: non-numeric value"),
        # control bytes and spaces, which JSON never sees in a field
        ("\r1.5", False, "data row 2, {column}: non-numeric value"),
        ("\x00", False, "data row 2, {column}: non-numeric value"),
        ("1.5\x00", False, "data row 2, {column}: non-numeric value"),
        ("\x0b", False, "data row 2, {column}: non-numeric value"),
        ("1 .5", False, "data row 2, {column}: non-numeric value"),
        ("\x0b1.5", False, 1.5),
        ("1.5\x0b", False, 1.5),
        ("\x0c1.5", False, 1.5),
        ("1.5\x1f", False, 1.5),
        ("1.5 ", False, 1.5),
        # numbers that JSON reads otherwise, or refuses, and loadtxt reads
        ("-0", False, -0.0),
        ("+1", False, 1.0),
        ("1.", False, 1.0),
        (".5", False, 0.5),
        ("01", False, 1.0),
        (" 1.5", False, 1.5),
        ("nan", False, "data row 2, {column}: non-finite value"),
        ("inf", False, "data row 2, {column}: non-finite value"),
        ("1e400", False, "data row 2, {column}: non-finite value"),
        ("-1e400", False, "data row 2, {column}: non-finite value"),
        ("1.7976931348623159e308", False, "data row 2, {column}: non-finite value"),
        ("Infinity", False, "data row 2, {column}: non-finite value"),
        ("NaN", False, "data row 2, {column}: non-finite value"),
        pytest.param("9" * 400, False, "data row 2, {column}: non-finite value", id="9x400"),
    ],
)
def test_each_field_that_json_reads_otherwise_falls_back_to_loadtxt(
    tmp_path, monkeypatch, kind, last, field, short, expected
):
    n = _row_values(kind)
    rows = _number_rows(kind, ["2.5"] * (3 * n))
    at = n if last else 1  # the field's column in the second row
    rows[1][at] = field
    if short:  # the row holds one field too few, as if the field were two
        del rows[1][at - 1 if last else at + 1]
    path = tmp_path / "trial.tsv"
    _write_numbers(path, kind, rows)
    if isinstance(expected, str):
        names = _KINDS[kind][0] if kind == "markers" else None
        column = ingest._column_name(at, _KINDS[kind][1], names)
        message = expected.format(n=len(rows[1]), width=1 + n, column=column)
        with pytest.raises(InputError, match=f": {re.escape(message)}$"):
            _parsed_groups(path, kind)
    else:
        loaded = _record(monkeypatch, "_loadtxt", lambda args, _: len(args[0]))
        value = _parsed_groups(path, kind).reshape(3, n)[1, at - 1]
        assert value.tobytes() == np.float64(expected).tobytes()
        assert loaded == [3]  # the block's three rows, read by loadtxt, not by JSON



def test_clean_files_are_read_from_their_bytes_without_the_row_path(tmp_path, monkeypatch):
    split, filled = _routes(monkeypatch)
    monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", 5000)
    params = WalkerParams(duration_s=2.0)
    markers, plates = tmp_path / "markers.tsv", tmp_path / "plates.tsv"
    traj = generate_walker(params).markers
    write_marker_file(markers, traj)
    write_force_file(plates, synth_force_plates(params))
    parse_marker_file(markers)
    parse_force_file(plates)
    # a clean block is neither filled nor split
    assert split == [] and filled == []
    # a blank triplet has its block filled, and no block split
    traj.markers["LHEE"][150] = np.nan
    write_marker_file(markers, traj)
    assert parse_marker_file(markers).missing["LHEE"][150]
    assert split == [] and filled == [1]
    # a \r\n file is read from its bytes too, and so is a block that ends in
    # blank lines
    plates.write_bytes(plates.read_bytes().replace(b"\n", b"\r\n") + b"\r\n\n")
    markers.write_bytes(markers.read_bytes() + b"\n\n")
    parse_force_file(plates)
    assert parse_marker_file(markers).missing["LHEE"][150]
    assert split == [] and filled == [1, 1]


# ------------------------------------------------------ the number writer

SPELLING = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def _column_text(values) -> list[str]:
    """The written text of each value of a 1-D float array."""
    return ingest._float_rows(np.reshape(values, (-1, 1)), ",")


@SPELLING
@given(
    seed=st.integers(0, 2**32 - 1),
    floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=100),
)
def test_written_text_is_repr_of_random_bit_patterns(seed, floats):
    # uniform bit patterns, whose exponents span the whole range, and the
    # floats that hypothesis favours (subnormals, integers, near boundaries)
    bits = np.random.default_rng(seed).integers(0, 2**64, size=1000, dtype=np.uint64)
    values = np.concatenate([floats, bits.view(np.float64)])
    values = values[np.isfinite(values)]
    assert _column_text(values) == list(map(repr, values.tolist()))
    # and the same text, row by row, from a block of several columns
    block = values[: values.size // 4 * 4].reshape(-1, 4)
    assert ingest._float_rows(block, "\t") == ["\t".join(map(repr, row)) for row in block.tolist()]


def test_written_text_spells_floats_as_repr_does():
    # orjson writes the digits of repr; these pin how it spells them
    bits = np.ldexp(1.0, np.arange(-1074, 1024)).view(np.int64)
    near = np.concatenate([bits + d for d in range(-3, 4)])  # powers of two +-3 ulps
    near = near[(near > 0) & (near < np.float64(np.inf).view(np.int64))].view(np.float64)
    edges = [1e16, 9999999999999998.0, 1e-4, 1e-5, 9.9999e-05, 2.5e-05, 10.00001,
             5e-324, np.finfo(float).max, -0.0]
    values = np.concatenate([near, -near, edges, np.negative(edges)])
    assert _column_text(values) == list(map(repr, values.tolist()))
    assert _column_text(edges) == [
        "1e+16", "9999999999999998.0", "0.0001", "1e-05", "9.9999e-05", "2.5e-05", "10.00001",
        "5e-324", "1.7976931348623157e+308", "-0.0",
    ]
    # each alone, so that no other value of its block has its text respelt
    alone = [*edges, *np.negative(edges), np.nextafter(1e-5, 0), np.nextafter(1e-4, 0)]
    for value in np.array(alone).tolist():
        assert _column_text([value]) == [repr(value)]
    assert _column_text([np.nan, np.inf, 1.5e-7, -np.inf, -np.nan]) == [
        "", "inf", "1.5e-07", "-inf", "",
    ]
    block = np.array([[np.nan, 2.5e-05, -np.inf], [1e16, np.nan, np.nan], [np.inf, -0.0, 1.0]])
    assert ingest._float_rows(block, ",") == [",2.5e-05,-inf", "1e+16,,", "inf,-0.0,1.0"]


# values that orjson spells otherwise than repr, or next to such a value
_TRICKY = np.array([
    np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
    2.2250738585072014e-308, 1e16, -1e16, 9999999999999998.0, 1.0000000000000002e16, 1e22,
    1e-5, 1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-5, 0), 9.9999e-05, 2.5e-05, -2.5e-05,
    1.000001e-05, 10.00001, -10.00001, 100.00001, 1.5e-7, 1e300, np.finfo(float).max,
])


def _reference_csv(header, columns, sep) -> str:
    """What ``_write_csv`` writes, value by value: ``repr`` of each float,
    nothing for NaN, the digits of each integer and strings as they are."""
    def spell(value):
        return ("" if math.isnan(value) else repr(value)) if isinstance(value, float) else str(value)

    rows = zip(*[c.tolist() if isinstance(c, np.ndarray) else list(c) for c in columns])
    return "".join(line + "\n" for line in [*header, *(sep.join(map(spell, r)) for r in rows)])


@pytest.mark.parametrize("seed", range(24))
def test_the_block_writer_writes_each_value_as_repr_does(seed):
    rng = np.random.default_rng(seed)
    kinds = rng.choice(list("fffFisou"), size=int(rng.integers(1, 9))).tolist()
    step = max(1, ingest._VALUES_PER_BLOCK // len(kinds))
    n = int(rng.choice([0, 1, step - 1, step, step + 1, 2 * step + 3]))
    columns = []
    for kind in kinds:
        if kind in "fF":  # tricky values, uniform bit patterns and plain ones
            pick = rng.integers(0, 3, n)
            bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
            plain = rng.normal(size=n) * 10.0 ** rng.integers(-8, 8, n)
            values = np.where(pick == 0, rng.choice(_TRICKY, n), np.where(pick == 1, bits, plain))
            with np.errstate(over="ignore", invalid="ignore"):  # float32 overflows to inf
                columns.append(values if kind == "f" else values.astype(np.float32))
        elif kind in "iu":
            dtype = np.int64 if kind == "i" else np.uint64
            info = np.iinfo(dtype)
            columns.append(rng.integers(info.min, info.max, n, dtype=dtype, endpoint=True))
        else:  # a list of strings, or an array of them
            words = rng.choice(["left", "right", "double_stance", "a b", "é"], n).tolist()
            columns.append(words if kind == "s" else np.array(words, dtype=object))
    sep = str(rng.choice([",", "\t"]))
    header = [sep.join(f"c{k}" for k in range(len(kinds)))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.csv"
        ingest._write_csv(path, header, columns, sep=sep)
        assert path.read_bytes() == _reference_csv(header, columns, sep).encode("utf-8")
