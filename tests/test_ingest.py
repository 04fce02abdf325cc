"""Marker/force file parsing, writing, and gap filling."""

import os
import threading
import tracemalloc

import numpy as np
import pytest

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
    traj = MarkerTrajectorySet(sample_rate_hz=123.5, markers=markers)
    assert np.flatnonzero(traj.missing["B"]).tolist() == [5, 6, 7, 20]

    path = tmp_path / "round.tsv"
    write_marker_file(path, traj)
    back = parse_marker_file(path)

    assert back.sample_rate_hz == traj.sample_rate_hz
    assert back.marker_names == traj.marker_names
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
    return MarkerTrajectorySet(sample_rate_hz=rate, markers={"M": pos})


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
    traj = MarkerTrajectorySet(100.0, {"M": pos})
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
    series = ForcePlateSeries(
        sample_rate_hz=2000.0,
        forces=rng.normal(size=(2, 30, 3)) * 400.0,
        cop=rng.normal(size=(2, 30, 2)),
    )
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
    forces = np.zeros((2, 4, 3))
    forces[0, :, 2] = 100.0
    forces[1, :, 2] = 50.0
    forces[0, :, 0] = 7.0
    series = ForcePlateSeries(1000.0, forces, np.zeros((2, 4, 2)))
    total = series.total_force()
    assert total.shape == (4, 3)
    assert np.array_equal(total[0], [7.0, 0.0, 150.0])


def test_force_below_noise_flags_implausible_vertical():
    forces = np.zeros((1, 4, 3))
    forces[0, :, 2] = [0.0, -4.0, -6.0, 10.0]
    series = ForcePlateSeries(1000.0, forces, np.zeros((1, 4, 2)), noise_floor_n=5.0)
    assert np.array_equal(series.below_noise[0], [False, False, True, False])
    with pytest.raises(InputError, match="noise_floor_n must be non-negative"):
        ForcePlateSeries(1000.0, forces, np.zeros((1, 4, 2)), noise_floor_n=-1.0)
    with pytest.raises(TypeError, match="below_noise"):
        ForcePlateSeries(1000.0, forces, np.zeros((1, 4, 2)), below_noise=np.zeros((1, 4), bool))


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


def test_crlf_line_endings_parse_like_lf(tmp_path):
    text = _marker_text(_timed_rows([0.0, 0.005, 0.01], 3) + ["0.015\t\t\t"])
    lf = parse_marker_file(_write(tmp_path, text))
    path = tmp_path / "crlf.tsv"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    crlf = parse_marker_file(path)
    assert np.array_equal(crlf.missing["M1"], lf.missing["M1"])
    assert crlf.markers["M1"].tobytes() == lf.markers["M1"].tobytes()


def test_synth_walker_with_gaps_round_trips_bit_for_bit(tmp_path):
    traj = generate_walker().markers
    assert traj.n_frames == 2000
    rng = np.random.default_rng(19)
    names = traj.marker_names
    for _ in range(80):
        name = names[int(rng.integers(len(names)))]
        start = int(rng.integers(0, traj.n_frames - 12))
        stop = start + int(rng.integers(1, 12))
        traj.missing[name][start:stop] = True
        traj.markers[name][start:stop] = np.nan

    path = tmp_path / "walker.tsv"
    write_marker_file(path, traj)
    back = parse_marker_file(path)
    assert back.marker_names == names
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
    traj = MarkerTrajectorySet(200.0, markers)
    filled = fill_gaps(traj, max_gap_frames=max_gap_frames)
    for name in markers:
        pos, mask = reference_fill_gaps(markers[name], missing[name], max_gap_frames)
        assert np.array_equal(filled.missing[name], mask)
        assert filled.markers[name].tobytes() == pos.tobytes()


# ------------------------------------------------- block-by-block reading


def _gapped_walker(duration_s, seed):
    traj = generate_walker(WalkerParams(duration_s=duration_s)).markers
    rng = np.random.default_rng(seed)
    names = traj.marker_names
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
    assert blocks.marker_names == whole.marker_names
    for name in whole.marker_names:
        assert np.array_equal(blocks.missing[name], whole.missing[name])
        assert blocks.markers[name].tobytes() == whole.markers[name].tobytes()

    rng = np.random.default_rng(29)
    series = ForcePlateSeries(1000.0, rng.normal(size=(2, 300, 3)), rng.normal(size=(2, 300, 2)))
    plates = tmp_path / "plates.tsv"
    write_force_file(plates, series)
    back = parse_force_file(plates)
    assert back.forces.tobytes() == series.forces.tobytes()
    assert back.cop.tobytes() == series.cop.tobytes()


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
    arrays = sum(back.markers[n].nbytes + back.missing[n].nbytes for n in back.marker_names)
    assert peak < 3 * arrays, f"peak {peak / arrays:.2f} x the parsed arrays"


def test_fill_gaps_shares_the_arrays_of_markers_it_leaves_untouched():
    traj = generate_walker(WalkerParams(duration_s=30.0)).markers
    assert not any(mask.any() for mask in traj.missing.values())
    tracemalloc.start()
    try:
        filled = fill_gaps(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(traj.markers[n].nbytes + traj.missing[n].nbytes for n in traj.marker_names)
    assert peak < 0.1 * arrays, f"peak {peak / arrays:.2f} x the marker arrays"
    assert all(filled.markers[n] is traj.markers[n] for n in traj.marker_names)


def test_building_a_marker_set_copies_no_positions():
    traj = generate_walker(WalkerParams(duration_s=30.0)).markers
    markers = dict(traj.markers)
    tracemalloc.start()
    try:
        MarkerTrajectorySet(traj.sample_rate_hz, markers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # beyond the derived masks, one bool per frame per marker
    peak -= len(markers) * traj.n_frames
    one_marker = traj.markers["LHEE"].nbytes
    assert peak < 0.5 * one_marker, f"peak {peak / one_marker:.2f} x one marker's positions"


def test_marker_set_rejects_non_finite_present_positions_only():
    # a triplet is all finite, or all NaN where the marker was occluded
    pos = np.zeros((5, 3))
    pos[2] = np.nan
    traj = MarkerTrajectorySet(100.0, {"M": pos.copy()})
    assert traj.missing["M"].tolist() == [False, False, True, False, False]
    for frame, value in ((3, (0.0, np.nan, 0.0)), (4, (0.0, np.inf, 0.0)), (1, (-np.inf,) * 3)):
        bad = pos.copy()
        bad[frame] = value
        with pytest.raises(InputError, match=f"^marker 'M': non-finite position at frame {frame}"):
            MarkerTrajectorySet(100.0, {"M": bad})
    # the mask is derived from the positions; none can be passed in
    with pytest.raises(TypeError, match="positional"):
        MarkerTrajectorySet(100.0, {"M": pos}, {"M": traj.missing["M"]})
    with pytest.raises(TypeError, match="'missing'"):
        MarkerTrajectorySet(100.0, {"M": pos}, missing={"M": traj.missing["M"]})


# ----------------------------------------- one copy of each parsed array


@pytest.fixture(scope="module")
def files_60s(tmp_path_factory):
    """A 60 s synth walker's marker file, and two plates of noise at 2 kHz."""
    root = tmp_path_factory.mktemp("trial_60s")
    markers, plates = root / "markers.tsv", root / "plates.tsv"
    write_marker_file(markers, generate_walker(WalkerParams(duration_s=60.0)).markers)
    rng = np.random.default_rng(60)
    n = 120_000
    series = ForcePlateSeries(2000.0, rng.normal(size=(2, n, 3)), rng.normal(size=(2, n, 2)))
    write_force_file(plates, series)
    return {"markers": markers, "plates": plates}


def _marker_bytes(traj):
    return sum(traj.markers[n].nbytes + traj.missing[n].nbytes for n in traj.marker_names)


def _plate_bytes(series):
    return series.forces.nbytes + series.cop.nbytes + series.below_noise.nbytes


@pytest.mark.parametrize(
    "kind, parse, retained_bytes",
    [("markers", parse_marker_file, _marker_bytes), ("plates", parse_force_file, _plate_bytes)],
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
    series = ForcePlateSeries(1000.0, rng.normal(size=(2, 50, 3)), rng.normal(size=(2, 50, 2)))
    plates = tmp_path / "plates.tsv"
    write_force_file(plates, series)
    for ending in ("\n", "\n\n\n", "\r\n\r\n"):
        for file in (path, plates):
            file.write_bytes(file.read_bytes().rstrip(b"\r\n") + b"\n" + ending.encode())
        back = parse_marker_file(path)
        assert back.n_frames == plain.n_frames
        for name in plain.marker_names:
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
    "fault, message",
    [
        ("0.75\t1.5\t2.5\t3.5\t\t", "data row 151 has 6 columns, expected 7"),
        ("0.75\t1.5\t2.5\t3.5\t\t\t\t\t", "data row 151 has 9 columns, expected 7"),
        ("0.75\t1.5\t2.5\t3.5\t4.5\t\t6.5", "data row 151, marker 'M2': partially blank"),
        ("0.75\t1.5\t2.5\tx\t\t\t", "data row 151, marker 'M1': non-numeric value"),
    ],
)
def test_faults_after_blocks_with_blank_triplets_are_named(tmp_path, monkeypatch, fault, message):
    # every other row holds a blank triplet, so each block after the first
    # is looked at row by row before it is parsed
    rows = _two_marker_rows(200)
    rows[::2] = [row.replace("\t4.5\t5.5\t6.5", "\t\t\t") for row in rows[::2]]
    rows[150] = fault
    path = _write(tmp_path, _marker_text(rows, names=("M1", "M2")))
    for bytes_per_block in (1 << 20, 100, 400):
        monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", bytes_per_block)
        with pytest.raises(InputError, match=message):
            parse_marker_file(path)


def test_a_hidden_miscount_in_a_force_file_is_named(tmp_path):
    rows = _timed_rows([k / 1000.0 for k in range(6)], 5)
    rows[2] += "\t1.0"
    rows[4] = rows[4][: rows[4].rindex("\t")]
    with pytest.raises(InputError, match="data row 3 has 7 columns, expected 6"):
        parse_force_file(_write(tmp_path, _force_text(rows), "force.tsv"))


def test_only_blocks_near_a_blank_triplet_are_split_row_by_row(tmp_path, monkeypatch):
    rows = _two_marker_rows(300)
    rows[250] = rows[250].replace("\t4.5\t5.5\t6.5", "\t\t\t")
    path = _write(tmp_path, _marker_text(rows, names=("M1", "M2")))
    monkeypatch.setattr(ingest, "_BYTES_PER_BLOCK", 1000)
    calls = []
    zero_blank_triplets = ingest._zero_blank_triplets

    def counted(path, rows, start, names):
        calls.append(start)
        return zero_blank_triplets(path, rows, start, names)

    monkeypatch.setattr(ingest, "_zero_blank_triplets", counted)
    back = parse_marker_file(path)
    # of ten blocks of about 30 rows, one holds the blank triplet: it and the
    # block after it are split, no other
    assert len(calls) == 2 and calls[0] <= 250 < calls[1] < 300
    assert np.flatnonzero(back.missing["M2"]).tolist() == [250]
    assert not back.missing["M1"].any()


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
    assert parse_marker_file(path).marker_names == ["M1", "Mé"]
    for cut in (text.encode("utf-8")[:-1] + b"\xc3", b"RATE\t200.0\nUNITS\tm\nMARKERS\tM\xc3"):
        path.write_bytes(cut)
        with pytest.raises(InputError, match="not UTF-8 text"):
            parse_marker_file(path)
