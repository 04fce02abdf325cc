"""Marker/force file parsing, writing, and gap filling."""

import numpy as np
import pytest

from gaitkinetics.errors import InputError
from gaitkinetics.ingest import (
    ForcePlateSeries,
    IngestConfig,
    MarkerTrajectorySet,
    fill_gaps,
    parse_force_file,
    parse_marker_file,
    write_force_file,
    write_marker_file,
)


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
    missing = {
        "A": np.zeros(n, dtype=bool),
        "B": np.zeros(n, dtype=bool),
    }
    missing["B"][[5, 6, 7, 20]] = True
    markers["B"][missing["B"]] = np.nan
    traj = MarkerTrajectorySet(sample_rate_hz=123.5, markers=markers, missing=missing)

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


def test_marker_expected_unit_mismatch_is_rejected(tmp_path):
    text = _marker_text(["0.0\t1.0\t2.0\t3.0"], units="mm")
    path = _write(tmp_path, text)
    with pytest.raises(InputError, match="does not match expected"):
        parse_marker_file(path, IngestConfig(expected_unit="m"))
    # and the matching expectation passes
    parse_marker_file(path, IngestConfig(expected_unit="mm"))


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
    mask = np.zeros(n, dtype=bool)
    mask[list(missing_frames)] = True
    pos[mask] = np.nan
    return MarkerTrajectorySet(
        sample_rate_hz=rate, markers={"M": pos}, missing={"M": mask}
    )


def test_fill_gaps_interpolates_single_missing_frame():
    traj = _gapped([0.0, -1.0, 2.0], [1])
    filled = fill_gaps(traj, max_gap_frames=5)
    assert not filled.missing["M"].any()
    assert np.array_equal(filled.markers["M"][1], [1.0, 2.0, 1.0])


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
    traj = MarkerTrajectorySet(100.0, {"M": pos}, {"M": mask})
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
    from gaitkinetics.synth import generate_walker

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
    traj = MarkerTrajectorySet(200.0, markers, missing)
    filled = fill_gaps(traj, max_gap_frames=max_gap_frames)
    for name in markers:
        pos, mask = reference_fill_gaps(markers[name], missing[name], max_gap_frames)
        assert np.array_equal(filled.missing[name], mask)
        assert filled.markers[name].tobytes() == pos.tobytes()
