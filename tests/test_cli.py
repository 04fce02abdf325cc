"""End-to-end command-line pipeline runs (invoked in-process)."""

import codecs
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

import gaitkinetics
from gaitkinetics import cli
from gaitkinetics.anthro import SubjectProfile, bundled_table_path, load_table
from gaitkinetics.errors import InputError, InternalInvariantError
from gaitkinetics.ingest import fill_gaps, parse_marker_file, write_force_file, write_marker_file
from gaitkinetics.kinematics import (
    bundled_definitions_path,
    com_trajectory,
    load_segment_definitions,
)
from gaitkinetics.synth import WalkerParams, generate_walker, synth_force_plates
from gaitkinetics import synth

SUBJECT_ARGS = [
    "--subject-mass-kg", "80.0",
    "--subject-height-m", "1.78",
    "--subject-sex", "m",
]


def _slice_markers(traj, n):
    return type(traj)(traj.sample_rate_hz, traj.names, traj.positions[:, :n].copy())


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A 4 s walking trial plus force recordings, written once per module."""
    root = tmp_path_factory.mktemp("cli_trial")
    params = WalkerParams(duration_s=4.0)
    trial = generate_walker(params)
    paths = {
        "markers": root / "markers.tsv",
        "forces": root / "forces.tsv",
        "forces_300": root / "forces_300.tsv",
        "two_frame": root / "two_frame.tsv",
        "root": root,
    }
    write_marker_file(paths["markers"], trial.markers)
    write_force_file(paths["forces"], synth_force_plates(params))
    write_force_file(
        paths["forces_300"], synth_force_plates(params, force_rate_hz=300.0)
    )
    write_marker_file(paths["two_frame"], _slice_markers(trial.markers, 2))
    return paths


def _run(argv, capsys=None):
    code = cli.main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


# ----------------------------------------------------------------- com


def test_com_exports_the_raw_unsmoothed_positions(cli_files, tmp_path):
    out = tmp_path / "out"
    code = _run(
        ["com", "--marker-file", str(cli_files["two_frame"]),
         "--output-dir", str(out)] + SUBJECT_ARGS
    )
    assert code == 0
    lines = (out / "com.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "time_s,com_x,com_y,com_z"
    assert len(lines) == 3  # two frames: no low-pass minimum-length demands

    # the exported values are exactly the segment model's weighted mean
    from gaitkinetics.ingest import parse_marker_file

    traj = parse_marker_file(cli_files["two_frame"])
    com = com_trajectory(
        traj,
        load_segment_definitions(bundled_definitions_path()),
        load_table(bundled_table_path()),
        SubjectProfile(mass_kg=80.0, height_m=1.78, sex="m"),
    )
    for k, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert float(fields[0]) == k / traj.sample_rate_hz
        for axis in range(3):
            assert float(fields[axis + 1]) == com.whole_body[axis, k]


def test_com_reruns_are_byte_identical(cli_files, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert (
            _run(
                ["com", "--marker-file", str(cli_files["two_frame"]),
                 "--output-dir", str(out)] + SUBJECT_ARGS
            )
            == 0
        )
    assert (out_a / "com.csv").read_bytes() == (out_b / "com.csv").read_bytes()


def test_com_can_include_per_segment_columns(cli_files, tmp_path):
    out = tmp_path / "out"
    code = _run(
        ["com", "--marker-file", str(cli_files["two_frame"]),
         "--output-dir", str(out), "--include-segment-coms", "true"]
        + SUBJECT_ARGS
    )
    assert code == 0
    header = (out / "com.csv").read_text(encoding="utf-8").splitlines()[0]
    columns = header.split(",")
    assert len(columns) == 4 + 3 * 16
    assert "left_thigh_x" in columns


# ---------------------------------------------------------- error handling


def test_missing_required_options_exit_2(cli_files, tmp_path, capsys):
    code, captured = _run(
        ["com", "--marker-file", str(cli_files["two_frame"]),
         "--output-dir", str(tmp_path)],
        capsys,
    )
    assert code == 2
    assert "missing required option(s)" in captured.err
    assert "subject_mass_kg" in captured.err


def test_unreadable_files_exit_2(cli_files, tmp_path, capsys):
    code, captured = _run(
        ["com", "--marker-file", str(tmp_path / "missing.tsv"),
         "--output-dir", str(tmp_path)] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert "error:" in captured.err

    code, captured = _run(
        ["com", "--marker-file", str(cli_files["two_frame"]),
         "--anthro-table", str(tmp_path / "missing_table.txt"),
         "--output-dir", str(tmp_path)] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("kind", ["markers", "forces"])
def test_dropped_data_row_exits_2_naming_the_row(cli_files, tmp_path, capsys, kind):
    lines = cli_files[kind].read_text(encoding="utf-8").split("\n")
    header = 3 if kind == "markers" else 2
    del lines[header + 40]  # data row 41
    broken = tmp_path / f"dropped_{kind}.tsv"
    broken.write_text("\n".join(lines), encoding="utf-8")
    files = {"markers": cli_files["markers"], "forces": cli_files["forces"], kind: broken}
    code, captured = _run(
        ["grf", "--marker-file", str(files["markers"]), "--force-file", str(files["forces"]),
         "--output-dir", str(tmp_path)] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert f"{broken}: data row 41: time" in captured.err


def test_a_carriage_return_inside_a_row_exits_2_naming_the_field(cli_files, tmp_path, capsys):
    lines = cli_files["two_frame"].read_text(encoding="utf-8").split("\n")
    fields = lines[3].split("\t")
    fields[1] += "\r"  # the x of the first marker on data row 1
    lines[3] = "\t".join(fields)
    broken = tmp_path / "markers.tsv"
    broken.write_bytes("\n".join(lines).encode("utf-8"))
    code, captured = _run(
        ["com", "--marker-file", str(broken), "--output-dir", str(tmp_path / "out")]
        + SUBJECT_ARGS,
        capsys,
    )
    name = lines[2].split("\t")[1]
    assert code == 2
    assert captured.err == f"error: {broken}: data row 1, marker {name!r}: non-numeric value\n"


@pytest.mark.parametrize("kind", ["markers", "forces", "config", "anthro", "segments"])
def test_non_utf8_input_exits_2_naming_the_file(cli_files, tmp_path, capsys, kind):
    config = tmp_path / "run.cfg"
    config.write_text("cutoff_hz = 5.0\n", encoding="utf-8")
    flag, source, what = {
        "markers": ("--marker-file", cli_files["markers"], ""),
        "forces": ("--force-file", cli_files["forces"], ""),
        "config": ("--config", config, "config file "),
        "anthro": ("--anthro-table", bundled_table_path(), "anthropometric table "),
        "segments": ("--segment-definitions", bundled_definitions_path(), "segment definitions "),
    }[kind]
    data = Path(source).read_bytes()
    broken = tmp_path / f"latin1_{kind}.tsv"
    broken.write_bytes(data[: len(data) // 2] + b"\xff" + data[len(data) // 2 + 1 :])
    code, captured = _run(
        ["grf", "--marker-file", str(cli_files["markers"]),
         "--force-file", str(cli_files["forces"]), "--output-dir", str(tmp_path)]
        + SUBJECT_ARGS + [flag, str(broken)],
        capsys,
    )
    assert code == 2
    assert f"error: cannot read {what}{broken}: not UTF-8 text" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind", ["markers", "forces"])
def test_a_pipe_as_input_exits_2_naming_it_and_writes_nothing(cli_files, tmp_path, capsys, kind):
    fifo = tmp_path / f"{kind}.fifo"
    os.mkfifo(fifo)
    text = "".join(cli_files[kind].read_text(encoding="utf-8").splitlines(keepends=True)[:10])

    def write():  # a writer, so that opening the pipe to read it does not wait
        try:
            with open(fifo, "w", encoding="utf-8") as fh:
                fh.write(text)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    files = {"markers": cli_files["markers"], "forces": cli_files["forces"], kind: fifo}
    out = tmp_path / "out"
    code, captured = _run(
        ["grf", "--marker-file", str(files["markers"]), "--force-file", str(files["forces"]),
         "--output-dir", str(out)] + SUBJECT_ARGS,
        capsys,
    )
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert code == 2
    assert captured.err == f"error: cannot read {fifo}: not a regular file\n"
    assert not out.exists()


def _bom_inputs(cli_files, tmp_path) -> dict[str, tuple[str, Path]]:
    """Each kind of input file of a run, as its flag and its path."""
    config = tmp_path / "run.cfg"
    config.write_text("cutoff_hz = 5.0\nfilter_order = 4\n", encoding="utf-8")
    return {
        "markers": ("--marker-file", cli_files["markers"]),
        "forces": ("--force-file", cli_files["forces"]),
        "config": ("--config", config),
        "anthro": ("--anthro-table", Path(bundled_table_path())),
        "segments": ("--segment-definitions", Path(bundled_definitions_path())),
    }


def _grf_with(inputs: dict[str, tuple[str, Path]], out: Path, capsys):
    argv = ["grf", "--output-dir", str(out)] + SUBJECT_ARGS
    for flag, path in inputs.values():
        argv += [flag, str(path)]
    return _run(argv, capsys)


@pytest.mark.parametrize("kind", ["markers", "forces", "config", "anthro", "segments"])
def test_a_byte_order_mark_that_starts_an_input_file_is_skipped(cli_files, tmp_path, capsys, kind):
    inputs = _bom_inputs(cli_files, tmp_path)
    assert _grf_with(inputs, tmp_path / "plain", capsys)[0] == 0
    flag, path = inputs[kind]
    marked = tmp_path / f"bom_{path.name}"
    marked.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    inputs[kind] = (flag, marked)
    code, captured = _grf_with(inputs, tmp_path / "bom", capsys)
    assert code == 0, captured.err
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "bom").iterdir())
    for name in names:
        assert (tmp_path / "bom" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


@pytest.mark.parametrize("kind", ["config", "anthro", "segments"])
def test_a_file_of_a_cut_short_byte_order_mark_is_not_utf8(cli_files, tmp_path, capsys, kind):
    # a decoder that drops a leading mark may drop a cut-short one too
    inputs = _bom_inputs(cli_files, tmp_path)
    flag, _ = inputs[kind]
    cut = tmp_path / "cut_short_mark.txt"
    cut.write_bytes(codecs.BOM_UTF8[:2])
    inputs[kind] = (flag, cut)
    code, captured = _grf_with(inputs, tmp_path / "out", capsys)
    assert code == 2
    assert f"{cut}: not UTF-8 text" in captured.err


# the index of the line that a mark starts: the first line, after the one
# mark that a file may start with; the second; the last, before the final "\n"
@pytest.mark.parametrize("line", [0, 1, -2], ids=["a second at the start", "line 2", "last line"])
@pytest.mark.parametrize("kind", ["markers", "forces", "config"])
def test_a_byte_order_mark_anywhere_else_exits_2(cli_files, tmp_path, capsys, kind, line):
    inputs = _bom_inputs(cli_files, tmp_path)
    flag, path = inputs[kind]
    lines = path.read_bytes().split(b"\n")
    lines[line] = codecs.BOM_UTF8 + lines[line]
    marked = tmp_path / f"bom_{path.name}"
    marked.write_bytes(codecs.BOM_UTF8 * (line == 0) + b"\n".join(lines))
    inputs[kind] = (flag, marked)
    code, captured = _grf_with(inputs, tmp_path / "out", capsys)
    assert code == 2
    assert str(marked) in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("order", ["3", "0", "10", "100"])
def test_invalid_filter_order_exits_2(tmp_path, capsys, order):
    # refused before the marker file, which does not exist, is read
    code, captured = _run(
        ["grf", "--marker-file", str(tmp_path / "absent.tsv"),
         "--output-dir", str(tmp_path), "--filter-order", order] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err == (
        f"error: filter_order must be even, from 2 to 8, got {order}\n"
    )


@pytest.mark.parametrize("key, value", [("stance_threshold_m", "0.06"), ("noise_floor_n", "5")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_the_removed_stance_threshold_exits_2(cli_files, tmp_path, capsys, source, key, value):
    argv = ["events", "--marker-file", str(cli_files["markers"]),
            "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS
    if source == "flag":
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [flag, value])
        code, err = exc.value.code, capsys.readouterr().err
        assert f"unrecognized arguments: {flag} {value}" in err
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = {value}\n", encoding="utf-8")
        code, captured = _run(argv + ["--config", str(config)], capsys)
        err = captured.err
        assert err == f"error: {config}:1: unknown config key {key!r}\n"
    assert code == 2
    assert not (tmp_path / "out").exists()


def test_detected_events_that_do_not_alternate_exit_3(tmp_path, capsys):
    # a 5 cm forward flick of the 4 s trial's left heel marker at frame 280,
    # where it trails farthest behind the sacrum, reads as a second heel
    # strike before the left foot's next toe-off (frame 306)
    trial = generate_walker(WalkerParams(duration_s=4.0))
    heel = trial.markers.markers["LHEE"]
    heel[:, 0] += 0.05 * np.exp(-(((np.arange(len(heel)) - 280) / 8.0) ** 2))
    marker_path = tmp_path / "flick.tsv"
    write_marker_file(marker_path, trial.markers)
    code, captured = _run(
        ["grf", "--marker-file", str(marker_path),
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 3
    assert captured.err == (
        "error: no complete gait cycle found: left: consecutive 'hs' events at frames "
        "170 and 280 without the other event type between them\n"
    )
    assert not (tmp_path / "out").exists()


def test_trial_without_a_gait_cycle_exits_3(tmp_path, capsys):
    short = generate_walker(WalkerParams(duration_s=0.5))
    marker_path = tmp_path / "short.tsv"
    write_marker_file(marker_path, short.markers)
    code, captured = _run(
        ["grf", "--marker-file", str(marker_path),
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 3
    assert "no complete gait cycle found" in captured.err


def test_unfillable_marker_gap_blocks_event_detection(cli_files, tmp_path, capsys):
    from gaitkinetics.ingest import parse_marker_file

    traj = parse_marker_file(cli_files["markers"])
    traj.markers["LHEE"][100:115] = np.nan  # 15 frames: beyond max_gap_frames
    gappy_path = tmp_path / "gappy.tsv"
    write_marker_file(gappy_path, traj)
    code, captured = _run(
        ["events", "--marker-file", str(gappy_path),
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err == (
        f"error: {gappy_path}: marker 'LHEE' missing at frame 100 "
        "(15 frame(s) still occluded after gap filling)\n"
    )


# ------------------------------------------------------------ config layers


def test_config_file_env_and_flags_layer_correctly(
    cli_files, tmp_path, capsys, monkeypatch
):
    cfg_dir = tmp_path / "from_config"
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "# pipeline configuration\n"
        f"output_dir = {cfg_dir}\n"
        "cutoff_hz = 7.5\n",
        encoding="utf-8",
    )
    base = ["com", "--marker-file", str(cli_files["two_frame"]),
            "--config", str(config_path)] + SUBJECT_ARGS

    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    code, captured = _run(base, capsys)
    assert code == 0
    assert (cfg_dir / "com.csv").exists()
    assert f"  output_dir = {cfg_dir}  [config]" in captured.out
    assert "  cutoff_hz = 7.5  [config]" in captured.out
    assert "  gravity_mps2 = 9.81  [default]" in captured.out
    assert "  marker_file" in captured.out and "[flag]" in captured.out

    monkeypatch.setenv(cli.ENV_OUTPUT_DIR, str(env_dir))
    code, captured = _run(base, capsys)
    assert code == 0
    assert (env_dir / "com.csv").exists()
    assert f"  output_dir = {env_dir}  [env]" in captured.out

    code, captured = _run(base + ["--output-dir", str(flag_dir)], capsys)
    assert code == 0
    assert (flag_dir / "com.csv").exists()
    assert f"  output_dir = {flag_dir}  [flag]" in captured.out


def test_config_file_parsing_rejects_malformed_input(tmp_path):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("no_such_option = 1\n", encoding="utf-8")
    with pytest.raises(InputError, match="unknown config key"):
        cli.parse_config_file(bad_key)

    duplicate = tmp_path / "duplicate.cfg"
    duplicate.write_text("cutoff_hz = 5\ncutoff_hz = 6\n", encoding="utf-8")
    with pytest.raises(InputError, match="duplicate config key"):
        cli.parse_config_file(duplicate)

    no_equals = tmp_path / "no_equals.cfg"
    no_equals.write_text("cutoff_hz 5\n", encoding="utf-8")
    with pytest.raises(InputError, match="expected 'key = value'"):
        cli.parse_config_file(no_equals)

    comments_only = tmp_path / "comments.cfg"
    comments_only.write_text("# nothing here\n\n  # still nothing\n", encoding="utf-8")
    assert cli.parse_config_file(comments_only) == {}


# valid texts for a config field of each type, and the values they must parse to
FIELD_SAMPLES = {
    float: [("2.5", 2.5)],
    int: [("6", 6)],
    bool: [("yes", True), ("off", False)],
    str: [("m", "m")],
}


@pytest.mark.parametrize("field", fields(cli.PipelineConfig), ids=lambda field: field.name)
def test_each_config_field_parses_alike_as_flag_and_config_key(tmp_path, monkeypatch, field):
    monkeypatch.delenv(cli.ENV_OUTPUT_DIR, raising=False)
    (kind,) = set(get_args(field.type) or (field.type,)) - {type(None)}
    for text, value in FIELD_SAMPLES[kind]:
        args = cli._build_parser().parse_args(["com", "--" + field.name.replace("_", "-"), text])
        from_flag, _ = cli.build_config({field.name: getattr(args, field.name)})
        path = tmp_path / "run.cfg"
        path.write_text(f"{field.name} = {text}\n", encoding="utf-8")
        from_file, provenance = cli.build_config({}, cli.parse_config_file(path))
        assert provenance[field.name] == "config"
        for config in (from_flag, from_file):
            parsed = getattr(config, field.name)
            assert type(parsed) is kind and parsed == value


# help, and the usage errors that argparse words: a missing or bad command,
# a bad flag value and an unknown flag
PARSER_CASES = [
    ["-h"], *[[command, "-h"] for command in cli._COMMANDS], [], ["fly"],
    ["grf", "--cutoff-hz", "fast"], ["com", "--filter-order", "2.5"], ["events", "--no-such"],
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "none")
def test_parser_text_reads_as_with_every_option_on_every_subcommand(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as from_main:
        cli.main(argv)
    text = capsys.readouterr()
    with pytest.raises(SystemExit) as from_parser:
        cli._build_parser().parse_args(argv)
    assert (from_main.value.code, text) == (from_parser.value.code, capsys.readouterr())
    if argv[1:] == ["-h"]:
        flags = [f"--{field.name.replace('_', '-')} " for field in fields(cli.PipelineConfig)]
        assert [flag for flag in ["--config ", *flags] if flag not in text.out] == []


def test_butterfly_is_no_subcommand(cli_files, tmp_path, capsys):
    # grf writes the butterfly diagram with the forces
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["butterfly", "--marker-file", str(cli_files["markers"]),
                  "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS)
    assert exit_info.value.code == 2
    assert "argument command: invalid choice: 'butterfly'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


FLOAT_FIELDS = [
    field for field in fields(cli.PipelineConfig)
    if float in (get_args(field.type) or (field.type,))
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("text", ["inf", "nan"])
@pytest.mark.parametrize("field", FLOAT_FIELDS, ids=lambda field: field.name)
def test_non_finite_float_option_exits_2_naming_it(
    cli_files, tmp_path, capsys, field, text, source
):
    options = dict(zip(SUBJECT_ARGS[::2], SUBJECT_ARGS[1::2]))
    flag = "--" + field.name.replace("_", "-")
    argv = ["grf", "--marker-file", str(cli_files["markers"]),
            "--force-file", str(cli_files["forces"]), "--output-dir", str(tmp_path / "out")]
    if source == "flag":
        options[flag] = text
    else:
        options.pop(flag, None)  # a flag would override the config key
        config_path = tmp_path / "run.cfg"
        config_path.write_text(f"{field.name} = {text}\n", encoding="utf-8")
        argv += ["--config", str(config_path)]
    code, captured = _run(argv + [item for pair in options.items() for item in pair], capsys)
    assert code == 2
    assert captured.err.startswith(f"error: {field.name} must be ")
    assert captured.err.rstrip().endswith(f"got {text}")
    assert not (tmp_path / "out").exists()


def test_subject_mass_that_overflows_the_com_mean_exits_2(cli_files, tmp_path, capsys):
    code, captured = _run(
        ["grf", "--marker-file", str(cli_files["markers"]),
         "--output-dir", str(tmp_path)] + SUBJECT_ARGS + ["--subject-mass-kg", "1e308"],
        capsys,
    )
    assert code == 2
    assert captured.err == (
        "error: subject_mass_kg 1e+308 kg overflows the mass-weighted CoM mean\n"
    )


@pytest.mark.parametrize("mass", ["5e-324", "1e-310"])
def test_a_subject_mass_too_small_for_the_segment_masses_exits_2(
    cli_files, tmp_path, capsys, mass
):
    code, captured = _run(
        ["com", "--marker-file", str(cli_files["two_frame"]),
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS + ["--subject-mass-kg", mass],
        capsys,
    )
    assert code == 2
    assert captured.err.startswith(f"error: subject_mass_kg {float(mass)} kg gives head_neck ")
    assert captured.err.endswith(" kg, below the smallest normal float 2.23e-308\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("period", ["1e306", "1e308", "1.7976931348623157e308"])
def test_an_event_period_past_the_trial_gives_the_events_of_one_as_long(
    cli_files, tmp_path, period
):
    # a period of the trial's length already keeps one extremum of each kind
    argv = ["events", "--marker-file", str(cli_files["markers"])] + SUBJECT_ARGS
    for value, out in (("1e300", "reference"), (period, "out")):
        assert _run([*argv, "--min-event-period-s", value, "--output-dir", str(tmp_path / out)]) == 0
    reference = (tmp_path / "reference" / "events.csv").read_bytes()
    assert (tmp_path / "out" / "events.csv").read_bytes() == reference


@pytest.mark.parametrize("error", [InternalInvariantError, AssertionError])
def test_a_failed_internal_check_exits_4(cli_files, tmp_path, capsys, monkeypatch, error):
    def broken(*args):
        raise error("segment masses disagree")

    monkeypatch.setattr(cli, "com_trajectory", broken)
    code, captured = _run(
        ["com", "--marker-file", str(cli_files["markers"]),
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 4
    assert captured.err == "internal error: segment masses disagree\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "option, message",
    [
        (["--subject-mass-kg", "1e300"],
         "{forces} against {markers}: "
         "the compared series differ too widely: their squared difference overflows"),
        (["--gravity-mps2", "1e300"],
         "{forces} against {markers}: "
         "the compared series differ too widely: their squared difference overflows"),
        (["--subject-mass-kg", "1e307"],
         "subject_mass_kg 1e+307 kg and gravity_mps2 9.81 m/s^2 "
         "overflow the ground reaction force"),
    ],
    ids=["mass-1e300", "gravity-1e300", "mass-1e307"],
)
def test_huge_mass_or_gravity_exits_2_without_an_overflow_warning(
    cli_files, tmp_path, capsys, option, message
):
    code, captured = _run(
        ["grf", "--marker-file", str(cli_files["markers"]),
         "--force-file", str(cli_files["forces"]),
         "--output-dir", str(tmp_path)] + SUBJECT_ARGS + option,
        capsys,
    )
    assert code == 2
    assert captured.err == f"error: {message.format(**cli_files)}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e150, 1e200])
@pytest.mark.parametrize("command", ["com", "grf", "validate"])
def test_huge_marker_coordinates_exit_2_naming_the_segment(
    cli_files, tmp_path, capsys, command, scale
):
    traj = parse_marker_file(cli_files["markers"])
    traj.positions *= scale
    markers = tmp_path / "scaled.tsv"
    write_marker_file(markers, traj)
    out = tmp_path / "out"
    code, captured = _run(
        [command, "--marker-file", str(markers), "--force-file", str(cli_files["forces"]),
         "--output-dir", str(out)] + SUBJECT_ARGS,
        capsys,
    )
    if scale == 1e150:
        assert code == 0, captured.err
        return
    assert code == 2
    assert captured.err == (
        "error: head_neck: marker coordinates too large for the segment geometry\n"
    )
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rows", [1, 40])
@pytest.mark.parametrize("kind", ["markers", "forces"])
def test_infinite_rate_exits_2_naming_the_file(cli_files, tmp_path, capsys, kind, rows):
    lines = cli_files[kind].read_text(encoding="utf-8").splitlines()
    head = 3 if kind == "markers" else 2
    assert lines[0].startswith("RATE\t")
    path = tmp_path / f"{kind}.tsv"
    path.write_text("\n".join(["RATE\tinf"] + lines[1 : head + rows]) + "\n", encoding="utf-8")
    files = {"markers": cli_files["markers"], "forces": cli_files["forces"], kind: path}
    code, captured = _run(
        ["grf", "--marker-file", str(files["markers"]), "--force-file", str(files["forces"]),
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err == f"error: {path}: RATE must be finite, got inf\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["nan", "1e999", "-inf"])
@pytest.mark.parametrize("kind", ["markers", "forces"])
def test_a_non_finite_value_exits_2_naming_the_file_row_and_column(
    cli_files, tmp_path, capsys, kind, text
):
    lines = cli_files[kind].read_text(encoding="utf-8").splitlines()
    if kind == "markers":  # the z of LASI
        head, named = 3, "marker 'LASI'"
        column = 1 + 3 * lines[2].split("\t")[1:].index("LASI") + 2
    else:  # the Fz of plate 2
        head, column, named = 2, 1 + 5 + 2, "plate 2"
    fields = lines[head + 6].split("\t")
    fields[column] = text
    lines[head + 6] = "\t".join(fields)
    path = tmp_path / f"{kind}.tsv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    files = {"markers": cli_files["markers"], "forces": cli_files["forces"], kind: path}
    out = tmp_path / "out"
    code, captured = _run(
        ["grf", "--marker-file", str(files["markers"]), "--force-file", str(files["forces"]),
         "--output-dir", str(out)] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err == f"error: {path}: data row 7, {named}: non-finite value\n"
    assert not out.exists()


def test_bad_boolean_flag_exits_2_naming_the_flag(cli_files, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(
            ["com", "--marker-file", str(cli_files["two_frame"]),
             "--output-dir", str(tmp_path), "--include-segment-coms", "maybe"]
            + SUBJECT_ARGS
        )
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --include-segment-coms: expected a boolean, got 'maybe'" in err
    assert "Traceback" not in err


def test_bad_boolean_config_value_exits_2_naming_the_key(cli_files, tmp_path, capsys):
    config_path = tmp_path / "run.cfg"
    config_path.write_text("include_segment_coms = perhaps\n", encoding="utf-8")
    code, captured = _run(
        ["com", "--marker-file", str(cli_files["two_frame"]),
         "--config", str(config_path),
         "--output-dir", str(tmp_path)] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert (
        "error: config key include_segment_coms: expected a boolean, got 'perhaps'"
        in captured.err
    )


def test_malformed_config_file_exits_2(cli_files, tmp_path, capsys):
    config_path = tmp_path / "broken.cfg"
    config_path.write_text("mystery = 12\n", encoding="utf-8")
    code, captured = _run(
        ["com", "--marker-file", str(cli_files["two_frame"]),
         "--config", str(config_path),
         "--output-dir", str(tmp_path)] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert "unknown config key" in captured.err


# --------------------------------------------------------------- pipelines


def test_events_writes_only_the_events_of_the_grf_timeline(cli_files, tmp_path):
    runs = {}
    for command in ("events", "grf"):
        runs[command] = tmp_path / command
        code = _run(
            [command, "--marker-file", str(cli_files["markers"]),
             "--output-dir", str(runs[command])] + SUBJECT_ARGS
        )
        assert code == 0
    assert [path.name for path in runs["events"].iterdir()] == ["events.csv"]
    events = (runs["events"] / "events.csv").read_bytes()
    lines = events.decode().splitlines()
    assert lines[0] == "foot,event_type,frame,time_s"
    assert len(lines) > 8  # several cycles in 4 s
    assert events == (runs["grf"] / "events.csv").read_bytes()


CONTACT_N = 20.0  # a plate is in contact while its vertical force is above this


def _seeded_walker(seed: int) -> WalkerParams:
    """A 10 s walker drawn as ``benchmarks/worker.py``'s ``walker_params``
    draws one: a cycle of an even number of frames, and the scripted events, in
    the default walker's pattern, each on a whole frame."""
    rng = np.random.default_rng(seed)
    rate = 200.0
    cycle = 2 * int(rng.integers(100, 121))
    ds = int(round(cycle * 26 / 220)) + int(rng.integers(-2, 3))
    rhs = 60
    frames = {
        "right_hs_offset_s": rhs,
        "left_to_offset_s": rhs + ds,
        "left_hs_offset_s": rhs + cycle // 2,
        "right_to_offset_s": rhs + cycle // 2 + ds,
    }
    return WalkerParams(
        sample_rate_hz=rate,
        duration_s=10.0,
        cycle_s=cycle / rate,
        speed_mps=float(rng.uniform(1.0, 1.5)),
        mass_kg=float(rng.uniform(55.0, 100.0)),
        height_m=float(rng.uniform(1.55, 1.95)),
        **{k: v / rate for k, v in frames.items()},
    )


def _runs_of(mask: np.ndarray) -> list[tuple[int, int]]:
    """The first and last frame of each run of True in ``mask``."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False])))).tolist()
    return list(zip(edges[::2], [end - 1 for end in edges[1::2]]))


@pytest.mark.parametrize("seed", range(1000, 1010))
def test_each_stance_starts_and_ends_within_a_frame_of_plate_contact(seed):
    # plate 1 carries the right foot and plate 2 the left; a stance or a
    # contact at least 0.5 s from either end of the trial must overlap
    # exactly one run of the other, whose ends are within a frame of its own
    params = _seeded_walker(seed)
    plates = synth_force_plates(params)
    timeline = cli._timeline(cli.PipelineConfig(), generate_walker(params).markers)
    step = round(plates.sample_rate_hz / params.sample_rate_hz)
    n, margin = params.n_frames, round(0.5 * params.sample_rate_hz)
    for plate, foot in ((0, "right"), (1, "left")):
        contact = _runs_of(plates.forces[plate, ::step, 2] > CONTACT_N)
        stance = _runs_of(timeline.stance_mask(foot))
        for runs, others in ((contact, stance), (stance, contact)):
            inner = [(a, b) for a, b in runs if a >= margin and b < n - margin]
            assert len(inner) >= 7  # every cycle of the 10 s trial but its ends
            for first, last in inner:
                (match,) = [(a, b) for a, b in others if a <= last and b >= first]
                assert abs(match[0] - first) <= 1 and abs(match[1] - last) <= 1, (foot, match)


def test_grf_writes_the_full_report_set(cli_files, tmp_path, capsys):
    out = tmp_path / "out"
    code, captured = _run(
        ["grf", "--marker-file", str(cli_files["markers"]),
         "--force-file", str(cli_files["forces"]),
         "--output-dir", str(out)] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 0
    for name in (
        "grf.csv",
        "grf_diagnostics.csv",
        "events.csv",
        "butterfly.csv",
        "butterfly.svg",
        "validation.csv",
        "validation.txt",
    ):
        assert (out / name).exists(), name
        assert f"wrote {out / name}" in captured.out
    header = (out / "grf.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("time_s,Fx_total")
    csv_lines = (out / "butterfly.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "base_x,base_y,tip_x,tip_y,tip_z,foot"
    assert len(csv_lines) > 100
    svg = (out / "butterfly.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg ")


@pytest.mark.parametrize("marker", ["T8", "LASI"])
def test_only_a_fill_in_a_marker_the_run_reads_flags_a_double_stance(
    cli_files, tmp_path, marker
):
    # the bundled model and the event detection read no T8 sample
    argv = ["grf", "--output-dir", str(tmp_path / "clean")] + SUBJECT_ARGS
    assert _run([*argv, "--marker-file", str(cli_files["markers"])]) == 0
    clean = {name: (tmp_path / "clean" / name).read_bytes()
             for name in ("grf.csv", "grf_diagnostics.csv", "events.csv")}
    labels = [row.rsplit(b",", 1)[1] for row in clean["grf.csv"].splitlines()[1:]]
    starts = [f for f in range(1, len(labels))
              if labels[f] == b"double_stance" != labels[f - 1]]
    start = starts[1]
    end = next(f for f in range(start, len(labels)) if labels[f + 1] != b"double_stance")
    assert f",{start},".encode() not in clean["grf_diagnostics.csv"]
    traj = parse_marker_file(cli_files["markers"])
    traj.markers[marker][start] = np.nan  # a one-frame gap, which gap filling fills
    gapped = tmp_path / "gapped.tsv"
    write_marker_file(gapped, traj)
    argv[2] = str(tmp_path / "out")
    assert _run([*argv, "--marker-file", str(gapped)]) == 0
    diagnostics = (tmp_path / "out" / "grf_diagnostics.csv").read_bytes()
    refused = f"excluded,{start},{end},double stance boundary force derived from flagged frames"
    if marker == "T8":
        for name, content in clean.items():
            assert (tmp_path / "out" / name).read_bytes() == content, name
    else:
        assert refused.encode() in diagnostics.splitlines()


@pytest.mark.parametrize("fault", ["missing", "fractional rate"])
def test_failed_plate_check_leaves_no_output(cli_files, tmp_path, capsys, fault):
    forces = tmp_path / "forces.tsv"
    if fault == "fractional rate":
        text = cli_files["forces"].read_text(encoding="utf-8")
        assert text.startswith("RATE\t2000.0\n")
        forces.write_text(text.replace("2000.0", "1000.5", 1), encoding="utf-8")
    out = tmp_path / "out"
    code, captured = _run(
        ["grf", "--marker-file", str(cli_files["markers"]), "--force-file", str(forces),
         "--output-dir", str(out)] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err.startswith(f"error: cannot read {forces}: ") == (fault == "missing")
    assert "wrote" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("case", ["a file", "under a file", "a directory named com.csv"])
def test_unusable_output_path_exits_2_naming_it(cli_files, tmp_path, capsys, case):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    out, named = {
        "a file": (blocker, f"output directory {blocker}"),
        "under a file": (blocker / "sub", f"output directory {blocker / 'sub'}"),
        "a directory named com.csv": (tmp_path / "out", tmp_path / "out" / "com.csv"),
    }[case]
    if case == "a directory named com.csv":
        named.mkdir(parents=True)
    code, captured = _run(
        ["com", "--marker-file", str(cli_files["two_frame"]),
         "--output-dir", str(out)] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {named}: ")
    assert captured.err.count("\n") == 1
    assert "wrote" not in captured.out


def test_grf_into_an_existing_file_exits_2_naming_it(cli_files, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    code, captured = _run(
        ["grf", "--marker-file", str(cli_files["markers"]),
         "--force-file", str(cli_files["forces"]),
         "--output-dir", str(blocker)] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err.startswith(f"error: cannot write output directory {blocker}: ")
    assert blocker.read_text(encoding="utf-8") == ""


def test_grf_run_imports_neither_scipy_signal_nor_scipy_stats(cli_files, tmp_path):
    # the filter and the peak search call scipy's compiled kernels directly;
    # importing scipy.signal would add over a second to every invocation
    script = (
        "import sys; from gaitkinetics.cli import main; code = main(sys.argv[1:]); "
        "print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules]); "
        "sys.exit(code)"
    )
    src = str(Path(gaitkinetics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, "grf",
         "--marker-file", str(cli_files["markers"]),
         "--force-file", str(cli_files["forces"]),
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote " in proc.stdout and (tmp_path / "out" / "validation.csv").exists()
    assert proc.stdout.splitlines()[-1] == "[]"


def test_validate_reports_small_errors_on_matched_data(cli_files, tmp_path):
    out = tmp_path / "out"
    code = _run(
        ["validate", "--marker-file", str(cli_files["markers"]),
         "--force-file", str(cli_files["forces"]),
         "--output-dir", str(out)] + SUBJECT_ARGS
    )
    assert code == 0
    lines = (out / "validation.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "axis,rmse,mean_bias,bias_compensated_rmse"
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[1]) < 1.0  # newtons; matched synthetic data
    assert (out / "validation.txt").exists()


def test_validate_requires_an_integer_rate_multiple(cli_files, tmp_path, capsys):
    code, captured = _run(
        ["validate", "--marker-file", str(cli_files["markers"]),
         "--force-file", str(cli_files["forces_300"]),
         "--output-dir", str(tmp_path)] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err == (
        f"error: {cli_files['forces_300']}: force rate 300.0 Hz is not an integer multiple "
        f"of the marker rate 200.0 Hz of {cli_files['markers']}\n"
    )


@pytest.mark.parametrize(
    "marker_rate, force_rate, cutoff",
    [
        (1e-10, 1e300, "1e-12"),  # the ratio overflows to inf
        (200.0, 2000.0000000001, "5"),  # within 1e-9 of 10, but 200.00000000001 Hz once decimated
        (200.0, 1999.9999999999, "5"),
    ],
)
def test_a_plate_rate_that_does_not_decimate_to_the_marker_rate_exits_2(
    tmp_path, capsys, marker_rate, force_rate, cutoff
):
    params = WalkerParams(duration_s=4.0)
    markers = generate_walker(params).markers
    plates = synth_force_plates(params)
    marker_path, force_path = tmp_path / "markers.tsv", tmp_path / "forces.tsv"
    write_marker_file(marker_path, type(markers)(marker_rate, markers.names, markers.positions))
    write_force_file(force_path, type(plates)(force_rate, plates.values))
    code, captured = _run(
        ["validate", "--marker-file", str(marker_path), "--force-file", str(force_path),
         "--cutoff-hz", cutoff, "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err == (
        f"error: {force_path}: force rate {force_rate} Hz is not an integer multiple "
        f"of the marker rate {marker_rate} Hz of {marker_path}\n"
    )
    assert not (tmp_path / "out").exists()


def test_a_plate_rate_too_far_above_the_marker_rate_to_decimate_exits_2(tmp_path, capsys):
    # the rates divide exactly, but decimate's anti-alias low-pass at 0.4 x the
    # marker rate cannot be built at the plate rate; the user set no such cutoff
    params = WalkerParams(duration_s=4.0)
    markers = generate_walker(params).markers
    plates = synth_force_plates(params)
    marker_path, force_path = tmp_path / "markers.tsv", tmp_path / "forces.tsv"
    write_marker_file(marker_path, type(markers)(1.0, markers.names, markers.positions))
    write_force_file(force_path, type(plates)(1e300, plates.values))
    code, captured = _run(
        ["validate", "--marker-file", str(marker_path), "--force-file", str(force_path),
         "--cutoff-hz", "0.025", "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err == (
        f"error: {force_path}: force rate 1e+300 Hz is too far above the marker rate 1.0 Hz "
        "to low-pass before decimating by 1e+300\n"
    )
    assert not (tmp_path / "out").exists()


def test_validate_requires_enough_settled_samples(tmp_path, capsys):
    params = WalkerParams(duration_s=1.5)
    trial = generate_walker(params)
    marker_path = tmp_path / "short.tsv"
    force_path = tmp_path / "short_forces.tsv"
    write_marker_file(marker_path, trial.markers)
    write_force_file(force_path, synth_force_plates(params))
    code, captured = _run(
        ["validate", "--marker-file", str(marker_path),
         "--force-file", str(force_path),
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert "filter-settling" in captured.err


def test_synth_module_writes_the_demo_trial(tmp_path, capsys):
    assert synth.main([str(tmp_path / "demo")]) == 0
    captured = capsys.readouterr()
    assert (tmp_path / "demo" / "walker_markers.tsv").exists()
    assert (tmp_path / "demo" / "walker_forces.tsv").exists()
    assert captured.out.count("wrote ") == 2


# ------------------------------------------------- what a run holds, and when


@pytest.mark.parametrize("command", ["grf", "validate"])
def test_markers_are_dropped_before_the_filter_and_plates_before_decimation(
    cli_files, tmp_path, monkeypatch, command
):
    held = {}

    def record(kind, fn, arrays):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            array = arrays(result)
            assert array.base is not None  # a view of the parser's one array
            held[kind] = (weakref.ref(result), weakref.ref(array.base))
            return result

        return wrapped

    def check_dropped(kind, fn):
        def wrapped(*args, **kwargs):
            assert all(ref() is None for ref in held.pop(kind)), f"{kind} still held"
            held[f"{kind} checked"] = True
            return fn(*args, **kwargs)

        return wrapped

    for name, wrapper in (
        ("parse_marker_file", record("markers", cli.parse_marker_file, lambda t: t.positions)),
        ("parse_force_file", record("plates", cli.parse_force_file, lambda s: s.forces)),
        ("filter_com_trajectory", check_dropped("markers", cli.filter_com_trajectory)),
        ("decimate", check_dropped("plates", cli.decimate)),
    ):
        monkeypatch.setattr(cli, name, wrapper)
    code = _run(
        [command, "--marker-file", str(cli_files["markers"]),
         "--force-file", str(cli_files["forces"]),
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS
    )
    assert code == 0
    assert held.pop("markers checked")
    assert held.pop("plates checked")
    assert not held


def test_markers_are_filled_in_the_parsed_array(tmp_path, monkeypatch):
    traj = generate_walker(WalkerParams(duration_s=30.0)).markers
    for m in range(0, len(traj.names), 4):  # a short gap in every fourth marker
        traj.positions[m, 100 + m : 104 + m] = np.nan
    path = tmp_path / "gapped.tsv"
    write_marker_file(path, traj)
    del traj
    parsed = []

    def parse(path):
        traj = parse_marker_file(path)
        parsed.append(traj.positions)  # shared with the result, so no more is held
        return traj

    monkeypatch.setattr(cli, "parse_marker_file", parse)
    config = cli.PipelineConfig(marker_file=str(path))
    tracemalloc.start()
    try:
        filled, fills = cli._load_markers(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(filled.positions, parsed[0])
    assert not filled.occluded.any() and np.count_nonzero(fills) == 4 * 10
    # the parse's one block and the masks beyond the arrays, never a copy of the positions
    arrays = filled.positions.nbytes + filled.occluded.nbytes
    assert peak < 1.2 * arrays, f"peak {peak / arrays:.2f} x the marker arrays"


def test_gaps_are_filled_through_the_view_that_trailing_blank_lines_leave(
    cli_files, tmp_path
):
    traj = parse_marker_file(cli_files["markers"])
    traj.markers["LASI"][100:104] = np.nan  # a gap in a marker that the CoM reads
    path = tmp_path / "gapped.tsv"
    write_marker_file(path, traj)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n\n\n")
    # counted as rows, the blank lines leave a view whose reshape is a copy
    assert not parse_marker_file(path).positions.flags.c_contiguous
    filled, fills = cli._load_markers(cli.PipelineConfig(marker_file=str(path)))
    assert not filled.occluded.any()
    assert np.argwhere(fills).tolist() == [[traj.names.index("LASI"), f] for f in range(100, 104)]
    assert filled.positions.tobytes() == fill_gaps(parse_marker_file(path)).positions.tobytes()
    argv = ["grf", "--marker-file", str(path), "--output-dir", str(tmp_path / "out")]
    assert _run(argv + SUBJECT_ARGS) == 0


def test_every_subcommand_reports_an_event_marker_error_before_a_filter_error(
    tmp_path, capsys
):
    trial = generate_walker(WalkerParams(duration_s=4.0))
    short = tmp_path / "ten_frames.tsv"
    write_marker_file(short, _slice_markers(trial.markers, 10))
    for command in ("grf", "events"):
        argv = [command, "--marker-file", str(short), "--left-heel-marker", "NOPE",
                "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS
        code, captured = _run(argv, capsys)
        assert code == 2
        assert captured.err == f"error: {short}: marker 'NOPE' not present in trial\n"
    argv[0] = "grf"
    argv[2] = str(tmp_path / "long.tsv")
    write_marker_file(argv[2], trial.markers)
    code, captured = _run(argv, capsys)
    assert code == 2
    assert captured.err == f"error: {argv[2]}: marker 'NOPE' not present in trial\n"


MIRROR_PAD = "series of {} samples is too short to mirror-pad with 12 samples; need more than 12"


@pytest.mark.parametrize(
    "kind, rows, commands, message",
    [
        ("markers", 7, ("grf", "events", "validate"), MIRROR_PAD.format(7)),
        ("markers", 1, ("grf", "events"), "series needs at least 2 samples, got 1"),
        ("forces", 6, ("validate",), MIRROR_PAD.format(6)),
        ("forces", 1, ("grf", "validate"), "series needs at least 2 samples, got 1"),
    ],
)
def test_a_trial_too_short_to_filter_names_its_file(
    cli_files, tmp_path, capsys, kind, rows, commands, message
):
    header_lines = {"markers": 3, "forces": 2}[kind]
    lines = cli_files[kind].read_text(encoding="utf-8").splitlines(keepends=True)
    files = {"markers": cli_files["markers"], "forces": cli_files["forces"]}
    files[kind] = tmp_path / f"{rows}_rows.tsv"
    files[kind].write_text("".join(lines[: header_lines + rows]), encoding="utf-8")
    for command in commands:
        out = tmp_path / command
        argv = [command, "--marker-file", str(files["markers"]),
                "--force-file", str(files["forces"]), "--output-dir", str(out)] + SUBJECT_ARGS
        code, captured = _run(argv, capsys)
        assert (code, captured.err) == (2, f"error: {files[kind]}: {message}\n")
        assert not out.exists()


def test_com_runs_on_a_one_frame_trial(cli_files, tmp_path):
    lines = cli_files["markers"].read_text(encoding="utf-8").splitlines(keepends=True)
    one = tmp_path / "one_frame.tsv"
    one.write_text("".join(lines[:4]), encoding="utf-8")
    out = tmp_path / "out"
    assert _run(["com", "--marker-file", str(one), "--output-dir", str(out)] + SUBJECT_ARGS) == 0
    assert len((out / "com.csv").read_text(encoding="utf-8").splitlines()) == 2


def test_stage_rss_tool_prints_memory_after_each_stage(cli_files, tmp_path):
    tool = Path(__file__).resolve().parents[1] / "tools" / "stage_rss.py"
    src = Path(gaitkinetics.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(tool), "--src", str(src), "grf",
         "--marker-file", str(cli_files["markers"]),
         "--force-file", str(cli_files["forces"]),
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote " in proc.stdout
    header, *rows = proc.stderr.splitlines()
    assert header.split() == ["stage", "rss_mb", "peak_mb", "smaps_rss_mb"]
    stages = [row.split()[0] for row in rows]
    assert stages[0] == "import" and rows[-1].split()[:2] == ["exit", "0"]
    for stage in ("parse_marker_file", "com_trajectory", "filter_com_trajectory",
                  "parse_force_file", "decimate", "write_comparison_text"):
        assert stage in stages
    peaks = [float(row.split()[-2]) for row in rows]
    assert peaks == sorted(peaks) and all(
        float(row.split()[-3]) <= peak for row, peak in zip(rows, peaks)
    )
    assert all(float(row.split()[-1]) > 0.0 for row in rows)


def test_stage_rss_tool_measures_the_api_chain_of_a_plan(tmp_path):
    tool = Path(__file__).resolve().parents[1] / "tools" / "stage_rss.py"
    walker = asdict(WalkerParams(duration_s=2.0))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"trials": [{"id": "t0", "walker": walker}]}), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(tool), "--api-plan", str(plan)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stderr.splitlines()
    assert header.split() == ["stage", "rss_mb", "peak_mb", "smaps_rss_mb"]
    stages = [row.split()[0] for row in rows]
    assert stages[:3] == ["import", "generate_walker", "com_trajectory"]
    assert stages[-3:] == ["decompose_gait", "butterfly", "return"]


# ------------------------------------- input checks the other tests miss


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("markers", "RATE\t200.0", "missing header line 2 (UNITS)"),
        ("markers", "RATE\t200.0\nUNITS m\n", "header line 2 must be 'UNITS<TAB>value'"),
        ("markers", "RATE\t200.0\nUNITS\tm", "missing header line 3 (MARKERS)"),
        ("forces", "RATE\t1000.0", "missing header line 2 (PLATES)"),
        ("forces", "RATE\t1000.0\nPLATES 2\n", "header line 2 must be 'PLATES<TAB>value'"),
    ],
    ids=["no-units", "units-without-tab", "no-markers-line", "no-plates", "plates-without-tab"],
)
def test_a_short_or_untabbed_header_exits_2_naming_the_file(
    cli_files, tmp_path, capsys, kind, text, message
):
    bad = tmp_path / "bad.tsv"
    bad.write_text(text, encoding="utf-8")
    files = {"markers": str(cli_files["markers"]), "forces": str(cli_files["forces"])}
    files[kind] = str(bad)
    code, captured = _run(
        ["validate", "--marker-file", files["markers"], "--force-file", files["forces"],
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err.startswith(f"error: {bad}: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "option, message",
    [
        (["--max-gap-frames", "-1"], "max_gap_frames must be >= 0, got -1"),
        (["--subject-sex", "x"], "subject_sex must be 'm' or 'f', got 'x'"),
    ],
)
def test_an_out_of_range_option_exits_2_naming_its_key(cli_files, tmp_path, capsys, option, message):
    code, captured = _run(
        ["com", "--marker-file", str(cli_files["two_frame"]),
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS + option,
        capsys,
    )
    assert code == 2
    assert captured.err == f"error: {message}\n"


HEAD_NECK = (
    "head_neck - origin=C7 distal=LFHD+RFHD+LBHD+RBHD superior=distal ref=LFHD+RFHD "
    "ref_kind=anterior"
)


@pytest.mark.parametrize(
    "old, new, message",
    [
        (HEAD_NECK, "head_neck -", "expected 'kind side key=value...'"),
        ("origin=C7 ", "origin=C7 origin=C7 ", "duplicate key 'origin'"),
        ("superior=distal", "superior=middle", "superior must be 'origin' or 'distal'"),
        (None, None, "anteroposterior style needs a lateral/medial ref"),
        ("origin=C7 ", "origin=C7*nan+CLAV*nan ", "weight of C7 is nan, expected a finite"),
        ("origin=C7 ", "origin=C7*nan ", "weight of C7 is nan, expected a finite"),
        ("origin=C7 ", "origin=C7*inf+CLAV*-inf+STRN*1 ", "weight of C7 is inf, expected a finite"),
        ("forward=LHEE:LTOE", "forward=LHEE:LTOE*2", "point rule weights sum to 2.0, expected 1"),
    ],
    ids=["two-tokens", "repeated-key", "bad-superior", "anterior-foot", "nan-weights",
         "one-nan-weight", "infinite-weights", "forward-weight-sum"],
)
def test_a_bad_segment_definition_exits_2_naming_its_line(
    cli_files, tmp_path, capsys, old, new, message
):
    text = Path(bundled_definitions_path()).read_text(encoding="utf-8")
    if old is None:  # the left foot's axes from an anterior reference
        old = "forward=LHEE:LTOE ref=LANK_LAT ref_kind=lateral"
        new = "forward=LHEE:LTOE ref=LANK_LAT ref_kind=anterior"
    assert old in text
    text = text.replace(old, new, 1)
    line = next(k for k, row in enumerate(text.splitlines(), 1) if new in row)
    definitions = tmp_path / "segments.txt"
    definitions.write_text(text, encoding="utf-8")
    code, captured = _run(
        ["com", "--marker-file", str(cli_files["two_frame"]),
         "--segment-definitions", str(definitions),
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err.startswith(f"error: {definitions}:{line}: ")
    assert message in captured.err


def test_a_comments_only_anthropometric_table_exits_2_naming_it(cli_files, tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("# kind\tsex\tmass\tap\tml\tsi\n\n# nothing else\n", encoding="utf-8")
    code, captured = _run(
        ["com", "--marker-file", str(cli_files["two_frame"]), "--anthro-table", str(table),
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err == f"error: {table}: anthropometric table is empty\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["grf", "events", "validate"])
def test_a_cutoff_too_low_to_filter_exits_2_and_one_just_above_runs(
    cli_files, tmp_path, capsys, command
):
    argv = [command, "--marker-file", str(cli_files["markers"]),
            "--force-file", str(cli_files["forces"]),
            "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS
    code, captured = _run(argv + ["--cutoff-hz", "1e-7"], capsys)
    assert code == 2
    assert captured.err == "error: cutoff_hz 1e-07 is too low to filter at rate 200.0 Hz\n"
    assert not (tmp_path / "out").exists()
    if command != "validate":  # whose settling margin outlasts the trial
        code, captured = _run(argv + ["--cutoff-hz", "5e-7"], capsys)
        assert code == 3
        assert captured.err.startswith("error: no complete gait cycle found")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", ["1e300", "1e308", "1.7976931348623157e308"])
def test_a_butterfly_scale_too_large_to_draw_exits_2_writing_nothing(
    cli_files, tmp_path, capsys, scale
):
    code, captured = _run(
        ["grf", "--marker-file", str(cli_files["markers"]),
         "--force-file", str(cli_files["forces"]), "--butterfly-scale-m-per-n", scale,
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err.startswith(f"error: butterfly_scale_m_per_n {float(scale)} m/N scales")
    assert captured.err.endswith("past 1e+300 m, more than a butterfly diagram can span\n")
    assert not (tmp_path / "out").exists()
