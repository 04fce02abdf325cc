"""End-to-end command-line pipeline runs (invoked in-process)."""

import os
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

import gaitkinetics
from gaitkinetics import cli
from gaitkinetics.anthro import SubjectProfile, bundled_table_path, load_table
from gaitkinetics.errors import InputError
from gaitkinetics.ingest import parse_marker_file, write_force_file, write_marker_file
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
    markers = {name: pos[:n].copy() for name, pos in traj.markers.items()}
    return type(traj)(sample_rate_hz=traj.sample_rate_hz, markers=markers)


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


def test_invalid_filter_order_exits_2(cli_files, tmp_path, capsys):
    code, captured = _run(
        ["com", "--marker-file", str(cli_files["two_frame"]),
         "--output-dir", str(tmp_path), "--filter-order", "3"] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert "filter_order" in captured.err


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
def test_each_config_field_parses_alike_as_flag_and_config_key(tmp_path, field):
    (kind,) = set(get_args(field.type) or (field.type,)) - {type(None)}
    for text, value in FIELD_SAMPLES[kind]:
        args = cli._build_parser().parse_args(["com", "--" + field.name.replace("_", "-"), text])
        from_flag, _ = cli.build_config({field.name: getattr(args, field.name)}, env={})
        path = tmp_path / "run.cfg"
        path.write_text(f"{field.name} = {text}\n", encoding="utf-8")
        from_file, provenance = cli.build_config({}, cli.parse_config_file(path), env={})
        assert provenance[field.name] == "config"
        for config in (from_flag, from_file):
            parsed = getattr(config, field.name)
            assert type(parsed) is kind and parsed == value


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
        "error: subject mass 1e+308 kg overflows the mass-weighted CoM mean\n"
    )


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
         "subject mass 1e+307 kg and gravity 9.81 m/s^2 overflow the ground reaction force"),
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
    for name in traj.markers:
        traj.markers[name] *= scale
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


def test_events_writes_detections_and_stance_intervals(cli_files, tmp_path):
    out = tmp_path / "out"
    code = _run(
        ["events", "--marker-file", str(cli_files["markers"]),
         "--output-dir", str(out)] + SUBJECT_ARGS
    )
    assert code == 0
    events_lines = (out / "events.csv").read_text(encoding="utf-8").splitlines()
    assert events_lines[0] == "foot,event_type,frame,time_s"
    assert len(events_lines) > 8  # several cycles in 4 s
    stance_lines = (
        (out / "stance_intervals.csv").read_text(encoding="utf-8").splitlines()
    )
    assert stance_lines[0] == "foot,start_frame,end_frame,start_time_s,end_time_s"
    feet = {line.split(",")[0] for line in stance_lines[1:]}
    assert feet == {"left", "right"}


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
    positions = {name: pos.copy() for name, pos in traj.markers.items()}
    positions[marker][start] = np.nan  # a one-frame gap, which gap filling fills
    gapped = tmp_path / "gapped.tsv"
    write_marker_file(gapped, type(traj)(traj.sample_rate_hz, positions))
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


def test_butterfly_writes_csv_and_svg(cli_files, tmp_path):
    out = tmp_path / "out"
    code = _run(
        ["butterfly", "--marker-file", str(cli_files["markers"]),
         "--output-dir", str(out)] + SUBJECT_ARGS
    )
    assert code == 0
    csv_lines = (out / "butterfly.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == "base_x,base_y,tip_x,tip_y,tip_z,foot"
    assert len(csv_lines) > 100
    svg = (out / "butterfly.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg ")


def test_synth_module_writes_the_demo_trial(tmp_path, capsys):
    assert synth.main([str(tmp_path / "demo")]) == 0
    captured = capsys.readouterr()
    assert (tmp_path / "demo" / "walker_markers.tsv").exists()
    assert (tmp_path / "demo" / "walker_forces.tsv").exists()
    assert captured.out.count("wrote ") == 2


# ------------------------------------------------- what a run holds, and when


@pytest.mark.parametrize("command", ["grf", "validate", "butterfly"])
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
        ("fill_gaps", record("markers", cli.fill_gaps, lambda traj: traj.markers["LASI"])),
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
    assert held.pop("plates checked", False) == (command != "butterfly")
    assert not held


def test_every_subcommand_reports_an_event_marker_error_before_a_filter_error(
    tmp_path, capsys
):
    trial = generate_walker(WalkerParams(duration_s=4.0))
    short = tmp_path / "ten_frames.tsv"
    write_marker_file(short, _slice_markers(trial.markers, 10))
    for command in ("grf", "butterfly", "events"):
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
        ("markers", 7, ("grf", "events", "validate", "butterfly"), MIRROR_PAD.format(7)),
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
    assert header.split() == ["stage", "rss_mb", "peak_mb"]
    stages = [row.split()[0] for row in rows]
    assert stages[0] == "import" and rows[-1].split()[:2] == ["exit", "0"]
    for stage in ("parse_marker_file", "com_trajectory", "filter_com_trajectory",
                  "parse_force_file", "decimate", "write_comparison_text"):
        assert stage in stages
    peaks = [float(row.split()[-1]) for row in rows]
    assert peaks == sorted(peaks) and all(
        float(row.split()[-2]) <= peak + 1.0 for row, peak in zip(rows, peaks)
    )


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
        (["--noise-floor-n", "-1"], "noise_floor_n must be >= 0, got -1.0"),
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
    ],
    ids=["two-tokens", "repeated-key", "bad-superior", "anterior-foot"],
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
@pytest.mark.parametrize("command", ["grf", "butterfly"])
def test_a_butterfly_scale_too_large_to_draw_exits_2_writing_nothing(
    cli_files, tmp_path, capsys, command, scale
):
    code, captured = _run(
        [command, "--marker-file", str(cli_files["markers"]),
         "--force-file", str(cli_files["forces"]), "--butterfly-scale-m-per-n", scale,
         "--output-dir", str(tmp_path / "out")] + SUBJECT_ARGS,
        capsys,
    )
    assert code == 2
    assert captured.err.startswith(f"error: butterfly_scale_m_per_n {float(scale)} m/N scales")
    assert captured.err.endswith("past 1e+300 m, more than a butterfly diagram can span\n")
    assert not (tmp_path / "out").exists()
