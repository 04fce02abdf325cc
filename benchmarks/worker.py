"""Benchmark child processes: input generation, a round of trials, a set-up
alone, and the pacer.

Every round runs in a fresh interpreter so that each round pays, and
measures, the set-up a ``gaitkinetics`` invocation pays, and so that the
peak resident memory of a round belongs to that round alone.

    python3 benchmarks/worker.py generate WORKLOAD SEED INPUT_DIR
    python3 benchmarks/worker.py round SPAWN_MONOTONIC PLAN OUT_DIR RESULT [SPANS]
    python3 benchmarks/worker.py setup SPAWN_MONOTONIC
    python3 benchmarks/worker.py pace

``generate`` writes the trial files, ``plan.json`` (what each trial runs)
and ``truth.npz`` (the scripted ground truth the checks compare against).
``round`` runs every trial of the plan once and writes a JSON result; with
SPANS it traces the run and writes the spans there when the round ends.
A trial with ``argv`` runs through ``cli.main``; a trial with ``walker``
runs the README's Python API chain on a walker built in memory before its
timing starts, and the round saves the chain's results to ``outputs.npz``
after its timing ends.
``setup`` only sets up, as a round does first, and prints its seconds.
``pace`` times a fixed unit of reference work at a steady period, on the
processor the rounds are pinned to, until its standard input closes, and
then prints the samples.
"""

import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _setup():
    """Import the package and load the bundled tables, as every run does.

    Returns (anthropometric table, segment definitions).
    """
    sys.path.insert(0, str(SRC))
    from gaitkinetics import anthro, kinematics

    return (
        anthro.load_table(anthro.bundled_table_path()),
        kinematics.load_segment_definitions(kinematics.bundled_definitions_path()),
    )


# ---------------------------------------------------------------- inputs

MARKER_RATE_HZ = 200.0
FORCE_RATE_HZ = 2000.0
SHORT_GAPS_PER_TRIAL = 60  # occlusions of 1..max_gap_frames frames per 10 s trial
MAX_GAP_FRAMES = 10  # the CLI default for --max-gap-frames
LONG_GAP = ("LHEE", 900, 30)  # marker, first frame, length: one 0.15 s heel occlusion
OCCLUDED_TRIALS = 7  # seeded trials per round, plus the one with LONG_GAP
FIXED_SEED = 20260101  # inputs of the LONG_GAP trial do not depend on --seed


def walker_params(rng, duration_s):
    """WalkerParams drawn from ``rng`` inside the ranges its validation accepts.

    The cycle is an even number of frames and the four event offsets are
    whole frames, in the pattern of the default walker (right HS, left TO
    one double stance later, left HS half a cycle after right HS), so both
    feet share one stance duration and every scripted event sits on a frame.
    """
    from gaitkinetics.synth import WalkerParams

    cycle = 2 * int(rng.integers(100, 121))  # 1.0 .. 1.2 s at 200 Hz
    ds = int(round(cycle * 26 / 220)) + int(rng.integers(-2, 3))
    rhs = 60
    frames = {
        "right_hs_offset_s": rhs,
        "left_to_offset_s": rhs + ds,
        "left_hs_offset_s": rhs + cycle // 2,
        "right_to_offset_s": rhs + cycle // 2 + ds,
    }
    return WalkerParams(
        sample_rate_hz=MARKER_RATE_HZ,
        duration_s=duration_s,
        cycle_s=cycle / MARKER_RATE_HZ,
        speed_mps=float(rng.uniform(1.0, 1.5)),
        mass_kg=float(rng.uniform(55.0, 100.0)),
        height_m=float(rng.uniform(1.55, 1.95)),
        **{k: v / MARKER_RATE_HZ for k, v in frames.items()},
    )


def short_gaps(rng, names, n_frames):
    """Occlusions of 1..MAX_GAP_FRAMES frames at random markers and frames.

    Gaps stay clear of the first and last frames (so each is bracketed) and
    keep at least two present frames between gaps of one marker (so no two
    merge into a run longer than the fill limit).
    """
    taken = {name: [] for name in names}
    gaps = []
    while len(gaps) < SHORT_GAPS_PER_TRIAL:
        name = names[int(rng.integers(len(names)))]
        length = int(rng.integers(1, MAX_GAP_FRAMES + 1))
        start = int(rng.integers(5, n_frames - 5 - length))
        if any(start < e + 2 and s < start + length + 2 for s, e in taken[name]):
            continue
        taken[name].append((start, start + length))
        gaps.append((name, start, length))
    return gaps


def _fmt_rows(columns, blanks=()):
    """Tab-separated rows of shortest round-trip floats; ``blanks`` are
    (row, first column, width) runs written as empty fields."""
    import numpy as np

    rows = [list(map(repr, row)) for row in np.column_stack(columns).tolist()]
    for r, c, width in blanks:
        rows[r][c : c + width] = [""] * width
    return ["\t".join(row) for row in rows]


def _write_synced(path, lines):
    """Write the lines and flush them to disk, so that write-back of the
    inputs does not overlap the timed rounds."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def write_marker_tsv(path, markers, unit, gaps):
    """Marker file in the documented format; gap frames are blank triplets."""
    import numpy as np

    names = list(markers)
    n = len(markers[names[0]])
    scale = 1000.0 if unit == "mm" else 1.0
    column = {name: 1 + 3 * i for i, name in enumerate(names)}
    blanks = [
        (frame, column[name], 3)
        for name, start, length in gaps
        for frame in range(start, start + length)
    ]
    lines = [f"RATE\t{MARKER_RATE_HZ!r}", f"UNITS\t{unit}", "MARKERS\t" + "\t".join(names)]
    lines += _fmt_rows(
        [np.arange(n) / MARKER_RATE_HZ] + [markers[name] * scale for name in names], blanks
    )
    _write_synced(path, lines)


def write_force_tsv(path, plates):
    """Force-plate file in the documented format."""
    import numpy as np

    columns = [np.arange(plates.n_frames) / plates.sample_rate_hz]
    for p in range(plates.n_plates):
        columns += [plates.forces[p], plates.cop[p]]
    lines = [f"RATE\t{plates.sample_rate_hz!r}", f"PLATES\t{plates.n_plates}"]
    lines += _fmt_rows(columns)
    _write_synced(path, lines)


def plate_reference(plates):
    """Plate total force low-passed like the CLI's 5 Hz, 4th-order zero-phase
    filter and sampled at the marker frames: (frames, 3).  Computed with
    scipy directly, apart from the program's own filter and decimation."""
    import scipy.signal

    sos = scipy.signal.butter(4, 5.0, btype="low", fs=plates.sample_rate_hz, output="sos")
    smooth = scipy.signal.sosfiltfilt(sos, plates.total_force(), axis=0)
    return smooth[:: int(plates.sample_rate_hz / MARKER_RATE_HZ)]


def _truth(trial, trial_id):
    """Scripted events and subject of one trial."""
    ev = {}
    for foot in (trial.left_events, trial.right_events):
        ev[f"{trial_id}:{foot.foot}:heel_strike"] = list(foot.heel_strikes)
        ev[f"{trial_id}:{foot.foot}:toe_off"] = list(foot.toe_offs)
    return ev, {"mass_kg": trial.params.mass_kg, "frames": trial.params.n_frames}


def _cli_argv(marker_file, params, force_file=None):
    argv = [
        "grf",
        "--marker-file", marker_file,
        "--subject-mass-kg", repr(params.mass_kg),
        "--subject-height-m", repr(params.height_m),
        "--subject-sex", "m",
    ]
    return argv + (["--force-file", force_file] if force_file else [])


def generate(workload, seed, out_dir):
    """Write the inputs, plan and ground truth of one workload and seed."""
    import dataclasses
    import json

    import numpy as np
    from gaitkinetics import synth

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    trials, truth_events, arrays = [], {}, {}

    if workload == "cli-plates-120s":
        params = walker_params(rng, 120.0)
        trial = synth.generate_walker(params)
        events, info = _truth(trial, "t0")
        truth_events.update(events)
        plates = synth.synth_force_plates(params, force_rate_hz=FORCE_RATE_HZ)
        arrays["t0:plate_total"] = plate_reference(plates)
        write_marker_tsv(out / "t0_markers.tsv", trial.markers.markers, "m", ())
        write_force_tsv(out / "t0_forces.tsv", plates)
        argv = _cli_argv(str(out / "t0_markers.tsv"), params, str(out / "t0_forces.tsv"))
        trials.append({"id": "t0", "argv": argv, **info})
    elif workload == "cli-occluded-10s":
        seeds = [rng] * OCCLUDED_TRIALS + [np.random.default_rng(FIXED_SEED)]
        for i, trial_rng in enumerate(seeds):
            tid = f"t{i}"
            params = walker_params(trial_rng, 10.0)
            trial = synth.generate_walker(params)
            names = list(trial.markers.markers)
            gaps = short_gaps(trial_rng, names, params.n_frames)
            expect_fail = trial_rng is not rng
            if expect_fail:
                gaps.append(LONG_GAP)
            write_marker_tsv(out / f"{tid}_markers.tsv", trial.markers.markers, "mm", gaps)
            events, info = _truth(trial, tid)
            truth_events.update(events)
            trials.append(
                {
                    "id": tid,
                    "argv": _cli_argv(str(out / f"{tid}_markers.tsv"), params),
                    "expect_fail_marker": LONG_GAP[0] if expect_fail else None,
                    **info,
                }
            )
    elif workload == "api-inmemory-120s":
        params = walker_params(rng, 120.0)
        events, info = _truth(synth.generate_walker(params), "t0")
        truth_events.update(events)
        trials.append({"id": "t0", "walker": dataclasses.asdict(params), **info})
    else:
        raise SystemExit(f"unknown workload {workload!r}")

    for key, frames in truth_events.items():
        arrays[key] = np.asarray(frames, dtype=int)
    np.savez(out / "truth.npz", **arrays)
    (out / "plan.json").write_text(json.dumps({"trials": trials}, indent=1), encoding="utf-8")


# ---------------------------------------------------------------- one round


def run_api_chain(api, markers, walker, table, definitions):
    """The README's Python API chain, markers to per-limb forces and butterfly.

    ``api`` is ``gaitkinetics.cli``, whose bindings ``tracing.install`` wraps,
    so that a traced round records the same spans as a CLI trial.
    """
    subject = api.SubjectProfile(mass_kg=walker["mass_kg"], height_m=walker["height_m"], sex="m")
    com = api.com_trajectory(markers, definitions, table, subject)
    smooth = api.filter_com_trajectory(com, cutoff_hz=5.0, order=4)
    total = api.total_grf(smooth, subject)

    def ap(name):
        raw = api.UniformSeries(markers.sample_rate_hz, markers.markers[name][:, 0])
        return api.lowpass(raw, 5.0, 4)

    sacrum = ap("SACR")
    feet = [
        api.FootEvents(foot, *api.detect_events_zeni(ap(f"{s}HEE"), ap(f"{s}TOE"), sacrum, 0.4))
        for foot, s in (("left", "L"), ("right", "R"))
    ]
    timeline = api.build_timeline(*feet, markers.n_frames, markers.sample_rate_hz)
    bilateral = api.decompose_gait(total, timeline, subject.mass_kg)
    return bilateral, api.butterfly(bilateral, smooth)


def save_api_outputs(out, bilateral, diagram):
    """The chain's results as the arrays ``checks.read_api_outputs`` reads."""
    import numpy as np

    labels = np.empty(bilateral.n_frames, dtype="U32")
    for phase in bilateral.timeline.phases:
        labels[phase.start : phase.end + 1] = phase.label
    arrays = {
        "total": bilateral.total.force,
        "left": bilateral.left.force,
        "right": bilateral.right.force,
        "labels": labels,
        "excluded": np.array(
            [(start, end) for start, end, _ in bilateral.diagnostics.excluded_intervals], dtype=int
        ).reshape(-1, 2),
        "butterfly_frames": diagram.frames,
        "butterfly_forces": diagram.forces,
    }
    for foot in ("left", "right"):
        events = bilateral.timeline.foot_events(foot)
        arrays[f"{foot}:heel_strike"] = np.array(events.heel_strikes, dtype=int)
        arrays[f"{foot}:toe_off"] = np.array(events.toe_offs, dtype=int)
    out.mkdir(parents=True, exist_ok=True)
    np.savez(out / "outputs.npz", **arrays)


def run_round(spawn, plan_path, out_dir, result_path, spans_path=None):
    table, definitions = _setup()
    setup_s = time.monotonic() - spawn

    import contextlib
    import functools
    import io
    import json
    import resource
    import traceback

    import tracing
    from gaitkinetics import cli, synth

    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    tracer = tracing.Tracer() if spans_path else None
    main = tracing.install(tracer) if tracer else cli.main
    results = []
    for spec in plan["trials"]:
        out = Path(out_dir) / spec["id"]
        record = {"id": spec["id"], "rc": None, "stderr": "", "traceback": None}
        if tracer:
            tracer.trial = spec["id"]
        if "walker" in spec:
            markers = synth.generate_walker(synth.WalkerParams(**spec["walker"])).markers
            call = functools.partial(run_api_chain, cli, markers, spec["walker"], table, definitions)
        else:
            call = functools.partial(main, spec["argv"] + ["--output-dir", str(out)])
        stdout, stderr = io.StringIO(), io.StringIO()
        record["start"] = time.monotonic()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                returned = call()
        except Exception:  # a traceback is a failed check, not a crash of the round
            record["traceback"] = traceback.format_exc()
        record["seconds"] = time.perf_counter() - start
        record["stderr"] = stderr.getvalue()
        if record["traceback"] is None:
            if "walker" in spec:
                save_api_outputs(out, *returned)
                returned = 0
            record["rc"] = returned
        results.append(record)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.dump(spans_path)
    Path(result_path).write_text(
        json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_mb, "trials": results}),
        encoding="utf-8",
    )


# ---------------------------------------------------------------- pace

PACE_PERIOD_S = 0.025
# the reference unit, about 1 ms: text-to-float parsing, the work that
# dominates a CLI trial
PACE_TEXT = "\t".join(repr(i / 7.0) for i in range(2_000))


def pace():
    """Time the reference unit every PACE_PERIOD_S until stdin closes, then
    print the samples as JSON ``[[monotonic start, seconds], ...]``."""
    import json
    import select

    samples = []
    while not select.select([sys.stdin], [], [], PACE_PERIOD_S)[0]:
        start = time.monotonic()
        [float(x) for x in PACE_TEXT.split("\t")]
        samples.append((start, time.monotonic() - start))
    print(json.dumps(samples))


if __name__ == "__main__":
    command, args = sys.argv[1], sys.argv[2:]
    if command == "generate":
        _setup()
        generate(args[0], int(args[1]), args[2])
    elif command == "round":
        run_round(float(args[0]), *args[1:])
    elif command == "setup":
        _setup()
        print(time.monotonic() - float(args[0]))
    elif command == "pace":
        pace()
    else:
        raise SystemExit(f"unknown command {command!r}")
