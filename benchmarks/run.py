"""Pipeline benchmark for gaitkinetics: the workloads of BENCHMARK.json, end to end.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For one workload it generates seeded synthetic trials (before any timing),
then runs rounds of those trials through ``cli.main`` or the Python API for
``--seconds`` seconds, each round in a fresh interpreter (see worker.py),
checks every output, and prints the metrics; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from traced rounds, which alternate with untraced rounds
so that the tracing overhead is measured in the same run.  ``--workload
all`` runs every workload in turn.  Exit code 0 means the run completed;
the JSON's ``correct`` says whether every output passed its checks.

The rounds run pinned to one processor, beside a pacer (``worker.py
pace``) that times a fixed unit of pure-Python work on that processor every
25 ms.  End-to-end times are scaled by the pacer: each set-up's and each
trial's seconds are multiplied by PACE_NOMINAL_S / the unit's mean time
during that interval, which takes out the drift of the processor's speed
between and within runs.  The unscaled figures are printed as well.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
MIN_ROUNDS = 2  # byte-identity needs two runs of each trial; tracing needs one of each kind
MIN_SETUPS = 6  # setup_s is a median over at least this many fresh interpreters
CHILD_TIMEOUT_S = 150
# end-to-end times are reported at the speed at which worker.pace's reference
# unit takes this long (see _pace and _end_to_end)
PACE_NOMINAL_S = 0.001

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402


def _child(args):
    proc = subprocess.run(
        [sys.executable, str(WORKER), *map(str, args)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker {args[0]} failed ({proc.returncode}):\n{proc.stderr}")
    return proc


def _round(plan, work, index, traced):
    out = work / f"round{index}"
    result = work / f"round{index}.json"
    spans = [work / f"round{index}.spans.json"] if traced else []
    spawn = time.monotonic()
    _child(["round", repr(spawn), plan, out, result, *spans])
    data = json.loads(result.read_text(encoding="utf-8"))
    data.update(index=index, traced=traced, out=out, spans=spans[0] if spans else None, spawn=spawn)
    return data


def _setup_only():
    """A fresh interpreter that only sets up, for a further ``setup_s`` sample."""
    spawn = time.monotonic()
    return {"spawn": spawn, "setup_s": float(_child(["setup", repr(spawn)]).stdout)}


def _stop(pacer):
    """Close the pacer's input and return its samples."""
    try:
        out, _ = pacer.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        pacer.kill()
        pacer.wait()
        raise
    return json.loads(out)


def _check(rounds, plan, truth):
    """Check every trial; returns (problems, attempted, failed)."""
    problems, attempted, failed = [], 0, 0
    specs = {spec["id"]: spec for spec in plan["trials"]}
    for rnd in rounds:
        for trial in rnd["trials"]:
            spec, tag = specs[trial["id"]], f"round {rnd['index']} {trial['id']}"
            attempted += 1
            if trial["traceback"] is not None:
                problems.append(f"{tag}: traceback\n{trial['traceback']}")
                failed += 1
                continue
            if trial["rc"] != 0:
                failed += 1
                marker = spec.get("expect_fail_marker")
                if trial["rc"] != 2 or not marker or repr(marker) not in trial["stderr"]:
                    problems.append(f"{tag}: exit {trial['rc']}: {trial['stderr'].strip()}")
                continue
            out = rnd["out"] / trial["id"]
            first = rounds[0]["out"] / trial["id"]
            if rnd is rounds[0]:
                read = checks.read_api_outputs if "walker" in spec else checks.read_cli_outputs
                outputs = read(out)
                problems += [f"{tag}: {p}" for p in checks.check_trial(outputs, truth, spec)]
            elif not checks.same_outputs(first, out):
                problems.append(f"{tag}: outputs differ from round 0")
    return problems, attempted, failed


def _trimmed_mean(values):
    """Mean of the values without the lowest and highest tenth."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut : len(values) - cut])


def _pace(rounds, setups, samples):
    """Set ``pace_s`` on each round and set-up, for its set-up, and on each
    trial: the reference unit's mean time over the pacer's samples meanwhile
    (over the whole run, should there be none).  The samples are evenly
    spaced in time, so their mean follows the speed the interval had on
    average; trimming drops samples the scheduler delayed."""

    def pace_in(start, seconds):
        inside = [s for t, s in samples if start <= t <= start + seconds]
        return _trimmed_mean(inside or [s for _, s in samples])

    for item in rounds + setups:
        item["pace_s"] = pace_in(item["spawn"], item["setup_s"])
    for rnd in rounds:
        for trial in rnd["trials"]:
            trial["pace_s"] = pace_in(trial["start"], trial["seconds"])


def _end_to_end(rounds, setups, frames, paced=True):
    """The end-to-end metrics.  With ``paced``, a set-up's or a trial's
    seconds are multiplied by PACE_NOMINAL_S / its ``pace_s``."""

    def seconds(item, key):
        return item[key] * PACE_NOMINAL_S / item["pace_s"] if paced else item[key]

    trials = [t for r in rounds for t in r["trials"]]
    done = [t for t in trials if t["rc"] == 0]
    return {
        "setup_s": (statistics.median(seconds(r, "setup_s") for r in rounds + setups), "s"),
        "trial_s": (statistics.median(seconds(t, "seconds") for t in done), "s"),
        "frames_per_s": (
            sum(frames[t["id"]] for t in done) / sum(seconds(t, "seconds") for t in trials),
            "frames/s",
        ),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }


def _per_layer(traced, untraced):
    spans = []
    for rnd in traced:
        offset = len(spans)
        for span in json.loads(rnd["spans"].read_text(encoding="utf-8")):
            if span[3] is not None:
                span[3] += offset
            spans.append(span)
    n_trials = sum(len(r["trials"]) for r in traced)
    metrics = tracing.per_layer(spans, n_trials)

    def median_trial(rounds):
        return statistics.median(
            t["seconds"] / t["pace_s"] for r in rounds for t in r["trials"] if t["rc"] == 0
        )

    metrics["trace.overhead_ratio"] = (median_trial(traced) / median_trial(untraced), "ratio")
    return metrics


def run_workload(workload, seed, seconds, trace):
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = work / "inputs"
    _child(["generate", workload, seed, inputs])
    plan_path = inputs / "plan.json"
    plan = json.loads(plan_path.read_text(encoding="utf-8"))

    # rounds and pacer share one processor, so the pacer sees the speed the rounds get
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    pacer = subprocess.Popen(
        [sys.executable, str(WORKER), "pace"], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    try:
        rounds, start = [], time.monotonic()
        while len(rounds) < MIN_ROUNDS or time.monotonic() - start < seconds:
            rounds.append(_round(plan_path, work, len(rounds), traced=trace and len(rounds) % 2 == 0))
        setups = [_setup_only() for _ in range(MIN_SETUPS - len(rounds))]
    finally:
        samples = _stop(pacer)
    _pace(rounds, setups, samples)

    with np.load(inputs / "truth.npz") as truth:
        problems, attempted, failed = _check(rounds, plan, dict(truth))
    for problem in problems:
        print(f"CHECK FAILED {workload}: {problem}", file=sys.stderr)
    untraced = [r for r in rounds if not r["traced"]]
    frames = {t["id"]: t["frames"] for t in plan["trials"]}
    pace_s = _trimmed_mean(s for _, s in samples)
    unscaled = {name: value for name, (value, _) in _end_to_end(untraced, setups, frames, paced=False).items()}
    (work / "unscaled.json").write_text(json.dumps({"pace_s": pace_s, "metrics": unscaled}))
    if trace:
        metrics = _per_layer([r for r in rounds if r["traced"]], untraced)
    else:
        metrics = _end_to_end(untraced, setups, frames)
    print(
        f"{workload}: seed {seed}, {len(rounds)} rounds and {len(setups)} further set-ups "
        f"in {time.monotonic() - start:.1f} s, "
        f"{attempted} trials attempted, {failed} failed, checks {'passed' if not problems else 'FAILED'}\n"
        f"  reference unit {pace_s * 1e3:.4f} ms on average over {len(samples)} samples; "
        f"unscaled: " + ", ".join(f"{name} {value:.6g}" for name, value in unscaled.items())
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaitkinetics" / "__init__.py").is_file():
        print(f"error: no gaitkinetics sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
