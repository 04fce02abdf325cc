"""Compare the outputs at a git revision with those of this checkout.

    python3 tools/compare_outputs.py REF [--seed N]

Extracts ``REF`` into a temporary directory with ``git archive`` (no
worktree is registered, so an interrupted run leaves nothing in ``.git``),
generates seeded inputs once with ``benchmarks/worker.py generate`` (the
``cli-plates-120s`` and ``cli-occluded-10s`` workloads), and runs in both
trees, each in a fresh interpreter:

- ``grf --force-file``, ``validate``, ``com --include-segment-coms yes``
  and ``events`` on the 120 s trial;
- ``grf`` on each of the eight occluded 10 s trials;
- ``grf --force-file`` on the 120 s trial and ``grf`` on occluded trial
  ``t0``, with every input file rewritten with ``\\r\\n`` line ends, which
  the parser cuts from each block's bytes before it reads the block;
- ``grf`` on occluded trial ``t0`` twice more, the full-size checks of the
  parser's row path: with its blank triplets written as spaces-only fields,
  which keep every block with one off the bytes path; and with each whole
  value respelt as an integer and each zero as the integer ``-0``, which
  JSON reads without its sign, so every slice is searched for one and the
  first block, whose first time is ``0.0``, is read row by row;
- ``--help`` of the program and of each subcommand, which shows a change
  to the CLI's imports or argparse set-up;
- the README's Python API chain (``run_api_chain`` and
  ``save_api_outputs`` of this checkout's ``benchmarks/worker.py``) on the
  ``api-inmemory-120s`` walker, built in memory;
- the parsers and ``fill_gaps`` on the 120 s trial and on occluded trial
  ``t0``, whose records are read through the by-name forms that every
  version has: each marker's positions and mask (``markers`` and
  ``missing``) of the parsed and of the gap-filled set, in file order, and
  the parsed plates' ``forces``, ``cop`` and ``below_noise``.

Every CLI run but ``--help`` writes to ``out`` under its own working
directory, so the paths it prints read alike in both trees.  The sha256 of every output file, of
stdout and of stderr, and the exit code are compared, and for the API
chain the sha256 of each saved array, of ``BilateralGrf.analyzed``, of both
negative-vertical masks, of the butterfly's ``bases`` and ``tips`` and of
the excluded intervals with their reasons,
and for the records the sha256 of each one's names and arrays.
Within each tree, the output files of each ``\\r\\n`` run are also compared
with those of the same run on the ``\\n`` files.  Each difference is listed
and the script exits 1 if there is any, 0 otherwise.
"""

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BENCHMARKS = REPO / "benchmarks"
RUN_MAIN = "import sys; from gaitkinetics.cli import main; sys.exit(main(sys.argv[1:]))"
# argv: the plan of an api-inmemory-120s input; writes api/outputs.npz and
# prints as JSON the sha256 of each array in it (the file itself holds the
# time it was written), of the analysed-frame and negative-vertical masks,
# of the butterfly's anchors and tips, and of the excluded intervals with
# their reasons, which the file leaves out
RUN_API_CHAIN = """
import hashlib, json, sys
from pathlib import Path
import numpy as np
import worker
from gaitkinetics import anthro, cli, kinematics, synth
(spec,) = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))["trials"]
markers = synth.generate_walker(synth.WalkerParams(**spec["walker"])).markers
table = anthro.load_table(anthro.bundled_table_path())
definitions = kinematics.load_segment_definitions(kinematics.bundled_definitions_path())
bilateral, diagram = worker.run_api_chain(cli, markers, spec["walker"], table, definitions)
worker.save_api_outputs(Path("api"), bilateral, diagram)
d = bilateral.diagnostics
with np.load("api/outputs.npz") as saved:
    arrays = dict(saved)
arrays["analyzed"] = bilateral.analyzed
arrays["negative_vertical_left"] = d.negative_vertical_left
arrays["negative_vertical_right"] = d.negative_vertical_right
arrays["butterfly_bases"] = diagram.bases
arrays["butterfly_tips"] = diagram.tips
digests = {
    name: hashlib.sha256(f"{a.dtype}{a.shape}".encode() + a.tobytes()).hexdigest()
    for name, a in arrays.items()
}
intervals = [(int(s), int(e), reason) for s, e, reason in d.excluded_intervals]
digests["excluded_intervals"] = hashlib.sha256(repr(intervals).encode()).hexdigest()
print(json.dumps(digests))
"""
# argv: the 120 s marker file, occluded marker file t0 and the 120 s force
# file; prints as JSON the sha256 of the marker sets, parsed and gap-filled,
# and of the parsed plates, each read by name
RUN_RECORDS = """
import hashlib, json, sys
from gaitkinetics.ingest import fill_gaps, parse_force_file, parse_marker_file

def digest(items):
    h = hashlib.sha256()
    for name, a in items:
        h.update(f"{name}{a.dtype}{a.shape}".encode() + a.tobytes())
    return h.hexdigest()

digests = {}
for trial, path in (("120s", sys.argv[1]), ("occluded-t0", sys.argv[2])):
    parsed = parse_marker_file(path)
    for stage, traj in (("parsed", parsed), ("filled", fill_gaps(parsed))):
        for record in ("markers", "missing"):
            digests[f"{trial} {stage} {record}"] = digest(getattr(traj, record).items())
plates = parse_force_file(sys.argv[3])
for record in ("forces", "cop", "below_noise"):
    digests[f"plates {record}"] = digest([(record, getattr(plates, record))])
print(json.dumps(digests))
"""
SUBCOMMANDS = ("com", "events", "grf", "validate")


def _export(ref, dest):
    """Write the files of ``ref`` into ``dest``."""
    tar = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", ref],
        check=True,
        capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _generate(workload, seed, dest):
    """Inputs of one benchmark workload; returns its plan's trials."""
    worker = REPO / "benchmarks" / "worker.py"
    subprocess.run(
        [sys.executable, str(worker), "generate", workload, str(seed), str(dest)], check=True
    )
    plan = json.loads((dest / "plan.json").read_text(encoding="utf-8"))
    return plan["trials"]


def _without_force_file(argv):
    i = argv.index("--force-file")
    return argv[:i] + argv[i + 2 :]


def _rewritten(argv, dest, rewrite):
    """``argv`` with each input file it names rewritten into ``dest`` as
    ``rewrite`` of its lines."""
    dest.mkdir(parents=True)
    argv = list(argv)
    for flag in ("--marker-file", "--force-file"):
        if flag in argv:
            i = argv.index(flag) + 1
            source, argv[i] = Path(argv[i]), str(dest / Path(argv[i]).name)
            with open(source, "rb") as lines, open(argv[i], "wb") as out:
                out.writelines(rewrite(lines))
    return argv


def _crlf(lines):
    """Each line with ``\\r\\n`` line ends."""
    return (line.replace(b"\n", b"\r\n") for line in lines)


def _data_fields(field):
    """A rewrite of a marker file's lines: each data field ``f`` as ``field(f)``."""

    def rewrite(lines):
        for k, line in enumerate(lines):  # three header lines, then the data
            yield line if k < 3 else b"\t".join(map(field, line.rstrip(b"\n").split(b"\t"))) + b"\n"

    return rewrite


def _spaces_only(field):
    return field or b" "


def _integer(field):
    """A whole value respelt as an integer, and a zero as the integer -0."""
    if not field.endswith(b".0"):
        return field
    whole = field[:-2]
    return b"-0" if whole in (b"0", b"-0") else whole


def _commands(inputs, seed):
    """{run name: argv} of every run compared."""
    (plates,) = [trial["argv"] for trial in _generate("cli-plates-120s", seed, inputs / "plates")]
    markers_only = _without_force_file(plates)[1:]
    runs = {
        "grf-force-file": plates,
        "validate": ["validate", *plates[1:]],
        "com-segments": ["com", *markers_only, "--include-segment-coms", "yes"],
        "events": ["events", *markers_only],
    }
    for i, trial in enumerate(_generate("cli-occluded-10s", seed, inputs / "occluded")):
        runs[f"occluded-t{i}"] = trial["argv"]
    t0 = runs["occluded-t0"]
    runs["grf-force-file-crlf"] = _rewritten(plates, inputs / "plates-crlf", _crlf)
    runs["occluded-t0-crlf"] = _rewritten(t0, inputs / "occluded-crlf", _crlf)
    spaces, integers = _data_fields(_spaces_only), _data_fields(_integer)
    runs["occluded-t0-spaces"] = _rewritten(t0, inputs / "occluded-spaces", spaces)
    runs["occluded-t0-integers"] = _rewritten(t0, inputs / "occluded-integers", integers)
    runs = {name: [*argv, "--output-dir", "out"] for name, argv in runs.items()}
    runs["help"] = ["--help"]
    for command in SUBCOMMANDS:
        runs[f"help-{command}"] = [command, "--help"]
    _generate("api-inmemory-120s", seed, inputs / "api")
    runs["api-chain"] = ["-c", RUN_API_CHAIN, str(inputs / "api" / "plan.json")]
    files = [argv[argv.index(flag) + 1] for argv, flag in (
        (plates, "--marker-file"), (t0, "--marker-file"), (plates, "--force-file"),
    )]
    runs["records"] = ["-c", RUN_RECORDS, *files]
    return runs


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _run(tree, name, argv, work):
    """Digests of one run: {item: sha256 or exit code}.

    ``argv`` is the CLI's, or ``-c`` and a script, which runs with this
    checkout's ``benchmarks`` importable and prints a JSON object of more
    digests.
    """
    cwd = work / name
    cwd.mkdir(parents=True)
    script = argv[0] == "-c"
    paths = [str(tree / "src"), *([str(BENCHMARKS)] if script else [])]
    proc = subprocess.run(
        [sys.executable, *(argv if script else ["-c", RUN_MAIN, *argv])],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        capture_output=True,
    )
    digests = {
        "exit code": proc.returncode,
        "stdout": _sha256(proc.stdout),
        "stderr": _sha256(proc.stderr),
    }
    if script and proc.returncode == 0:
        digests.update({f"array {k}": v for k, v in json.loads(proc.stdout).items()})
    for path in sorted((cwd / "out").rglob("*")):
        if path.is_file():
            digests[f"file {path.relative_to(cwd / 'out')}"] = _sha256(path.read_bytes())
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--seed", type=int, default=7, help="input seed (default 7)")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        tmp = Path(tmp)
        _export(args.ref, tmp / "ref")
        runs = _commands(tmp / "inputs", args.seed)
        trees = (tmp / "ref", REPO)
        differences = 0
        digests = {}  # run name -> its digests in each tree
        for name, run_argv in runs.items():
            ref_digests, new_digests = digests[name] = [
                _run(tree, name, run_argv, tmp / f"runs-{i}")
                for i, tree in enumerate(trees)
            ]
            for item in sorted(set(ref_digests) | set(new_digests)):
                old, new = ref_digests.get(item), new_digests.get(item)
                if old != new:
                    differences += 1
                    print(f"DIFFERS {name}: {item}: {old} -> {new}")
            print(
                f"{name}: {len(ref_digests)} items compared, "
                f"exit code {new_digests['exit code']}"
            )
        for crlf in [name for name in runs if name.endswith("-crlf")]:
            lf = crlf.removesuffix("-crlf")
            for tree, lf_digests, crlf_digests in zip(
                (args.ref, "checkout"), digests[lf], digests[crlf]
            ):
                items = {**lf_digests, **crlf_digests}
                for item in sorted(item for item in items if item.startswith("file ")):
                    old, new = lf_digests.get(item), crlf_digests.get(item)
                    if old != new:
                        differences += 1
                        print(f"DIFFERS {tree}: {lf} -> {crlf}: {item}: {old} -> {new}")
            print(f"{lf} and {crlf}: output files compared in both trees")
    print(f"{differences} difference(s) between {args.ref} and the checkout")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
