"""Resident memory after each stage of one ``gaitkinetics`` command, or of
the README's Python API chain.

    python3 tools/stage_rss.py [--src DIR] COMMAND [OPTIONS...]
    python3 tools/stage_rss.py [--src DIR] --api-plan PLAN

Runs ``gaitkinetics COMMAND OPTIONS...`` through ``cli.main`` in this
process, a fresh interpreter, with every package function that ``cli``
calls (``parse_marker_file``, ``com_trajectory``, ``lowpass``, the
writers, ...) wrapped so that each return records the process's resident
set size and its peak so far.  The command's own output is printed as
usual; the table goes to stderr when the command ends: a row for the
import of the package, one per call in call order, and one for the exit.
``--src`` picks the package source (default: this checkout's ``src``), so
that two revisions can be measured alike.

With ``--api-plan``, the ``plan.json`` of an ``api-inmemory-120s`` input
(``python3 benchmarks/worker.py generate api-inmemory-120s SEED DIR``), it
builds that plan's walker in memory and runs ``run_api_chain`` of
``benchmarks/worker.py`` on it with ``cli``, as a benchmark round does:
the chain calls the same wrapped bindings, and the table has a row for the
walker and one for the chain's return in place of the exit.

The figures are read from this process only (Linux): ``rss_mb`` and
``peak_mb`` are ``VmRSS`` and ``VmHWM`` from one read of
``/proc/self/status``, and ``smaps_rss_mb`` is ``Rss`` from
``/proc/self/smaps_rollup``.  The kernel folds its per-CPU counts into
``VmRSS`` and ``VmHWM`` lazily, so both can lag by about 0.1 MB: a peak can
read below a resident size read earlier or later (103.35 MB resident, then
a peak of 103.16 MB once the array was freed).  ``Rss`` is counted from the
page tables at the moment it is read, so it is exact, and can stand above
its row's peak by that lag.  The benchmark's trace gives the time of each
layer; this gives its memory.
"""

import argparse
import inspect
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _rss_mb() -> tuple[float, float, float]:
    """(resident, peak resident, exact resident) of this process in MB of
    2**20 bytes, the unit of the benchmark's ``peak_rss_mb``: the first two
    from one read of the kernel's status, so that the peak is never below
    that resident size, and the third from the kernel's page-table walk."""
    kib = {}
    for path in ("/proc/self/status", "/proc/self/smaps_rollup"):
        with open(path, encoding="ascii") as fh:
            kib.update(line.split()[:2] for line in fh if line.startswith(("Vm", "Rss:")))
    return int(kib["VmRSS:"]) / 2**10, int(kib["VmHWM:"]) / 2**10, int(kib["Rss:"]) / 2**10


def _wrap(name, fn, rows):
    def staged(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            rows.append((name, *_rss_mb()))

    return staged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=REPO / "src", help="package source directory")
    parser.add_argument("--api-plan", type=Path, help="plan.json of an api-inmemory-120s input")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="gaitkinetics arguments")
    args = parser.parse_args(argv)
    if bool(args.command) == bool(args.api_plan):
        parser.error("give either a gaitkinetics command or --api-plan")

    sys.path.insert(0, str(args.src))
    from gaitkinetics import cli

    rows = [("import gaitkinetics.cli", *_rss_mb())]
    if args.api_plan:
        sys.path.insert(0, str(REPO / "benchmarks"))
        import worker
        from gaitkinetics import synth

        (spec,) = json.loads(args.api_plan.read_text(encoding="utf-8"))["trials"]
        table = cli.load_table(cli.bundled_table_path())
        definitions = cli.load_segment_definitions(cli.bundled_definitions_path())
        markers = synth.generate_walker(synth.WalkerParams(**spec["walker"])).markers
        rows.append(("generate_walker", *_rss_mb()))
    for attr, fn in list(vars(cli).items()):
        module = getattr(fn, "__module__", None) or ""
        if inspect.isfunction(fn) and module.startswith("gaitkinetics.") and module != cli.__name__:
            setattr(cli, attr, _wrap(attr, fn, rows))
    if args.api_plan:
        worker.run_api_chain(cli, markers, spec["walker"], table, definitions)
        code, end = 0, "return"
    else:
        code = cli.main(args.command)
        end = f"exit {code}"
    rows.append((end, *_rss_mb()))

    print(f"{'stage':<28} {'rss_mb':>8} {'peak_mb':>8} {'smaps_rss_mb':>12}", file=sys.stderr)
    peak = 0.0
    for name, rss, high_water, exact in rows:
        # the kernel's high-water mark can fall a little once pages are
        # freed, so each row's peak is the highest mark read up to it
        peak = max(peak, high_water)
        print(f"{name:<28} {rss:>8.1f} {peak:>8.1f} {exact:>12.2f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
