"""Resident memory after each stage of one ``gaitkinetics`` command.

    python3 tools/stage_rss.py [--src DIR] COMMAND [OPTIONS...]

Runs ``gaitkinetics COMMAND OPTIONS...`` through ``cli.main`` in this
process, a fresh interpreter, with every package function that ``cli``
calls (``parse_marker_file``, ``com_trajectory``, ``lowpass``, the
writers, ...) wrapped so that each return records the process's resident
set size and its peak so far.  The command's own output is printed as
usual; the table goes to stderr when the command ends: a row for the
import of the package, one per call in call order, and one for the exit.
``--src`` picks the package source (default: this checkout's ``src``), so
that two revisions can be measured alike.

The figures are read from this process only: the resident pages in
``/proc/self/statm`` (Linux) and ``ru_maxrss`` from ``getrusage``.  The
benchmark's trace gives the time of each layer; this gives its memory.
"""

import argparse
import inspect
import os
import resource
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


def _rss_mb() -> tuple[float, float]:
    """(resident, peak resident) of this process in MB of 2**20 bytes, the
    unit of the benchmark's ``peak_rss_mb``."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        resident_pages = int(fh.read().split()[1])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return resident_pages * PAGE_BYTES / 2**20, peak_kib / 2**10


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
    parser.add_argument("command", nargs=argparse.REMAINDER, help="gaitkinetics arguments")
    args = parser.parse_args(argv)
    if not args.command:
        parser.error("no gaitkinetics command given")

    sys.path.insert(0, str(args.src))
    from gaitkinetics import cli

    rows = [("import gaitkinetics.cli", *_rss_mb())]
    for attr, fn in list(vars(cli).items()):
        module = getattr(fn, "__module__", None) or ""
        if inspect.isfunction(fn) and module.startswith("gaitkinetics.") and module != cli.__name__:
            setattr(cli, attr, _wrap(attr, fn, rows))
    code = cli.main(args.command)
    rows.append((f"exit {code}", *_rss_mb()))

    print(f"{'stage':<28} {'rss_mb':>8} {'peak_mb':>8}", file=sys.stderr)
    for name, rss, peak in rows:
        print(f"{name:<28} {rss:>8.1f} {peak:>8.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
