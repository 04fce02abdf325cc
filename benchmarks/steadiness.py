"""Run each workload repeatedly and derive metric bounds from the spread.

    python3 benchmarks/steadiness.py [--runs 10] [--workload NAME ...]

Run ``i`` (1 .. runs) is the BENCHMARK.json command with
``--workload W --seed i --seconds <run_seconds> --trace 0``: a different
seed each run, as a regression check makes its runs, so the spread holds
both the machine's and the inputs' share.  The workloads take turns, in
alternating order (A B, B A, A B, ...), so that a drift of the machine
over the set reaches every workload alike.  For every end-to-end metric it
prints the median and quartiles over the runs (``statistics.quantiles``,
n=4) and the spread (Q3 - Q1) / median; a metric is steady when its spread
is below a third of its bound in BENCHMARK.json.  The bound it derives is
three times the spread, rounded up to a hundredth, at least 0.05 and at
most 0.25; ``setup_s`` gets the largest bound, 0.25, since it is held to
its median only.  Beside each time it prints the spread of the same figure
before run.py scales it by the pacer's reference speed, and the spread of
that reference.  It also reports the share of failed trials, which must be
identical in every run.  The raw results go to
``.bench_work/steadiness.json``; the exit code is 0 only when every
workload is correct and steady.
"""

import argparse
import json
import math
import statistics
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_BOUND = 0.25
MIN_BOUND = 0.05


def derive_bound(name, spread):
    if name == "setup_s":
        return MAX_BOUND
    return min(MAX_BOUND, max(MIN_BOUND, math.ceil(300 * spread) / 100))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {workload: [] for workload in workloads}
    for seed in range(1, args.runs + 1):
        for workload in workloads if seed % 2 else workloads[::-1]:
            command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            side = ROOT / ".bench_work" / workload / "unscaled.json"
            result["unscaled"] = json.loads(side.read_text(encoding="utf-8"))
            results[workload].append(result)
            print(f"{workload} seed {seed}: {json.dumps(result)}", flush=True)

    (ROOT / ".bench_work" / "steadiness.json").write_text(json.dumps(results, indent=1))
    steady = True
    for workload, runs in results.items():
        shares = {(r["failed"], r["attempted"]) for r in runs}
        ratios = {f / a for f, a in shares}
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct {correct}, failed/attempted "
              + ", ".join(f"{f}/{a}" for f, a in sorted(shares)))
        steady &= correct and len(ratios) == 1
        print(f"  {'metric':<16}{'unit':<10}{'Q1':>12}{'median':>12}{'Q3':>12}"
              f"{'spread':>9}{'derived':>9}{'bound':>8}{'unscaled':>10}")
        q1, med, q3, s = spread([r["unscaled"]["pace_s"] for r in runs])
        print(f"  {'reference unit':<16}{'s':<10}{q1:>12.5g}{med:>12.5g}{q3:>12.5g}{s:>9.3f}")
        for name in runs[0]["metrics"]:
            q1, med, q3, s = spread([r["metrics"][name]["value"] for r in runs])
            raw = spread([r["unscaled"]["metrics"][name] for r in runs])[3]
            ok = s < bounds[name] / 3
            steady &= ok
            print(f"  {name:<16}{runs[0]['metrics'][name]['unit']:<10}{q1:>12.5g}{med:>12.5g}"
                  f"{q3:>12.5g}{s:>9.3f}{derive_bound(name, s):>9.2f}{bounds[name]:>8}{raw:>10.3f}"
                  f"{'' if ok else '  spread >= bound/3'}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
