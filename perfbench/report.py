"""Print every metric of every workload by name and unit, untraced and traced.

    python3 perfbench/report.py [--seed N] [--seconds S]     (from the repository root)

Runs `run.py` once per workload with --trace 0 (end-to-end metrics) and once
with --trace 1 (per-layer metrics), one run at a time, and prints one table
with a column per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402


def run(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args(argv)

    names = list(wl.WORKLOADS)
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per-layer (traced)")):
        results = {}
        for name in names:
            lines, results[name] = run(name, args.seed, args.seconds, trace)
            print(f"# {name}: {lines[1]}; {lines[2]}; {lines[4]}")
        print(f"\n{title}")
        print(f"{'metric':46s} {'unit':6s} " + " ".join(f"{n:>15s}" for n in names))
        print(f"{'correct / attempted / failed':53s} " + " ".join(
            f"{str(results[n]['correct'])[0]} {results[n]['attempted']:>5d} "
            f"{results[n]['failed']:>6d}".rjust(15) for n in names))
        for metric, entry in results[names[0]]["metrics"].items():
            cells = " ".join(f"{results[n]['metrics'][metric]['value']:>15.6g}" for n in names)
            print(f"{metric:46s} {entry['unit']:6s} {cells}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
