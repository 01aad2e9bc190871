"""lamptwist benchmark: three closed-loop workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  Inputs
are generated from --seed before timing starts.  Each op's output is
checked against independent arithmetic.  Op times are reported at a
nominal host speed (speed.py); their wall times are printed beside them.
The last stdout line is one JSON object {correct, attempted, failed,
metrics}: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  Lines before it print the same figures by name
and unit, the sample counts and a stamp (commit or source digest, Python
and numpy versions, nproc, seed).
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from speed import Speed  # noqa: E402

SETUP_PROBES = 9
# Untimed ops before the timed loop.  After an idle spell the host runs the first
# seconds of cold CLI calls up to 40% slower, and the reference kernel does not
# show it.
WARMUP_S = 3.0
IMPORT_PROBES = 3
WORK_ROOT = ".perfbench_work"

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.p90": "s",
    "ops_per_s": "1/s",
    "ok_share": "ratio",
    "definite_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and generate the inputs, then exit (times setup_s)")
    return p.parse_args(argv)


# -- set-up ------------------------------------------------------------------------


def fix_mmap_threshold():
    """Serve every large allocation by mmap, as in a fresh process (glibc only).

    glibc raises its mmap threshold each time a large block is freed, so a
    long-lived process keeps later tables in its heap and its peak RSS comes
    to depend on the order of earlier ops.  A CLI user pays one op per process;
    fixing the threshold at its start value gives every in-process op that
    same allocator state.
    """
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6")
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):
        pass  # not glibc: nothing to fix


def prepare(workload, seed, work, src):
    """Everything before the first timed op: import (in-process workloads) and inputs."""
    os.makedirs(work, exist_ok=True)
    cli_main = None
    if workload in wl.IN_PROCESS:
        fix_mmap_threshold()
        if src not in sys.path:
            sys.path.insert(0, src)
        import lamptwist.cli

        cli_main = lamptwist.cli.main
    probe = wl.cap_probe(seed, work) if workload == "oracle-battery" else []
    return wl.WORKLOADS[workload](seed, work), probe, cli_main


def setup_seconds(args, work):
    """Median wall time of fresh processes that run `prepare` and exit.

    Not scaled by a reference kernel: none tracks a whole fresh process that
    imports numpy, and the wall medians of two 10-run sets agreed better."""
    times = []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PERFBENCH_WORK=os.path.join(work, f"probe{i}")))
        times.append(time.perf_counter() - t0)
        if proc.returncode:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        shutil.rmtree(os.path.join(work, f"probe{i}"), ignore_errors=True)
    return statistics.median(times)


def stamp(seed):
    commit = ""
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip()
        except OSError:
            pass
    if not commit:
        digest = hashlib.sha256()
        pkg = os.path.join("src", "lamptwist")
        for name in sorted(os.listdir(pkg)):
            if name.endswith(".py"):
                with open(os.path.join(pkg, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
        commit = "src-sha256:" + digest.hexdigest()[:16]
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return (f"commit={commit} python={platform.python_version()} numpy={numpy_version} "
            f"nproc={len(os.sched_getaffinity(0))} seed={seed}")


# -- the closed loop ---------------------------------------------------------------


def loop(ops, run, speed, seconds=None, count=None, recorder=None, first_id=0):
    """Run ops one after another until `seconds` pass (or `count` ops are done).

    `speed` samples the host around each op; each outcome gets its scaled time."""
    outcomes = []
    deadline = time.perf_counter() + (seconds or 0)
    while (len(outcomes) < count) if count is not None else (time.perf_counter() < deadline):
        i = first_id + len(outcomes)
        op = ops[len(outcomes) % len(ops)]
        op.stage()
        # start every op from a collected heap, as a fresh CLI process would: the
        # previous op's cyclic garbage (it can hold whole Cayley tables) must not
        # land in this op's time or peak memory
        gc.collect()
        speed.sample()
        t0 = time.perf_counter()
        if recorder is None:
            steps = wl.execute(op, run(i))
        else:
            with recorder.op_span(i):
                steps = wl.execute(op, run(i))
        t1 = time.perf_counter()
        speed.sample()
        outcomes.append(wl.judge(op, wl.Outcome(t1 - t0, steps, start=t0)))
    for o in outcomes:
        o.scaled = o.seconds * speed.scale(o.start, o.start + o.seconds)
    return outcomes


def p90(values):
    """Nearest-rank 90th percentile, and how many samples lie beyond it."""
    xs = sorted(values)
    rank = math.ceil(0.9 * len(xs))
    return xs[rank - 1], len(xs) - rank


def timings(outcomes, attr):
    """p50, p90 and ok ops per second of one of the outcomes' times."""
    ok = [getattr(o, attr) for o in outcomes if o.status == "ok"]
    if not ok:
        raise RuntimeError("no op succeeded; nothing to time")
    top, beyond = p90(ok)
    rate = len(ok) / sum(getattr(o, attr) for o in outcomes)
    return statistics.median(ok), top, rate, len(ok), beyond


def end_to_end(outcomes, setup_s, peak_rss_mb):
    verdicts = [o.verdict for o in outcomes if o.verdict is not None]
    p50, top, rate, ok, beyond = timings(outcomes, "scaled")
    values = {
        "op_s.p50": p50,
        "op_s.p90": top,
        "ops_per_s": rate,
        "ok_share": ok / len(outcomes),
        "definite_share": 1 - verdicts.count("unknown") / len(verdicts) if verdicts else 1.0,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    note = f"op_s: {ok} successful ops of {len(outcomes)}, {beyond} beyond p90"
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, note


def wall_line(outcomes):
    p50, top, rate, _, _ = timings(outcomes, "seconds")
    return (f"wall time, not scaled: op_s.p50 = {p50:.6g} s, op_s.p90 = {top:.6g} s, "
            f"ops_per_s = {rate:.6g} 1/s")


def shares(outcomes):
    verdicts = [o.verdict for o in outcomes if o.verdict is not None]
    failed = sum(o.status != "ok" for o in outcomes)
    return {
        "fail_share": (failed / len(outcomes), "ratio"),
        "unknown_share": (verdicts.count("unknown") / len(verdicts) if verdicts else 0.0, "ratio"),
    }


def summary(outcomes):
    status = {s: sum(o.status == s for o in outcomes) for s in ("ok", "refused", "wrong")}
    verdicts = {v: sum(o.verdict == v for o in outcomes)
                for v in ("infinite", "certified", "unknown")}
    return ("ops: " + " ".join(f"{k}={v}" for k, v in status.items())
            + " | verdicts: " + " ".join(f"{k}={v}" for k, v in verdicts.items()))


# -- traced run --------------------------------------------------------------------


def traced_children(work):
    """cli-session under the span recorder: each op is a `child.py` process."""
    dumps = []
    child = os.path.join(HERE, "child.py")

    def run_for(op_id):
        def run(argv):
            path = os.path.join(work, f"spans{op_id}-{len(dumps)}.json")
            prefix = [sys.executable, child, path, repr(time.time()), str(op_id), "--"]
            step = wl.child_runner(os.path.abspath("src"), prefix)(argv)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    dumps.append(json.load(fh))
                os.remove(path)
            return step
        return run

    return run_for, dumps


def import_probes(work):
    """Start-up and import of a fresh `child.py` process, for the in-process workloads."""
    out = []
    for i in range(IMPORT_PROBES):
        path = os.path.join(work, f"probe-import{i}.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), path, repr(time.time()), "-1"]
        subprocess.run(argv, env=dict(os.environ, PYTHONPATH=os.path.abspath("src")),
                       capture_output=True, timeout=120, check=True)
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def traced_run(args, ops, probe, cli_main, work, speed):
    """Untraced half, then the same ops traced: per-layer metrics and the overhead.

    The cap probe runs traced after the loop; its refusals are the only ones
    `finite.budget_refusals` can count, and its ops are not in the returned outcomes."""
    half = args.seconds / 2
    if cli_main is None:
        src = os.path.abspath("src")
        plain = wl.child_runner(src)
        untraced = loop(ops, lambda i: plain, speed, seconds=half)
        run_for, dumps = traced_children(work)
        traced = loop(ops, run_for, speed, count=len(untraced))
        starts = dumps
        probed = []
    else:
        inproc = wl.in_process_runner(cli_main)
        untraced = loop(ops, lambda i: inproc, speed, seconds=half)
        recorder = spans.Recorder()
        recorder.install()
        traced = loop(ops, lambda i: inproc, speed, count=len(untraced), recorder=recorder)
        probed = loop(probe, lambda i: inproc, speed, count=len(probe), recorder=recorder,
                      first_id=len(traced)) if probe else []
        dumps = [recorder.dump()]
        starts = import_probes(work)
    metrics = {
        "cli.interp_s": (statistics.median(d["interp_s"] for d in starts), "s"),
        "cli.import_s": (statistics.median(d["import_s"] for d in starts), "s"),
        "cli.numpy_loaded": (max(d["numpy_loaded"] for d in starts), "flag"),
    }
    metrics.update(spans.layer_metrics(dumps))
    metrics.update(shares(traced))
    time_u = sum(o.scaled for o in untraced)
    time_t = sum(o.scaled for o in traced)
    metrics["trace.overhead_share"] = (time_t / time_u - 1, "ratio")
    out = os.path.join(WORK_ROOT, f"spans-{args.workload}-seed{args.seed}.json")
    spans.write(out, {"stamp": stamp(args.seed), "dumps": dumps})
    note = f"traced {len(traced)} ops after {len(untraced)} untraced; spans in {out}"
    return untraced + traced, probed, metrics, note


def probe_line(probe, probed):
    """The cap probe's outcomes; `refused` there is today's documented table cap."""
    parts = [f"{op.expect['model']} {op.expect['checks'][0]}: {o.status}"
             for op, o in zip(probe, probed)]
    return "table-cap probe (untimed, not in attempted): " + "; ".join(parts)


# -- entry point -------------------------------------------------------------------


def main(argv=None):
    args = parse(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "lamptwist", "cli.py")):
        print("error: no lamptwist sources in ./src; run from the repository root",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        prepare(args.workload, args.seed, os.environ["PERFBENCH_WORK"], src)
        return 0

    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    try:
        setup_s = setup_seconds(args, work)
        ops, probe, cli_main = prepare(args.workload, args.seed, work, src)
        speed = Speed(wl.REFERENCE[args.workload])
        run = wl.in_process_runner(cli_main) if cli_main else wl.child_runner(src)
        warm = loop(ops, lambda i: run, speed, seconds=WARMUP_S)
        if args.trace:
            outcomes, probed, metrics, note = traced_run(args, ops, probe, cli_main, work, speed)
        else:
            outcomes = loop(ops, lambda i: run, speed, seconds=args.seconds)
            who = resource.RUSAGE_SELF if cli_main else resource.RUSAGE_CHILDREN
            peak = resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux
            metrics, note = end_to_end(outcomes, setup_s, peak)
            note += "\n" + wall_line(outcomes)
            probed = loop(probe, lambda i: run, speed, count=len(probe)) if probe else []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # a refusal counts as failed inside the loop; in the probe only a wrong answer counts
    wrong = [o for o in warm + outcomes + probed if o.status == "wrong"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("stamp: " + stamp(args.seed))
    print(summary(outcomes))
    print(f"warm-up: {len(warm)} untimed ops in {WARMUP_S:g} s, checked like the rest")
    print(note)
    print(speed.summary())
    if probe:
        print(probe_line(probe, probed))
    for reason in sorted({o.reason for o in wrong})[:10]:
        print(f"wrong: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in shares(outcomes).items():
            print(f"{name} = {value:.6g} {unit} (also a per-layer metric)")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": sum(o.status != "ok" for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
