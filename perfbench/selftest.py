"""Self-test of the benchmark on tiny runs; exits 0 when every assertion holds.

    python3 perfbench/selftest.py        (from the repository root)

1. Each workload, untraced and traced, for 2 seconds: the last line is the
   result object, and every metric BENCHMARK.json declares is present with
   its declared unit.
2. A certificate with one tampered coefficient makes `verify` exit 2, and the
   checks count the op as wrong.
3. The cap probe's ops, on models above the table cap, are refused, and the
   checks class that as a refusal, not as a wrong answer.
4. In a directory holding only BENCHMARK.json and the benchmark, the benchmark
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

WORK = os.path.join(".perfbench_work", "selftest")


def run_bench(workload, trace, cwd="."):
    """The driver's command line, run from `cwd` against the benchmark copy found there."""
    argv = [sys.executable, os.path.join(os.path.basename(HERE), "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "2", "--trace", str(trace)]
    return subprocess.run(argv, capture_output=True, text=True, timeout=180, cwd=cwd)


def check_metrics(spec):
    for entry in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = run_bench(entry["name"], trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, proc.stdout
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            assert got == want, (entry["name"], trace, set(got) ^ set(want))
            print(f"ok: {entry['name']} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} ops")


def check_tampered_certificate(src):
    run = wl.child_runner(src)
    ops = wl.cli_session(seed=7, work=WORK, cycles=1)
    emit = next(op for op in ops if op.kind == "reidemeister")
    verify = next(op for op in ops if op.kind == "verify")
    for op in (emit, verify):
        op.stage()
        outcome = wl.judge(op, wl.Outcome(0.0, wl.execute(op, run)))
        assert outcome.status == "ok", (op.argv, outcome.reason)

    cert = verify.argv[1]
    with open(cert, encoding="utf-8") as fh:
        data = json.load(fh)
    term = data["witnesses"][0]["preimage"][0]
    term["coeff"] = (term["coeff"] + 1) % data["automorphism"]["modulus"]
    with open(cert, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    outcome = wl.judge(verify, wl.Outcome(0.0, wl.execute(verify, run)))
    assert outcome.steps[0].rc == 2, outcome.steps[0]
    assert outcome.status == "wrong", outcome
    print(f"ok: tampered certificate: verify exit 2, counted as wrong ({outcome.reason})")


def check_refusal(src):
    for op in wl.cap_probe(seed=7, work=WORK):
        op.stage()
        outcome = wl.judge(op, wl.Outcome(0.0, wl.execute(op, wl.child_runner(src))))
        assert outcome.status == "refused", outcome
        print(f"ok: cap probe {op.expect['model']}: refused ({outcome.reason})")


def check_bare_directory():
    bare = os.path.join(WORK, "bare")
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = run_bench("cli-session", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok: bare directory: exit {proc.returncode}, no result printed")


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath("src")
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        check_tampered_certificate(src)
        check_refusal(src)
        check_bare_directory()
        check_metrics(spec)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
