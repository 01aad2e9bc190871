"""The three workloads: seeded op schedules, how each op runs, and how it is checked.

Every workload is a closed loop with one caller: the next op starts only
after the previous one returned, and `cli-session` runs at most one child
process at a time.  An op is one user-level action; its inputs reach the
program only as files and argv.

Each op ends in one of three states:
  ok       - exit code and output match what the independent checks expect;
  refused  - the documented finite-model refusal (exit 1, `error: ... exceeds ...`),
             counted as failed but not as a wrong answer;
  wrong    - any other mismatch, exit code or exception.

The timed loops hold only ops that the program answers today.  The models
above the table cap, which it refuses, are a separate untimed probe
(`cap_probe`), run once per `oracle-battery` run and reported by itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass, field

import inputs as gen

# -- ops and their outcomes --------------------------------------------------------


@dataclass
class Op:
    """One user-level action: a CLI call, or for verdicts a reidemeister + verify pair."""

    kind: str
    argv: list
    expect: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)  # path -> JSON payload the op reads

    def outputs(self):
        """Files the op writes."""
        return [self.argv[i + 1] for i, a in enumerate(self.argv)
                if a in ("--out", "--emit-certificate")]

    def stage(self):
        """Write the op's input files and remove its outputs, so that a rerun never
        sees stale ones.  Called right before the op, outside its timed region: the
        inputs are generated in memory during set-up, and set-up writes no files,
        whose cost swings with the file system's state."""
        for path in self.outputs():
            if os.path.exists(path):
                os.remove(path)
        for path, payload in self.inputs.items():
            gen.write_json(path, payload)


@dataclass
class Step:
    rc: int | None
    out: str
    err: str


@dataclass
class Outcome:
    seconds: float  # wall time
    steps: list
    status: str = "ok"
    reason: str = ""
    verdict: str | None = None
    start: float = 0.0  # perf_counter at the op's start
    scaled: float | None = None  # wall time at the nominal host speed (speed.py)


def in_process_runner(cli_main):
    """Run argv through `cli.main` in this process, capturing its output."""

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli_main(list(argv))
            except Exception:  # a traceback is a failed op, not a crashed benchmark
                traceback.print_exc()
                rc = None
        return Step(rc, out.getvalue(), err.getvalue())

    return run


def child_runner(src_dir, prefix=None, timeout=120):
    """Run argv as a cold `python -m lamptwist.cli` child (or under `prefix`)."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    base = prefix if prefix is not None else [sys.executable, "-m", "lamptwist.cli"]

    def run(argv):
        try:
            proc = subprocess.run(
                [*base, *argv], env=env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired as exc:
            return Step(None, exc.stdout or "", f"timeout after {timeout}s")
        return Step(proc.returncode, proc.stdout, proc.stderr)

    return run


def execute(op, run):
    """Run one op; a verdict op replays its certificate when one was written."""
    steps = [run(op.argv)]
    cert = op.expect.get("cert")
    if op.kind == "verdict" and os.path.exists(cert):
        steps.append(run(["verify", cert]))
    return steps


# -- output checks ---------------------------------------------------------------------


class Mismatch(Exception):
    pass


def expect(cond, reason):
    if not cond:
        raise Mismatch(reason)


def family_r(n, k):
    """R of the witness family for an admitting pair: 2^k, or 3^(k/2) when 3 | n."""
    return 2**k if n % 3 else 3 ** (k // 2)


def is_refusal(step):
    return step.rc == 1 and step.err.startswith("error:") and " exceeds " in step.err


def _lines(step):
    return step.out.splitlines()


def check_classify(op, step):
    n, k = op.expect["n"], op.expect["k"]
    expect(step.rc == 0, f"classify exit {step.rc}")
    head = f"Z_{n} wr Z^{k}: "
    if not gen.admits_finite(n, k):
        reason = "modulus is even" if n % 2 == 0 else "modulus divisible by 3 and rank odd"
        expect(_lines(step) == [head + f"R-infinity ({reason})"], "classify R-infinity line")
        return
    path = op.expect["out"]
    expected = [head + f"admits finite, R = {family_r(n, k)}", f"automorphism file: {path}"]
    expect(_lines(step) == expected, "classify admits-finite lines")
    expect(os.path.exists(path), "classify wrote no automorphism file")


def check_construct(op, step):
    n, k, path = op.expect["n"], op.expect["k"], op.expect["out"]
    expected = [
        f"Z_{n} wr Z^{k}: constructed automorphism, R = {family_r(n, k)}",
        f"automorphism file: {path}",
    ]
    expect(step.rc == 0, f"construct exit {step.rc}")
    expect(_lines(step) == expected, "construct lines")
    expect(os.path.exists(path), "construct wrote no automorphism file")


def check_validate(op, step):
    expect(step.rc == 0, f"validate exit {step.rc}")
    expected = [
        "matrix_unimodular = true",
        "u_is_unit = true",
        "cocycle_consistent = true",
        "valid",
    ]
    expect(_lines(step) == expected, "validate lines")


def check_verify(step, rank, certified):
    """A replayed certificate: exit 0, one line per witness, `certificate ok (N witnesses)`."""
    expect(step.rc == 0, f"verify exit {step.rc}")
    lines = _lines(step)
    expect(bool(lines), "verify printed nothing")
    witnesses = lines[:-1]
    expect(all(w.startswith("witness (") and w.endswith(") ok") for w in witnesses), "witness lines")
    expect(lines[-1] == f"certificate ok ({len(witnesses)} witnesses)", "verify summary line")
    if certified:
        expect(len(witnesses) == 2 * rank + 1, f"{len(witnesses)} witnesses, rank {rank}")


def check_reidemeister(op, step):
    """Returns the verdict; `R_quotient` must equal the independent fixed-character count."""
    lines = _lines(step)
    expect(len(lines) == 3, "reidemeister prints three lines")
    fields = dict(line.split(" = ", 1) for line in lines if " = " in line)
    expect(set(fields) == {"R_quotient", "certificate", "R"}, "reidemeister fields")
    count = gen.lattice_count(op.expect["matrix"])
    expect(fields["R_quotient"] == ("infinite" if count is None else str(count)), "R_quotient")
    cert = op.expect["cert"]
    if count is None:
        expect(step.rc == 0, f"reidemeister exit {step.rc}")
        expect(fields["certificate"] == "skipped" and fields["R"] == "infinite", "infinite verdict")
        expect(not os.path.exists(cert), "certificate written for an infinite verdict")
        return "infinite"
    expect(os.path.exists(cert), "no certificate written")
    if fields["certificate"] == "certified":
        expect(step.rc == 0, f"reidemeister exit {step.rc}")
        expect(fields["R"] == fields["R_quotient"], "certified R differs from R_quotient")
        if op.expect.get("R") is not None:
            expect(fields["R"] == str(op.expect["R"]), "inner twist changed R")
        return "certified"
    expect(fields["certificate"] == "unknown", "certificate status")
    expect(step.rc == 3 and fields["R"] == "unknown", "unknown verdict exits 3")
    return "unknown"


def shift_samples(order):
    """Elements the CLI's shift check uses: all of them up to 200, else 25 seeded draws."""
    if order <= 200:
        return order
    rng = random.Random(0x5EED)
    return len({rng.randrange(order) for _ in range(25)})


CHECK_LINES = {"tbft": lambda order: 1, "restriction": lambda order: 2,
               "projection": lambda order: 4, "shift": lambda order: 3 * shift_samples(order)}


def check_oracle(op, step):
    n, m, k = op.expect["model"]
    order = n ** (m**k) * m**k
    lines = _lines(step)
    expect(step.rc == 0, f"oracle exit {step.rc}")
    want = sum(CHECK_LINES[c](order) for c in op.expect["checks"])
    body = lines[:-1]
    expect(len(body) == want, f"oracle printed {len(body)} checks, expected {want}")
    expect(all(line.startswith("CHECK ") and " PASS " in line for line in body), "oracle FAIL line")
    expect(lines[-1] == f"oracle: {want} pass, 0 fail", "oracle summary line")


def _status(cert):
    with open(cert, encoding="utf-8") as fh:
        return json.load(fh).get("status")


def judge(op, outcome):
    """Set the outcome's status, reason and verdict from the independent checks."""
    step = outcome.steps[0]
    try:
        expect(step.rc is not None, (step.err.strip().splitlines() or ["no exit code"])[-1])
        if op.kind == "oracle" and is_refusal(step):
            outcome.status, outcome.reason = "refused", step.err.strip()
            return outcome
        if op.kind == "classify":
            check_classify(op, step)
        elif op.kind == "construct":
            check_construct(op, step)
        elif op.kind == "validate":
            check_validate(op, step)
        elif op.kind == "oracle":
            check_oracle(op, step)
        elif op.kind == "verify":
            check_verify(step, op.expect["k"], _status(op.argv[1]) == "certified")
        elif op.kind in ("reidemeister", "verdict"):
            outcome.verdict = check_reidemeister(op, step)
            if op.kind == "verdict" and outcome.verdict != "infinite":
                expect(len(outcome.steps) == 2, "certificate was not replayed")
                check_verify(outcome.steps[1], op.expect["k"], outcome.verdict == "certified")
        else:
            raise Mismatch(f"unknown op kind {op.kind}")
    except (Mismatch, OSError, ValueError) as exc:  # unreadable output files count as wrong
        outcome.status, outcome.reason = "wrong", f"{type(exc).__name__}: {exc}"
    return outcome


# -- schedules ---------------------------------------------------------------------------

# cli-session: witness families (no pair with both 3 | n and 7 | n, see inputs.witness)
FAMILIES = ((5, 1), (7, 1), (5, 2), (9, 2), (25, 1), (11, 1), (45, 2), (7, 2), (35, 1),
            (5, 3), (15, 2), (49, 1))
R_INFINITY_PAIRS = ((2, 1), (4, 2), (6, 1), (3, 1), (9, 3), (12, 2), (15, 1), (8, 3))
SMALL_MODELS = ((3, 2, 1), (5, 2, 1), (7, 2, 1), (3, 3, 1), (2, 2, 2), (2, 3, 1))  # orders <= 100


def catalog_aut(rng, n, m, k, twist):
    """A zero-cocycle single-point-unit automorphism on the box, optionally inner-twisted."""
    mats = [gen.identity(k), tuple(tuple(-x for x in row) for row in gen.identity(k))]
    if k >= 2:
        mats.append(tuple(tuple(int(j == (i + 1) % k) for j in range(k)) for i in range(k)))
    if k % 2 == 0:
        mats.append(gen.block_order_three(k))
    point = tuple(rng.randrange(m) for _ in range(k))
    aut = gen.Aut(n, k, rng.choice(mats), {point: rng.choice(gen.units(n))})
    return aut.twisted(*gen.random_element(rng, n, k)) if twist else aut


def cli_session(seed, work, cycles=60):
    """Seven cold CLI calls per cycle, covering all six subcommands."""
    rng = random.Random(seed)
    ops = []
    for c in range(cycles):
        n, k = FAMILIES[c % len(FAMILIES)]
        base, r = gen.witness(n, k)
        twisted = base.twisted(*gen.random_element(rng, n, k)).to_dict()
        tpath = os.path.join(work, f"twist{c}.json")
        wpath, kpath, cpath = (os.path.join(work, f"{t}{c}.json") for t in ("w", "k", "c"))
        ops.append(Op("classify", ["classify", str(n), str(k), "--out", wpath],
                      {"n": n, "k": k, "out": wpath}))
        ops.append(Op("validate", ["validate", wpath]))
        ops.append(Op("construct", ["construct", str(n), str(k), "--out", kpath],
                      {"n": n, "k": k, "out": kpath}))
        ops.append(Op("reidemeister", ["reidemeister", tpath, "--emit-certificate", cpath],
                      {"k": k, "matrix": base.matrix, "R": r, "cert": cpath}, {tpath: twisted}))
        ops.append(Op("verify", ["verify", cpath], {"k": k}))
        # the twisted witness itself when its model is small enough, else a catalog map
        model = (n, 2, 1) if k == 1 and 2 * n * n <= 100 else SMALL_MODELS[c % len(SMALL_MODELS)]
        mn, mm, mk = model
        if (mn, mk) == (n, k):
            opath, aut = tpath, twisted
        else:
            opath = os.path.join(work, f"o{c}.json")
            aut = catalog_aut(rng, mn, mm, mk, rng.random() < 0.5).to_dict()
        checks = ["tbft", "shift", "restriction"]
        ops.append(Op("oracle", ["oracle", str(mn), str(mm), str(mk), "--aut", opath,
                                 "--check", ",".join(checks)], {"model": model, "checks": checks},
                      {opath: aut}))
        pn, pk = rng.choice(R_INFINITY_PAIRS)
        ops.append(Op("classify", ["classify", str(pn), str(pk), "--no-write"],
                      {"n": pn, "k": pk}))
    return ops


# verdict-corpus: one block = 20 inputs per rank, split by generator kind and by the
# lattice-map class (A: det(I - M) = 0; B: finite order, finite quotient; C: infinite
# order, finite quotient) in the proportions random_unimodular produces (measured over
# 4000 draws per rank), so every block has the same mix and a run's figures do not
# swing with how many slow unknown cases a seed happens to draw.
CORPUS_MODULI = (5, 7, 9, 25, 35, 45, 49)
NILPOTENT_MODULI = (9, 25, 45, 49)
BLOCK = {
    1: {"random": {"A": 5, "B": 5}, "nilpotent": {"A": 3, "B": 2}, "twist": 5},
    2: {"random": {"A": 3, "B": 2, "C": 5}, "nilpotent": {"A": 2, "B": 1, "C": 2}, "twist": 5},
    3: {"random": {"A": 4, "B": 1, "C": 5}, "nilpotent": {"A": 2, "C": 3}, "twist": 5},
}


def matrix_class(m):
    if gen.lattice_count(m) is None:
        return "A"
    k, p = len(m), m
    for _ in range(12):  # finite orders in GL_k(Z), k <= 3, are at most 6
        if p == gen.identity(k):
            return "B"
        p = tuple(tuple(sum(p[i][t] * m[t][j] for t in range(k)) for j in range(k))
                  for i in range(k))
    return "C"


def _matrix_of_class(rng, k, cls):
    while True:
        m = gen.random_unimodular(rng, k)
        if matrix_class(m) == cls:
            return m


def _radical(n):
    r = 1
    for p in gen.prime_factors(n):
        r *= p
    return r


def modulus_pool(k, kind):
    if kind == "twist":
        return [n for n in CORPUS_MODULI if gen.admits_finite(n, k)]
    return NILPOTENT_MODULI if kind == "nilpotent" else CORPUS_MODULI


def corpus_item(rng, k, kind, cls, n):
    """One valid automorphism mod n of the given stratum, and its known R (inner twists only)."""
    if kind == "twist":
        base, r = gen.witness(n, k)
        return base.twisted(*gen.random_element(rng, n, k)), r
    point = tuple(rng.randint(-1, 1) for _ in range(k))
    u = {point: rng.choice(gen.units(n))}
    if kind == "nilpotent":
        noise = gen.random_torsion(rng, n, k, rng.randint(1, 2), 1)
        u = gen.add(n, u, {p: c * _radical(n) for p, c in noise.items()})
    return gen.Aut(n, k, _matrix_of_class(rng, k, cls), u), None


def block_strata():
    out = []
    for k, kinds in BLOCK.items():
        for kind, quota in kinds.items():
            if kind == "twist":
                out.extend([(k, kind, "B")] * quota)
            else:
                for cls, count in quota.items():
                    out.extend([(k, kind, cls)] * count)
    return out


def verdict_corpus(seed, work, blocks=8):
    """Blocks of 60 strata, each block in its own seeded order.

    Each stratum takes the moduli of its pool in turn, from a seeded start, so
    that every run holds the same mix of moduli, as it holds the same mix of
    strata."""
    rng = random.Random(seed)
    strata = block_strata()
    turn = {}
    ops = []
    for b in range(blocks):
        order = strata[:]
        rng.shuffle(order)
        for k, kind, cls in order:
            pool = modulus_pool(k, kind)
            j = turn.get((k, kind, cls))
            j = rng.randrange(len(pool)) if j is None else j
            turn[(k, kind, cls)] = j + 1
            aut, r = corpus_item(rng, k, kind, cls, pool[j % len(pool)])
            i = len(ops)
            path, cert = (os.path.join(work, f"{t}{i}.json") for t in ("a", "c"))
            ops.append(Op("verdict", ["reidemeister", path, "--emit-certificate", cert],
                          {"k": k, "matrix": aut.matrix, "R": r, "cert": cert},
                          {path: aut.to_dict()}))
    return ops


# oracle-battery: a fixed cycle of (model, check) slots with seeded automorphisms,
# on orders 18 to 2500, all below TABLE_CAP = 3000.  The slot mix puts the p50
# inside a block of six alike ops ((25,2,1) tbft) and the p90 inside a block of
# four ((5,4,1) tbft), so neither percentile sits on the edge between two kinds of
# op.  Shift on the order-1029 and order-1250 models (1 to 2 s an op) comes every
# other cycle; shift on (5,4,1) (8 s an op) is left out, so a run holds enough ops
# for a p90.
BATTERY = (
    ((3, 2, 1), "tbft"), ((25, 2, 1), "tbft"), ((5, 4, 1), "tbft"), ((3, 2, 1), "shift"),
    ((25, 2, 1), "tbft"), ((3, 2, 2), "tbft"), ((5, 4, 1), "tbft"),
    ((25, 2, 1), "tbft"), ((3, 2, 2), "restriction"), ((5, 4, 1), "restriction"),
    ((25, 2, 1), "tbft"), ((9, 2, 1), "projection"), ((5, 4, 1), "tbft"),
    ((25, 2, 1), "tbft"), ((3, 2, 2), "shift"),
    ((5, 4, 1), "tbft"), ((25, 2, 1), "tbft"),
)
SHIFTS = (((7, 3, 1), "shift"), None, ((25, 2, 1), "shift"), None)
# Above TABLE_CAP: orders 4374 and 5120.  The program refuses both today.
ABOVE_CAP = (((3, 6, 1), "tbft"), ((4, 5, 1), "projection"))


def oracle_op(rng, work, model, check, i):
    n, m, k = model
    path = os.path.join(work, f"o{i}.json")
    aut = catalog_aut(rng, n, m, k, rng.random() < 0.5).to_dict()
    argv = ["oracle", str(n), str(m), str(k), "--aut", path, "--check", check]
    if check == "projection":
        argv += ["--divisor", str(gen.prime_factors(n)[0])]
    return Op("oracle", argv, {"model": model, "checks": [check]}, {path: aut})


def oracle_battery(seed, work, cycles=24):
    rng = random.Random(seed)
    ops = []
    for c in range(cycles):
        for model, check in BATTERY + tuple(filter(None, [SHIFTS[c % len(SHIFTS)]])):
            ops.append(oracle_op(rng, work, model, check, len(ops)))
    return ops


def cap_probe(seed, work):
    """One op on each model above the table cap; run untimed, outside the loop."""
    rng = random.Random(seed + 1)
    return [oracle_op(rng, work, model, check, f"cap{i}")
            for i, (model, check) in enumerate(ABOVE_CAP)]


WORKLOADS = {
    "cli-session": cli_session,
    "verdict-corpus": verdict_corpus,
    "oracle-battery": oracle_battery,
}
IN_PROCESS = {"verdict-corpus", "oracle-battery"}
# the reference kernel (speed.py) whose work is most like the workload's
REFERENCE = {"cli-session": "process", "verdict-corpus": "bigint", "oracle-battery": "numpy"}
