#!/usr/bin/env python3
"""Closed-loop benchmark of synfuzz enroll and verify over the roster.

    python3 perfbench/run.py --workload enroll --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

One process, one thread, one caller: each operation starts when the
previous one has returned.  A run builds the roster's codes and its seeded
inputs, checks a sample outside the timed loop, does one warm-up pass and
then a fixed number of timed passes over a fixed shuffled list of
operations, checking every result after its pass.  The last line of
standard output is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 a separate traced run gives per-layer figures and writes its
spans under perfbench/out/.  --quick runs one checked pass of each
workload, untraced and traced, as the benchmark's own test.

The program is imported from src/ of the checkout this file sits in; the
run stops with exit code 2 if it is not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import roster
from roster import ROSTER
from spans import HARNESS_METRICS, LAYER_METRICS, Tracer, harness_metric

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

ENROLL_WORDS = 16     # words per construction in one enroll pass
VERIFY_WORDS = 4      # words per construction in one verify pass
# Timed passes per requested second, fixed so that every commit times the
# same number of passes; at the commit that added the benchmark a pass of
# each workload took about 1/rate seconds on a 2-CPU x86-64 machine.
PASS_RATE = {"enroll": 5.5, "verify": 2.2, "verify-stateless": 1.0}
MIN_PASSES = 5
SETUP_PROBES = 9

# Timed inside a fresh interpreter: the import of synfuzz plus the first
# build of every roster code.  Interpreter start is outside the timer.  The
# reference loop (below) is timed in the same interpreter afterwards.
PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from synfuzz.codespec import parse_spec
for spec in sys.argv[3:]:
    parse_spec(spec)
elapsed = time.perf_counter() - t0
import synfuzz
if not synfuzz.__file__.startswith(sys.argv[1]):
    sys.exit("synfuzz was not imported from " + sys.argv[1])
sys.path.insert(0, sys.argv[2])
from run import reference_seconds
print(repr(elapsed), repr(reference_seconds()))
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import synfuzz
    from synfuzz import codespec, fuzzy

    if not Path(synfuzz.__file__).resolve().is_relative_to(SRC):
        fail(f"synfuzz was imported from {synfuzz.__file__}, not from {SRC}")
    return codespec, fuzzy


# The shared host this benchmark was calibrated on changes speed by up to a
# third over minutes, for every process on it.  Next to every timing the
# run therefore times a fixed loop of GF(2^8) log/exp table lookups, written
# here and sharing no code with synfuzz: after each timed pass, and inside
# each set-up probe after its timed part.  Every timing is scaled by
# REFERENCE_MS, the loop's time on that host in a middling phase, over the
# loop's time next to it.  No change to the program can move the loop; the
# info line keeps the raw figures.
REFERENCE_MS = 2.25


def _gf256_tables():
    exp, log = [0] * 510, [0] * 256
    v = 1
    for i in range(255):
        exp[i] = exp[i + 255] = v
        log[v] = i
        v <<= 1
        if v & 0x100:
            v ^= 0x11D
    return exp, log


_EXP, _LOG = _gf256_tables()


def reference_seconds() -> float:
    """Median of three back-to-back timings of the reference loop."""
    exp, log = _EXP, _LOG
    clock = time.perf_counter
    times = []
    for _ in range(3):
        acc = 0
        start = clock()
        for i in range(1, 12000):
            acc ^= exp[log[i & 255 or 1] + log[(i * 7) & 255 or 1]]
        times.append(clock() - start)
    return sorted(times)[1]


def setup_seconds(probes: int) -> tuple[float, float]:
    """Median set-up time over fresh interpreters, scaled to the reference
    speed and raw; one extra probe first fills the bytecode cache and is
    not counted."""
    cmd = [sys.executable, "-I", "-c", PROBE, str(SRC), str(HERE), *roster.SPECS]
    scaled, raw = [], []
    for i in range(probes + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()}")
        if i:
            elapsed, ref = map(float, done.stdout.split())
            raw.append(elapsed)
            scaled.append(elapsed * REFERENCE_MS / (ref * 1e3))
    return statistics.median(scaled), statistics.median(raw)


# ---------------------------------------------------------------------------
# operations and their checks
# ---------------------------------------------------------------------------


class Workload:
    """A fixed shuffled list of operations, with what each must return.

    ``ops`` holds the call arguments, ``expect`` per operation either the
    word a verify must recover (None for an impostor) or, for enroll, the
    word enrolled.
    """

    def __init__(self, name, call, ops, expect, cons, template_bytes):
        self.name = name
        self.call = call
        self.ops = ops
        self.expect = expect
        self.cons = cons
        self.template_bytes = template_bytes
        self.reference = None     # enroll results of the warm-up pass


def build_workload(name: str, seed: int, codes: list, fuzzy, wrong: list) -> Workload:
    rng = random.Random(seed)
    rows = []            # (args, expect, construction, template text length)
    for con, code in zip(ROSTER, codes):
        if name == "enroll":
            for _ in range(ENROLL_WORDS):
                x = roster.random_word(rng, con)
                text = fuzzy.enroll(x, code).to_text()
                rows.append(((x, code), x, con, len(text)))
            continue
        for _ in range(VERIFY_WORDS):
            x = roster.random_word(rng, con)
            template = fuzzy.enroll(x, code)
            if template.digest != roster.digest(con, x):
                wrong.append(f"{con.spec}: digest differs from hashlib over the "
                             "documented serialization")
            text = template.to_text()
            held = (template, code) if name == "verify" else (text,)
            for fraction in roster.NOISE_FRACTIONS:
                y = roster.add_noise(con, x, roster.noise_cells(rng, con, fraction))
                rows.append(((y, *held), x, con, len(text)))
            for _ in range(roster.IMPOSTORS_PER_WORD):
                rows.append(((roster.random_word(rng, con), *held), None, con, len(text)))
    rng.shuffle(rows)
    return Workload(
        name, operation(name, fuzzy),
        [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows],
        statistics.fmean(r[3] for r in rows),
    )


def operation(name: str, fuzzy):
    """The call one operation makes.  It looks the entry points up on each
    call, so a traced pass goes through the installed wrappers."""
    if name == "enroll":
        return lambda x, code: fuzzy.enroll(x, code)
    if name == "verify":
        return lambda y, template, code: fuzzy.verify(y, template, code=code)
    return lambda y, text: fuzzy.verify(y, fuzzy.Template.from_text(text))


def check_pass(wl: Workload, results: list) -> list[str]:
    """Messages for every wrong result of one pass; exceptions are counted
    as failed operations elsewhere."""
    bad = []
    for i, res in enumerate(results):
        if isinstance(res, Exception):
            continue
        con, want = wl.cons[i], wl.expect[i]
        if wl.name == "enroll":
            if wl.reference is None:
                ok = (res.digest == roster.digest(con, want) and res.code_spec == con.spec)
            else:
                ok = res == wl.reference[i]
        elif want is None:
            ok = not res.accepted
        else:
            ok = res.accepted and roster.as_lists(res.recovered) == want
        if not ok:
            kind = "impostor" if wl.name != "enroll" and want is None else "genuine"
            bad.append(f"{wl.name} {kind} op {i} on {con.spec}: {res!r:.200}")
    return bad


def check_linearity(codes, fuzzy, seed: int) -> list[str]:
    """Syndrome bytes of every characteristic-2 construction are XOR-linear
    and vanish on a codeword (three samples each)."""
    rng = random.Random(seed ^ 0x5EED)
    bad = []
    for con, code in zip(ROSTER, codes):
        if con.q & (con.q - 1):
            continue
        for _ in range(3):
            x, y = roster.random_word(rng, con), roster.random_word(rng, con)
            sx = fuzzy.enroll(x, code).syndrome
            sy = fuzzy.enroll(y, code).syndrome
            sxy = fuzzy.enroll(roster.xor_words(x, y), code).syndrome
            if bytes(a ^ b for a, b in zip(sx, sy)) != sxy or len(sx) != len(sxy):
                bad.append(f"{con.spec}: syndrome bytes are not XOR-linear")
            if any(fuzzy.enroll(roster.codeword(code, con, rng), code).syndrome):
                bad.append(f"{con.spec}: syndrome of a codeword is not zero")
    return bad


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []


def run_pass(wl: Workload, call, tally: Tally):
    """Run every operation once; returns (pass wall time, per-op times)."""
    ops = wl.ops
    times = [0.0] * len(ops)
    results = [None] * len(ops)
    clock = time.perf_counter
    start = clock()
    for i, args in enumerate(ops):
        t0 = clock()
        try:
            results[i] = call(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            results[i] = exc
        times[i] = clock() - t0
    wall = clock() - start
    tally.attempted += len(ops)
    for res in results:
        if isinstance(res, Exception):
            if not tally.failed:
                traceback.print_exception(res, file=sys.stderr)
            tally.failed += 1
    tally.wrong.extend(check_pass(wl, results))
    if wl.name == "enroll" and wl.reference is None:
        wl.reference = results
    return wall, times


def timed_passes(wl: Workload, call, passes: int, tally: Tally):
    """Pass wall times, per-op times and a reference time after each pass."""
    gc.collect()
    walls, times, refs = [], [], []
    for _ in range(passes):
        wall, op_times = run_pass(wl, call, tally)
        walls.append(wall)
        times.extend(op_times)
        refs.append(reference_seconds())
    return walls, times, refs


def pass_count(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, math.ceil(seconds * PASS_RATE[workload]))


def result_line(tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    })


def prepare(workload: str, seed: int, tally: Tally):
    codespec, fuzzy = import_program()
    codes = [codespec.parse_spec(con.spec) for con in ROSTER]
    for con, code in zip(ROSTER, codes):
        tally.wrong.extend(roster.check_bounds(code, con))
    tally.wrong.extend(check_linearity(codes, fuzzy, seed))
    wl = build_workload(workload, seed, codes, fuzzy, tally.wrong)
    run_pass(wl, wl.call, tally)          # warm-up, checked
    return wl


def latency_ms(wl: Workload, times: list) -> tuple[float, dict]:
    """Geometric mean over the roster of each construction's median
    operation time, and those medians.  The median over all operations
    would sit between the clusters of two constructions' costs and jump
    between them from seed to seed."""
    n = len(wl.ops)
    by_spec: dict[str, list] = {}
    for i, t in enumerate(times):
        by_spec.setdefault(wl.cons[i % n].spec, []).append(t * 1e3)
    medians = {con.spec: statistics.median(by_spec[con.spec]) for con in ROSTER}
    return statistics.geometric_mean(medians.values()), medians


def measure(workload: str, seed: int, seconds: int) -> None:
    setup, raw_setup = setup_seconds(SETUP_PROBES)
    tally = Tally()
    wl = prepare(workload, seed, tally)
    walls, times, refs = timed_passes(wl, wl.call, pass_count(workload, seconds), tally)
    p50, per_construction = latency_ms(wl, times)
    ops_per_s = len(wl.ops) / statistics.median(walls)
    # > 1 when the host runs slower than when REFERENCE_MS was taken
    slowdown = statistics.median(refs) * 1e3 / REFERENCE_MS
    ms = sorted(t * 1e3 for t in times)
    print(json.dumps({"info": {
        "workload": workload, "ops_per_pass": len(wl.ops), "passes": len(walls),
        "reference_ms": statistics.median(refs) * 1e3,
        "raw_ops_per_s": ops_per_s, "raw_latency_p50_ms": p50, "raw_setup_s": raw_setup,
        "latency_p99_ms": ms[math.ceil(0.99 * len(ms)) - 1], "latency_samples": len(ms),
        "latency_p50_ms_by_construction": per_construction,
    }}))
    for msg in tally.wrong[:5]:
        print(f"perfbench: wrong result: {msg}", file=sys.stderr)
    metrics = {
        "ops_per_s": {"value": ops_per_s * slowdown, "unit": "1/s"},
        "latency_p50_ms": {"value": p50 / slowdown, "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "setup_s": {"value": setup, "unit": "s"},
    }
    print(result_line(tally, metrics))


def traced_run(workload: str, seed: int, passes: int, tally: Tally) -> tuple[dict, Tracer]:
    """Per-layer figures from traced passes.  Untraced and traced passes
    alternate, so the overhead ratio sees the same machine load on both
    sides."""
    wl = prepare(workload, seed, tally)
    tracer = Tracer()
    traced_call = tracer.around_ops(wl.call)
    walls, traced_walls = [], []
    gc.collect()
    for _ in range(passes):
        walls.append(run_pass(wl, wl.call, tally)[0])
        tracer.install()
        try:
            traced_walls.append(run_pass(wl, traced_call, tally)[0])
        finally:
            tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["fuzzy.template_bytes"] = harness_metric("fuzzy.template_bytes", wl.template_bytes)
    metrics["trace.overhead"] = harness_metric(
        "trace.overhead", statistics.median(walls) / statistics.median(traced_walls))
    return metrics, tracer


def trace(workload: str, seed: int, seconds: int) -> None:
    tally = Tally()
    # Per-operation layer figures settle in far fewer passes than the
    # end-to-end ones, and the spans stay in memory.
    passes = max(MIN_PASSES, pass_count(workload, seconds) // 4)
    metrics, tracer = traced_run(workload, seed, passes, tally)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write(path)
    print(json.dumps({"info": {"spans": str(path.relative_to(HERE.parent)),
                               "span_count": len(tracer.spans), "absent": tracer.absent}}))
    for msg in tally.wrong[:5]:
        print(f"perfbench: wrong result: {msg}", file=sys.stderr)
    print(result_line(tally, metrics))


def quick() -> int:
    """One checked pass of each workload, untraced and traced."""
    setup_seconds(1)
    ok = True
    expected = set(LAYER_METRICS) | set(HARNESS_METRICS)
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    if {m["name"] for m in listed} != expected:
        print(f"BENCHMARK.json per_layer differs from the traced metrics {sorted(expected)}")
        ok = False
    for workload in PASS_RATE:
        tally = Tally()
        metrics, tracer = traced_run(workload, 1, 1, tally)
        missing = sorted(expected - set(metrics))
        passed = not (tally.wrong or tally.failed or tracer.absent or missing)
        ok = ok and passed
        print(f"{workload}: {'ok' if passed else 'FAIL'} ({tally.attempted} ops, "
              f"{tally.failed} failed, {len(tally.wrong)} wrong, absent {tracer.absent}, "
              f"missing {missing})")
        for msg in tally.wrong[:5]:
            print(f"  {msg}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(PASS_RATE))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "synfuzz" / "__init__.py").is_file():
        fail(f"no synfuzz package under {SRC}")
    if args.quick:
        return quick()
    if args.workload is None:
        ap.error("--workload is required")
    (trace if args.trace else measure)(args.workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
