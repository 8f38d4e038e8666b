#!/usr/bin/env python3
"""Compare two source trees with perfbench, in alternating pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --seed 101 --out BENCH_10.json

PARENT and CHANGE are checkouts, each with its own perfbench/run.py and
src/synfuzz.  First every seed is checked: one `--seconds 1` run per
seed, workload and tree, so a seed on which perfbench reports a wrong
result (an impostor within the code's capability of the enrolled word is
rightly accepted) stops the script before any full-length run.  Then for
each of the three workloads, pair i = 0..9 runs
`perfbench/run.py --seed SEED+i --seconds T --trace 0` once in each
tree, T being BENCHMARK.json's `run_seconds`, in the same interpreter,
with the tree that goes first swapped from pair to pair so slow drift of
the host weighs on both alike.  Afterwards one traced run (`--trace 1`,
seed SEED) of each tree gives the per-operation `gf.mults`.  Pick a seed
no earlier comparison used.

The output JSON holds, per workload and tree, every end-to-end metric of
every run with their median and quartiles; per metric the median ratio
change/parent, the gap between the medians over the quartile spread of
the parent's runs, and the number of pairs in which the change was
better; per end-to-end metric of BENCHMARK.json its verdict (see
`verdict`); per roster construction the median over the runs of its
`latency_p50_ms_by_construction` entry (from perfbench's info line) in
each tree and their ratio, which shows the constructions that moved; each
tree's median `reference_ms`, the time of perfbench's reference loop; and
the traced `gf.mults`.  The info line's per-construction medians are raw,
so each run's are scaled as perfbench scales its `latency_p50_ms`: by
that run's `latency_p50_ms` over its `raw_latency_p50_ms`.  A run that
fails or reports failed operations stops the script with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("enroll", "verify", "verify-stateless")
TREES = ("parent", "change")
PAIRS = 10


def run(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the info line (empty where none is printed)
    of one perfbench run of ``seconds`` in ``tree``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"bench_pairs: {workload} seed {seed} in {tree}: {result['failed']} failed "
                 f"of {result['attempted']}, correct={result['correct']}")
    infos = [line for line in map(json.loads, lines[:-1]) if "info" in line]
    return result, infos[-1]["info"] if infos else {}


def check_seeds(trees: dict, seed: int) -> None:
    """One one-second run of every seed SEED .. SEED+9 and workload in
    each tree; ``run`` exits naming the seed where one fails."""
    for workload in WORKLOADS:
        for i in range(PAIRS):
            for name in TREES:
                run(trees[name], workload, seed + i, 1, 0)


def summary(values: list) -> dict:
    return {"median": statistics.median(values),
            "quartiles": statistics.quantiles(values, n=4), "runs": values}


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """The verdict on one metric from paired runs, pair i being parent[i]
    and change[i]; ``better`` is "higher" or "lower" and ``bound`` the
    fraction of the parent's median by which the change may be worse.

    - "worse": the change's median is worse by more than the bound;
    - "better": the change wins at least nine tenths of the pairs, and the
      medians differ by more than the parent's quartile spread;
    - "unresolved": that spread is wider than the bound, and not every
      change run beats every parent run;
    - "within bound": otherwise.
    """
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = sign * (c_med - p_med)
    if gain < -bound * p_med:
        return "worse"
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "better"
    if q3 - q1 > bound * p_med and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    return "within bound"


def compare(trees: dict, workload: str, seed: int, spec: dict) -> dict:
    """Alternating pairs of untraced runs, then one traced run per tree;
    ``spec`` is BENCHMARK.json, giving the run length and the end-to-end
    metrics."""
    seconds, end_to_end = spec["run_seconds"], spec["end_to_end"]
    higher = {m["name"] for m in end_to_end if m["better"] == "higher"}
    runs = {name: [] for name in TREES}
    by_construction = {name: {} for name in TREES}  # spec -> latency_p50_ms of each run
    reference = {name: [] for name in TREES}
    for i in range(PAIRS):
        order = TREES if i % 2 == 0 else TREES[::-1]
        for name in order:
            result, info = run(trees[name], workload, seed + i, seconds, 0)
            runs[name].append({k: v["value"] for k, v in result["metrics"].items()})
            if info:
                scale = runs[name][-1]["latency_p50_ms"] / info["raw_latency_p50_ms"]
                for spec, ms in info["latency_p50_ms_by_construction"].items():
                    by_construction[name].setdefault(spec, []).append(ms * scale)
                reference[name].append(info["reference_ms"])
            print(f"{workload} pair {i + 1}/{PAIRS} {name}: "
                  f"ops_per_s {runs[name][-1]['ops_per_s']:.1f}", file=sys.stderr)
    metrics = sorted(runs["parent"][0])
    out = {name: {m: summary([r[m] for r in runs[name]]) for m in metrics} for name in TREES}
    out["ratio_change_over_parent"] = {
        m: out["change"][m]["median"] / out["parent"][m]["median"] for m in metrics}
    # a gain counts only beyond the parent's own spread (None: no spread)
    gap = {}
    for m in metrics:
        q1, _, q3 = out["parent"][m]["quartiles"]
        diff = abs(out["change"][m]["median"] - out["parent"][m]["median"])
        gap[m] = diff / (q3 - q1) if q3 > q1 else None
    out["median_gap_over_parent_quartile_spread"] = gap
    out["pairs_change_better"] = {
        m: sum((c[m] > p[m]) if m in higher else (c[m] < p[m])
               for p, c in zip(runs["parent"], runs["change"]))
        for m in metrics}
    out["verdict"] = {
        m["name"]: verdict([r[m["name"]] for r in runs["parent"]],
                           [r[m["name"]] for r in runs["change"]], m["better"], m["bound"])
        for m in end_to_end}
    out["latency_p50_ms_by_construction"] = {}
    for spec in by_construction["parent"].keys() & by_construction["change"].keys():
        medians = {name: statistics.median(by_construction[name][spec]) for name in TREES}
        out["latency_p50_ms_by_construction"][spec] = {
            **medians, "ratio_change_over_parent": medians["change"] / medians["parent"]}
    out["reference_ms"] = {
        name: statistics.median(reference[name]) for name in TREES if reference[name]}
    out["gf.mults"] = {
        name: run(trees[name], workload, seed, seconds, 1)[0]["metrics"]["gf.mults"]["value"]
        for name in TREES}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    check_seeds(trees, args.seed)
    report = {
        "command": "perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "pairs": PAIRS, "seconds": spec["run_seconds"],
        "seeds": [args.seed, args.seed + PAIRS - 1],
        "python": platform.python_version(), "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "workloads": {w: compare(trees, w, args.seed, spec) for w in WORKLOADS},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
