#!/usr/bin/env python3
"""Compare two source trees in one process, operation by operation.

    python3 scripts/ab_pairs.py PARENT CHANGE --workload verify --seed 5

PARENT and CHANGE are checkouts.  Each tree's src/synfuzz is loaded as a
package of its own (synfuzz_parent and synfuzz_change), so the two keep
their own modules, code caches and MUL_COUNTER.  The inputs come from
perfbench/roster.py of the checkout this script sits in, which imports
nothing from synfuzz: ``--words`` seeded words per roster construction,
and for verify each word read once per noise fraction and once by an
impostor, as perfbench builds them.  ``verify`` holds the parsed code,
``verify-stateless`` passes the template text, ``enroll`` enrolls the
word.

One untimed pass warms both trees up.  Then each of ``--reps``
repetitions runs every operation on both trees back to back, the tree
that goes first switching from one operation to the next and from one
repetition to the next.  The garbage collector runs between repetitions
only, so no collection lands on the call that happens to trigger it.
Every call's result must be the same in both trees; each difference is
printed to standard error and makes the exit code 1.  A verify result is
compared by its ``accepted``, ``recovered`` and ``reason``, and with
``--count`` by its ``decode_mults`` too: a tree whose ``verify`` takes
``count`` is asked to count, and one that does not counts anyway.  A
call whose MUL_COUNTER delta differs
between the trees is printed and counted apart (``mult_differences``)
and does not change the exit code: a change may count the products of a
syndrome differently without changing what verify reports.

Standard output is one JSON object.  Per roster construction it gives
the median of the change/parent time ratios of its operations, their
first and third quartiles, a bootstrap 95% interval of the median
(``ci95``: 1000 resamples of the ratios, drawn with ``random.Random``
seeded from ``--seed``), the number of pairs, the parent's median
time of one operation and ``median_time_ratio``, the change's median
time over the parent's; ``all`` gives the same over every operation,
``total_time_ratio`` the change's summed time over the parent's and
``geomean_ratio`` the geometric mean of the change's per-construction
median times over the parent's, the ratio perfbench's ``latency_p50_ms``
reads.  A median of per-operation ratios can differ from the ratio of
median times where a change speeds some operations of a construction
more than its median one.  An A/A run (one tree against itself) shows
the spread the harness resolves.  Both trees share one heap and one
garbage collector, so memory and set-up time stay perfbench's to
measure.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import inspect
import json
import random
import statistics
import sys
import time
from operator import truediv
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("enroll", "verify", "verify-stateless")


def load_tree(name: str, root: Path):
    """The synfuzz package under root/src, imported as ``name``."""
    package = root / "src" / "synfuzz"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_roster():
    spec = importlib.util.spec_from_file_location("ab_roster", ROOT / "perfbench" / "roster.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["ab_roster"] = module  # dataclasses resolves the module by name
    spec.loader.exec_module(module)
    return module


def build_inputs(roster, workload: str, seed: int, words: int):
    """The (construction, word or read, word) rows of one workload: the
    enrolled word, or a genuine read or an impostor of it."""
    rng = random.Random(seed)
    rows = []
    for con in roster.ROSTER:
        for _ in range(words):
            x = roster.random_word(rng, con)
            if workload == "enroll":
                rows.append((con, x, x))
                continue
            for fraction in roster.NOISE_FRACTIONS:
                rows.append((con, roster.add_noise(con, x, roster.noise_cells(rng, con, fraction)),
                             x))
            for _ in range(roster.IMPOSTORS_PER_WORD):
                rows.append((con, roster.random_word(rng, con), x))
    rng.shuffle(rows)
    return rows


def operations(tree, workload: str, rows, count: bool = False):
    """One zero-argument call per row, run on ``tree``: a verify gives
    its first three fields, or with ``count`` all four, asking to count
    where the tree's ``verify`` takes ``count``."""
    fuzzy, parse_spec = tree.fuzzy, tree.codespec.parse_spec
    asks = {"count": True} if count and "count" in inspect.signature(fuzzy.verify).parameters else {}
    fields = 4 if count else 3
    calls = []
    for con, word, enrolled in rows:
        code = parse_spec(con.spec)
        if workload == "enroll":
            calls.append(lambda word=word, code=code: fuzzy.enroll(word, code))
            continue
        template = fuzzy.enroll(enrolled, code)
        if workload == "verify":
            calls.append(lambda word=word, t=template, code=code:
                         fuzzy.verify(word, t, code=code, **asks)[:fields])
        else:
            text = template.to_text()
            calls.append(lambda word=word, text=text:
                         fuzzy.verify(word, fuzzy.Template.from_text(text), **asks)[:fields])
    return calls


def timed(call, counter):
    """The call's result with its MUL_COUNTER delta, and its wall time."""
    before = counter.count
    start = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - start
    return (tuple(result), counter.count - before), elapsed


BOOTSTRAP_ROUNDS = 1000


def bootstrap_interval(ratios: list, rng: random.Random) -> list:
    """The 2.5% and 97.5% quantiles of the medians of BOOTSTRAP_ROUNDS
    resamples of the ratios, each drawn with replacement."""
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP_ROUNDS))
    return [medians[int(0.025 * BOOTSTRAP_ROUNDS)], medians[int(0.975 * BOOTSTRAP_ROUNDS) - 1]]


def summary(ratios: list, parent_times: list, change_times: list, rng: random.Random) -> dict:
    """The ratios' median, quartiles and bootstrap 95% interval of the
    median, their count, the parent's median time of one operation in
    microseconds, and the change's median time over the parent's."""
    q1, median, q3 = (statistics.quantiles(ratios, n=4, method="inclusive")
                      if len(ratios) > 1 else ratios * 3)
    parent = statistics.median(parent_times)
    return {"median": median, "q1": q1, "q3": q3, "ci95": bootstrap_interval(ratios, rng),
            "pairs": len(ratios), "parent_us": parent * 1e6,
            "median_time_ratio": statistics.median(change_times) / parent}


def compare(trees: dict, workload: str, seed: int, words: int, reps: int, count: bool = False):
    """Per-construction ratio summaries, the calls whose results differ
    and the calls whose MUL_COUNTER deltas differ."""
    roster = load_roster()
    rows = build_inputs(roster, workload, seed, words)
    calls = {name: operations(tree, workload, rows, count) for name, tree in trees.items()}
    counters = {name: tree.gf.MUL_COUNTER for name, tree in trees.items()}
    names = list(trees)  # the parent's, then the change's
    differences, mult_differences = [], []
    times = {}  # per construction, the parent's and the change's times
    for rep in range(-1, reps):  # rep -1 is the untimed warm-up
        gc.collect()
        gc.disable()  # a collection would land on whichever call triggers it
        for i, (con, _, _) in enumerate(rows):
            order = names if (rep + i) % 2 == 0 else names[::-1]
            outcome = {name: timed(calls[name][i], counters[name]) for name in order}
            ((parent, parent_mults), parent_time), ((change, change_mults), change_time) = (
                outcome[name] for name in names)
            if parent != change:
                differences.append(f"{workload} op {i} on {con.spec}: "
                                   f"{parent!r:.200} != {change!r:.200}")
            if parent_mults != change_mults:
                mult_differences.append(f"{workload} op {i} on {con.spec}: "
                                        f"{parent_mults} != {change_mults} products")
            if rep >= 0:
                parent_times, change_times = times.setdefault(con.spec, ([], []))
                parent_times.append(parent_time)
                change_times.append(change_time)
        gc.enable()
    rng = random.Random(seed)
    report = {spec: summary(list(map(truediv, change, parent)), parent, change, rng)
              for spec, (parent, change) in times.items()}
    parent, change = ([t for pair in times.values() for t in pair[k]] for k in (0, 1))
    report["all"] = summary(list(map(truediv, change, parent)), parent, change, rng)
    report["total_time_ratio"] = sum(change) / sum(parent)
    parent, change = ([statistics.median(pair[k]) for pair in times.values()] for k in (0, 1))
    report["geomean_ratio"] = statistics.geometric_mean(change) / statistics.geometric_mean(parent)
    return report, differences, mult_differences


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", choices=WORKLOADS, default="verify")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--words", type=int, default=4, help="words per construction")
    ap.add_argument("--reps", type=int, default=40, help="timed repetitions of every operation")
    ap.add_argument("--count", action="store_true",
                    help="compare verify's decode_mults, asking each tree to count")
    args = ap.parse_args(argv)
    trees = {f"synfuzz_{name}": load_tree(f"synfuzz_{name}", path.resolve())
             for name, path in (("parent", args.parent), ("change", args.change))}
    report, differences, mult_differences = compare(trees, args.workload, args.seed,
                                                    args.words, args.reps, args.count)
    for line in differences[:20]:
        print(f"ab_pairs: differs: {line}", file=sys.stderr)
    for line in mult_differences[:20]:
        print(f"ab_pairs: counts differ: {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "words": args.words, "reps": args.reps,
        "count": args.count,
        "identical": not differences, "differences": len(differences),
        "mult_differences": len(mult_differences), "ratio_change_over_parent": report,
    }, indent=1))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
