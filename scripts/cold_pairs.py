#!/usr/bin/env python3
"""Compare two source trees on the cold path, in alternating fresh-process pairs.

    python3 scripts/cold_pairs.py PARENT CHANGE --seed 3501 [--pairs 10]

PARENT and CHANGE are checkouts, each with its own src/synfuzz.  Every
timing is one fresh interpreter that imports synfuzz from one tree and
does one thing, so it pays the import and every first-use build:

- the CLI commands ``info``, ``capability``, ``enroll`` and ``verify``
  (of the word with noise at two thirds of its bound) for each
  construction of perfbench/roster.py, one process per command;
- a stream of ``--stream`` distinct specs drawn from ``--seed`` (RS codes
  over gf(2^3) .. gf(2^8), their ``cI`` expansions and flat
  concatenations over rs(n,k;gf(2^7)), in turn), one process enrolling
  each spec's word once and one more verifying each template from its
  text alone (``verify`` with no code, so each spec is parsed afresh),
  the word presented with one cell changed.

The time is taken inside the process, from the first line of the probe,
before synfuzz is imported, to the return of the command or the end of
the stream, so it holds the import, the parses and every first-use
build (and, on the first hash, the hash modules' import where a tree
defers it).  Interpreter start is outside it, the same for both trees.
Pair i uses seed SEED+i and the same inputs in both trees, the tree
that goes first switching from one process pair to the next.

Two facts of the interpreter set-up are handled here, not left to the
environment.  Before any run, ``compileall`` writes both trees' bytecode,
so that a tree whose ``.pyc`` files are stale or missing does not
recompile on every run where PYTHONDONTWRITEBYTECODE is set.  Every child
runs as ``python -I -S``: ``-S`` skips ``site``, whose ``.pth`` files may
import third-party modules (certifi, at tens of milliseconds) before the
probe starts; synfuzz is stdlib-only and the probe puts the tree's src on
``sys.path`` itself.

The inputs come from perfbench/roster.py of the checkout this script sits
in, which imports nothing from synfuzz.  Each command's standard output
and exit code, and each template, must be the same in both trees, and
every verify must accept; a difference is printed to standard error and
makes the exit code 1.

After its time, a CLI process lists the table entries its command's
first-use builds wrote, untimed: the code it parsed, taken from the parse
cache under the roster spec, its outer and inner codes and their fields,
each non-empty ``_``-prefixed attribute by its length (a table object,
such as a syndrome kernel, by the summed lengths of its own attributes;
numbers, strings and methods are not tables).

Standard output is one JSON object: per command (``info``,
``capability``, ``enroll``, ``verify``, over every roster spec, and
``stream_enroll``, ``stream_verify``, per spec of the stream) each tree's
runs in milliseconds with their median and quartiles, the change/parent
ratio of the medians, and the number of pairs in which the change was
faster; per roster spec and CLI command the two medians and, per tree,
the table entries of the first pair's process.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import roster  # noqa: E402  (the benchmark's inputs; imports nothing from synfuzz)

TREES = ("parent", "change")
COMMANDS = ("info", "capability", "enroll", "verify")
NOISE = 2 / 3  # of each roster construction's guaranteed bound

# argv: src, the roster spec, then the CLI arguments.  The last two lines
# of output are the time and the JSON of the table entries.
CLI_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from synfuzz.cli import main
rc = main(sys.argv[3:])
print(repr((time.perf_counter() - t0) * 1e3))
import json
from synfuzz.codespec import _codes
code = _codes[sys.argv[2]][0]
held = {"code": code, "outer": getattr(code, "outer", None),
        "inner": getattr(code, "inner", None)}
for name, c in list(held.items()):
    for field in ("alphabet", "field"):
        held[f"{name}.{field}"] = getattr(c, field, None)
def size(value):
    if isinstance(value, (int, float, str)) or callable(value):
        return 0
    if hasattr(value, "__len__"):
        return len(value)
    return sum(map(size, getattr(value, "__dict__", {}).values()))
entries, seen = {}, set()
for name, obj in held.items():
    if obj is not None and id(obj) not in seen:
        seen.add(id(obj))
        for key, value in vars(obj).items():
            if key.startswith("_") and size(value):
                entries[f"{name}.{key}"] = size(value)
print(json.dumps(entries))
sys.exit(rc)
"""

# argv: src, the stream file, "enroll" or "verify".  Prints one JSON line:
# the time and, per spec, the template text (enroll) or the outcome.
STREAM_PROBE = """\
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from synfuzz import Template, enroll, parse_spec, verify
stream = json.load(open(sys.argv[2]))
if sys.argv[3] == "enroll":
    out = [enroll(s["word"], parse_spec(s["spec"])).to_text() for s in stream]
else:
    out = [verify(s["noisy"], Template.from_text(s["template"])).accepted for s in stream]
ms = (time.perf_counter() - t0) * 1e3
print(json.dumps({"ms": ms, "out": out}))
"""


def stream_inputs(seed: int, count: int) -> list[dict]:
    """``count`` distinct specs, the families in turn: RS over gf(2^m),
    its cI expansion, and a flat concatenation of bch(15,2;gf(2)) under
    RS over gf(2^7); each with a seeded word and that word with one cell
    changed."""
    rng = random.Random(seed)
    out: list[dict] = []
    while len(out) < count:
        family = len(out) % 3
        m = 7 if family == 2 else rng.randrange(3, 9)
        r = 2 * rng.randrange(1, min(8, 2 ** (m - 1) - 1) + 1)
        n = rng.randrange(r + 1, 2**m)
        rs = f"rs({n},{n - r};gf(2^{m}))"
        spec, cells, q = ((rs, n, 2**m), (f"cI({rs})", n * m, 2),
                          (f"concat(inner=bch(15,2;gf(2)), outer={rs}, layout=flat)", n * 15,
                           2))[family]
        if any(s["spec"] == spec for s in out):
            continue
        word = [rng.randrange(q) for _ in range(cells)]
        noisy = list(word)
        noisy[rng.randrange(cells)] ^= 1
        out.append({"spec": spec, "word": word, "noisy": noisy})
    return out


def write_word(path: Path, word) -> None:
    rows = word if word and isinstance(word[0], list) else [word]
    path.write_text("".join(" ".join(f"{v:x}" for v in row) + "\n" for row in rows))


def child(tree: Path, probe: str, *args, cwd=None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-I", "-S", "-c", probe, str(tree / "src"), *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def cli_argv(command: str, spec: str, at: int) -> list[str]:
    word, noisy, template = f"../word{at}.txt", f"../noisy{at}.txt", f"t{at}.sfh"
    return {"info": ["info", "--code", spec],
            "capability": ["capability", "--code", spec],
            "enroll": ["enroll", "--code", spec, "--in", word, "--out", template],
            "verify": ["verify", "--template", template, "--in", noisy]}[command]


class Pairs:
    def __init__(self, trees: dict):
        self.trees = trees
        self.times = {}  # (command, spec or None) -> tree -> list of ms
        self.entries = {}  # (command, spec) -> tree -> the first run's table entries
        self.faults: list[str] = []
        self.turn = 0

    def order(self):
        """The trees in the order of the next process pair."""
        self.turn += 1
        return TREES if self.turn % 2 else TREES[::-1]

    def record(self, key, name: str, ms: float) -> None:
        self.times.setdefault(key, {t: [] for t in TREES})[name].append(ms)

    def cli_pair(self, work: Path, command: str, spec: str, at: int) -> None:
        seen = {}
        for name in self.order():
            run = child(self.trees[name], CLI_PROBE, spec, *cli_argv(command, spec, at),
                        cwd=work / name)
            lines = run.stdout.splitlines()
            if run.returncode not in (0, 1) or run.stderr or len(lines) < 2:
                self.faults.append(f"{command} {spec} in {name}: {run.stderr.strip()}")
                return
            *report, ms, entries = lines
            seen[name] = (run.returncode, report)
            self.record((command, spec), name, float(ms))
            self.entries.setdefault((command, spec), {}).setdefault(name, json.loads(entries))
        if seen["parent"] != seen["change"]:
            self.faults.append(f"{command} {spec}: {seen}")
        elif seen["parent"][0] != 0:
            self.faults.append(f"{command} {spec} exited {seen['parent'][0]}: {seen['parent']}")

    def stream_pair(self, work: Path, stream: list) -> None:
        path = work / "stream.json"
        path.write_text(json.dumps(stream))
        for step in ("enroll", "verify"):
            outs = {}
            for name in self.order():
                run = child(self.trees[name], STREAM_PROBE, path, step)
                if run.returncode:
                    self.faults.append(f"stream {step} in {name}: {run.stderr.strip()}")
                    return
                result = json.loads(run.stdout)
                outs[name] = result["out"]
                self.record((f"stream_{step}", None), name, result["ms"] / len(stream))
            if outs["parent"] != outs["change"]:
                self.faults.append(f"stream {step}: the trees differ")
            if step == "enroll":
                for s, text in zip(stream, outs["parent"]):
                    s["template"] = text
                path.write_text(json.dumps(stream))
            elif not all(outs["parent"]):
                self.faults.append(f"stream verify rejected a word: {outs['parent']}")


def summary(values: list) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 2
    return {"median": statistics.median(values), "quartiles": [quartiles[0], quartiles[-1]],
            "runs": values}


def compare(runs: dict) -> dict:
    parent, change = runs["parent"], runs["change"]
    return {"parent": summary(parent), "change": summary(change),
            "ratio": statistics.median(change) / statistics.median(parent),
            "change_faster": sum(c < p for p, c in zip(parent, change)), "pairs": len(parent)}


def report(pairs: Pairs, args, specs) -> dict:
    times = pairs.times
    # a CLI command's figure per pair and tree: the sum over the roster specs
    commands = {command: compare({t: [sum(runs) for runs in
                                       zip(*(times[(command, s)][t] for s in specs))]
                                  for t in TREES})
                for command in COMMANDS}
    for step in ("stream_enroll", "stream_verify"):  # per spec of the stream
        commands[step] = compare(times[(step, None)])
    by_spec = {spec: {command: {**{t: statistics.median(times[(command, spec)][t])
                                   for t in TREES},
                                "entries": {t: pairs.entries[(command, spec)][t]
                                            for t in TREES}}
                      for command in COMMANDS} for spec in specs}
    return {"seed": args.seed, "pairs": args.pairs, "stream": args.stream,
            "python": platform.python_version(), "child_flags": "-I -S",
            "unit": "ms per process, summed over the roster specs for the CLI commands, "
                    "per spec for the stream",
            "commands": commands, "by_spec": by_spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--specs", type=int, default=len(roster.ROSTER),
                        help="the first this many roster constructions")
    parser.add_argument("--stream", type=int, default=12, help="distinct specs per stream")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], check=True)
    cons = roster.ROSTER[: args.specs]
    pairs = Pairs(trees)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in TREES:
            (work / name).mkdir()
        for i in range(args.pairs):
            rng = random.Random(args.seed + i)
            for at, con in enumerate(cons):
                word = roster.random_word(rng, con)
                write_word(work / f"word{at}.txt", word)
                noisy = roster.add_noise(con, word, roster.noise_cells(rng, con, NOISE))
                write_word(work / f"noisy{at}.txt", noisy)
                for command in COMMANDS:
                    pairs.cli_pair(work, command, con.spec, at)
                if (work / "parent" / f"t{at}.sfh").read_bytes() != \
                        (work / "change" / f"t{at}.sfh").read_bytes():
                    pairs.faults.append(f"templates differ: {con.spec} pair {i}")
            pairs.stream_pair(work, stream_inputs(args.seed + i, args.stream))
    for fault in pairs.faults:
        print(f"cold_pairs: {fault}", file=sys.stderr)
    if pairs.faults:
        return 1
    print(json.dumps(report(pairs, args, [c.spec for c in cons]), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
