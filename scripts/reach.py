#!/usr/bin/env python3
"""List the package functions that no product path reaches.

    python3 scripts/reach.py

The product paths are what a user or the benchmark runs:

- the command line's ``info``, ``capability``, ``enroll``, ``verify``
  (the enrolled word; the word with one cell changed, the recovered word
  written with ``--recovered-out``; another word) and ``simulate`` on the
  spec of every golden template under tests/golden/;
- the library's ``enroll`` and ``verify``, with the parsed code held and
  from the template alone, on every construction of perfbench/roster.py,
  with the roster's own ``codeword`` and ``check_bounds`` calls.

A ``sys.setprofile`` hook records every code object called while they
run.  Every function, method and property accessor that src/synfuzz
defines and the hook never saw is printed, one line each, with the
reason ALLOWED gives for keeping it.  One outside ALLOWED is printed as
``NOT ALLOWED``, and an ALLOWED entry that is reached or no longer
defined as ``STALE``; either makes the exit code 1.  So package code
that only tests call fails the check until it is deleted or given a
reason here.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import inspect
import io
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "synfuzz"
sys.path.insert(0, str(ROOT / "src"))

C01_C10 = "read by the acceptance checks c01-c10"
TARGET = "a perfbench TARGETS entry point"
DUNDER = "protocol dunder"

# Each package function no product path reaches, by module.qualname, and
# why it stays.
ALLOWED = {
    "__init__.__getattr__": "lazy fuzzy, cli and channel imports: run only for their "
                            "names before an import, then bound in the package",
    "channel.ErrorPattern.dense": C01_C10,
    "channel.gen_burst_1d": C01_C10,
    "channel.gen_burst_2d": C01_C10,
    "concat.ConcatCode.layout_index": C01_C10,
    "concat.FlatLayout.cell": "layout protocol: layout_index (c01-c10) refuses through it",
    "concat.TrivialCode.__init__": C01_C10,
    "concat.TrivialCode.encode": C01_C10,
    "concat.TrivialCode.spec_string": C01_C10,
    "fuzzy.canonical_bytes": TARGET,
    "fuzzy.syndrome_from_bytes": TARGET + ": verify reads the stored bytes through the code",
    "gf.ExtField.__eq__": DUNDER,
    "gf.ExtField.__hash__": DUNDER,
    "gf.ExtField.__repr__": DUNDER,
    "gf.ExtField.mul": C01_C10,
    "gf.ExtField.to_companion_matrix": C01_C10,
    "gf.MulCounter.count": "read by perfbench/spans.py for the traced gf.mults",
    "rs.BchCode.decode_packed": "the public algebraic decode of a packed binary remainder, "
                                "which counts on no request; an inner decode reaches "
                                "the same _errors through _scalar_message_error",
    "rs.BchCode.power_sums": TARGET,
    "rs.BchCode.remainder": TARGET,
    "rs.BchCode.syndrome": TARGET,
    "rs.DecodeInfo.outer_error_count": C01_C10,
    "rs._CyclicCode._decode_syndrome": TARGET + " (RsCode and BchCode.decode_syndrome)",
    "rs.LinearCode._block_order": "test oracle: tests/oracle.py gathers a plain code's word",
    "rs.LinearCode._check_syndrome": "the syndrome check of decode, " + TARGET,
    "rs.LinearCode._stored": "the tuple reader behind syndrome and syndrome_from_bytes (each "
                             + TARGET + ") and the messages of a malformed stored syndrome",
    "rs.LinearCode.decode": TARGET + " (ExpandedCode.decode, ConcatCode.decode)",
    "rs.LinearCode.syndrome": TARGET + " (RsCode, ExpandedCode and ConcatCode.syndrome)",
    "rs.LinearCode.syndrome_sub": "the public difference of two tuple syndromes, the "
                                  "reference the tests hold _stored_minus to",
    "rs.LinearCode.zero_word": C01_C10,
    "rs._SpecIdentity.__eq__": DUNDER,
    "rs._SpecIdentity.__hash__": DUNDER,
    "rs._SpecIdentity.__repr__": DUNDER,
}


def package_functions() -> dict:
    """Every function, method and property accessor src/synfuzz defines,
    by code object, named ``module.qualname``."""
    modules = [importlib.import_module("synfuzz")]
    modules += [importlib.import_module(f"synfuzz.{path.stem}")
                for path in sorted(PACKAGE.glob("*.py")) if not path.stem.startswith("__")]
    found = {}
    for module in modules:
        members = list(vars(module).values())
        members += [v for c in members if inspect.isclass(c) and c.__module__ == module.__name__
                    for v in vars(c).values()]
        for obj in members:
            if isinstance(obj, (staticmethod, classmethod)):
                obj = obj.__func__
            for fn in (obj.fget, obj.fset, obj.fdel) if isinstance(obj, property) else (obj,):
                code = getattr(fn, "__code__", None)
                if code is not None and Path(code.co_filename).parent == PACKAGE:
                    found.setdefault(code, f"{Path(code.co_filename).stem}.{fn.__qualname__}")
    return found


def load_roster():
    """perfbench/roster.py, which imports nothing from synfuzz."""
    spec = importlib.util.spec_from_file_location("perfbench_roster",
                                                  ROOT / "perfbench" / "roster.py")
    roster = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = roster  # its dataclass looks its module up by name
    spec.loader.exec_module(roster)
    return roster


def golden_specs() -> list[str]:
    """The spec on the code= line of every golden template."""
    return [path.read_text().splitlines()[1].partition("=")[2]
            for path in sorted((ROOT / "tests" / "golden").glob("*.sfh"))]


# The inputs are built here, with no call into the package: a call made
# for the trace's own sake would count as reached.


def seeded_word(shape, q: int, rng):
    if len(shape) == 1:
        return [rng.randrange(q) for _ in range(shape[0])]
    return [[rng.randrange(q) for _ in range(shape[1])] for _ in range(shape[0])]


def changed(word, p: int):
    """The word with 1 added to digit 0 of its first cell over F_p: one
    error, which every code corrects."""
    word = [list(row) for row in word] if isinstance(word[0], list) else list(word)
    line = word[0] if isinstance(word[0], list) else word
    line[0] += (line[0] + 1) % p - line[0] % p
    return word


def write_word(path: str, word) -> None:
    rows = word if isinstance(word[0], list) else [word]
    Path(path).write_text("".join(" ".join(f"{v:x}" for v in row) + "\n" for row in rows))


def run_cli(directory: Path, spec: str, rng) -> None:
    """Every command on one spec; ``verify`` accepts the enrolled word and
    the word with one cell changed, and rejects another word."""
    from synfuzz import cli, codespec

    code = codespec.parse_spec(spec)
    shape, alphabet = code.shape, code.alphabet
    word = seeded_word(shape, alphabet.order, rng)
    files = {name: str(directory / name) for name in ("word", "noisy", "other", "tpl", "out")}
    for name, data in (("word", word), ("noisy", changed(word, alphabet.p)),
                       ("other", seeded_word(shape, alphabet.order, rng))):
        write_word(files[name], data)
    calls = [
        (["info", "--code", spec], 0),
        (["capability", "--code", spec], 0),
        (["enroll", "--code", spec, "--in", files["word"], "--out", files["tpl"]], 0),
        (["verify", "--template", files["tpl"], "--in", files["word"]], 0),
        (["verify", "--template", files["tpl"], "--in", files["noisy"],
          "--recovered-out", files["out"]], 0),
        (["verify", "--template", files["tpl"], "--in", files["other"]], 1),
        (["simulate", "--code", spec, "--model", "bursts=2x2;random=1", "--trials", "2"], 0),
    ]
    for argv, expected in calls:
        if cli.main(argv) != expected:
            raise SystemExit(f"synfuzz {' '.join(argv)} did not exit {expected}")


def run_library(roster, rng) -> None:
    """Enroll and verify on every roster construction, as perfbench does."""
    from synfuzz import codespec, fuzzy

    for con in roster.ROSTER:
        code = codespec.parse_spec(con.spec)
        if roster.check_bounds(code, con):
            raise SystemExit(f"{con.spec}: capability differs from the closed form")
        word = roster.codeword(code, con, rng)
        template = fuzzy.enroll(word, code)
        stateless = fuzzy.Template.from_text(template.to_text())
        p = code.alphabet.p
        for presented, accept in ((word, True), (changed(word, p), True),
                                  (seeded_word(con.shape, con.q, rng), False)):
            results = fuzzy.verify(presented, template, code=code), fuzzy.verify(presented, stateless)
            if any(result.accepted != accept for result in results):
                raise SystemExit(f"{con.spec}: verify did not {'accept' if accept else 'reject'}")


def reached_names() -> tuple[set[str], set[str]]:
    """The names of every package function, and of those the product
    paths reach."""
    functions = package_functions()
    roster = load_roster()
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    rng = random.Random(7)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(hook)
        try:
            for spec in golden_specs():
                run_cli(Path(tmp), spec, rng)
            run_library(roster, rng)
        finally:
            sys.setprofile(None)
    return set(functions.values()), {name for code, name in functions.items() if code in seen}


def main() -> int:
    defined, reached = reached_names()
    status = 0
    for name in sorted(defined - reached):
        reason = ALLOWED.get(name)
        print(f"{name}  {reason or 'NOT ALLOWED'}")
        status |= reason is None
    for name in sorted(set(ALLOWED) - (defined - reached)):
        print(f"{name}  STALE: {'reached' if name in defined else 'not defined'}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
