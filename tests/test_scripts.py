"""The scripts under scripts/ run, and the report text stays pinned.

tests/golden/describe.txt is the output of scripts/capability_report.py
over every golden-template spec plus one shortened RS code; the info and
capability lines of each construction must reproduce it byte for byte.
"""

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from test_golden import GOLDEN, GOLDEN_DIR

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DESCRIBE_SPECS = [g[1] for g in GOLDEN] + ["rs(30,12;gf(2^7))"]


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        timeout=120,
    )


def test_capability_report_matches_golden_text():
    result = run_script("capability_report.py", *DESCRIBE_SPECS)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN_DIR / "describe.txt").read_bytes()


def test_capability_report_refuses_a_bare_bch_code():
    result = run_script("capability_report.py", "bch(15,2;gf(2))")
    assert result.returncode == 2
    assert result.stderr.startswith(b"error: not an enrollable code")


def test_monte_carlo_script_runs():
    result = run_script("burst_montecarlo.py", "5", "7")
    assert result.returncode == 0, result.stderr.decode()


def test_code_lines_totals_the_package():
    package = SCRIPTS.parent / "src" / "synfuzz"
    result = run_script("code_lines.py", str(package))
    assert result.returncode == 0, result.stderr.decode()
    *modules, total = result.stdout.decode().splitlines()
    lines, code, name = total.split()
    assert name == "total"
    paths = sorted(package.rglob("*.py"))
    assert len(modules) == len(paths)
    assert int(lines) == sum(len(path.read_text().splitlines()) for path in paths)
    assert 0 < int(code) < int(lines)


def test_reach_leaves_only_the_allowed_functions_unreached():
    """scripts/reach.py traces the product paths: each package function
    they do not reach is in its allowlist, and each allowlist entry is a
    defined function they do not reach.  Package code that only tests
    call fails here."""
    result = run_script("reach.py")
    assert result.returncode == 0, (result.stdout + result.stderr).decode()
    unreached = {line.split()[0] for line in result.stdout.decode().splitlines()}
    assert unreached == set(load_script("reach.py").ALLOWED)


def load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


NARROW = [96, 98, 100, 102, 104, 97, 99, 101, 103, 100]  # quartile spread 4.5
WIDE = [90, 110] * 5  # quartile spread 20


@pytest.mark.parametrize("parent, change, better, bound, expected", [
    (NARROW, [v + 30 for v in NARROW], "higher", 0.25, "better"),
    (NARROW, [v / 2 for v in NARROW], "lower", 0.25, "better"),
    (NARROW, [v * 0.7 for v in NARROW], "higher", 0.25, "worse"),
    (NARROW, [v * 1.3 for v in NARROW], "lower", 0.25, "worse"),
    (NARROW, NARROW[::-1], "higher", 0.25, "within bound"),
    (NARROW, [v + 3 for v in NARROW], "lower", 0.25, "within bound"),
    (NARROW, [v + 5 for v in NARROW], "higher", 0.25, "better"),
    (WIDE, WIDE[::-1], "higher", 0.1, "unresolved"),
    (WIDE, [v - 1 for v in WIDE], "lower", 0.1, "unresolved"),
    (WIDE, [111 + i for i in range(10)], "higher", 0.1, "within bound"),
    (WIDE, [v + 50 for v in WIDE], "lower", 0.1, "worse"),
])
def test_bench_pairs_verdicts(parent, change, better, bound, expected):
    verdict = load_script("bench_pairs.py").verdict
    assert verdict(parent, change, better, bound) == expected


def test_bench_pairs_runs_for_the_benchmark_run_seconds(tmp_path, monkeypatch):
    """After one one-second check run per seed, workload and tree, every
    perfbench run lasts BENCHMARK.json's run_seconds; perfbench itself is
    replaced by a stub that records its command lines."""
    bench_pairs = load_script("bench_pairs.py")
    root = SCRIPTS.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]] + ["gf.mults"]
    result = {"correct": True, "failed": 0, "attempted": 1,
              "metrics": {name: {"value": 1.0} for name in names}}
    commands = []

    def perfbench(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", perfbench)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main([str(root), str(root), "--seed", "1", "--out", str(out)]) == 0
    seconds = str(spec["run_seconds"])
    assert seconds == "30"
    checks = 3 * 2 * bench_pairs.PAIRS
    assert len(commands) == checks + 3 * (2 * bench_pairs.PAIRS + 2)
    lengths = [cmd[cmd.index("--seconds") + 1] for cmd in commands]
    assert lengths == ["1"] * checks + [seconds] * (len(commands) - checks)
    assert json.loads(out.read_text())["seconds"] == 30


def test_bench_pairs_stops_on_a_bad_seed_before_any_full_length_run(tmp_path, monkeypatch):
    """A seed whose one-second run reports a wrong result stops the script
    with exit code 1 and a message that names it, before any run of
    BENCHMARK.json's run_seconds."""
    bench_pairs = load_script("bench_pairs.py")
    root = SCRIPTS.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]] + ["gf.mults"]
    commands = []

    def perfbench(cmd, **kwargs):
        commands.append(cmd)
        bad = cmd[cmd.index("--workload") + 1] == "verify" and cmd[cmd.index("--seed") + 1] == "8"
        result = {"correct": not bad, "failed": 0, "attempted": 1,
                  "metrics": {name: {"value": 1.0} for name in names}}
        return subprocess.CompletedProcess(cmd, 0, json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", perfbench)
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main([str(root), str(root), "--seed", "1", "--out", str(out)])
    assert "verify seed 8 " in str(stop.value.code)  # sys.exit(text) exits 1
    assert {cmd[cmd.index("--seconds") + 1] for cmd in commands} == {"1"}
    assert not out.exists()


def test_bench_pairs_reports_each_construction_median_ratio(tmp_path, monkeypatch):
    """Each run's latency_p50_ms_by_construction, from perfbench's info
    line, is kept, scaled by the run's latency_p50_ms over its
    raw_latency_p50_ms; the report gives per construction the median of
    each tree and their ratio, and each tree's median reference_ms."""
    bench_pairs = load_script("bench_pairs.py")
    root = SCRIPTS.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]] + ["gf.mults"]
    result = {"correct": True, "failed": 0, "attempted": 1,
              "metrics": {name: {"value": 1.0} for name in names}}
    runs = []

    def perfbench(cmd, cwd, **kwargs):
        runs.append(cwd)
        # the change tree runs on a host three times slower, where "b"
        # also takes twice as long; "a" is alike once scaled
        host, slow = (3.0, 2.0) if cwd.name == "change" else (1.0, 1.0)
        info = {"info": {
            "reference_ms": 2.25 * host, "raw_latency_p50_ms": host,
            "latency_p50_ms_by_construction": {
                "a": host * 1.5, "b": host * slow * (len(runs) % 5 + 1.0)}}}
        return subprocess.CompletedProcess(
            cmd, 0, json.dumps(info) + "\n" + json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", perfbench)
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    out = tmp_path / "pairs.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--seed", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    for report in json.loads(out.read_text())["workloads"].values():
        rows = report["latency_p50_ms_by_construction"]
        assert sorted(rows) == ["a", "b"]
        for row in rows.values():
            assert row["ratio_change_over_parent"] == row["change"] / row["parent"]
        assert rows["a"] == {"parent": 1.5, "change": 1.5, "ratio_change_over_parent": 1.0}
        assert rows["b"]["change"] > rows["b"]["parent"]
        assert report["reference_ms"] == {"parent": 2.25, "change": 6.75}


@pytest.mark.parametrize("workload", ["verify", "enroll"])
def test_ab_pairs_compares_the_checkout_with_itself(workload):
    """An A/A run of scripts/ab_pairs.py on a few operations: both loaded
    trees give the same results and counts, and the report has one ratio
    summary per roster construction, with a bootstrap interval of the
    median that meets the quartile range."""
    root = SCRIPTS.parent
    result = run_script("ab_pairs.py", str(root), str(root), "--workload", workload,
                        "--seed", "3", "--words", "1", "--reps", "2")
    assert result.returncode == 0, result.stderr.decode()
    report = json.loads(result.stdout)
    assert (report["identical"], report["differences"], report["mult_differences"]) == (True, 0, 0)
    ratios = report["ratio_change_over_parent"]
    spec = importlib.util.spec_from_file_location("perfbench_roster",
                                                  root / "perfbench" / "roster.py")
    roster = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = roster  # its dataclass looks its module up by name
    spec.loader.exec_module(roster)
    per_op = 2 * (1 if workload == "enroll" else len(roster.NOISE_FRACTIONS) + 1)
    assert set(ratios) == {*roster.SPECS, "all", "total_time_ratio", "geomean_ratio"}
    for name in roster.SPECS:
        row = ratios[name]
        assert set(row) == {"median", "q1", "q3", "ci95", "pairs", "parent_us",
                            "median_time_ratio"}
        assert row["median_time_ratio"] > 0
        assert row["pairs"] == per_op and 0 < row["q1"] <= row["median"] <= row["q3"]
        low, high = row["ci95"]  # the bootstrap interval of the median
        assert 0 < low <= high and low <= row["q3"] and high >= row["q1"]
    assert ratios["all"]["pairs"] == per_op * len(roster.SPECS)
    assert ratios["total_time_ratio"] > 0 and ratios["geomean_ratio"] > 0


def test_ab_pairs_with_count_compares_the_checkout_with_itself():
    """An A/A ``--count`` run: verify is asked to count in both trees,
    and every result, ``decode_mults`` included, and every count agree."""
    root = str(SCRIPTS.parent)
    result = run_script("ab_pairs.py", root, root, "--workload", "verify", "--seed", "3",
                        "--words", "1", "--reps", "1", "--count")
    assert result.returncode == 0, result.stderr.decode()
    report = json.loads(result.stdout)
    assert (report["count"], report["identical"], report["differences"],
            report["mult_differences"]) == (True, True, 0, 0)


def test_cold_pairs_compares_the_checkout_with_itself():
    """A short A/A run of scripts/cold_pairs.py: one roster spec, two
    pairs, a stream of three specs.  Every command gives the same output
    in both trees, and each is summarised per tree."""
    root = str(SCRIPTS.parent)
    result = run_script("cold_pairs.py", root, root, "--seed", "7", "--pairs", "2",
                        "--specs", "1", "--stream", "3")
    assert result.returncode == 0, result.stderr.decode()
    report = json.loads(result.stdout)
    assert report["child_flags"] == "-I -S"
    commands = report["commands"]
    assert set(commands) == {"info", "capability", "enroll", "verify", "stream_enroll",
                             "stream_verify"}
    for row in commands.values():
        assert row["pairs"] == 2 and row["ratio"] > 0 and 0 <= row["change_faster"] <= 2
        assert all(len(row[tree]["runs"]) == 2 for tree in ("parent", "change"))
    assert list(report["by_spec"]) == ["rs(255,223;gf(2^8))"]


def test_ab_pairs_gives_the_ratio_of_median_times_beside_the_median_ratio():
    """Parent times 1, 2, 4 against change times 1, 1, 4: the median of
    the per-operation ratios is 1, the ratio of the median times 0.5."""
    ab_pairs = load_script("ab_pairs.py")
    row = ab_pairs.summary([1.0, 0.5, 1.0], [1.0, 2.0, 4.0], [1.0, 1.0, 4.0], random.Random(1))
    assert (row["median"], row["median_time_ratio"], row["parent_us"]) == (1.0, 0.5, 2e6)


def fake_tree(counter, salt=0):
    """A loaded tree's stand-in for the enroll workload: the code is its
    spec, an enrollment the spec with the word's length plus ``salt``."""
    fuzzy = SimpleNamespace(enroll=lambda word, code: (code, len(word) + salt))
    return SimpleNamespace(fuzzy=fuzzy, codespec=SimpleNamespace(parse_spec=str),
                           gf=SimpleNamespace(MUL_COUNTER=counter))


@pytest.mark.parametrize("salt", [0, 1])
def test_ab_pairs_fails_only_on_differing_results(salt, monkeypatch, capsys):
    """A change whose every call counts one more product but returns the
    same result exits 0 and reports the count differences apart; one
    that returns another result exits 1.  The change takes twice the
    parent's time on the first roster construction only, so the
    geometric mean of the median times reads 2^(1/constructions)."""
    ab_pairs = load_script("ab_pairs.py")
    # a stand-in MUL_COUNTER whose count is the delta of every call
    trees = {"synfuzz_parent": fake_tree(SimpleNamespace(count=0)),
             "synfuzz_change": fake_tree(SimpleNamespace(count=1), salt)}
    monkeypatch.setattr(ab_pairs, "load_tree", lambda name, root: trees[name])
    first = ab_pairs.load_roster().SPECS[0]

    def timed(call, counter):
        result = call()
        slow = counter.count and result[0] == first
        return (result, counter.count), 2.0 if slow else 1.0

    monkeypatch.setattr(ab_pairs, "timed", timed)
    argv = ["parent", "change", "--workload", "enroll", "--seed", "4", "--words", "1",
            "--reps", "3"]
    assert ab_pairs.main(argv) == salt
    out = capsys.readouterr()
    report = json.loads(out.out)
    constructions = len(ab_pairs.load_roster().SPECS)
    assert report["identical"] == (not salt)
    assert report["differences"] == salt * 4 * constructions
    assert report["mult_differences"] == 4 * constructions
    assert "ab_pairs: counts differ: enroll op" in out.err
    assert ("ab_pairs: differs:" in out.err) == bool(salt)
    ratios = report["ratio_change_over_parent"]
    assert ratios[first]["median_time_ratio"] == ratios[first]["median"] == 2.0
    assert ratios["geomean_ratio"] == pytest.approx(2 ** (1 / constructions))


def test_cold_pairs_lists_the_tables_a_command_built(tmp_path):
    """A cold CLI process of scripts/cold_pairs.py ends with the table
    entries its command's first-use builds wrote: ``info`` on a flat
    concatenation builds the field tables only, and ``enroll`` adds the
    outer code's generator and syndrome kernel."""
    cold_pairs = load_script("cold_pairs.py")
    spec = "concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)"
    tree = SCRIPTS.parent

    def entries(*argv, cwd=None):
        run = cold_pairs.child(tree, cold_pairs.CLI_PROBE, spec, *argv, cwd=cwd)
        assert run.returncode == 0, run.stderr
        return json.loads(run.stdout.splitlines()[-1])

    info = entries("info", "--code", spec)
    assert info["outer.alphabet._exp"] == 254 and info["inner.field._log"] == 16
    assert not any(key.startswith(("code._", "outer._", "inner._")) for key in info)
    assert all(size > 0 for size in info.values())
    cold_pairs.write_word(tmp_path / "word.txt", [0] * 1905)
    enroll = entries("enroll", "--code", spec, "--in", "word.txt", "--out", "t.sfh",
                     cwd=tmp_path)
    assert info.items() <= enroll.items()
    assert enroll["outer._gen"] == 19 and enroll["outer._tables"] > 0
