import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from synfuzz import fuzzy
from synfuzz.channel import Rng, gen_burst_1d
from synfuzz.cli import main, parse_model, read_data_file, write_data_file
from synfuzz.codespec import parse_spec
from synfuzz.errors import SynfuzzError

from test_fuzzy import mutated
from test_golden import GOLDEN, GOLDEN_DIR, golden_word


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_word(path, symbols):
    path.write_text(" ".join(f"{v:x}" for v in symbols) + "\n", encoding="ascii")


def write_grid(path, grid):
    path.write_text(
        "".join(" ".join(f"{v:x}" for v in row) + "\n" for row in grid),
        encoding="ascii",
    )


def test_enroll_zero_data(tmp_path, capsys):
    data = tmp_path / "x.txt"
    tpl = tmp_path / "x.sfh"
    write_word(data, [0] * 21)
    rc, out, _ = run(capsys, "enroll", "--code", "cI(rs(7,3;gf(2^3)))",
                     "--in", str(data), "--out", str(tpl))
    assert rc == 0
    assert "rate: 9/21" in out
    text = tpl.read_text(encoding="ascii")
    assert text.startswith("sfh1\ncode=cI(rs(7,3;gf(2^3)))\n")
    synd_line = [l for l in text.splitlines() if l.startswith("syndrome=")][0]
    assert set(synd_line[len("syndrome="):]) == {"0"}


def test_enroll_is_byte_deterministic(tmp_path, capsys):
    data = tmp_path / "x.txt"
    write_word(data, [random.Random(5).randrange(2) for _ in range(21)])
    t1, t2 = tmp_path / "a.sfh", tmp_path / "b.sfh"
    assert run(capsys, "enroll", "--code", "cI(rs(7,3;gf(2^3)))",
               "--in", str(data), "--out", str(t1))[0] == 0
    assert run(capsys, "enroll", "--code", "cI(rs(7,3;gf(2^3)))",
               "--in", str(data), "--out", str(t2))[0] == 0
    assert t1.read_bytes() == t2.read_bytes()


def test_enroll_malformed_hex(tmp_path, capsys):
    data = tmp_path / "bad.txt"
    data.write_text("0 1 zz 0\n", encoding="ascii")
    rc, _, err = run(capsys, "enroll", "--code", "cI(rs(7,3;gf(2^3)))",
                     "--in", str(data), "--out", str(tmp_path / "t.sfh"))
    assert rc == 2
    assert "error:" in err


def test_enroll_wrong_shape(tmp_path, capsys):
    data = tmp_path / "short.txt"
    write_word(data, [0] * 20)
    rc, _, err = run(capsys, "enroll", "--code", "cI(rs(7,3;gf(2^3)))",
                     "--in", str(data), "--out", str(tmp_path / "t.sfh"))
    assert rc == 2


def test_verify_accepts_same_file(tmp_path, capsys):
    data = tmp_path / "x.txt"
    tpl = tmp_path / "x.sfh"
    write_word(data, [random.Random(6).randrange(2) for _ in range(21)])
    run(capsys, "enroll", "--code", "cI(rs(7,3;gf(2^3)))", "--in", str(data),
        "--out", str(tpl))
    rc, out, _ = run(capsys, "verify", "--template", str(tpl), "--in", str(data))
    assert rc == 0 and "ACCEPT" in out


@pytest.mark.parametrize("spec,p", [("cI+parity(rs(20,12;gf(257)))", 257),
                                    ("cI+parity(rs(40,30;gf(65521)))", 65521)])
def test_verify_accepts_one_wide_prime_cell_at_every_magnitude(tmp_path, capsys, spec, p):
    """A parity expansion over gf(p), p > 256: one cell changed by 1,
    255, 256 or p - 1, a residual digit past a byte, verifies (exit 0)."""
    code = parse_spec(spec)
    rng = random.Random(49)
    x = code.expand(code.rs.encode([rng.randrange(p) for _ in range(code.rs.k)]))
    data, noisy, tpl = tmp_path / "x.txt", tmp_path / "y.txt", tmp_path / "x.sfh"
    write_word(data, x)
    assert run(capsys, "enroll", "--code", spec, "--in", str(data), "--out", str(tpl))[0] == 0
    for magnitude in (1, 255, 256, p - 1):
        read = list(x)
        read[5] = (read[5] + magnitude) % p
        write_word(noisy, read)
        rc, out, _ = run(capsys, "verify", "--template", str(tpl), "--in", str(noisy))
        assert rc == 0 and "ACCEPT" in out, magnitude


def test_verify_accepts_in_capability_burst(tmp_path, capsys):
    code = parse_spec("cI(rs(7,3;gf(2^3)))")
    x = [random.Random(7).randrange(2) for _ in range(21)]
    data, noisy, tpl = tmp_path / "x.txt", tmp_path / "y.txt", tmp_path / "x.sfh"
    write_word(data, x)
    run(capsys, "enroll", "--code", "cI(rs(7,3;gf(2^3)))", "--in", str(data),
        "--out", str(tpl))
    pat = gen_burst_1d(Rng(8), code.rs.field.prime, 21, 4, 9)
    write_word(noisy, pat.apply_to(x))
    rec = tmp_path / "rec.txt"
    rc, out, _ = run(capsys, "verify", "--template", str(tpl), "--in", str(noisy),
                     "--recovered-out", str(rec))
    assert rc == 0 and "ACCEPT" in out
    assert rec.read_text(encoding="ascii").split() == [f"{v:x}" for v in x]


def test_verify_recovered_out_round_trips_on_an_array_code(tmp_path, capsys):
    """The recovered word of an array code is written as rows, one per
    line, and reads back as the enrolled word."""
    spec = "cIII(rs(15,5;gf(2^4));3,5)"
    code = parse_spec(spec)
    rows, cols = code.shape
    rng = random.Random(12)
    x = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
    y = [list(row) for row in x]
    for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)):  # one 2x2 square burst
        y[r][c] ^= 1
    data, noisy, tpl, rec = (tmp_path / name for name in ("x.txt", "y.txt", "x.sfh", "r.txt"))
    write_grid(data, x)
    write_grid(noisy, y)
    assert run(capsys, "enroll", "--code", spec, "--in", str(data), "--out", str(tpl))[0] == 0
    rc, out, _ = run(capsys, "verify", "--template", str(tpl), "--in", str(noisy),
                     "--recovered-out", str(rec))
    assert rc == 0 and "ACCEPT" in out
    assert read_data_file(str(rec), code) == x
    assert rec.read_text(encoding="ascii") == data.read_text(encoding="ascii")


def test_verify_rejects_gross_corruption(tmp_path, capsys):
    x = [random.Random(9).randrange(2) for _ in range(21)]
    y = [random.Random(10).randrange(2) for _ in range(21)]
    data, other, tpl = tmp_path / "x.txt", tmp_path / "y.txt", tmp_path / "x.sfh"
    write_word(data, x)
    write_word(other, y)
    run(capsys, "enroll", "--code", "cI(rs(7,3;gf(2^3)))", "--in", str(data),
        "--out", str(tpl))
    rc, out, _ = run(capsys, "verify", "--template", str(tpl), "--in", str(other))
    assert rc == 1 and out.startswith("REJECT(")


def test_verify_truncated_template(tmp_path, capsys):
    data = tmp_path / "x.txt"
    write_word(data, [0] * 21)
    tpl = tmp_path / "broken.sfh"
    tpl.write_text("sfh1\ncode=cI(rs(7,3;gf(2^3)))\nhash=sha-256\n", encoding="ascii")
    rc, _, err = run(capsys, "verify", "--template", str(tpl), "--in", str(data))
    assert rc == 2


def test_capability_report_c1(capsys):
    rc, out, _ = run(capsys, "capability", "--code", "cI(rs(7,3;gf(2^3)))")
    assert rc == 0
    assert "single 1D burst: length <= 4" in out
    assert "2 bursts: length <= 1" in out
    assert "guidance:" in out


def test_capability_report_c2(capsys):
    rc, out, _ = run(capsys, "capability", "--code", "cII(rs(15,7;gf(2^4));3,5)")
    assert rc == 0
    assert "single square burst: side <= 3 (area 9)" in out


def test_capability_report_concat_flat(capsys):
    rc, out, _ = run(
        capsys, "capability", "--code",
        "concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)",
    )
    assert rc == 0
    assert "length <= 124" in out
    assert "bound 125 is not guaranteed" in out


def test_info_command(capsys):
    rc, out, _ = run(capsys, "info", "--code", "cIII(rs(15,5;gf(2^4));3,5)")
    assert rc == 0
    assert "companion-array" in out
    assert "base shape: 12x20" in out


def test_bad_spec_exits_2(capsys):
    rc, _, err = run(capsys, "capability", "--code", "zzz(1)")
    assert rc == 2 and "error:" in err


def test_parse_model():
    assert parse_model("bursts=2x5;random=3") == ([5, 5], 3)
    assert parse_model("bursts=1x4,7;random=0") == ([4, 7], 0)
    assert parse_model("random=2") == ([], 2)
    for text in ("noise=9", "bursts=1x0", "bursts=1x-2", "bursts=-2x3", "bursts=2,0",
                 "random=-3", "bursts=2000000x1"):
        with pytest.raises(SynfuzzError):
            parse_model(text)


def test_simulate_in_capability_accepts_everything(capsys):
    rc, out, _ = run(capsys, "simulate", "--code", "cI(rs(7,3;gf(2^3)))",
                     "--model", "bursts=1x4", "--trials", "40", "--seed", "11")
    assert rc == 0
    assert "accept_rate: 1.0000" in out


def test_simulate_refuses_zero_trials(capsys):
    rc, out, err = run(capsys, "simulate", "--code", "cI(rs(7,3;gf(2^3)))",
                       "--model", "random=1", "--trials", "0")
    assert (rc, out) == (2, "") and "trials must be >= 1" in err


def test_simulate_zero_error_model(capsys):
    rc, out, _ = run(capsys, "simulate", "--code", "cII(rs(15,7;gf(2^4));3,5)",
                     "--model", "random=0", "--trials", "10", "--seed", "3")
    assert rc == 0
    assert "accept_rate: 1.0000" in out


def test_simulate_gross_corruption_rejects(capsys):
    rc, out, _ = run(capsys, "simulate", "--code", "cI(rs(7,3;gf(2^3)))",
                     "--model", "bursts=1x18;random=3", "--trials", "40",
                     "--seed", "12")
    assert rc == 0
    assert "accept_rate: 0.0000" in out


def test_simulate_reproducible(capsys):
    argv = ["simulate", "--code", "cI(rs(15,7;gf(2^4)))", "--model",
            "bursts=2x3;random=1", "--trials", "25", "--seed", "99"]
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


# Whole simulate outputs, recorded before verify counted on request: a
# code on the region path and the roster's odd-p vi concatenation.
SIMULATE_PINS = [
    (["--code", "cI(rs(15,7;gf(2^4)))", "--model", "random=6"],
     "code: cI(rs(15,7;gf(2^4)))\nmodel: random=6 seed: 41\ntrials: 40\naccepts: 3\n"
     "decode_failures: 36\nhash_mismatches: 1\naccept_rate: 0.0750\nmean_decode_mults: 81.5\n"),
    (["--code", "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)",
      "--model", "bursts=1x3;random=2"],
     "code: concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)\n"
     "model: bursts=1x3;random=2 seed: 41\ntrials: 40\naccepts: 23\ndecode_failures: 17\n"
     "hash_mismatches: 0\naccept_rate: 0.5750\nmean_decode_mults: 133.2\n"),
]


@pytest.mark.parametrize("argv, expected", SIMULATE_PINS, ids=["cI-15-7", "vi"])
def test_simulate_keeps_its_recorded_output(argv, expected, capsys):
    """40 seeded trials print what they printed when every verify
    counted: ``mean_decode_mults`` is the reference twin's count."""
    rc, out, _ = run(capsys, "simulate", *argv, "--trials", "40", "--seed", "41")
    assert rc == 0 and out == expected


def test_usage_error_exit_code(capsys):
    assert main(["enroll", "--code", "cI(rs(7,3;gf(2^3)))"]) == 2


def test_verify_out_of_range_syndrome_exits_2(tmp_path, capsys):
    data = tmp_path / "x.txt"
    tpl = tmp_path / "x.sfh"
    write_word(data, [0] * 21)
    assert run(capsys, "enroll", "--code", "cI(rs(7,3;gf(2^3)))",
               "--in", str(data), "--out", str(tpl))[0] == 0
    lines = tpl.read_text(encoding="ascii").splitlines()
    lines[-1] = "syndrome=" + "ff" * 4
    tpl.write_text("\n".join(lines) + "\n", encoding="ascii")
    rc, _, err = run(capsys, "verify", "--template", str(tpl), "--in", str(data))
    assert rc == 2 and "error:" in err


@pytest.mark.parametrize("spec", [
    "rs(3,1;gf(100003))",
    "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=iv(0,5))",
    "concat(inner=bch(15,2;gf(2)), inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=flat)",
    "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=flat, layout=vi)",
    "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=flat,)",
    "cII(rs(15,7;gf(2^4));-3,-5)",
    "rs(8,4;gf(3^2;modulus=1,0,1))",
    "rs(8,4;gf(3^2;modulus=2,0,1))",
    "bch(8191,1;gf(2))",
    "concat(inner=bch(255,59;gf(2)), outer=rs(8191,4001;gf(2^13)), layout=vi)",
    "concat(inner=bch(63,11;gf(2)), outer=rs(16645,16581;gf(2^16)), layout=flat)",
    "rs(1023,1;gf(2^10))",
    "bch(4095,33;gf(2))",
    "cIII(rs(65535,65471;gf(2^16));255,257)",
    "cI+parity(rs(65535,65471;gf(2^16)))",
    pytest.param("rs(7,3;gf(2^3))".ljust(1025), id="spec-text-over-the-cap"),
    "rs(２５５,223;gf(2^8))",
    "rs(2_55,22_3;gf(2^8))",
    "rs(+255,223;gf(2^8))",
])
def test_oversized_or_non_positive_spec_exits_2(capsys, spec):
    for command in ("info", "capability"):
        rc, _, err = run(capsys, command, "--code", spec)
        assert rc == 2 and "error:" in err


@pytest.mark.parametrize("spec", [
    "cI(rs(7,3;gf(2^3)))",
    "rs(15,7;gf(2^16))",
    "cII(rs(15,7;gf(2^4));3,5)",
    "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)",
])
def test_a_data_file_is_read_up_to_twice_its_written_size(tmp_path, capsys, spec):
    """What write_data_file writes with the code's widest symbols reads
    back, padded with as many characters again; one more is refused
    before anything past the cap is read."""
    code = parse_spec(spec)
    row = [code.alphabet.order - 1] * code.shape[-1]
    data = row if len(code.shape) == 1 else [row] * code.shape[0]
    path, tpl = tmp_path / "x.txt", tmp_path / "x.sfh"
    write_data_file(str(path), data)
    assert read_data_file(str(path), code) == data
    assert run(capsys, "enroll", "--code", spec, "--in", str(path), "--out", str(tpl))[0] == 0
    written = path.read_bytes()
    path.write_bytes(written + b" " * len(written))
    assert run(capsys, "verify", "--template", str(tpl), "--in", str(path))[0] == 0
    path.write_bytes(path.read_bytes() + b" " * (1 << 16) + b"\xff")  # undecodable past the cap
    rc, _, err = run(capsys, "verify", "--template", str(tpl), "--in", str(path))
    assert rc == 2 and "longer than" in err


def test_an_oversized_template_file_exits_2(tmp_path, capsys):
    data, tpl = tmp_path / "x.txt", tmp_path / "x.sfh"
    write_word(data, [0] * 21)
    assert run(capsys, "enroll", "--code", "cI(rs(7,3;gf(2^3)))",
               "--in", str(data), "--out", str(tpl))[0] == 0
    text = tpl.read_bytes()
    assert run(capsys, "verify", "--template", str(tpl), "--in", str(data))[0] == 0
    pad = fuzzy.MAX_TEMPLATE_CHARS + 1 - len(text)
    tpl.write_bytes(text + b"\n" * pad + b" " * (1 << 16) + b"\xff")  # undecodable past the cap
    rc, _, err = run(capsys, "verify", "--template", str(tpl), "--in", str(data))
    assert rc == 2 and "template text above" in err


def test_bare_bch_code_is_not_enrollable(tmp_path, capsys):
    data = tmp_path / "x.txt"
    tpl = tmp_path / "x.sfh"
    write_word(data, [0] * 15)
    rc, _, err = run(capsys, "enroll", "--code", "bch(15,2;gf(2))",
                     "--in", str(data), "--out", str(tpl))
    assert rc == 2 and "not an enrollable code" in err
    tpl.write_text("sfh1\ncode=bch(15,2;gf(2))\nhash=sha-256\ndigest=" + "00" * 32
                   + "\nsyndrome=" + "00" * 8 + "\n", encoding="ascii")
    rc, _, err = run(capsys, "verify", "--template", str(tpl), "--in", str(data))
    assert rc == 2 and "not an enrollable code" in err
    for command in ("capability", "info"):
        rc, _, err = run(capsys, command, "--code", "bch(15,2;gf(2))")
        assert rc == 2 and "not an enrollable code" in err


@seed(20)
@settings(max_examples=200, deadline=None)
@given(draw=st.data())
def test_mutated_cli_inputs_exit_0_1_or_2(draw):
    """A golden template file or its data file, mutated, given to
    ``verify``, or a mutated spec given to ``info``: the CLI returns 0, 1
    or 2 and raises nothing."""
    stem, spec, shape, q, word_seed = draw.draw(st.sampled_from(GOLDEN))
    target = draw.draw(st.sampled_from(("template", "data", "spec")))
    if target == "spec":
        assert main(["info", "--code", mutated(draw, spec)]) in (0, 1, 2)
        return
    with tempfile.TemporaryDirectory() as tmp:
        tpl, data = Path(tmp, "x.sfh"), Path(tmp, "x.txt")
        write_data_file(str(data), golden_word(shape, q, word_seed))
        text = (GOLDEN_DIR / f"{stem}.sfh").read_text(encoding="ascii")
        if target == "template":
            text = mutated(draw, text)
        else:
            data.write_text(mutated(draw, data.read_text(encoding="ascii")), encoding="utf-8")
        tpl.write_text(text, encoding="utf-8")
        assert main(["verify", "--template", str(tpl), "--in", str(data)]) in (0, 1, 2)
