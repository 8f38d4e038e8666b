"""verify's one sparse pass against the dense reference.

verify reads the stored syndrome once, subtracts the presented one (over
characteristic 2 with one-byte symbols as one XOR of two ints), decodes
through the code's internal sparse ``_decode`` and adds the sparse error
map onto a copy of the presented word.  The reference here is the dense
path: the stored syndrome parsed by ``syndrome_from_bytes``, subtracted
by ``syndrome_sub``, decoded by the public ``code.decode`` asked to
count and added on cell by cell.  Both must give the same VerifyResult on every golden
construction, for genuine reads at and below capability and for
impostors.  The difference verify decodes is the template serialization
of the dense path's tuple difference.
"""

import hmac
import random
import re
from functools import partial

import pytest

from synfuzz.codespec import parse_spec
from synfuzz.errors import DecodeFailure, TemplateFormatError
from synfuzz.fuzzy import (
    Template,
    VerifyResult,
    canonical_bytes,
    enroll,
    hash_digest,
    syndrome_from_bytes,
    syndrome_to_bytes,
    verify,
)
from synfuzz.gf import MUL_COUNTER

from test_golden import FORM_EDGES, GOLDEN, WIDE_GOLDEN, golden_word

ALL_GOLDEN = GOLDEN + WIDE_GOLDEN
ALL_IDS = [g[0] for g in ALL_GOLDEN]


def flat(code, word):
    return list(word) if len(code.shape) == 1 else [v for row in word for v in row]


def reference_verify(code, data, template):
    """The dense verify: parse, subtract, decode to a dense pattern, add
    every cell on."""
    stored = syndrome_from_bytes(code, template.syndrome)
    diff = code.syndrome_sub(stored, code.syndrome(data))
    before = MUL_COUNTER.count
    try:
        pattern = code.decode(diff, count=True)
    except DecodeFailure:
        return VerifyResult(False, None, "DecodeFailure", MUL_COUNTER.count - before), None
    mults = MUL_COUNTER.count - before
    assert code.syndrome(pattern) == diff  # the dense pattern has the syndrome
    add = code.alphabet.add
    candidate = code._shaped(list(map(add, flat(code, data), flat(code, pattern))))
    digest = hash_digest(template.hash_alg, canonical_bytes(code, candidate))
    if hmac.compare_digest(digest, template.digest):
        return VerifyResult(True, candidate, None, mults), pattern
    return VerifyResult(False, None, "HashMismatch", mults), pattern


def block_offsets(code, i):
    """The flat offsets of block i's cells (a plain RS code's symbol i)."""
    width = getattr(code, "_width", 1)
    order = code._block_order()
    cells = range(i * width, (i + 1) * width)
    return [order[c] for c in cells] if order else list(cells)


def damaged(code, word, blocks, rng):
    """The word with random nonzero errors on random cells of ``blocks``
    random blocks: at most one outer symbol error each."""
    n = code.outer.n if hasattr(code, "outer") else code.n
    cells = flat(code, word)
    add = code.alphabet.add
    for i in rng.sample(range(n), blocks):
        offsets = block_offsets(code, i)
        for at in rng.sample(offsets, rng.randint(1, len(offsets))):
            cells[at] = add(cells[at], rng.randrange(1, code.alphabet.order))
    return code._shaped(cells)


@pytest.mark.parametrize("stem,spec,shape,q,seed", ALL_GOLDEN, ids=ALL_IDS)
def test_verify_matches_the_dense_reference(stem, spec, shape, q, seed):
    """Genuine reads with 0 .. t damaged blocks (t the outer capability)
    and impostors: the same accepted, recovered, reason and, asked for,
    decode_mults as the dense reference (None unasked), a sparse map equal to the dense pattern's nonzero
    cells, and a recovered word that is a new list of new rows."""
    code = parse_spec(spec)
    t = code.outer.t if hasattr(code, "outer") else code.t
    rng = random.Random(seed)
    word = golden_word(shape, q, seed)
    template = enroll(word, code)
    reads = [damaged(code, word, blocks, rng) for blocks in (0, 1, t // 2, t, t)]
    reads += [golden_word(shape, q, seed + 1000 + k) for k in range(3)]
    outcomes = set()
    for read in reads:
        expected, pattern = reference_verify(code, read, template)
        got = verify(read, template, code=code, count=True)
        assert got == expected
        assert verify(read, template, code=code) == expected._replace(decode_mults=None)
        outcomes.add(got.reason)
        if pattern is not None:
            diff = code._stored_minus(template.syndrome, code._body_syndrome(code._read(read)))
            dense = code.syndrome_sub(syndrome_from_bytes(code, template.syndrome),
                                      code.syndrome(read))
            assert type(diff) is bytes
            assert syndrome_to_bytes(code, diff) == syndrome_to_bytes(code, dense)
            errors, info = code._decode(diff)
            assert errors == {at: v for at, v in enumerate(flat(code, pattern)) if v}
            assert code.decode(dense, with_info=True) == (pattern, info)
        if got.accepted:
            assert got.recovered == word and got.recovered is not read
            if len(shape) == 2:
                assert not any(new is old for new, old in zip(got.recovered, read))
    assert None in outcomes and outcomes - {None}


def test_untouched_bool_cells_stay_bools():
    """The sparse map changes only the damaged cells; the rest of the
    presented word is copied as it is, so bool cells the decoder leaves
    alone stay bools (the dense XOR turned them into ints).  They compare
    and serialize as the ints they equal."""
    code = parse_spec("cI(rs(15,7;gf(2^4)))")
    word = golden_word(code.shape, 2, 7)
    template = enroll(word, code)
    read = [bool(v) for v in word]
    read[3] = not read[3]
    result = verify(read, template, code=code)
    assert result.accepted and result.recovered == word
    assert type(result.recovered[3]) is int
    assert {type(v) for k, v in enumerate(result.recovered) if k != 3} == {bool}


# (spec, stored byte offset, bad value): a symbol outside its run's field
OUT_OF_RANGE = [
    ("concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)", -1, 0x80),
    ("concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)", 0, 2),
    ("cII(rs(15,7;gf(2^4));3,5)", 0, 0x10),
    ("cI+parity(rs(15,7;gf(2^4)))", 0, 0x10),
    ("cI+parity(rs(15,7;gf(2^4)))", -1, 2),
    ("concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)", -1, 25),
    ("concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)", 0, 5),
    ("cI(rs(20,12;gf(2^10)))", 0, 0x04),  # two bytes a symbol, 0x04.. >= 1024
]
# One spec per way of reading the stored bytes: byte-wide binary runs as
# one XOR, gf(2^8) runs with no byte outside, two-byte runs, odd p.
LENGTH_SPECS = [
    "concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)",
    "cII(rs(15,7;gf(2^4));3,5)",
    "rs(255,223;gf(2^8))",
    "cI(rs(20,12;gf(2^10)))",
    "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)",
]


def stored_with(code, at, value):
    word = golden_word(code.shape, code.alphabet.order, 31)
    template = enroll(word, code)
    raw = bytearray(template.syndrome)
    raw[at] = value
    return word, template._replace(syndrome=bytes(raw))


@pytest.mark.parametrize("spec,at,value", OUT_OF_RANGE)
def test_verify_refuses_a_stored_symbol_outside_its_field(spec, at, value):
    """verify skips the decoder's own syndrome check, so the read of the
    stored bytes must refuse every symbol outside its run's field."""
    code = parse_spec(spec)
    word, template = stored_with(code, at, value)
    with pytest.raises(TemplateFormatError, match="syndrome symbol outside"):
        verify(word, template, code=code)
    with pytest.raises(TemplateFormatError):
        verify(word, Template.from_text(template.to_text()))


@pytest.mark.parametrize("spec", LENGTH_SPECS)
def test_verify_refuses_a_stored_syndrome_one_byte_short_or_long(spec):
    code = parse_spec(spec)
    word = golden_word(code.shape, code.alphabet.order, 32)
    template = enroll(word, code)
    raw = template.syndrome
    for bad, message in ((raw[:-1], "too short"), (raw + b"\x00", "longer")):
        with pytest.raises(TemplateFormatError, match=message):
            verify(word, template._replace(syndrome=bad), code=code)


BINARY_GOLDEN = [g for g in ALL_GOLDEN if g[3] == 2 or g[0] == "rs-255-223"]


@pytest.mark.parametrize("stem,spec,shape,q,seed", BINARY_GOLDEN, ids=[g[0] for g in BINARY_GOLDEN])
def test_every_stored_symbol_is_range_checked_where_it_lies(stem, spec, shape, q, seed):
    """Over characteristic 2 the read of the stored bytes checks every
    symbol at its own place: with every other symbol zero, the largest
    symbol of its run's field is taken as it is, and the smallest value
    past the field and the largest value of its bytes are refused (for
    m > 8 a high byte of 2^(m-8) or more)."""
    code = parse_spec(spec)
    zero = code._body_syndrome(code._read(code.zero_word()))
    assert type(zero) is bytes and not any(zero)
    at = 0
    for count, field in code.segments:
        width = 1 if field.order <= 256 else 2
        for end in range(at + width, at + count * width + 1, width):
            for value in (field.order - 1, field.order, (1 << 8 * width) - 1):
                raw = bytearray(len(zero))
                raw[end - width : end] = value.to_bytes(width + 1, "big")[1:]
                if value < field.order or value == field.order == 1 << 8 * width:
                    assert code._stored_minus(bytes(raw), zero) == raw
                else:
                    with pytest.raises(TemplateFormatError, match=re.escape(field.spec_string())):
                        code._stored_minus(bytes(raw), zero)
        at += count * width
    assert at == len(zero)


FORMS = GOLDEN + WIDE_GOLDEN + FORM_EDGES


@pytest.mark.parametrize("stem,spec,shape,q,seed", FORMS, ids=[g[0] for g in FORMS])
def test_a_malformed_stored_syndrome_keeps_its_message(stem, spec, shape, q, seed):
    """A stored syndrome cut short, one byte too long, or holding the
    first value past its run's field in that run's first symbol (where
    its bytes can hold one) is refused by verify, counted or not, and by
    ``syndrome_from_bytes`` with these TemplateFormatError messages."""
    code = parse_spec(spec)
    word = golden_word(shape, q, seed)
    template = enroll(word, code)
    raw = template.syndrome
    cases = [(raw[:-1], "syndrome too short for this code"),
             (b"", "syndrome too short for this code"),
             (raw + b"\0", "syndrome longer than the code redundancy")]
    at = 0
    for count, field in code.segments:
        width = 1 if field.order <= 256 else 2
        if field.order < 1 << 8 * width:
            bad = raw[:at] + field.order.to_bytes(width, "big") + raw[at + width :]
            cases.append((bad, f"syndrome symbol outside {field.spec_string()}"))
        at += count * width
    assert len(cases) > 3 or all(f.order in (1 << 8, 1 << 16) for _, f in code.segments)
    for bad, message in cases:
        for call in (partial(verify, word, template._replace(syndrome=bad), code=code),
                     partial(verify, word, template._replace(syndrome=bad), code=code,
                             count=True),
                     partial(syndrome_from_bytes, code, bad)):
            with pytest.raises(TemplateFormatError) as error:
                call()
            assert str(error.value) == message


class Untouchable:
    """A MUL_COUNTER stand-in that fails any use."""

    def __getattr__(self, name):
        raise AssertionError(f"MUL_COUNTER.{name} used")

    def __setattr__(self, name, value):
        raise AssertionError(f"MUL_COUNTER.{name} set")


@pytest.mark.parametrize("spec", ["rs(255,223;gf(2^8))", "cI(rs(7,3;gf(2^3)))"])
def test_a_default_verify_on_the_region_path_uses_no_counter(spec, monkeypatch):
    """Genuine reads with 0 .. t damaged blocks and an impostor: unasked,
    verify makes no MUL_COUNTER call and reports ``decode_mults`` None;
    asked, it reports the reference twin's count."""
    from synfuzz import fuzzy, gf, rs

    code = parse_spec(spec)
    t = code.outer.t if hasattr(code, "outer") else code.t
    rng = random.Random(41)
    word = golden_word(code.shape, 2, 41)
    template = enroll(word, code)
    reads = [damaged(code, word, blocks, rng) for blocks in range(t + 1)]
    reads.append(golden_word(code.shape, 2, 42))
    counted = [verify(read, template, code=code, count=True) for read in reads]
    assert any(r.decode_mults for r in counted) and any(not r.accepted for r in counted)
    for module in (fuzzy, gf, rs):
        monkeypatch.setattr(module, "MUL_COUNTER", Untouchable())
    assert [verify(read, template, code=code) for read in reads] == [
        r._replace(decode_mults=None) for r in counted]


@pytest.mark.parametrize("spec", [
    "cI(rs(7,3;gf(2^3)))",
    "concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)",
    "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)",
])
def test_a_counted_verify_runs_on_the_reference_twin_alone(spec):
    """With the twin built and the code's own ``_decode`` made to raise,
    a counted verify still gives the default verify's outcome, with
    ``decode_mults`` set: the code's own decoder never runs."""
    import oracle

    code = oracle.fresh_code(spec)
    rng = random.Random(45)
    word = golden_word(code.shape, code.alphabet.order, 45)
    template = enroll(word, code)
    reads = [damaged(code, word, blocks, rng) for blocks in range(code.outer.t + 1)]
    reads.append(golden_word(code.shape, code.alphabet.order, 46))
    defaults = [verify(read, template, code=code) for read in reads]
    assert any(r.accepted for r in defaults) and not all(r.accepted for r in defaults)
    assert code._load_twin() is not code

    def refuse(synd):
        raise AssertionError("the fast decoder ran")

    code._decode = refuse
    counted = [verify(read, template, code=code, count=True) for read in reads]
    assert [r[:3] for r in counted] == [r[:3] for r in defaults]
    assert all(r.decode_mults is not None for r in counted) and any(r.decode_mults for r in counted)


@pytest.mark.parametrize("spec", [
    "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)",
    "concat(inner=bch(8,2;gf(3)), outer=rs(26,20;gf(3^3)), layout=flat)",
])
def test_an_odd_codes_table_builds_count_nothing(spec):
    """On a new odd-p concatenation, whose first reads build its coset
    table and, for vi, its columns and fill table: each default verify
    counts in MUL_COUNTER what it counts again on the built tables (the
    scalar pieces of its path alone) and reports ``decode_mults`` None."""
    import oracle

    code = oracle.fresh_code(spec)
    assert code.inner._cosets is None and code._fills is None
    rng = random.Random(43)
    word = golden_word(code.shape, code.alphabet.order, 43)
    template = enroll(word, code)
    reads = [damaged(code, word, blocks, rng) for blocks in range(code.outer.t + 1)]
    reads.append(golden_word(code.shape, code.alphabet.order, 44))

    def counts():
        out = []
        for read in reads:
            before = MUL_COUNTER.count
            assert verify(read, template, code=code).decode_mults is None
            out.append(MUL_COUNTER.count - before)
        return out

    assert counts() == counts()
    assert code.inner._cosets and bool(code._fills) == code._by_columns
