import builtins
import hmac
import random
from collections import Counter
from enum import IntEnum
from math import prod

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from synfuzz import concat, expand, fuzzy, rs
from synfuzz.channel import ErrorPattern, Rng, gen_burst_1d, gen_burst_2d
from synfuzz.codespec import parse_spec
from synfuzz.concat import ConcatCode, DecodeInfo, FlatLayout, VLayout
from synfuzz.errors import (
    ShapeMismatchError,
    SynfuzzError,
    TemplateFormatError,
    UnsupportedHashError,
)
from synfuzz.expand import ExpandedCode
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
from synfuzz.gf import ExtField
from synfuzz.rs import BchCode, RsCode
from test_golden import GOLDEN, GOLDEN_DIR, golden_word

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


@pytest.fixture(scope="module")
def c1():
    return ExpandedCode.row_vector(RsCode(ExtField(2, 4), 15, 7))


def test_sha256_empty_vector():
    assert hash_digest("sha-256", b"").hex() == SHA256_EMPTY


def test_unsupported_hash():
    with pytest.raises(UnsupportedHashError):
        hash_digest("crc32", b"")
    with pytest.raises(UnsupportedHashError):
        enroll([0] * 21, ExpandedCode.row_vector(RsCode(ExtField(2, 3), 7, 3)),
               hash_alg="md5-ish")


def test_enroll_zero_word(c1):
    t = enroll([0] * 60, c1)
    assert set(t.syndrome) == {0}
    assert t.digest == hash_digest("sha-256", canonical_bytes(c1, [0] * 60))


def test_enroll_is_deterministic(c1):
    rng = random.Random(1)
    x = [rng.randrange(2) for _ in range(60)]
    assert enroll(x, c1).to_text() == enroll(x, c1).to_text()


def test_records_compare_by_value_and_keep_their_field_names(c1):
    """Two enrollments of one word give equal templates (perfbench's enroll
    check compares them with ==); each record is read by field name."""
    rng = random.Random(3)
    x = [rng.randrange(2) for _ in range(60)]
    first, second = enroll(x, c1), enroll(list(x), c1)
    assert first == second and hash(first) == hash(second)
    assert first != enroll([1 - v for v in x], c1)
    assert first == Template(first.code_spec, first.hash_alg, first.digest, first.syndrome)
    result = verify(x, first, code=c1)
    assert (result.accepted, result.recovered, result.reason) == (True, x, None)
    assert result == VerifyResult(accepted=True, recovered=x, reason=None,
                                  decode_mults=result.decode_mults)
    info = DecodeInfo(inner_failed=(2,), outer_corrected=(2, 5))
    assert (info.inner_failed, info.outer_corrected, info.outer_error_count) == ((2,), (2, 5), 2)
    pattern = ErrorPattern(field=c1.alphabet, shape=(2,), cells=(0, 1))
    assert (pattern.field, pattern.shape, pattern.cells) == (c1.alphabet, (2,), (0, 1))
    assert (pattern.bursts, pattern.random_errors, pattern.dense()) == ((), 0, [0, 1])


def test_enroll_shape_check(c1):
    with pytest.raises(ShapeMismatchError):
        enroll([0] * 59, c1)
    with pytest.raises(ShapeMismatchError):
        enroll([0] * 59 + [2], c1)
    with pytest.raises(ShapeMismatchError):
        enroll([0] * 15, BchCode(2, 4, 2))
    with pytest.raises(ShapeMismatchError):  # a vector where rows belong
        enroll([0] * 12, parse_spec("cIII(rs(15,5;gf(2^4));3,5)"))
    with pytest.raises(ShapeMismatchError):
        enroll(None, c1)


def test_template_round_trip(c1):
    rng = random.Random(2)
    x = [rng.randrange(2) for _ in range(60)]
    t = enroll(x, c1)
    text = t.to_text()
    again = Template.from_text(text)
    assert again == t
    assert again.to_text() == text


def test_template_rejects_garbage():
    with pytest.raises(TemplateFormatError):
        Template.from_text("sfh1\ncode=x\n")
    with pytest.raises(TemplateFormatError):
        Template.from_text("nope\ncode=a\nhash=sha-256\ndigest=00\nsyndrome=00\n")
    t = "sfh1\ncode=cI(rs(7,3;gf(2^3)))\nhash=sha-256\ndigest=zz\nsyndrome=00\n"
    with pytest.raises(TemplateFormatError):
        Template.from_text(t)
    # only what to_text writes is read, the final newline optional
    good = enroll([0] * 21, parse_spec("cI(rs(7,3;gf(2^3)))")).to_text()
    assert Template.from_text(good[:-1]) == Template.from_text(good)
    for bad in (
        *(good.replace("sfh1", magic) for magic in ("sfh 1", "sfh+1", "sfh01", "sfh\u0661")),
        good.replace("syndrome=", "syndrome= "),
        good + "\n",
        good.replace("\n", "\r\n"),
        good.ljust(fuzzy.MAX_TEMPLATE_CHARS + 1, "\n"),
    ):
        with pytest.raises(TemplateFormatError):
            Template.from_text(bad)


def test_syndrome_bytes_round_trip_all_constructions():
    rng = Rng(3)
    rs15 = RsCode(ExtField(2, 4), 15, 7)
    codes = [
        RsCode(ExtField(2, 3), 7, 3),
        ExpandedCode.row_vector(rs15),
        ExpandedCode.row_vector_parity(rs15),
        ExpandedCode.square_array(rs15, 3, 5),
        ExpandedCode.companion_array(RsCode(ExtField(2, 4), 15, 5), 3, 5),
        ConcatCode(BchCode(2, 3, 1), RsCode(ExtField(2, 4), 15, 11), FlatLayout()),
    ]
    for code in codes:
        shape = code.shape if not isinstance(code, RsCode) else (code.n,)
        order = 8 if isinstance(code, RsCode) else 2
        if len(shape) == 1:
            data = [rng.below(order) for _ in range(shape[0])]
        else:
            data = [[rng.below(order) for _ in range(shape[1])] for _ in range(shape[0])]
        synd = code.syndrome(data)
        raw = syndrome_to_bytes(code, synd)
        assert syndrome_from_bytes(code, raw) == synd
        with pytest.raises(TemplateFormatError):
            syndrome_from_bytes(code, raw + b"\x00")
        with pytest.raises(TemplateFormatError):
            syndrome_from_bytes(code, raw[:-1])


def test_syndrome_length_equals_redundancy_in_symbols():
    rs15 = RsCode(ExtField(2, 4), 15, 5)
    comp = ExpandedCode.companion_array(rs15, 3, 5)
    t = enroll(comp.zero_word(), comp)
    # base symbols are one byte each here; ext symbols one byte as well
    expected = rs15.redundancy + 15 * 4 * 3  # ext values + residual entries
    assert len(t.syndrome) == expected
    assert comp.syndrome_symbol_count() == comp.base_length - comp.base_dimension


def test_verify_identical_word_accepts(c1):
    rng = random.Random(4)
    x = [rng.randrange(2) for _ in range(60)]
    t = enroll(x, c1)
    res = verify(x, t)
    assert res.accepted and res.recovered == x and res.reason is None


def test_verify_within_capability_accepts(c1):
    rng = Rng(5)
    random_words = random.Random(6)
    cap = c1.capability(1, "1d")
    for _ in range(200):
        x = [random_words.randrange(2) for _ in range(60)]
        t = enroll(x, c1)
        length = 1 + rng.below(cap)
        pat = gen_burst_1d(rng, c1.rs.field.prime, 60, length, rng.below(60 - length + 1))
        y = pat.apply_to(x)
        res = verify(y, t)
        assert res.accepted and res.recovered == x


def test_verify_far_word_rejects_and_never_lies(c1):
    rng = random.Random(7)
    for _ in range(200):
        x = [rng.randrange(2) for _ in range(60)]
        t = enroll(x, c1)
        y = [rng.randrange(2) for _ in range(60)]  # unrelated word
        res = verify(y, t)
        if res.accepted:
            assert res.recovered == x  # only a hash collision could break this
        else:
            assert res.reason in ("DecodeFailure", "HashMismatch")
            assert res.recovered is None


def test_verify_against_template_from_text(c1):
    rng = random.Random(8)
    x = [rng.randrange(2) for _ in range(60)]
    t = Template.from_text(enroll(x, c1).to_text())
    code = parse_spec(t.code_spec)
    assert verify(x, t, code=code).accepted


def test_a_repeated_stateless_verify_builds_no_block_map(monkeypatch, fresh_codes):
    """Two verifies from the same template text parse its spec once: the
    first builds the code's block map, and the second finds it built and
    calls no cell.  v is translation-invariant, so the map asks for the
    first block's cells and each block's origin: N + n cells, not N * n."""
    code = ConcatCode(BchCode(2, 4, 2), RsCode(ExtField(2, 7), 100, 60), VLayout(4, 5))
    data = golden_word(code.shape, 2, 31)
    text = enroll(data, code).to_text()  # this code is not the cached one
    data[0][0] ^= 1
    data[7][13] ^= 1
    calls = []
    cell = VLayout.cell

    def counting(self, *args):
        calls.append(args)
        return cell(self, *args)

    monkeypatch.setattr(VLayout, "cell", counting)
    assert verify(data, Template.from_text(text)).accepted
    assert code.base_length == 1500 and len(calls) == code.outer.n + code.inner.n == 115
    calls.clear()
    assert verify(data, Template.from_text(text)).accepted
    assert not calls


def test_plain_rs_enrollment_over_f9():
    """Odd characteristic pins the sign convention: recovered = presented + v."""
    code = RsCode(ExtField(3, 2), 8, 4)
    rng = random.Random(9)
    for _ in range(100):
        x = [rng.randrange(9) for _ in range(8)]
        t = enroll(x, code)
        err = [0] * 8
        for pos in rng.sample(range(8), rng.randint(1, 2)):
            err[pos] = rng.randrange(1, 9)
        y = [code.field.add(a, b) for a, b in zip(x, err)]
        res = verify(y, t)
        assert res.accepted and res.recovered == x


def test_two_dimensional_enrollment():
    code = ExpandedCode.square_array(RsCode(ExtField(2, 4), 15, 7), 3, 5)
    rng = Rng(10)
    words = random.Random(11)
    side = code.capability(1, "square")
    for _ in range(60):
        x = [[words.randrange(2) for _ in range(10)] for _ in range(6)]
        t = enroll(x, code)
        pos = (rng.below(6 - side + 1), rng.below(10 - side + 1))
        pat = gen_burst_2d(rng, code.rs.field.prime, (6, 10), side, side, pos)
        res = verify(pat.apply_to(x), t)
        assert res.accepted and res.recovered == x


def test_companion_enrollment_recovers_off_algebra_noise():
    """Companion-layout noise usually leaves the matrix algebra; the stored
    residual part of the syndrome must bring back the exact original."""
    code = ExpandedCode.companion_array(RsCode(ExtField(2, 4), 15, 5), 3, 5)
    rng = Rng(12)
    words = random.Random(13)
    side = code.capability(1, "square")
    for _ in range(60):
        x = [[words.randrange(2) for _ in range(20)] for _ in range(12)]
        t = enroll(x, code)
        pos = (rng.below(12 - side + 1), rng.below(20 - side + 1))
        pat = gen_burst_2d(rng, code.rs.field.prime, (12, 20), side, side, pos)
        res = verify(pat.apply_to(x), t)
        assert res.accepted and res.recovered == x


def test_parity_flagged_blocks_are_recovered_beyond_t():
    """Five flipped data digits in five blocks are five symbol errors
    against t = 4, but the block parities flag them: five erasures fit in
    the redundancy of 8."""
    code = parse_spec("cI+parity(rs(15,7;gf(2^4)))")
    words = random.Random(14)
    for blocks in ((0, 1, 2, 3, 4), (0, 3, 7, 11, 14), (2, 5, 6, 9, 13)):
        x = [words.randrange(2) for _ in range(75)]
        y = list(x)
        for blk in blocks:
            y[blk * 5 + words.randrange(4)] ^= 1
        res = verify(y, enroll(x, code), code=code)
        assert res.accepted and res.recovered == x


def test_concat_flat_recovers_a_burst_above_the_bound():
    """A burst of 154 wrecks more inner blocks than s = 9 outer errors
    allow; its failed inner decodes become outer erasures."""
    code = parse_spec("concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)")
    assert code.capability("single_burst") == 124
    for seed in range(3):
        rng = Rng(seed)
        x = [rng.below(2) for _ in range(code.shape[0])]
        pos = rng.below(code.shape[0] - 154 + 1)
        pat = gen_burst_1d(rng, code.alphabet, code.shape[0], 154, pos)
        res = verify(pat.apply_to(x), enroll(x, code), code=code)
        assert res.accepted and res.recovered == x


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=21, max_size=21))
def test_canonical_bytes_start_with_field_and_shape(bits):
    code = ExpandedCode.row_vector(RsCode(ExtField(2, 3), 7, 3))
    raw = canonical_bytes(code, bits)
    assert raw.startswith(b"gf(2)|21|")
    assert len(raw) == len(b"gf(2)|21|") + 21


@pytest.mark.parametrize("stem,spec,shape,q,seed", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_out_of_range_syndrome_symbol_is_a_format_error(stem, spec, shape, q, seed):
    """A stored symbol at or above its run's field order is a malformed
    template, whichever run it sits in."""
    code = parse_spec(spec)
    template = Template.from_text((GOLDEN_DIR / f"{stem}.sfh").read_text(encoding="ascii"))
    word = golden_word(shape, q, seed)
    at = 0
    for count, field in code.segments:
        width = ((field.order - 1).bit_length() + 7) // 8
        if count and field.order < 256**width:
            raw = bytearray(template.syndrome)
            raw[at : at + width] = b"\xff" * width
            altered = Template(template.code_spec, template.hash_alg, template.digest, bytes(raw))
            with pytest.raises(TemplateFormatError):
                verify(word, altered, code=code)
        at += count * width
    assert at == len(template.syndrome)
    # all-ones bytes: a format error where a run cannot hold 0xff, else a reject
    altered = Template(template.code_spec, template.hash_alg, template.digest, b"\xff" * at)
    try:
        result = verify(word, altered, code=code)
    except TemplateFormatError:
        assert any(field.order < 256 for _, field in code.segments)
    else:
        assert not result.accepted


# Codes whose every cell is swept; the two large ones get seeded samples.
_SAMPLED_CELLS = 200


@pytest.mark.parametrize("stem,spec,shape,q,seed", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_single_digit_error_decodes_at_every_cell(stem, spec, shape, q, seed):
    """decode(syndrome(e)) == e for a single nonzero digit e at each cell:
    every cell of every block map is read by the syndrome and written back
    by the decoder."""
    code = parse_spec(spec)
    cells = range(code.base_length)
    if code.base_length > 1000:
        cells = random.Random(seed).sample(cells, _SAMPLED_CELLS)
    cols = shape[-1]
    for at in cells:
        error = code.zero_word()
        value = 1 + at % (q - 1)
        if len(shape) == 1:
            error[at] = value
        else:
            error[at // cols][at % cols] = value
        assert code.decode(code.syndrome(error)) == error, at


class Cell(int):
    """An int cell with an identity of its own, so each type test of it
    can be told apart from those of the code's derived symbols."""


def _counting_type_tests(monkeypatch):
    seen = []

    def counted(obj, cls):
        seen.append(obj)
        return builtins.isinstance(obj, cls)

    for module in (fuzzy, rs, expand, concat):
        monkeypatch.setattr(module, "isinstance", counted, raising=False)
    return seen


@pytest.mark.parametrize("spec", [
    "cI(rs(15,7;gf(2^4)))",
    "cII(rs(15,7;gf(2^4));3,5)",
    "rs(255,223;gf(2^8))",
    "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)",
])
def test_data_is_checked_once_per_call(spec, monkeypatch):
    """enroll and verify read a word through the code's one read alone:
    each of its cells is type-tested exactly once per call."""
    code = parse_spec(spec)
    q = code.alphabet.order
    rng = random.Random(14)

    def presented():
        return code._shaped([Cell(rng.randrange(q)) for _ in range(code.base_length)])

    def tests_per_cell(word):
        cells = word if len(code.shape) == 1 else [v for row in word for v in row]
        counts = Counter(id(obj) for obj in seen)
        return {counts[id(v)] for v in cells}

    seen = _counting_type_tests(monkeypatch)
    x = presented()
    template = enroll(x, code)
    assert tests_per_cell(x) == {1}
    for word in (x, presented()):
        seen.clear()
        verify(word, template, code=code)
        assert tests_per_cell(word) == {1}


def test_digest_comparison_is_constant_time(c1, monkeypatch):
    calls = []
    real = hmac.compare_digest

    def compare(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(hmac, "compare_digest", compare)
    template = enroll([0] * 60, c1)
    assert verify([0] * 60, template, code=c1).accepted
    assert calls and calls[-1][1] == template.digest


class Index:
    """Not an int, though bytearray takes it as one."""

    def __index__(self):
        return 1


class Bit(IntEnum):
    ONE = 1


VECTOR_CODE = "rs(7,3;gf(2^3))"  # shape (7,), symbols 0..7
ARRAY_CODE = "cII(rs(15,7;gf(2^4));3,5)"  # shape (6, 10), digits 0..1
CHECKED_DATA = [
    # (code, name, data, accepted)
    (VECTOR_CODE, "ints in range", [0, 1, 2, 3, 4, 5, 7], True),
    (VECTOR_CODE, "bools are ints", [True, False, 0, 0, 0, 0, 7], True),
    (VECTOR_CODE, "bytes hold ints", bytes([0, 1, 2, 3, 4, 5, 6]), True),
    (VECTOR_CODE, "IntEnum cell", [0, 0, 0, Bit.ONE, 0, 0, 0], True),
    (VECTOR_CODE, "__index__ cell", [0, 0, 0, Index(), 0, 0, 0], False),
    (VECTOR_CODE, "float", [0, 0, 0, 1.0, 0, 0, 0], False),
    (VECTOR_CODE, "negative", [0, 0, 0, -1, 0, 0, 0], False),
    (VECTOR_CODE, "value = order", [0, 0, 0, 8, 0, 0, 0], False),
    (VECTOR_CODE, "value > order", [0, 0, 0, 0, 0, 0, 1 << 70], False),
    (VECTOR_CODE, "None cell", [0, 0, 0, None, 0, 0, 0], False),
    (VECTOR_CODE, "str cell", [0, 0, 0, "1", 0, 0, 0], False),
    (VECTOR_CODE, "str", "0000000", False),
    (VECTOR_CODE, "short", [0] * 6, False),
    (VECTOR_CODE, "long", [0] * 8, False),
    (VECTOR_CODE, "empty", [], False),
    (VECTOR_CODE, "None", None, False),
    (VECTOR_CODE, "int", 7, False),
    (VECTOR_CODE, "rows", [[0] * 7], False),
    (ARRAY_CODE, "ints in range", [[(r + c) % 2 for c in range(10)] for r in range(6)], True),
    (ARRAY_CODE, "bools are ints", [[True] * 10] + [[False] * 10] * 5, True),
    (ARRAY_CODE, "bytes rows", [bytes(10)] * 5 + [bytes([1] * 10)], True),
    (ARRAY_CODE, "__index__ cell", [[0] * 10] * 5 + [[Index()] + [0] * 9], False),
    (ARRAY_CODE, "float", [[0] * 10] * 5 + [[0] * 9 + [0.0]], False),
    (ARRAY_CODE, "bool float", [[0] * 10] * 5 + [[True] * 9 + [1.0]], False),
    (ARRAY_CODE, "negative", [[0] * 10] * 5 + [[0] * 9 + [-1]], False),
    (ARRAY_CODE, "value = order", [[2] + [0] * 9] + [[0] * 10] * 5, False),
    (ARRAY_CODE, "ragged short row", [[0] * 10] * 5 + [[0] * 9], False),
    (ARRAY_CODE, "ragged long row", [[0] * 11] + [[0] * 10] * 5, False),
    (ARRAY_CODE, "None row", [[0] * 10] * 5 + [None], False),
    (ARRAY_CODE, "None cell", [[0] * 10] * 5 + [[None] + [0] * 9], False),
    (ARRAY_CODE, "int row", [[0] * 10] * 5 + [0], False),
    (ARRAY_CODE, "str rows", ["0000000000"] * 6, False),
    (ARRAY_CODE, "flat vector", [0] * 60, False),
    (ARRAY_CODE, "too few rows", [[0] * 10] * 5, False),
    (ARRAY_CODE, "too many rows", [[0] * 10] * 7, False),
    (ARRAY_CODE, "no rows", [], False),
    (ARRAY_CODE, "empty rows", [[]] * 6, False),
    (ARRAY_CODE, "None", None, False),
]


# The only cell that is not exactly an int is the last cell of the last
# row, so the read's exact-int count falls back to the isinstance test.
LAST_CELL_DATA = [
    (VECTOR_CODE, "last cell bool", [0] * 6 + [True], True),
    (VECTOR_CODE, "last cell IntEnum", [0] * 6 + [Bit.ONE], True),
    (VECTOR_CODE, "last cell __index__", [0] * 6 + [Index()], False),
    (ARRAY_CODE, "last cell bool", [[0] * 10] * 5 + [[0] * 9 + [True]], True),
    (ARRAY_CODE, "last cell IntEnum", [[0] * 10] * 5 + [[0] * 9 + [Bit.ONE]], True),
    (ARRAY_CODE, "last cell __index__", [[0] * 10] * 5 + [[0] * 9 + [Index()]], False),
]


def assert_reads(code, data, template, accepted):
    """code.syndrome, enroll and verify all accept the word when
    ``accepted``, and otherwise all raise ShapeMismatchError."""
    for read in (code.syndrome, lambda d: enroll(d, code),
                 lambda d: verify(d, template, code=code)):
        if accepted:
            read(data)
        else:
            with pytest.raises(ShapeMismatchError):
                read(data)


@pytest.mark.parametrize(
    "spec,data,accepted",
    [(spec, data, ok) for spec, _, data, ok in CHECKED_DATA],
    ids=[f"{spec}-{name}" for spec, name, _, _ in CHECKED_DATA],
)
def test_data_words_are_accepted_exactly_in_shape_ints_in_the_alphabet(spec, data, accepted):
    """enroll, verify and the code's own syndrome accept the same words."""
    code = parse_spec(spec)
    template = enroll(code.zero_word(), code)
    assert_reads(code, data, template, accepted)


@pytest.mark.parametrize(
    "spec,data,accepted",
    [(spec, data, ok) for spec, _, data, ok in LAST_CELL_DATA],
    ids=[f"{spec}-{name}" for spec, name, _, _ in LAST_CELL_DATA],
)
def test_only_the_last_cell_decides_the_int_test(spec, data, accepted):
    """A bool or IntEnum last cell passes the isinstance fallback, an
    ``__index__`` one fails it, after every other cell was an exact int."""
    code = parse_spec(spec)
    template = enroll(code.zero_word(), code)
    assert_reads(code, data, template, accepted)


def cells(q):
    """Cells of every kind: in-range and out-of-range ints, bools, floats,
    None, strings, __index__ objects and nested lists."""
    return st.one_of(
        st.integers(0, q - 1),
        st.integers(q, 1 << 70) | st.integers(-(1 << 70), -1),
        st.booleans(),
        st.floats(),
        st.none(),
        st.text(max_size=2),
        st.builds(Index),
        st.lists(st.integers(0, 1), max_size=2),
    )


RESHAPES = ("keep", "drop cell", "add cell", "drop row", "add row", "None row", "nest")


def reshaped(word, how, shape):
    """The word with its shape changed as ``how`` says; a cell edit acts
    on the last row of an array."""
    if how in ("drop cell", "add cell"):
        row = word[-1] if len(shape) == 2 else word
        row = row[:-1] if how == "drop cell" else row + [0]
        return word[:-1] + [row] if len(shape) == 2 else row
    edits = {"keep": word, "drop row": word[:-1], "add row": word + word[-1:],
             "None row": word[:-1] + [None], "nest": [word]}
    return edits[how]


def fits(word, shape, q):
    """The oracle: the word has the code's shape and every cell is an int
    in 0 .. q - 1."""
    rows = word if len(shape) == 2 else [word]
    return len(rows) == (shape[0] if len(shape) == 2 else 1) and all(
        isinstance(row, list) and len(row) == shape[-1]
        and all(isinstance(v, int) and 0 <= v < q for v in row)
        for row in rows
    )


@pytest.mark.parametrize("stem,spec,shape,q,seed", GOLDEN, ids=[g[0] for g in GOLDEN])
@settings(max_examples=25, deadline=None)
@given(draw=st.data())
def test_a_data_word_is_accepted_exactly_when_it_fits(stem, spec, shape, q, seed, draw):
    """The golden word with a few cells replaced and its shape perhaps
    changed: enroll, verify and code.syndrome accept it exactly when the
    oracle does, and otherwise raise ShapeMismatchError."""
    code = parse_spec(spec)
    template = Template.from_text((GOLDEN_DIR / f"{stem}.sfh").read_text())
    word = golden_word(shape, q, seed)
    cols = shape[-1]
    for at, value in draw.draw(st.lists(st.tuples(st.integers(0, code.base_length - 1),
                                                  cells(q)), max_size=3)):
        if len(shape) == 1:
            word[at] = value
        else:
            word[at // cols][at % cols] = value
    word = reshaped(word, draw.draw(st.sampled_from(RESHAPES)), shape)
    assert_reads(code, word, template, fits(word, shape, q))


def test_syndrome_sub_is_symbolwise_field_subtraction():
    """The XOR runs over characteristic 2 agree with field.sub on every
    segment, and odd p keeps its own subtraction."""
    specs = (
        "concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))",
        "cI(rs(15,7;gf(2^4)))",
        "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)",
    )
    for seed, spec in enumerate(specs):
        code = parse_spec(spec)
        rng = random.Random(seed)
        values = []
        for _ in range(2):
            values.append([rng.randrange(field.order)
                           for count, field in code.segments for _ in range(count)])
        a, b = (tuple(v) for v in values)
        fields = [field for count, field in code.segments for _ in range(count)]
        expected = tuple(f.sub(x, y) for f, x, y in zip(fields, a, b))
        assert code.syndrome_sub(a, b) == expected
        assert not any(code.syndrome_sub(a, a))


# What a data file may put in one cell: out of range, negative, not an int.
ODD_CELLS = (2, -1, 256, 1.0, None, "1", 10**30, [1])
SPLICES = st.text(st.sampled_from("0123456789abcdef(),;=^+-. \nIcgrsvx\x00\xe9"), max_size=4)


def mutated(draw, text):
    """``text`` with one span replaced by a short drawn string: an edit, an
    insertion, a deletion or a truncation."""
    at = draw.draw(st.integers(0, len(text)))
    end = draw.draw(st.integers(at, min(len(text), at + 8)) | st.just(len(text)))
    return text[:at] + draw.draw(SPLICES) + text[end:]


def quietly(call, *args, **kwargs):
    """The call's result, or None where it raised a SynfuzzError."""
    try:
        return call(*args, **kwargs)
    except SynfuzzError:
        return None


@seed(19)
@settings(max_examples=200, deadline=None)
@given(draw=st.data())
def test_mutated_outside_inputs_raise_only_synfuzz_errors(draw):
    """Golden template text, a spec string or one data cell, mutated:
    Template.from_text, parse_spec, enroll and verify raise nothing but a
    SynfuzzError."""
    stem, spec, shape, q, word_seed = draw.draw(st.sampled_from(GOLDEN))
    text = (GOLDEN_DIR / f"{stem}.sfh").read_text(encoding="ascii")
    word = golden_word(shape, q, word_seed)
    target = draw.draw(st.sampled_from(("template", "spec", "cell")))
    if target == "template":
        template = quietly(Template.from_text, mutated(draw, text))
        if template is not None:
            quietly(verify, word, template)
    elif target == "spec":
        code = quietly(parse_spec, mutated(draw, spec))
        if code is not None:
            quietly(enroll, word, code)
            quietly(verify, word, Template.from_text(text), code=code)
    else:
        at = draw.draw(st.integers(0, prod(shape) - 1))
        row = word[at // shape[-1]] if len(shape) == 2 else word
        row[at % shape[-1]] = draw.draw(st.sampled_from(ODD_CELLS))
        quietly(enroll, word, parse_spec(spec))
        quietly(verify, word, Template.from_text(text))
