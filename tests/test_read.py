"""The one read of a data word.

``LinearCode._read`` checks a word once (shape, int type, range) and
returns its canonical body: the cells row-major, one byte each for an
alphabet of order <= 256, else each big-endian in two bytes.  enroll
hashes the code's digest head plus that body and takes the syndrome from
it; verify reads the presented word once, builds the candidate by
changing the decoded cells of a copy of the body, and builds the
recovered list word only on accept.
"""

import operator
import random

import pytest

import oracle
from synfuzz import fuzzy
from synfuzz.codespec import parse_spec
from synfuzz.errors import AlphabetMismatchError, ShapeMismatchError
from synfuzz.fuzzy import canonical_bytes, enroll, verify
from synfuzz.rs import LinearCode

from test_golden import GOLDEN, GOLDEN_DIR, WIDE_GOLDEN, golden_word
from test_verify_path import damaged

# Codes whose alphabet has more than 256 elements: two bytes a cell.
TWO_BYTE = ("rs(20,12;gf(2^9))", "rs(20,12;gf(257))")
SPECS = [g[1] for g in GOLDEN + WIDE_GOLDEN] + list(TWO_BYTE)


def seeded(code, seed):
    rng = random.Random(seed)
    return code._shaped([rng.randrange(code.alphabet.order) for _ in range(code.base_length)])


@pytest.fixture
def reads(monkeypatch):
    """Every word ``LinearCode._read`` is handed, in order; and every
    ``canonical_bytes`` call."""
    seen = {"read": [], "canonical": 0}
    read, canonical = LinearCode._read, fuzzy.canonical_bytes

    def counting_read(self, word):
        seen["read"].append(word)
        return read(self, word)

    def counting_canonical(code, data):
        seen["canonical"] += 1
        return canonical(code, data)

    monkeypatch.setattr(LinearCode, "_read", counting_read)
    monkeypatch.setattr(fuzzy, "canonical_bytes", counting_canonical)
    return seen


@pytest.mark.parametrize("spec", SPECS)
def test_enroll_and_verify_read_the_word_once(spec, reads):
    """enroll reads its word once; verify reads the presented word once,
    whether it accepts or rejects, and never reads or serializes the
    candidate."""
    code = parse_spec(spec)
    word = seeded(code, 5)
    template = enroll(word, code)
    assert reads["read"] == [word]
    outer = code.outer if hasattr(code, "outer") else code
    presented = [damaged(code, word, blocks, random.Random(blocks))
                 for blocks in (0, 1, outer.t)]
    presented += [seeded(code, 6 + k) for k in range(2)]
    outcomes = set()
    for read in presented:
        reads["read"].clear()
        result = verify(read, template, code=code)
        outcomes.add(result.reason)
        assert len(reads["read"]) == 1 and reads["read"][0] is read
        if result.accepted:
            assert result.recovered == word
    assert reads["canonical"] == 0
    assert None in outcomes and outcomes - {None}


@pytest.mark.parametrize("spec", SPECS)
def test_canonical_bytes_are_the_head_and_the_body(spec):
    """canonical_bytes equals the serialization spelled out in the oracle
    and the code's digest head plus the read's body, one byte a cell up
    to 256 symbols and two above."""
    code = parse_spec(spec)
    alphabet = code.alphabet
    for seed in (7, 8):
        word = seeded(code, seed)
        expected = oracle.serialize(alphabet.canonical_spec(), alphabet.order, code.shape, word)
        body = code._read(word)
        assert canonical_bytes(code, word) == expected == code._head + body
        assert len(body) == code.base_length * (1 if alphabet.order <= 256 else 2)
        assert code._spec == code.spec_string()


@pytest.mark.parametrize("spec", TWO_BYTE)
def test_a_two_byte_candidate_recovers_the_word(spec):
    """Over more than 256 symbols the candidate changes two-byte cells:
    damaged reads within capability are accepted with the enrolled word."""
    code = parse_spec(spec)
    word = seeded(code, 9)
    template = enroll(word, code)
    for blocks in range(1, code.t + 1):
        read = damaged(code, word, blocks, random.Random(blocks))
        result = verify(read, template, code=code)
        assert result.accepted and result.recovered == word


@pytest.mark.parametrize("spec", ["rs(7,3;gf(2^3))", "cII(rs(15,7;gf(2^4));3,5)",
                                  "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)"])
def test_recovered_keeps_its_type_for_a_bytes_word(spec):
    """A word presented as bytes, or as rows of bytes, is recovered as a
    list, or a list of row lists, of ints."""
    code = parse_spec(spec)
    word = seeded(code, 10)
    template = enroll(word, code)
    read = damaged(code, word, 1, random.Random(11))
    presented = bytes(read) if len(code.shape) == 1 else [bytes(row) for row in read]
    result = verify(presented, template, code=code)
    assert result.accepted and result.recovered == word
    assert type(result.recovered) is list
    if len(code.shape) == 2:
        assert {type(row) for row in result.recovered} == {list}
    assert {type(v) for v in oracle.cells(code, result.recovered)} == {int}


def test_the_body_is_a_fresh_copy():
    """The read copies even a word given as a bytearray: changing the body
    leaves the word alone."""
    code = parse_spec("rs(7,3;gf(2^3))")
    word = bytearray([1, 2, 3, 4, 5, 6, 7])
    body = code._read(word)
    body[0] = 0
    assert word[0] == 1 and body is not word


# The golden 2-D codes: (spec, shape, alphabet size, word seed).
GOLDEN_2D = [(g[1], g[2], g[3], g[4]) for g in GOLDEN if len(g[2]) == 2]


@pytest.mark.parametrize("spec,shape,q,seed", GOLDEN_2D, ids=[g[0] for g in GOLDEN_2D])
def test_a_2d_read_leaves_the_word_and_takes_any_row_type(spec, shape, q, seed):
    """The 2-D read flattens the rows into a list of its own: enroll and
    verify leave the caller's word as it was, the same row objects
    holding the same values, on accept and on reject alike.  Rows given
    as lists, tuples or bytes give the golden template.  No golden row
    of ranges lies in its alphabet (each has more columns than symbols),
    so rows of ranges read as their lists do: refused with the same
    error.  A ragged row or a None row is a ShapeMismatchError."""
    code = parse_spec(spec)
    word = golden_word(shape, q, seed)
    template = enroll(word, code)
    stem = next(g[0] for g in GOLDEN if g[1] == spec)
    assert template.to_text() == (GOLDEN_DIR / f"{stem}.sfh").read_text()
    impostor = seeded(code, seed + 1)
    for presented in (word, damaged(code, word, 1, random.Random(seed)), impostor):
        rows, values = list(presented), [list(row) for row in presented]
        enroll(presented, code)
        result = verify(presented, template, code=code)
        assert result.accepted == (presented is not impostor)
        assert len(presented) == len(rows) and all(map(operator.is_, presented, rows))
        assert [list(row) for row in presented] == values
    for row_type in (list, tuple, bytes):
        assert enroll([row_type(row) for row in word], code) == template
    ranged = [range(at, at + shape[1]) for at in range(shape[0])]
    with pytest.raises(AlphabetMismatchError) as by_lists:
        enroll([list(row) for row in ranged], code)
    with pytest.raises(AlphabetMismatchError) as by_ranges:
        enroll(ranged, code)
    assert str(by_ranges.value) == str(by_lists.value)
    for bad in (word[:-1] + [word[-1][:-1]], word[:-1] + [None]):
        with pytest.raises(ShapeMismatchError):
            enroll(bad, code)
        with pytest.raises(ShapeMismatchError):
            verify(bad, template, code=code)


def test_rows_of_ranges_read_as_their_lists():
    """Over an alphabet with more symbols than columns, rows given as
    ranges enroll to the template of the same rows given as lists, and
    verify accepts them against it."""
    code = parse_spec("cIII(rs(8,4;gf(11^2));2,4)")
    rows, cols = code.shape
    ranged = [range(at, at + cols) for at in range(rows)]
    template = enroll([list(row) for row in ranged], code)
    assert enroll(ranged, code) == template
    assert verify(ranged, template, code=code).accepted
