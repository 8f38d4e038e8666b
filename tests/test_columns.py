"""Per-cell syndrome columns against the bit lanes they stand in for.

A binary block code of at most ``rs._COLUMN_CAP_CELLS`` cells, with outer
symbols of m <= 8 bits, takes its syndrome as the XOR of one column per
set cell, and its decoder re-checks the sparse map it returns by the
same XOR.  With the cap patched to 0 the same code takes the bit lanes
and, for a concatenation, ``ConcatCode._recheck``: the oracle here.
"""

import gc
import random
import sys
import tracemalloc
from itertools import product

import pytest

import test_protocol
from synfuzz import codespec, rs
from synfuzz.errors import DecodeFailure
from synfuzz.fuzzy import enroll
from synfuzz.gf import MUL_COUNTER

from test_golden import GOLDEN, WIDE_GOLDEN, golden_word
from test_syndrome_space import BLOCK_CODES, decode_all

# Every binary golden block code; those under the cap are the six of the
# perfbench roster, the rest take the lanes.
BINARY_BLOCK = [g[1] for g in GOLDEN + WIDE_GOLDEN if g[3] == 2 and not g[1].startswith("rs")]


def fresh(spec):
    """A new code object of the spec, outside the parse cache, so its
    column slot is empty (its RS and BCH components come from the cache)."""
    return codespec._parse_code(spec)


def lanes_off(monkeypatch):
    monkeypatch.setattr(rs, "_COLUMN_CAP_CELLS", 0)


@pytest.mark.parametrize("spec", BINARY_BLOCK)
def test_columns_give_the_lane_syndromes(spec, monkeypatch):
    """Seeded words and the zero word: the same syndrome bytes on both
    paths, and each column is the lane syndrome of its unit word."""
    columns = fresh(spec)
    rng = random.Random(spec)
    words = [columns._shaped([rng.randrange(2) for _ in range(columns.base_length)])
             for _ in range(8)] + [columns.zero_word()]
    expected = [columns._body_syndrome(columns._read(w)) for w in words]
    lanes_off(monkeypatch)
    lanes = fresh(spec)
    assert [lanes._body_syndrome(lanes._read(w)) for w in words] == expected
    assert lanes._columns is False
    capped = columns.base_length <= 256 and columns.outer.field.m <= 8
    assert bool(columns._columns) == capped
    if not capped:
        return
    for at, column in enumerate(columns._columns):
        unit = bytearray(columns.base_length)
        unit[at] = 1
        assert column.to_bytes(columns._size, "little") == lanes._body_syndrome(unit)


def walk(code):
    """``decode_all`` of every syndrome of cI(rs(7,3;gf(2^3))), else the
    outer walk of tests/test_syndrome_space.py beside a zero residual run
    and one nonzero in t seeded blocks: per syndrome the pattern or None,
    and the multiplications its decode counted."""
    if not hasattr(code, "_chk") or not code._chk:
        return decode_all(code)
    outer = code.outer
    at = code.segments.index((outer.redundancy, outer.field))
    count, prime = code.segments[1 - at]
    chk = count // outer.n
    rng = random.Random(0x5E6)
    runs = [(0,) * count]
    res = [0] * count
    for i in rng.sample(range(outer.n), outer.t):
        part = [rng.randrange(prime.order) for _ in range(chk)]
        part[rng.randrange(chk)] = rng.randrange(1, prime.order)
        res[i * chk : (i + 1) * chk] = part
    runs.append(tuple(res))
    out = []
    for res in runs:
        for sums in product(range(outer.field.order), repeat=outer.redundancy):
            synd = sums + res if at == 0 else res + sums
            before = MUL_COUNTER.count
            try:
                got = code.decode(synd)
            except DecodeFailure:
                got = None
            out.append((synd, got, MUL_COUNTER.count - before))
    return out


WALKS = ["cI(rs(7,3;gf(2^3)))"] + [spec for spec, _ in BLOCK_CODES]


@pytest.mark.parametrize("spec", WALKS)
def test_syndrome_walks_decode_alike_on_both_paths(spec, monkeypatch):
    """The same outcome and the same counted multiplications for every
    syndrome the syndrome-space walks decode, with columns and with lanes."""
    columns = fresh(spec)
    expected = walk(columns)
    assert any(got is not None for _, got, _ in expected)
    assert columns._columns or columns.alphabet.p != 2
    lanes_off(monkeypatch)
    lanes = fresh(spec)
    assert walk(lanes) == expected
    assert lanes._columns is False


@pytest.mark.parametrize("at_cap, above", [
    ("cI(rs(32,24;gf(2^8)))", "cI(rs(33,25;gf(2^8)))"),
    ("concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))",
     "concat(inner=bch(15,2;gf(2)), outer=rs(20,12;gf(2^7)), layout=v(4,5))"),
])
def test_the_cap_is_inclusive_and_either_path_gives_the_same_template(at_cap, above,
                                                                      monkeypatch):
    """A code of 256 cells or fewer takes columns, one more block takes
    lanes; each template is the one the other path enrolls."""
    low, high = fresh(at_cap), fresh(above)
    templates = []
    for code in (low, high):
        word = golden_word(code.shape, 2, code.base_length)
        templates.append(enroll(word, code).to_text())
    assert low.base_length <= 256 < high.base_length
    assert low._columns and high._columns is False
    for cap, code, text in ((0, low, templates[0]), (1 << 20, high, templates[1])):
        monkeypatch.setattr(rs, "_COLUMN_CAP_CELLS", cap)
        other = fresh(code.spec_string())
        assert enroll(golden_word(code.shape, 2, code.base_length), other).to_text() == text
        assert bool(other._columns) == (cap > 0)


REFUSALS = [
    test_protocol.test_concat_decode_refuses_a_pattern_its_syndrome_does_not_reproduce,
    test_protocol.test_concat_decode_refuses_a_rebuilt_block_whose_residual_is_not_stored,
    test_protocol.test_concat_decode_refuses_a_pattern_that_leaves_out_a_damaged_block,
]


@pytest.mark.parametrize("refusal", REFUSALS, ids=[f.__name__[5:] for f in REFUSALS])
@pytest.mark.parametrize("spec", test_protocol.CONCATS)
def test_concat_refusals_hold_on_the_lanes_too(spec, refusal, monkeypatch, fresh_codes):
    """The concatenations' refusal tests run on the column re-check for
    iv and v (under the cap) and on ``ConcatCode._recheck`` for the rest;
    with the cap at 0 every one runs on ``_recheck``."""
    lanes_off(monkeypatch)
    refusal(spec, monkeypatch)
    assert codespec.parse_spec(spec)._columns is False


def one_cell_word(code, seed):
    rng = random.Random(seed)
    flat = [0] * code.base_length
    flat[rng.randrange(code.base_length)] = 1
    return code._shaped(flat)


@pytest.mark.parametrize("spec", ["cI+parity(rs(15,7;gf(2^4)))", "cII(rs(15,7;gf(2^4));3,5)",
                                  "cIII(rs(15,5;gf(2^4));3,5)"])
def test_an_expansion_refuses_a_pattern_with_a_dropped_cell(spec, monkeypatch):
    """An expansion under the cap re-checks its sparse map against the
    whole syndrome: a rebuilt block with one set cell dropped makes the
    decode fail.  On the lanes an expansion re-checks nothing, and the
    same decode returns the wrong pattern."""
    outcomes = []
    for cap in (rs._COLUMN_CAP_CELLS, 0):
        monkeypatch.setattr(rs, "_COLUMN_CAP_CELLS", cap)
        code = fresh(spec)
        word = one_cell_word(code, 700)
        synd = code.syndrome(word)
        assert code.decode(synd) == word
        touched_cells = code._touched_cells

        def dropped(touched, syms, parts):
            cells = bytearray(touched_cells(touched, syms, parts))
            cells[cells.index(1)] = 0
            return cells

        monkeypatch.setattr(code, "_touched_cells", dropped)
        try:
            outcomes.append(code.decode(synd))
        except DecodeFailure as exc:
            assert "does not reproduce the syndrome" in str(exc)
            outcomes.append(None)
    assert outcomes[0] is None
    assert outcomes[1] is not None and outcomes[1] != word


def test_the_largest_columns_fit_the_code_weight():
    """A capped code has at most 256 cells and a syndrome of at most 255
    bytes (one byte per syndrome symbol, fewer than its cells), so its
    columns take at most 256 ints of 255 bytes and their tuple: under
    80 KB, which with the heaviest region tables (359 KiB, see
    codespec._CODE_WEIGHT) stays within the _CODE_WEIGHT units of about
    40 bytes every code is charged, so codespec._weight needs no term for
    them.  cIII(rs(15,5;gf(2^4));3,5), the roster's longest capped
    syndrome, retains less than the bound once enrolled and decoded."""
    widest = sys.getsizeof((1 << 8 * 255) - 1)
    bound = 256 * widest + sys.getsizeof((0,) * 256)
    assert bound < 80_000
    assert 359 * 1024 + bound < codespec._CODE_WEIGHT * 40
    spec = "cIII(rs(15,5;gf(2^4));3,5)"
    gc.collect()
    tracemalloc.start()
    try:
        code = fresh(spec)
        before = tracemalloc.get_traced_memory()[0]
        code._load_columns()
        gc.collect()
        columns = tracemalloc.get_traced_memory()[0] - before
        word = one_cell_word(code, 701)
        assert code.decode(code.syndrome(word)) == word
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert code._size == 190 and columns < bound
    assert retained <= codespec._weight(spec, code) * 40
