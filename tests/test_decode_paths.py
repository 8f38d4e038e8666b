"""The decode's table and lane paths against the paths they stand in for.

- A binary block code with at most 8 check digits reads its block parts
  from bit lanes, one int per check digit; ``rs._pack_runs`` is the
  oracle, and stays the path of wider parts.
- An odd-p block code with columns rebuilds its touched blocks from a
  fill table of its symbols' fills; the inner encoder is the oracle.
- Its decode re-checks by summing the columns of the cells it returns;
  the same code built with the column cap at 0 decodes the same template
  bytes and keeps ``_BlockCode._recheck``, the oracle.
- ``BchCode._message_error`` over F_2 reads the coset table without an
  exception; ``decode_packed``, the algebraic decode alone, is the
  oracle.  One rule gives both p the table, p^r <= ``rs._COSET_CAP``; over
  F_2 the count of patterns of weight <= t is the oracle of its side of
  the cap on every code a concatenation can hold.
- A concatenation's odd-p residual is ``_BlockCode._residual``, the check
  cells minus the fill's; the inner remainder is the oracle, values and
  counts.
- The region decoder gives the scalar ``_gpz_decode``'s outcome, with
  and without an erasure, and its one-error exit gives the reference
  twin's outcome on every one-error-shaped syndrome.
- A block code without check cells reads no block part: with
  ``_BlockCode._parts`` made to raise, its decodes and verifies give the
  same outcomes and counts.
"""

import math
import random
from collections import Counter
from itertools import product

import pytest

import oracle
from synfuzz import rs
from synfuzz.concat import ConcatCode, TrivialCode, VLayout
from synfuzz.errors import DecodeFailure
from synfuzz.fuzzy import enroll, verify
from synfuzz.gf import MUL_COUNTER, ExtField, _from_digits
from synfuzz.rs import BchCode, RsCode

from test_columns import BINARY_BLOCK, ODD_BLOCK, fresh, noisy_reads, seeded_words
from test_golden import GOLDEN, WIDE_GOLDEN
from test_protocol import codeword, seeded_word, split


def counted(call, *args):
    """The call's result, or its DecodeFailure's message, with the
    multiplications it counted."""
    before = MUL_COUNTER.count
    got = outcome(call, *args)
    return got, MUL_COUNTER.count - before


def outcome(call, *args):
    """The call's result, or its DecodeFailure's message."""
    try:
        return call(*args)
    except DecodeFailure as failure:
        return str(failure)


# The check digits per block of the binary golden block codes: each lane
# width the decode reads and one wider than a byte.
CHECK_DIGITS = {fresh(spec)._chk for spec in BINARY_BLOCK}
assert {1, 3, 8} <= CHECK_DIGITS and max(CHECK_DIGITS) > 8


@pytest.mark.parametrize("spec", BINARY_BLOCK)
def test_lane_parts_are_the_packed_runs(spec):
    """Every block's part, and the parts of every run of three
    consecutive blocks, are ``_pack_runs`` of their residual digits: as
    bytes from the lanes for at most 8 check digits, else its list.  A
    code without check cells has an empty residual run and no parts to
    read."""
    code = fresh(spec)
    chk, n = code._chk, code.outer.n
    words = [seeded_word(code, 0x1A + k) for k in range(3)]
    words += [codeword(code, 0x1A), code.zero_word(), code._shaped([1] * code.base_length)]
    for word in words:
        res = split(code, word)[1]
        if not chk:
            assert res == b""
            continue
        parts = code._parts(res)
        assert list(parts) == rs._pack_runs(res, chk)
        assert type(parts) is (bytes if chk <= 8 else list)
        for i in range(n - 2):
            few = res[i * chk : (i + 3) * chk]
            assert list(code._parts(few)) == rs._pack_runs(few, chk) == list(parts[i : i + 3])


def odd_identity():
    """A concatenation over gf(3) with an identity inner code: no check
    cells, outer sums only."""
    return ConcatCode(TrivialCode(3, 2), RsCode(ExtField(3, 2), 8, 4), VLayout(2, 2))


VI = next(spec for spec in ODD_BLOCK if spec.endswith("layout=vi)"))


@pytest.mark.parametrize("build", [lambda: fresh(VI), odd_identity], ids=["vi", "identity"])
def test_fill_table_entries_are_the_inner_codewords(build):
    """Built on first use and, like the columns, leaving MUL_COUNTER as it
    found it, each symbol's entry is its inner codeword (its digits for an
    identity inner code), which has no inner remainder."""
    code = build()
    assert code._fills is None
    start = MUL_COUNTER.count
    code._load_columns()
    fills = code._load_fills()
    assert MUL_COUNTER.count == start and code._fills is fills
    field, inner = code.outer.field, code.inner
    assert len(fills) == field.order
    for sym, entry in enumerate(fills):
        fill = inner.encode(field.to_base_vector(sym))
        assert entry == tuple(fill)
        assert not code._chk or not any(inner.remainder(fill))


@pytest.mark.parametrize("build", [lambda: fresh(VI), odd_identity], ids=["vi", "identity"])
def test_the_column_recheck_decodes_like_the_resplit(build, monkeypatch):
    """On noisy reads and on 200 seeded stored syndromes, the decode with
    the column re-check and the fill table and the decode of the same
    bytes by the same code built with the column cap at 0
    (``_BlockCode._recheck``) give the same sparse map and DecodeInfo, or
    the same DecodeFailure message."""
    code = build()
    with monkeypatch.context() as patch:
        patch.setattr(rs, "_COLUMN_CAP_CELLS", 0)
        oracle = build()
        assert oracle is not code and oracle._by_columns is False
    zero = code._body_syndrome(code._read(code.zero_word()))
    assert code._digits and type(zero) is bytes
    diffs = []
    for k, word in enumerate(seeded_words(code, 0x2B, 3)):
        template = enroll(word, code)
        for read in noisy_reads(code, word, k):
            diffs.append(code._stored_minus(template.syndrome,
                                            code._body_syndrome(code._read(read))))
    rng = random.Random(0x2C)
    for _ in range(200):
        raw = bytes(rng.randrange(f.order) for count, f in code.segments for _ in range(count))
        diffs.append(code._stored_minus(raw, zero))
    outcomes = Counter()
    for synd in diffs:
        got = outcome(code._decode, synd)
        assert type(synd) is bytes and got == outcome(oracle._decode, synd)
        outcomes[type(got)] += 1
    assert outcomes[tuple] and outcomes[str]


def test_one_coset_rule_keeps_every_inner_code_on_its_side():
    """``_by_cosets`` is p^r <= ``_COSET_CAP`` over F_2 too.  On every
    binary BCH code with n <= 4095 and 2t <= 64 it agrees with the count
    of patterns, at most ``_COSET_CAP`` of weight <= t, wherever an outer
    field's degree can be the dimension (k in 2..16: 22 codes);
    bch(15,4;gf(2)), k = 1, is the one code where the two differ."""
    inner, differ = [], []
    for m in range(2, 13):
        for t in range(1, min(32, (2**m - 2) // 2) + 1):
            code = BchCode(2, m, t)
            by_patterns = sum(math.comb(code.n, w) for w in range(t + 1)) <= rs._COSET_CAP
            assert code._by_cosets == (2**code.redundancy <= rs._COSET_CAP)
            if code._by_cosets != by_patterns:
                differ.append((code.spec_string(), code.k))
            if 2 <= code.k <= 16:
                inner.append(code._by_cosets == by_patterns)
    assert differ == [("bch(15,4;gf(2))", 1)]
    assert len(inner) == 22 and all(inner)


@pytest.mark.parametrize("spec", [
    "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)",
    "concat(inner=bch(8,2;gf(3)), outer=rs(26,20;gf(3^3)), layout=flat)",
])
def test_an_odd_block_residual_is_the_inner_remainder(spec):
    """On 200 seeded blocks, the block code's one residual (its check
    cells minus its symbol's fill's) is the inner remainder of the block
    and counts the same products: both reduce the same message digits.
    bch(8,2;gf(3)) in rs(26,20;gf(3^3)) takes no columns, so its syndrome
    reaches the residual."""
    code = fresh(spec)
    inner, p, m = code.inner, code.p, code.outer.field.m
    assert type(code)._residual is rs._BlockCode._residual
    assert code._by_columns == (inner.n == 4)
    rng = random.Random(0x8E5)
    for _ in range(200):
        block = [rng.randrange(p) for _ in range(code._width)]
        sym = _from_digits(block[code._sym_at : code._sym_at + m], p)
        got = counted(rs._BlockCode._residual, code, block, sym)
        assert got == counted(inner._remainder, block)
        assert got[1] == counted(inner._remainder, [0] * code._chk + block[code._chk :])[1]


def test_the_odd_residual_holds_for_every_outer_symbol():
    """concat(inner=bch(8,2;gf(3)), outer=rs(26,20;gf(3^3)), layout=flat),
    past the column caps: for every outer symbol the fill negates the
    inner parity digits as ``ExtField.neg`` does, and the residual of a
    block with seeded check cells is the block's inner remainder."""
    code = fresh("concat(inner=bch(8,2;gf(3)), outer=rs(26,20;gf(3^3)), layout=flat)")
    inner, field = code.inner, code.outer.field
    assert not code._by_columns and code._sym_at == code._chk == inner.redundancy
    rng = random.Random(0x8E6)
    for sym in range(field.order):
        digits = field.to_base_vector(sym)
        parity = inner._remainder([0] * inner.redundancy + digits)
        assert code._fill(sym) == [inner.field.neg(v) for v in parity] + digits
        for _ in range(4):
            block = [rng.randrange(3) for _ in range(code._chk)] + digits
            assert code._residual(block, sym) == list(inner.remainder(block))


@pytest.mark.parametrize("m, t, perfect", [(3, 1, True), (4, 2, False), (4, 3, False)])
def test_binary_message_errors_are_the_shifted_packed_decodes(m, t, perfect, monkeypatch):
    """Every remainder of bch(2^m - 1, t; gf(2)): the message digits of
    ``decode_packed``'s pattern, or None where it refuses (no remainder
    of a perfect code), from the coset table and above its cap alike."""
    code = BchCode(2, m, t)
    r = code.redundancy

    def expected(remainder):
        try:
            return code.decode_packed(remainder) >> r
        except DecodeFailure:
            return None

    remainders = range(1 << r)
    want = [expected(rem) for rem in remainders]
    assert any(want) and (None in want) != perfect
    assert [code._message_error(rem) for rem in remainders] == want and code._cosets
    monkeypatch.setattr(rs, "_COSET_CAP", 0)
    above = BchCode(2, m, t)
    assert [above._message_error(rem) for rem in remainders] == want
    assert above._by_cosets is False and above._cosets is None


def test_the_region_decoder_gives_the_scalar_outcome_over_the_rs_15_11_walk():
    """Every syndrome of rs(15,11;gf(2^4)), and one in seven again with
    an erasure: the region decoder's outcome is the scalar decoder's, and
    syndromes with and without a zero symbol both decode and fail."""
    code = RsCode(ExtField(2, 4), 15, 11)
    assert code._by_region
    kinds = Counter()
    for k, synd in enumerate(product(range(16), repeat=4)):
        cases = [()] if k % 7 else [(), (k % 15,)]
        for known in cases:
            got = outcome(code._region_errors, bytes(synd), known)
            assert got == outcome(rs._gpz_decode, code.field, bytes(synd), 15, known)
            kinds[0 in synd, type(got)] += 1
    assert all(kinds[zero, kind] for zero in (False, True) for kind in (dict, str))


def test_the_fill_table_fits_the_code_weight():
    """The size rs._cost prices: about 48 + 8 * width bytes per entry, 8
    of them in the table's tuple, 21 KB for the 81 entries of width 26 of
    concat(inner=bch(26,7;gf(3)), outer=rs(2,1;gf(3^4))), and under 160 KB
    for 256 entries of width 63, within the code's weight."""
    from synfuzz import codespec
    from test_columns import retained

    spec = "concat(inner=bch(26,7;gf(3)), outer=rs(2,1;gf(3^4)), layout=flat)"
    code = codespec._parse_code(spec)
    assert code._by_columns and code._load_columns() and code._digits
    fills = code._load_fills()
    assert (len(fills), code._width) == (81, 26)
    # the p = 3 small ints the entries share: 28 bytes each
    assert 20_000 < retained([fills]) <= 81 * (48 + 8 * 26) + 40 + 3 * 28 < 21_000
    assert 256 * (48 + 8 * 63) + 40 < 160_000
    assert retained([fills]) < codespec._weight(spec, code) * 40


@pytest.mark.parametrize("p, m, n", [(2, 3, 7), (2, 3, 5), (2, 8, 200), (3, 2, 8), (5, 2, 20)])
def test_degree_one_locators_find_the_scanned_root_and_count(p, m, n):
    """Every locator 1 + c1 x: the root the scalar search reads off c1's
    log, and its count, are those of a scan that stops at the root or
    runs past all n positions, full length and shortened; over F_{2^m}
    the packed search, from a Chien table, finds the same root."""
    field = ExtField(p, m)
    table = rs._chien_fits(field) and rs._chien_table(field, n, 2)
    found = Counter()
    for c1 in range(1, field.order):
        scan = [i for i in range(n) if field.add(1, field.mul(c1, field.alpha_pow(-i))) == 0]
        assert rs._chien_roots(field, [1, c1], n) == (scan, scan[0] + 1 if scan else n), c1
        if table:
            assert rs._chien_search(field, bytes([1, c1]), n, table) == scan, c1
        found[len(scan)] += 1
    assert found[1] and bool(found[0]) == (n < field.order - 1)


# Every golden code without check cells (cI, cII) and three odd-p ones:
# over gf(3) on the row and square layouts, and over gf(257), whose cells
# take two bytes.
NO_CHECK_CELLS = [g[1] for g in GOLDEN + WIDE_GOLDEN if g[1].startswith(("cI(", "cII("))] + [
    "cI(rs(8,4;gf(3^2)))", "cII(rs(80,40;gf(3^4));8,10)", "cII(rs(256,200;gf(257));16,16)"]


def damaged_reads(code, word, seed):
    """Reads of the word with 0, 1, t, t + 1 and 2t + 1 damaged blocks,
    one to all cells each, and another word, each beside its number of
    damaged blocks (the other word's as 2t + 2)."""
    rng = random.Random(seed)
    q, width, outer = code.alphabet.order, code._width, code.outer
    flat = oracle.cells(code, word)
    order = code._block_order() or range(code.base_length)
    reads = []
    for blocks in (0, 1, outer.t, outer.t + 1, 2 * outer.t + 1):
        cells = list(flat)
        for i in rng.sample(range(outer.n), blocks):
            for j in rng.sample(range(width), rng.randint(1, width)):
                at = order[i * width + j]
                cells[at] = (cells[at] + rng.randrange(1, q)) % q
        reads.append((blocks, code._shaped(cells)))
    other = code._shaped([rng.randrange(q) for _ in range(code.base_length)])
    return reads + [(2 * outer.t + 2, other)]


@pytest.mark.parametrize("spec", NO_CHECK_CELLS)
def test_a_code_without_check_cells_does_no_part_work(spec, monkeypatch):
    """With ``_BlockCode._parts`` made to raise, the public ``decode``,
    with and without ``count``, and ``verify``, with and without
    ``count``, give the outcomes and counts they give without the patch,
    on reads with up to 2t + 1 damaged blocks and on another word.  Every
    pattern decoded within the capability has the blocks
    (``oracle.split_blocks``) of the read's error word, and every
    accepted verify recovers the blocks of the enrolled word."""
    code = fresh(spec)
    assert code._chk == 0 and code.segments == ((code.outer.redundancy, code.outer.field),)
    word = seeded_words(code, 0x5C, 1)[0]
    template = enroll(word, code)
    q, t = code.alphabet.order, code.outer.t
    reads = damaged_reads(code, word, 0x5D)
    errors = [code._shaped([(a - b) % q for a, b in zip(oracle.cells(code, read),
                                                         oracle.cells(code, word))])
              for _, read in reads]

    def blocks(w):
        return oracle.split_blocks(code, oracle.gather(code, w))

    def run():
        out = []
        for (damaged, read), error in zip(reads, errors):
            synd = code.syndrome(error)
            for count in (False, True):
                pattern = counted(code.decode, synd, False, count)
                if damaged <= t:
                    assert pattern[0] == error and blocks(pattern[0]) == blocks(error)
                result = counted(lambda: tuple(verify(read, template, code=code, count=count)))
                if damaged <= t:
                    assert result[0][0] and blocks(result[0][1]) == blocks(word)
                out += [pattern, result]
        return out

    expected = run()

    def no_parts(self, res):
        raise AssertionError("a code without check cells read its block parts")

    monkeypatch.setattr(rs._BlockCode, "_parts", no_parts)
    assert run() == expected
    assert any(type(got) is str for got, _ in expected)  # some decode fails
