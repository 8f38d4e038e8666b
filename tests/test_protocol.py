"""The LinearCode protocol over every golden construction.

A base-field code states its block order once; LinearCode gathers words
through it and a decode maps the cells it rebuilt back through it.  Every decode first checks the
syndrome against the code's ``segments``.  The expansions and the
concatenations share one block format: a word splits into outer symbols
and check residuals and is rebuilt from them.
"""

import random
import struct

import pytest

import oracle
from synfuzz.codespec import parse_spec
from synfuzz.concat import TrivialCode
from synfuzz.errors import AlphabetMismatchError, DecodeFailure, ShapeMismatchError
from synfuzz.fuzzy import enroll, verify
from synfuzz.rs import BchCode

from test_golden import GOLDEN, WIDE_GOLDEN

SPECS = [g[1] for g in GOLDEN]
IDS = [g[0] for g in GOLDEN]
# Codes whose blocks already lie in row-major order.
ROW_MAJOR = (
    "concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)",
    "cI(rs(255,223;gf(2^8)))",
    "cI+parity(rs(15,7;gf(2^4)))",
)


def seeded_word(code, seed):
    rng = random.Random(seed)
    q = code.alphabet.order
    return code._shaped([rng.randrange(q) for _ in range(code.base_length)])


def one_cell_word(code, seed):
    """A word with one nonzero cell: noise every code corrects."""
    rng = random.Random(seed)
    flat = [0] * code.base_length
    flat[rng.randrange(code.base_length)] = rng.randrange(1, code.alphabet.order)
    return code._shaped(flat)


@pytest.mark.parametrize("stem,spec,shape,q,seed", GOLDEN, ids=IDS)
def test_scatter_inverts_gather(stem, spec, shape, q, seed):
    """The block order is a permutation of the cells, and the read's body
    holds the cells row-major."""
    code = parse_spec(spec)
    order = code._block_order()
    assert order is None or sorted(order) == list(range(code.base_length))
    word = seeded_word(code, seed)
    assert oracle.scatter(code, oracle.gather(code, word)) == word
    assert list(code._cells(code._read(word))) == oracle.cells(code, word)


@pytest.mark.parametrize("spec", ROW_MAJOR)
def test_row_major_codes_build_no_block_order(spec):
    """A one-row code's layout lists no block order: its order is the
    identity, packed as every block code's is."""
    code = parse_spec(spec)
    word = one_cell_word(code, 7)
    assert code.decode(code.syndrome(word)) == word
    assert code._block_order() is None
    assert vars(code)["_order"].tolist() == list(range(code.base_length))


BLOCK_GOLDEN = [g for g in GOLDEN + WIDE_GOLDEN if not g[1].startswith("rs(")]


@pytest.mark.parametrize("stem,spec,shape,q,seed", BLOCK_GOLDEN, ids=[g[0] for g in BLOCK_GOLDEN])
def test_each_block_takes_its_slice_of_the_block_order(stem, spec, shape, q, seed):
    """A block's offsets are its cells in block-format order: its slice
    of the layout's block order, or of the identity for a one-row code,
    in any order of blocks."""
    code = parse_spec(spec)
    order, width = code._block_order() or range(code.base_length), code._width
    blocks = list(range(code.outer.n))
    random.Random(seed).shuffle(blocks)
    assert list(code._offsets(blocks)) == [at for i in blocks for at in order[i * width : (i + 1) * width]]
    assert list(code._offsets(range(code.outer.n))) == list(order)


def test_block_order_is_built_once():
    code = parse_spec("cIII(rs(15,5;gf(2^4));3,5)")
    code.syndrome(code.zero_word())
    order = vars(code)["_order"]
    code.decode(code.syndrome(one_cell_word(code, 3)))
    assert vars(code)["_order"] is order


def malformed(code, kind, seed):
    values = list(code.syndrome(one_cell_word(code, seed)))
    if kind == "none":
        return None
    if kind == "short":
        return values[:-1]
    if kind == "long":
        return values + [0]
    if kind == "first-run":
        values[0] = code.segments[0][1].order
    elif kind == "float":
        values[0] = 0.5
    elif kind == "str":
        values[-1] = "1"
    else:
        values[-1] = code.segments[-1][1].order
    return values


@pytest.mark.parametrize("kind", ["none", "short", "long", "first-run", "last-run", "float", "str"])
@pytest.mark.parametrize("stem,spec,shape,q,seed", GOLDEN, ids=IDS)
def test_decode_refuses_a_syndrome_that_does_not_fit_the_segments(
    stem, spec, shape, q, seed, kind
):
    """A missing syndrome or a wrong length is a ShapeMismatchError, and a
    symbol that is not an int of its run's field an
    AlphabetMismatchError, never a bare TypeError; no pattern is
    returned."""
    code = parse_spec(spec)
    error = ShapeMismatchError if kind in ("none", "short", "long") else AlphabetMismatchError
    synd = malformed(code, kind, seed)
    with pytest.raises(error):
        code.decode(synd if synd is None else tuple(synd))


# Every reader of a word besides a code's syndrome: (name, call, a word
# it accepts).
VI_CONCAT = "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)"
WORD_READERS = [
    ("rs encode", lambda w: parse_spec("rs(7,3;gf(2^3))").encode(w), [0, 0, 0]),
    ("concat encode", lambda w: parse_spec(VI_CONCAT).encode(w), [0, 0, 0, 0]),
    ("expand", lambda w: parse_spec("cI(rs(7,3;gf(2^3)))").expand(w), [0] * 7),
    ("bch remainder", lambda w: BchCode(5, 1, 1).remainder(w), [0] * 4),
    ("bch syndrome", lambda w: BchCode(2, 4, 2).syndrome(w), [0] * 15),
    ("trivial encode", lambda w: TrivialCode(2, 4).encode(w), [0] * 4),
]


@pytest.mark.parametrize("read,word", [(r[1], r[2]) for r in WORD_READERS],
                         ids=[r[0] for r in WORD_READERS])
def test_every_word_reader_refuses_a_word_that_does_not_fit(read, word):
    """A missing word, a float cell, a wrong length: a ShapeMismatchError,
    never a bare TypeError or a non-int symbol in the result."""
    read(word)
    for bad in (None, 7, [0.5] + word[1:], ["1"] + word[1:], word[1:], word + [0]):
        with pytest.raises(ShapeMismatchError):
            read(bad)


# ---------------------------------------------------------------------------
# the block core shared by the expansions and the concatenations
# ---------------------------------------------------------------------------

BLOCK_GOLDEN = [g for g in GOLDEN if not g[1].startswith("rs(")]
BLOCK_IDS = [g[0] for g in BLOCK_GOLDEN]
BCH63_CONCAT = "concat(inner=bch(63,11;gf(2)), outer=rs(20,12;gf(2^16)), layout=flat)"
CONCATS = [g[1] for g in GOLDEN if g[1].startswith("concat")] + [BCH63_CONCAT]


def codeword(code, seed):
    """A seeded codeword from the code's own encoder."""
    rng = random.Random(seed)
    outer = code.outer
    message = [rng.randrange(outer.field.order) for _ in range(outer.k)]
    if hasattr(code, "expand"):
        return code.expand(outer.encode(message))
    return code.encode(message)


def split(code, word):
    """The outer symbols of a word's blocks and their flat residuals, from
    the body of its one read.  A binary code over F_{2^m}, m > 8, splits
    its symbols into the outer kernel's packed little-endian bytes, two a
    symbol, read back here as ints."""
    syms, res = code._split_body(code._read(word))
    if code.alphabet.p == 2 and code.outer.field.m > 8:
        syms = struct.unpack(f"<{code.outer.n}H", syms)
    return syms, res


def parts_of(code, res):
    """The block parts of flat residuals, none without check cells."""
    return code._parts(res) if code._chk else []


def add_words(code, a, b):
    add = code.alphabet.add
    return code._shaped(list(map(add, oracle.cells(code, a), oracle.cells(code, b))))


@pytest.mark.parametrize("stem,spec,shape,q,seed", BLOCK_GOLDEN, ids=BLOCK_IDS)
def test_rebuild_inverts_split(stem, spec, shape, q, seed):
    """On a freshly parsed code, which builds its tables and block order,
    and on a warm re-parse, which finds the tables cached."""
    for code in (parse_spec(spec), parse_spec(spec)):
        for k in range(3):
            word = seeded_word(code, seed + k)
            syms, res = split(code, word)
            assert len(syms) == code.outer.n and len(res) == code.outer.n * code._chk
            assert code._rebuild(syms, parts_of(code, res)) == word
        syms, res = split(code, code.zero_word())
        assert code._rebuild(syms, parts_of(code, res)) == code.zero_word()


@pytest.mark.parametrize("stem,spec,shape,q,seed", BLOCK_GOLDEN, ids=BLOCK_IDS)
def test_residuals_vanish_exactly_on_valid_blocks(stem, spec, shape, q, seed):
    """A codeword has no residual and a zero outer syndrome; a seeded word
    has a residual exactly where a block is not its symbol's fill, and a
    damaged check cell shows in its own block alone."""
    for code in (parse_spec(spec), parse_spec(spec)):
        zeros = [0] * code.outer.n
        word = codeword(code, seed)
        syms, res = split(code, word)
        assert not any(res) and not any(code.outer.syndrome(syms))
        for k in range(3):
            noisy = seeded_word(code, seed + k)
            syms, res = split(code, noisy)
            valid = code._rebuild(syms, zeros)
            valid_syms, valid_res = split(code, valid)
            assert valid_syms == syms and not any(valid_res)
            assert any(res) == (valid != noisy) == (code._chk > 0)
        if code._chk:
            block = code.outer.n // 2
            cells = [0] * code.base_length
            cells[block * code._width + code._chk_at] = 1
            damaged = add_words(code, word, oracle.scatter(code, cells))
            parts = code._parts(split(code, damaged)[1])
            assert [i for i, part in enumerate(parts) if part] == [block]


@pytest.mark.parametrize("spec", CONCATS)
def test_table_residual_is_the_inner_remainder(spec):
    """A concatenation's residual, from check tables over F_2, is each
    block's remainder modulo the inner generator."""
    code = parse_spec(spec)
    n, r = code.n_in, code.inner.redundancy
    for k in range(3):
        word = seeded_word(code, 400 + k)
        res = split(code, word)[1]
        cells = oracle.gather(code, word)
        for i in range(code.N):
            block = list(cells[i * n : (i + 1) * n])
            assert tuple(res[i * r : (i + 1) * r]) == code.inner.remainder(block)


# The binary block codes: every golden one, a wide-symbol expansion and a
# concatenation with m = 16 and 47 check digits per block.
BINARY_BLOCK = [g for g in BLOCK_GOLDEN + list(WIDE_GOLDEN) if g[3] == 2]
assert BCH63_CONCAT in [g[1] for g in BINARY_BLOCK]


@pytest.mark.parametrize("stem,spec,shape,q,seed", BINARY_BLOCK, ids=[g[0] for g in BINARY_BLOCK])
def test_lane_split_matches_the_per_block_oracle(stem, spec, shape, q, seed):
    """The bit-lane split gives the symbols and residual digits of the
    block-by-block reference, on seeded words, a codeword, the zero word
    and the all-ones word."""
    code = parse_spec(spec)
    words = [seeded_word(code, seed + k) for k in range(3)]
    words += [codeword(code, seed), code.zero_word(), code._shaped([1] * code.base_length)]
    for word in words:
        syms, res = split(code, word)
        expected = oracle.split_blocks(code, oracle.gather(code, word))
        assert (list(syms), list(res)) == expected


@pytest.mark.parametrize("stem,spec,shape,q,seed", BLOCK_GOLDEN + list(WIDE_GOLDEN),
                         ids=[g[0] for g in BLOCK_GOLDEN + list(WIDE_GOLDEN)])
def test_few_block_split_matches_the_lane_split(stem, spec, shape, q, seed):
    """The decoder's re-check re-reads a few rebuilt blocks block by
    block (``_read_blocks`` on a partial run): every run of three
    consecutive blocks gives the symbols and parts of those blocks in the
    full split of the word's body, and every block's re-read alone its
    own."""
    code = parse_spec(spec)
    width, n = code._width, code.outer.n
    for word in (seeded_word(code, seed), codeword(code, seed), code.zero_word()):
        cells = oracle.gather(code, word)
        syms, res = split(code, word)
        parts = list(parts_of(code, res))
        for i in range(n - 2):
            few_syms, few_parts = code._read_blocks(cells[i * width : (i + 3) * width])
            assert few_syms == list(syms[i : i + 3]) and few_parts == parts[i : i + 3]
        assert code._read_blocks(cells) == (list(syms), parts)


@pytest.mark.parametrize("stem,spec,shape,q,seed", BINARY_BLOCK, ids=[g[0] for g in BINARY_BLOCK])
def test_binary_block_codes_refuse_cells_outside_gf2(stem, spec, shape, q, seed):
    """A digit 2, 255, 256 or -1 in any block is an AlphabetMismatchError,
    and a cell that is not an int a plain ShapeMismatchError, from the
    syndrome and from the read alike."""
    code = parse_spec(spec)
    flat = oracle.cells(code, seeded_word(code, seed))
    for at in (0, code.base_length // 2, code.base_length - 1):
        for bad, error in ((2, AlphabetMismatchError), (255, AlphabetMismatchError),
                           (256, AlphabetMismatchError), (-1, AlphabetMismatchError),
                           (0.0, ShapeMismatchError), ("1", ShapeMismatchError)):
            word = code._shaped(flat[:at] + [bad] + flat[at + 1 :])
            for read in (code.syndrome, code._read):
                with pytest.raises(ShapeMismatchError) as caught:
                    read(word)
                assert type(caught.value) is error


@pytest.mark.parametrize("spec", CONCATS)
def test_concat_decode_refuses_a_pattern_its_syndrome_does_not_reproduce(spec, monkeypatch):
    """The decoder re-checks its rebuilt pattern against the whole
    syndrome: an outer step that returns a wrong symbol error makes the
    decode fail instead of returning the pattern."""
    code = oracle.fresh_code(spec)  # patched below: keep the parse cache's code clean
    word = one_cell_word(code, 600)
    synd = code.syndrome(word)
    assert code.decode(synd) == word
    decode_blocks = code._decode_blocks

    def wrong(parts, outer_synd):
        errors, erasures, delta = decode_blocks(parts, outer_synd)
        e = errors.get(0, 0)
        errors[0] = e ^ 1 if code.p == 2 else (e + 1) % code.outer.field.order
        return errors, erasures, delta

    monkeypatch.setattr(code, "_decode_blocks", wrong)
    with pytest.raises(DecodeFailure, match="does not reproduce the syndrome"):
        code.decode(synd)


@pytest.mark.parametrize("spec", CONCATS)
def test_concat_decode_refuses_a_rebuilt_block_whose_residual_is_not_stored(spec, monkeypatch):
    """The sparse re-check recomputes each touched block's residual from
    its rebuilt cells: one check cell changed after the rebuild, which
    leaves every symbol as it was, makes the decode fail."""
    code = oracle.fresh_code(spec)  # patched below: keep the parse cache's code clean
    synd = code.syndrome(one_cell_word(code, 602))
    cells_of = code._cells_of
    order = code._block_order() or range(code.base_length)

    def changed(offsets, syms, parts):
        found = cells_of(offsets, syms, parts)
        at = order[next(iter(syms)) * code._width + code._chk_at]
        value = (found.pop(at, 0) + 1) % code.p
        if value:
            found[at] = value
        return found

    monkeypatch.setattr(code, "_cells_of", changed)
    with pytest.raises(DecodeFailure, match="does not reproduce the syndrome"):
        code.decode(synd)


@pytest.mark.parametrize("spec", CONCATS)
def test_concat_decode_refuses_a_pattern_that_leaves_out_a_damaged_block(spec, monkeypatch):
    """Every block outside the rebuilt ones must have a zero stored part:
    a check cell error changes no symbol, so a decode that left its block
    out would otherwise pass the residual and power sum checks."""
    code = oracle.fresh_code(spec)  # patched below: keep the parse cache's code clean
    cells = [0] * code.base_length
    cells[(code.outer.n // 2) * code._width + code._chk_at] = 1
    word = oracle.scatter(code, cells)
    synd = code.syndrome(word)
    assert code.decode(synd) == word
    decode_blocks = code._decode_blocks

    def none_touched(parts, outer_synd):
        return {}, *decode_blocks(parts, outer_synd)[1:]

    monkeypatch.setattr(code, "_decode_blocks", none_touched)
    with pytest.raises(DecodeFailure, match="does not reproduce the syndrome"):
        code.decode(synd)


@pytest.mark.parametrize("spec", [
    "rs(255,223;gf(2^8))",
    "cII(rs(15,7;gf(2^4));3,5)",
    "concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))",
    VI_CONCAT,
])
def test_a_list_syndrome_decodes_like_its_tuple(spec):
    code = parse_spec(spec)
    word = one_cell_word(code, 601)
    synd = code.syndrome(word)
    assert code.decode(list(synd)) == code.decode(synd) == word


# (spec, seed, damaged blocks, cells changed per damaged block)
ERASURE_CASES = (
    ("cI+parity(rs(15,7;gf(2^4)))", 501, 3, 1),
    ("cI+parity(rs(15,7;gf(2^4)))", 502, 8, 1),
    ("cI+parity(rs(8,4;gf(3^2)))", 503, 2, 1),
    ("cI+parity(rs(8,4;gf(3^2)))", 504, 4, 1),
    ("concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)", 505, 6, 5),
    ("concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))", 506, 4, 5),
    ("concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)", 507, 2, 4),
)


def erasure_read(code, seed, blocks, cells):
    """A seeded word and a read of it with ``cells`` cells changed in each
    of ``blocks`` seeded blocks."""
    rng = random.Random(seed)
    word = seeded_word(code, seed)
    noise = [0] * code.base_length
    width = code._width
    for i in rng.sample(range(code.outer.n), blocks):
        for at in rng.sample(range(width), cells):
            noise[i * width + at] = rng.randrange(1, code.alphabet.order)
    return word, add_words(code, word, oracle.scatter(code, noise))


def test_erasure_decodes_keep_their_mult_counts():
    """Erasure decodes of seeded reads count one multiplication per
    nonzero product, the erasure locator's included."""
    mults = []
    for spec, seed, blocks, cells in ERASURE_CASES:
        code = parse_spec(spec)
        word, read = erasure_read(code, seed, blocks, cells)
        result = verify(read, enroll(word, code), count=True)
        assert result.accepted and result.recovered == word
        synd = code.syndrome_sub(code.syndrome(word), code.syndrome(read))
        if hasattr(code, "inner"):
            assert code.decode(synd, with_info=True)[1].inner_failed
        mults.append(result.decode_mults)
    assert mults == [96, 320, 31, 92, 944, 163, 75]
