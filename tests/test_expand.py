import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from synfuzz.channel import Rng, gen_burst_1d, gen_burst_2d, gen_mixed
from synfuzz.codespec import parse_spec
from synfuzz.errors import (
    AlphabetMismatchError,
    DecodeFailure,
    ShapeMismatchError,
    ShapeUnsupportedError,
    SynfuzzError,
)
from synfuzz.expand import ExpandedCode
from synfuzz.fuzzy import canonical_bytes, enroll, verify
from synfuzz.gf import ExtField
from synfuzz.rs import RsCode


@pytest.fixture(scope="module")
def rs73():
    return RsCode(ExtField(2, 3), 7, 3)


@pytest.fixture(scope="module")
def rs157():
    return RsCode(ExtField(2, 4), 15, 7)


@pytest.fixture(scope="module")
def rs155():
    return RsCode(ExtField(2, 4), 15, 5)


@pytest.fixture(scope="module")
def c1(rs73):
    return ExpandedCode.row_vector(rs73)


@pytest.fixture(scope="module")
def c1p(rs73):
    return ExpandedCode.row_vector_parity(rs73)


@pytest.fixture(scope="module")
def c2(rs157):
    return ExpandedCode.square_array(rs157, 3, 5)


@pytest.fixture(scope="module")
def c3(rs155):
    return ExpandedCode.companion_array(rs155, 3, 5)


def test_derived_parameters(c1, c1p, c2, c3):
    assert c1.shape == (21,) and c1.base_dimension == 9
    assert c1p.shape == (28,) and c1p.base_dimension == 9
    assert c2.shape == (6, 10)
    assert c3.shape == (12, 20)
    assert c2.base_dimension == 4 * 7
    assert c3.base_dimension == 4 * 5


def test_square_array_needs_square_degree(rs73):
    with pytest.raises(ShapeUnsupportedError):
        ExpandedCode.square_array(rs73, 1, 7)  # m = 3 is not a square


def test_array_shape_must_factor_n(rs157):
    with pytest.raises(ShapeMismatchError):
        ExpandedCode.square_array(rs157, 3, 4)


def test_zero_word_expands_to_zero(c1, c1p, c2, c3):
    for code in (c1, c1p, c2, c3):
        zero = code.expand([0] * code.rs.n)
        assert zero == code.zero_word()


def test_row_vector_digit_layout(c1):
    word = [2] + [0] * 6  # alpha in the first position
    assert c1.expand(word)[:3] == [0, 1, 0]


def test_companion_layout_f4_literal():
    f4 = ExtField(2, 2)
    rs = RsCode(f4, 3, 1)
    code = ExpandedCode.companion_array(rs, 1, 3)
    grid = code.expand([2, 3, 1])  # alpha, alpha^2, 1
    assert grid == [[0, 1, 1, 1, 1, 0], [1, 1, 1, 0, 0, 1]]


def test_parity_blocks_sum_to_zero(c1p, rs73):
    rng = random.Random(1)
    for _ in range(50):
        word = rs73.encode([rng.randrange(8) for _ in range(3)])
        base = c1p.expand(word)
        assert len(base) == 28
        for i in range(7):
            assert sum(base[4 * i : 4 * i + 4]) % 2 == 0


def split(code, base):
    """The block symbols of a base word and their flat residuals."""
    syms, res = code._split_body(code._read(base))
    return list(syms), list(res)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 7), min_size=7, max_size=7))
def test_split_inverts_expand_row_kinds(word):
    """An expansion's blocks hold the word's symbols with zero residuals."""
    rs = RsCode(ExtField(2, 3), 7, 3)
    for code in (ExpandedCode.row_vector(rs), ExpandedCode.row_vector_parity(rs)):
        syms, res = split(code, code.expand(word))
        assert syms == word and not any(res)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 15), min_size=15, max_size=15))
def test_split_inverts_expand_array_kinds(word):
    rs = RsCode(ExtField(2, 4), 15, 7)
    for code in (
        ExpandedCode.square_array(rs, 3, 5),
        ExpandedCode.companion_array(rs, 3, 5),
    ):
        syms, res = split(code, code.expand(word))
        assert syms == word and not any(res)


def test_a_corrupted_tile_keeps_its_symbol_and_shows_a_residual(c3, c1p):
    """A block outside the expansion has a nonzero residual, and its
    symbol is still read off its coefficient digits."""
    grid = c3.expand([5] + [0] * 14)
    grid[0][1] ^= 1
    syms, res = split(c3, grid)
    assert syms[0] == 5 and any(res)
    # a flipped parity digit leaves the block outside the expansion too
    base = c1p.expand([5] + [0] * 6)
    base[3] ^= 1
    syms, res = split(c1p, base)
    assert syms[0] == 5 and res == [1] + [0] * 6


def test_expand_refuses_symbols_outside_the_field(c1, c1p, c2, c3):
    for code in (c1, c1p, c2, c3):
        n, order = code.rs.n, code.rs.field.order
        with pytest.raises(AlphabetMismatchError, match=f"symbol {order} outside"):
            code.expand([order] + [0] * (n - 1))
        with pytest.raises(ShapeMismatchError):
            code.expand([0] * (n + 1))


def test_codeword_syndrome_is_zero(c1, c1p, c2, c3):
    rng = random.Random(3)
    for code in (c1, c1p, c2, c3):
        msg = [rng.randrange(code.rs.field.order) for _ in range(code.rs.k)]
        base = code.expand(code.rs.encode(msg))
        assert not any(code.syndrome(base))


def test_syndrome_is_linear(c2, c3):
    rng = Rng(17)
    for code in (c2, c3):
        rows, cols = code.shape
        a = [[rng.below(2) for _ in range(cols)] for _ in range(rows)]
        b = [[rng.below(2) for _ in range(cols)] for _ in range(rows)]
        diff = [[(x - y) % 2 for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        assert code.syndrome_sub(code.syndrome(a), code.syndrome(b)) == code.syndrome(diff)


def test_single_flip_hits_one_extension_position(c1, rs73):
    f = rs73.field
    for flip in range(21):
        base = [0] * 21
        base[flip] = 1
        synd = c1.syndrome(base)
        i, d = divmod(flip, 3)
        e = 1 << d  # the unit coefficient vector of digit d
        for j in range(4):
            assert synd[j] == f.mul(e, f.alpha_pow((1 + j) * i))


def test_capability_formulas(c1, c2, c3):
    assert c1.capability(1, "1d") == 4
    assert c1.capability(2, "1d") == 1
    assert c2.capability(1, "square") == 3
    assert c2.capability(1, "1d") == 2 * (4 - 1) + 1
    assert c3.capability(1, "square") == 5
    with pytest.raises(ShapeUnsupportedError):
        c1.capability(1, "square")
    with pytest.raises(ShapeUnsupportedError):
        c1.capability(0)


def test_capability_clamps_to_zero(rs73):
    code = ExpandedCode.row_vector(rs73)
    assert code.capability(3, "1d") == 0  # floor(4/6) = 0 gives a negative bound


def test_single_burst_correction_row_vector(c1):
    """Every burst up to the bound, every offset, random contents."""
    rng = Rng(101)
    cap = c1.capability(1, "1d")
    for length in range(1, cap + 1):
        for offset in range(21 - length + 1):
            for _ in range(20):
                pat = gen_burst_1d(rng, c1.rs.field.prime, 21, length, offset)
                synd = c1.syndrome(pat.dense())
                assert c1.decode(synd) == pat.dense()


def test_two_bursts_row_vector(c1):
    rng = Rng(102)
    cap = c1.capability(2, "1d")
    assert cap == 1
    for _ in range(300):
        pat = gen_mixed(rng, c1.rs.field.prime, (21,), [cap, cap])
        synd = c1.syndrome(pat.dense())
        assert c1.decode(synd) == pat.dense()


def test_square_burst_correction(c2):
    rng = Rng(103)
    side = c2.capability(1, "square")
    rows, cols = c2.shape
    for _ in range(500):
        pos = (rng.below(rows - side + 1), rng.below(cols - side + 1))
        pat = gen_burst_2d(rng, c2.rs.field.prime, c2.shape, side, side, pos)
        synd = c2.syndrome(pat.dense())
        assert c2.decode(synd) == pat.dense()


def test_companion_square_burst_correction(c3):
    rng = Rng(104)
    side = c3.capability(1, "square")
    rows, cols = c3.shape
    for _ in range(500):
        pos = (rng.below(rows - side + 1), rng.below(cols - side + 1))
        pat = gen_burst_2d(rng, c3.rs.field.prime, c3.shape, side, side, pos)
        synd = c3.syndrome(pat.dense())
        assert c3.decode(synd) == pat.dense()


def test_parity_variant_burst_correction(c1p):
    """Default mode ignores parity for decoding but still reconstructs the
    parity digits exactly."""
    rng = Rng(105)
    cap = c1p.capability(1, "1d")
    assert cap == 4
    for length in range(1, cap + 1):
        for offset in range(28 - length + 1):
            for _ in range(10):
                pat = gen_burst_1d(rng, c1p.rs.field.prime, 28, length, offset)
                synd = c1p.syndrome(pat.dense())
                assert c1p.decode(synd) == pat.dense()


def test_parity_erasure_assist_mode(c1p):
    rng = Rng(106)
    # blocks flagged by a parity violation are decoded as erasures, so
    # patterns touching up to n-k blocks (each with a parity-visible hit)
    # are correctable, beyond the errors-only bound
    for _ in range(200):
        blocks = sorted(rng.below(7) for _ in range(2))
        base = [0] * 28
        touched = set()
        for blk in blocks:
            pos = blk * 4 + rng.below(4)
            base[pos] = 1
            touched.add(blk)
        if len(touched) != 2:
            continue
        synd = c1p.syndrome(base)
        assert c1p.decode(synd) == base


def test_more_parity_erasures_than_redundancy_is_a_decode_failure():
    code = parse_spec("cI+parity(rs(15,7;gf(2^4)))")
    assert code.rs.redundancy == 8
    width = code.rs.field.m + 1
    noise = [0] * code.base_length
    for blk in range(9):  # one digit per block breaks its parity
        noise[blk * width] = 1
    with pytest.raises(DecodeFailure):
        code.decode(code.syndrome(noise))
    rng = random.Random(107)
    word = [rng.randrange(2) for _ in range(code.base_length)]
    template = enroll(word, code)
    result = verify([a ^ b for a, b in zip(word, noise)], template, code=code)
    assert (result.accepted, result.reason) == (False, "DecodeFailure")


def test_tile_corruption_count_worst_case(c2):
    """A side-x burst can touch at most (ceil((x-1)/sqrt(m)) + 1)^2 tiles."""
    sm = c2.sm
    rows, cols = c2.shape
    for side in range(1, 7):
        bound = (math.ceil((side - 1) / sm) + 1) ** 2
        worst = 0
        for r0 in range(rows - side + 1):
            for c0 in range(cols - side + 1):
                tiles = {
                    (r // sm, c // sm)
                    for r in range(r0, r0 + side)
                    for c in range(c0, c0 + side)
                }
                worst = max(worst, len(tiles))
        assert worst <= bound


def test_capability_soundness_all_kinds_and_counts(c1, c1p, c2, c3):
    """Every (burst count, shape) pair with a positive bound decodes at the
    bound size; 1D bursts on arrays run both horizontally and vertically."""
    rng = Rng(200)
    for code in (c1, c1p, c2, c3):
        prime = code.rs.field.prime
        for l in (1, 2):
            cap = code.capability(l, "1d")
            if cap > 0 and not code.is_array:
                for _ in range(150):
                    pat = gen_mixed(rng, prime, code.shape, [cap] * l)
                    assert code.decode(code.syndrome(pat.dense())) == pat.dense()
            if code.is_array:
                rows, cols = code.shape
                if cap > 0:
                    for _ in range(150):
                        # horizontal and vertical lines at the 1D bound
                        hlen = min(cap, cols)
                        r = rng.below(rows)
                        c0 = rng.below(cols - hlen + 1)
                        pat = gen_burst_2d(rng, prime, code.shape, 1, hlen, (r, c0))
                        assert code.decode(code.syndrome(pat.dense())) == pat.dense()
                        vlen = min(cap, rows)
                        r0 = rng.below(rows - vlen + 1)
                        c = rng.below(cols)
                        pat = gen_burst_2d(rng, prime, code.shape, vlen, 1, (r0, c))
                        assert code.decode(code.syndrome(pat.dense())) == pat.dense()
                side = code.capability(l, "square")
                if side > 0:
                    for _ in range(150):
                        pat = gen_mixed(rng, prime, code.shape, [(side, side)] * l)
                        assert code.decode(code.syndrome(pat.dense())) == pat.dense()


def test_oversize_bursts_sometimes_fail(c1, c2):
    """One tile-size above the bound, decoding to the injected pattern must
    break down in some trials (recorded, not per-trial)."""
    rng = Rng(107)
    failures = 0
    length = c1.capability(1, "1d") + 3
    for _ in range(60):
        offset = rng.below(21 - length + 1)
        pat = gen_burst_1d(rng, c1.rs.field.prime, 21, length, offset)
        try:
            got = c1.decode(c1.syndrome(pat.dense()))
            if got != pat.dense():
                failures += 1
        except DecodeFailure:
            failures += 1
    side = c2.capability(1, "square") + c2.sm
    rows, cols = c2.shape
    for _ in range(60):
        pos = (rng.below(rows - side + 1), rng.below(cols - side + 1))
        pat = gen_burst_2d(rng, c2.rs.field.prime, c2.shape, side, side, pos)
        try:
            got = c2.decode(c2.syndrome(pat.dense()))
            if got != pat.dense():
                failures += 1
        except DecodeFailure:
            failures += 1
    assert failures > 0


def test_syndrome_symbol_counts(c1, c1p, c2, c3):
    assert c1.syndrome_symbol_count() == 4 * 3
    assert c1p.syndrome_symbol_count() == 4 * 3 + 7
    assert c2.syndrome_symbol_count() == 8 * 4
    assert c3.syndrome_symbol_count() == 10 * 4 + 15 * 4 * 3


@pytest.mark.parametrize(
    "kind,p,m,lengths",
    [
        ("square-array", 2, 4, (15, 12)),
        ("square-array", 3, 4, (80, 72)),
        ("companion-array", 2, 3, (7, 6)),
        ("companion-array", 3, 2, (8, 6)),
        ("companion-array", 2, 4, (15, 12)),
        ("square-array", 5, 1, (4, 3)),
        ("companion-array", 5, 1, (4, 3)),
    ],
)
def test_layout_places_cells_as_the_tile_formula(kind, p, m, lengths):
    """Every n1 x n2 split of full and shortened codes is placed, shaped and
    its syndrome laid out as the tile arithmetic of tests/oracle.py says;
    the row kinds over the same codes build no block order."""
    field = ExtField(p, m)
    for n in lengths:
        rs = RsCode(field, n, n - 2)
        for kind_row in ("row-vector", "row-vector-parity"):
            code = ExpandedCode(rs, kind_row)
            assert (code.shape, code.segments, code._block_order()) == \
                oracle.expansion_layout(kind_row, rs)
        for n1 in (d for d in range(1, n + 1) if n % d == 0):
            code = ExpandedCode(rs, kind, n1, n // n1)
            assert (code.shape, code.segments, code._block_order()) == \
                oracle.expansion_layout(kind, rs, n1, n // n1)


@pytest.mark.parametrize(
    "spec,alphabet,kind,n1,n2",
    [
        ("cI(rs(8,4;gf(3^2)))", "gf(3)", "row-vector", 1, 1),
        ("cII(rs(80,40;gf(3^4));8,10)", "gf(3)", "square-array", 8, 10),
        ("cII(rs(256,200;gf(257));16,16)", "gf(257)", "square-array", 16, 16),
    ],
)
def test_odd_p_expansions_without_check_cells(spec, alphabet, kind, n1, n2):
    """Odd-p expansions whose blocks hold only their symbol's digits, one
    a 2-D word of two-byte symbols: the syndrome is the RS syndrome of the
    blockwise contraction, a word with t damaged blocks verifies back to
    the enrolled one, and ``canonical_bytes`` is the oracle's row-major
    serialization."""
    code = parse_spec(spec)
    rs, p = code.rs, code.alphabet.order
    m = rs.field.m
    shape, _, order = oracle.expansion_layout(kind, rs, n1, n2)
    assert code.shape == shape
    size, cols = math.prod(shape), shape[-1]
    order = order or range(size)

    def word(flat):
        return flat if len(shape) == 1 else [flat[r * cols:(r + 1) * cols] for r in range(shape[0])]

    def contraction(flat):
        cells = [flat[at] for at in order]
        return [oracle.from_digits(cells[i * m:(i + 1) * m], p) for i in range(rs.n)]

    rng = random.Random(p * rs.n)
    flat = [rng.randrange(p) for _ in range(size)]
    assert code.syndrome(word(flat)) == rs.syndrome(contraction(flat))
    noisy = list(flat)
    for i in rng.sample(range(rs.n), rs.t):
        for at in order[i * m:(i + 1) * m]:
            noisy[at] = rng.randrange(p)
        at = order[i * m + rng.randrange(m)]
        noisy[at] = (flat[at] + rng.randrange(1, p)) % p
    assert code.syndrome(word(noisy)) == rs.syndrome(contraction(noisy))
    result = verify(word(noisy), enroll(word(flat), code), code=code)
    assert result.accepted and result.recovered == word(flat)
    assert canonical_bytes(code, word(flat)) == oracle.serialize(alphabet, p, shape, word(flat))


WIDE_PARITY = [("cI+parity(rs(20,12;gf(257)))", 257), ("cI+parity(rs(40,30;gf(65521)))", 65521)]


@pytest.mark.parametrize("spec,p", WIDE_PARITY)
def test_a_wide_prime_parity_expansion_corrects_one_cell_at_every_magnitude(spec, p):
    """Over gf(p), p > 256, a block's residual digit may exceed a byte.
    A read with one cell changed by 1, 255, 256 or p - 1 verifies back to
    the enrolled word, counted or not; one with a cell changed in every
    block but one, past the parity layout's erasure capability, is
    refused with DecodeFailure."""
    code = parse_spec(spec)
    rng = random.Random(47)
    word = code.expand(code.rs.encode([rng.randrange(p) for _ in range(code.rs.k)]))
    template = enroll(word, code)
    for magnitude in (1, 255, 256, p - 1):
        read = list(word)
        read[3] = (read[3] + magnitude) % p
        assert verify(read, template, code=code) == (True, word, None, None)
        assert verify(read, template, code=code, count=True)[:3] == (True, word, None)
    past = list(word)
    for block in range(code.rs.redundancy + 1):
        past[2 * block] = (past[2 * block] + 256) % p
    assert verify(past, template, code=code)[:3] == (False, None, "DecodeFailure")


@pytest.mark.parametrize("spec,p", WIDE_PARITY)
def test_a_wide_prime_parity_decode_raises_only_library_errors(spec, p):
    """Random syndromes, whose residual digits mostly exceed a byte,
    decode or raise a SynfuzzError."""
    code = parse_spec(spec)
    rng = random.Random(48)
    for _ in range(20):
        synd = [rng.randrange(p) for _ in range(code.syndrome_symbol_count())]
        try:
            code.decode(synd)
        except SynfuzzError:
            pass
