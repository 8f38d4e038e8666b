import random

import pytest

from synfuzz.channel import Rng, gen_burst_1d, gen_burst_2d, gen_mixed
from synfuzz.concat import (
    ConcatCode,
    FlatLayout,
    IvLayout,
    TrivialCode,
    ViLayout,
    VLayout,
)
from synfuzz.errors import (
    DecodeFailure,
    IndexOutOfRangeError,
    QueryUnsupportedError,
    ShapeMismatchError,
)
from synfuzz.expand import ExpandedCode
from synfuzz.gf import ExtField
from synfuzz.rs import BchCode, RsCode, _pack_bits, _pack_runs, _unpack_bits


@pytest.fixture(scope="module")
def flat_small():
    # Hamming inner, outer over gf(2^4)
    return ConcatCode(BchCode(2, 3, 1), RsCode(ExtField(2, 4), 15, 13), FlatLayout())


@pytest.fixture(scope="module")
def iv_code():
    return ConcatCode(
        BchCode(2, 3, 1), RsCode(ExtField(2, 4), 15, 11), IvLayout(a=7, b=5)
    )


@pytest.fixture(scope="module")
def v_code():
    return ConcatCode(
        BchCode(2, 4, 2), RsCode(ExtField(2, 7), 16, 8), VLayout(a=4, b=5)
    )


@pytest.fixture(scope="module")
def vi_code():
    return ConcatCode(
        BchCode(5, 1, 1), RsCode(ExtField(5, 2), 8, 4), ViLayout()
    )


def test_dimension_invariants(iv_code, v_code, vi_code):
    assert iv_code.base_length == 15 * 7
    assert iv_code.base_dimension == 11 * 4
    assert iv_code.shape == (21, 5)
    assert v_code.shape == (12, 20)
    assert vi_code.shape == (4, 8)


def test_inner_dimension_must_match_outer_degree():
    inner = BchCode(2, 4, 2)  # k = 7
    with pytest.raises(ShapeMismatchError):
        ConcatCode(inner, RsCode(ExtField(2, 4), 15, 11), FlatLayout())


def test_layout_divisibility_checks():
    inner = BchCode(2, 3, 1)
    outer = RsCode(ExtField(2, 4), 15, 11)
    with pytest.raises(ShapeMismatchError):
        ConcatCode(inner, outer, IvLayout(a=7, b=4))  # 4 does not divide 15
    with pytest.raises(ShapeMismatchError):
        ConcatCode(inner, outer, VLayout(a=4, b=7))
    with pytest.raises(ShapeMismatchError):
        # vi needs N >= n
        ConcatCode(BchCode(2, 4, 2), RsCode(ExtField(2, 7), 10, 4), ViLayout())


def test_iv_layout_literal_rows():
    # N=4, n=2, a=1, b=2: two rows of [c_{1,1} c_{2,1} c_{1,2} c_{2,2}] form
    cells = {}
    for i in range(1, 5):
        for p in range(1, 3):
            cells[IvLayout(1, 2).cell(4, 2, i, p)] = (i, p)
    assert [cells[(0, c)] for c in range(4)] == [(1, 1), (2, 1), (1, 2), (2, 2)]
    assert [cells[(1, c)] for c in range(4)] == [(3, 1), (4, 1), (3, 2), (4, 2)]


def test_v_layout_literal_row():
    # N=4, n=4, a=2, b=2: row 0 is [c_{1,1} c_{1,2} c_{2,1} c_{2,2}]
    cells = {}
    for i in range(1, 5):
        for p in range(1, 5):
            cells[VLayout(2, 2).cell(4, 4, i, p)] = (i, p)
    assert [cells[(0, c)] for c in range(4)] == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_vi_layout_literal_row():
    # N=4, n=2: second row is [c_{4,2} c_{1,2} c_{2,2} c_{3,2}]
    cells = {}
    for i in range(1, 5):
        for p in range(1, 3):
            cells[ViLayout().cell(4, 2, i, p)] = (i, p)
    assert [cells[(1, c)] for c in range(4)] == [(4, 2), (1, 2), (2, 2), (3, 2)]


def test_layout_index_is_a_bijection(iv_code, v_code, vi_code):
    for code in (iv_code, v_code, vi_code):
        rows, cols = code.shape
        seen = set()
        for i in range(1, code.N + 1):
            for p in range(1, code.n_in + 1):
                r, c = code.layout_index(i, p)
                assert 0 <= r < rows and 0 <= c < cols
                seen.add((r, c))
        assert len(seen) == rows * cols


def test_layout_index_range_checks(iv_code, flat_small):
    with pytest.raises(IndexOutOfRangeError):
        iv_code.layout_index(0, 1)
    with pytest.raises(IndexOutOfRangeError):
        iv_code.layout_index(1, 8)
    with pytest.raises(QueryUnsupportedError):
        flat_small.layout_index(1, 1)


def test_iv_window_distinctness_small():
    # every contiguous N/b x b window holds each inner code at most once
    for N, n, a, b in ((4, 2, 1, 2), (15, 7, 7, 5)):
        rows, cols = N * a // b, n * b // a
        owner = {}
        for i in range(1, N + 1):
            for p in range(1, n + 1):
                owner[IvLayout(a, b).cell(N, n, i, p)] = i
        hh, ww = N // b, b
        for r0 in range(rows - hh + 1):
            for c0 in range(cols - ww + 1):
                codes = [
                    owner[(r, c)]
                    for r in range(r0, r0 + hh)
                    for c in range(c0, c0 + ww)
                ]
                assert len(codes) == len(set(codes))


def test_vi_window_distinctness():
    N, n = 8, 4
    owner = {}
    for i in range(1, N + 1):
        for p in range(1, n + 1):
            owner[ViLayout().cell(N, n, i, p)] = i
    for r in range(n):  # 1 x n windows
        for c0 in range(N - n + 1):
            codes = [owner[(r, c)] for c in range(c0, c0 + n)]
            assert len(set(codes)) == n
    for c in range(N):  # n x 1 windows
        codes = [owner[(r, c)] for r in range(n)]
        assert len(set(codes)) == n


def test_v_tiles_are_contiguous(v_code):
    lay = v_code.layout
    tile_r = v_code.n_in // lay.b
    for i in range(1, v_code.N + 1):
        cells = {v_code.layout_index(i, p) for p in range(1, v_code.n_in + 1)}
        rs = {r for r, _ in cells}
        cs = {c for _, c in cells}
        assert len(cells) == v_code.n_in
        assert max(rs) - min(rs) + 1 == tile_r and min(rs) % tile_r == 0
        assert max(cs) - min(cs) + 1 == lay.b and min(cs) % lay.b == 0


def test_zero_message_encodes_to_zero(iv_code):
    word = iv_code.encode([0] * 11)
    assert word == iv_code.zero_word()


def test_flat_with_identity_inner_matches_row_expansion():
    outer = RsCode(ExtField(2, 3), 7, 3)
    code = ConcatCode(TrivialCode(2, 3), outer, FlatLayout())
    expanded = ExpandedCode.row_vector(outer)
    rng = random.Random(2)
    for _ in range(30):
        msg = [rng.randrange(8) for _ in range(3)]
        assert code.encode(msg) == expanded.expand(outer.encode(msg))


def test_codeword_syndrome_is_zero(flat_small, iv_code, v_code, vi_code):
    rng = random.Random(5)
    for code in (flat_small, iv_code, v_code, vi_code):
        order = code.outer.field.order
        msg = [rng.randrange(order) for _ in range(code.outer.k)]
        assert not any(code.syndrome(code.encode(msg)))


def test_syndrome_counts_match_redundancy(flat_small, iv_code, v_code, vi_code):
    for code in (flat_small, iv_code, v_code, vi_code):
        expected = code.base_length - code.base_dimension
        assert code.syndrome_symbol_count() == expected


def test_single_error_touches_one_inner_block(iv_code):
    rng = Rng(11)
    for _ in range(50):
        word = iv_code.zero_word()
        r, c = rng.below(iv_code.shape[0]), rng.below(iv_code.shape[1])
        word[r][c] = 1
        synd = iv_code.syndrome(word)
        r = iv_code.inner.redundancy
        rems = [synd[i * r : (i + 1) * r] for i in range(iv_code.N)]
        assert sum(1 for rem in rems if any(rem)) == 1


def test_composite_syndrome_linearity(v_code):
    rng = Rng(12)
    rows, cols = v_code.shape
    a = [[rng.below(2) for _ in range(cols)] for _ in range(rows)]
    b = [[rng.below(2) for _ in range(cols)] for _ in range(rows)]
    diff = [[x ^ y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    assert v_code.syndrome_sub(v_code.syndrome(a), v_code.syndrome(b)) == v_code.syndrome(diff)


def test_zero_syndrome_decodes_to_zero(iv_code):
    synd = iv_code.syndrome(iv_code.zero_word())
    assert iv_code.decode(synd) == iv_code.zero_word()


def test_flat_burst_bound(flat_small):
    # inner [7,4] t=1, outer [7,5] s=1: bursts up to n(s-1)+2t = 2
    bound = flat_small.capability("single_burst")
    assert bound == 2
    rng = Rng(13)
    for length in range(1, bound + 1):
        for offset in range(flat_small.base_length - length + 1):
            pat = gen_burst_1d(rng, flat_small.inner.field.prime, flat_small.base_length,
                               length, offset)
            assert flat_small.decode(flat_small.syndrome(pat.dense())) == pat.dense()


def test_flat_medium_burst():
    code = ConcatCode(
        BchCode(2, 4, 2), RsCode(ExtField(2, 7), 20, 8), FlatLayout()
    )
    bound = code.capability("single_burst")
    assert bound == 15 * 5 + 4
    rng = Rng(14)
    prime = code.inner.field.prime
    for _ in range(150):
        offset = rng.below(code.base_length - bound + 1)
        pat = gen_burst_1d(rng, prime, code.base_length, bound, offset)
        assert code.decode(code.syndrome(pat.dense())) == pat.dense()


def test_iv_bursts_plus_random(iv_code):
    count, dims = iv_code.capability("bursts")
    extra = iv_code.capability("random_errors")
    assert (count, dims, extra) == (1, (3, 5), 2)
    rng = Rng(15)
    prime = iv_code.inner.field.prime
    for _ in range(400):
        pat = gen_mixed(rng, prime, iv_code.shape, [dims] * count, random_errors=extra)
        assert iv_code.decode(iv_code.syndrome(pat.dense())) == pat.dense()


def test_v_rectangles(v_code):
    rects = v_code.capability("burst_rectangles")
    assert set(rects) == {(10, 1), (4, 6), (1, 16)}
    rng = Rng(16)
    prime = v_code.inner.field.prime
    rows, cols = v_code.shape
    for h, w in rects:
        for _ in range(150):
            pos = (rng.below(rows - h + 1), rng.below(cols - w + 1))
            pat = gen_burst_2d(rng, prime, v_code.shape, h, w, pos)
            assert v_code.decode(v_code.syndrome(pat.dense())) == pat.dense()


def test_v_burst_plus_off_tile_random_errors(v_code):
    """Random errors away from the burst are fine while no clean tile
    collects more than t of them."""
    rng = Rng(17)
    prime = v_code.inner.field.prime
    lay = v_code.layout
    tile_r = v_code.n_in // lay.b
    rows, cols = v_code.shape
    t = v_code.inner.t
    hits = 0
    while hits < 100:
        h, w = 4, 6  # the (2,2) rectangle
        pos = (rng.below(rows - h + 1), rng.below(cols - w + 1))
        pat = gen_mixed(rng, prime, v_code.shape, [(h, w)], random_errors=3)
        dense = pat.dense()
        burst_tiles = {
            (r // tile_r, c // lay.b)
            for r in range(pos[0], pos[0] + h)
            for c in range(pos[1], pos[1] + w)
        }
        per_tile = {}
        ok = True
        support = [(r, c) for r, row in enumerate(dense) for c, v in enumerate(row) if v]
        for r, c in support:
            tile = (r // tile_r, c // lay.b)
            if tile in burst_tiles:
                continue
            per_tile[tile] = per_tile.get(tile, 0) + 1
            if per_tile[tile] > t:
                ok = False
        if not ok:
            continue
        hits += 1
        assert v_code.decode(v_code.syndrome(dense)) == dense


def test_vi_thin_bursts(vi_code):
    count, shapes = vi_code.capability("thin_bursts")
    assert count == 1 and shapes == ((1, 4), (4, 1))
    rng = Rng(18)
    prime = vi_code.inner.field.prime
    rows, cols = vi_code.shape
    # exhaustive placements, randomized contents
    for r in range(rows):
        for c0 in range(cols - 4 + 1):
            for _ in range(10):
                pat = gen_burst_2d(rng, prime, vi_code.shape, 1, 4, (r, c0))
                assert vi_code.decode(vi_code.syndrome(pat.dense())) == pat.dense()
    for c in range(cols):
        for _ in range(10):
            pat = gen_burst_2d(rng, prime, vi_code.shape, 4, 1, (0, c))
            assert vi_code.decode(vi_code.syndrome(pat.dense())) == pat.dense()


def test_vi_diagonal_is_one_outer_error(vi_code):
    """Wiping a whole inner codeword along its diagonal costs exactly one
    outer error."""
    rng = Rng(19)
    for i in range(1, vi_code.N + 1):
        word = vi_code.zero_word()
        for p in range(1, vi_code.n_in + 1):
            r, c = vi_code.layout_index(i, p)
            word[r][c] = rng.nonzero(vi_code.inner.field.prime)
        pattern, info = vi_code.decode(vi_code.syndrome(word), with_info=True)
        assert pattern == word
        assert info.outer_error_count == 1
        touched = set(info.inner_failed) | set(info.outer_corrected)
        assert touched == {i - 1}


def test_erasure_mode_stretches_the_budget(v_code):
    """With failures decoded as erasures the outer code absorbs up to
    n-k wrecked blocks instead of (n-k)/2."""
    rng = Rng(20)
    prime = v_code.inner.field.prime
    wrecked = v_code.outer.redundancy - 1  # 7 > s = 4
    for _ in range(25):
        blocks = []
        chosen = set()
        while len(chosen) < wrecked:
            chosen.add(rng.below(v_code.N))
        word = v_code.zero_word()
        for i in sorted(chosen):
            for p in range(1, v_code.n_in + 1):
                if rng.below(2):
                    r, c = v_code.layout_index(i + 1, p)
                    word[r][c] = 1
        synd = v_code.syndrome(word)
        try:
            got = v_code.decode(synd)
        except DecodeFailure:
            # a wrecked block can masquerade as a lighter correctable one,
            # stealing budget; flagged-only patterns must still decode
            got = None
        if got is not None:
            assert got == word


def test_impostor_decode_stops_at_first_surplus_inner_failure(monkeypatch):
    """Once more inner blocks fail than the outer code can erase, decoding
    refuses at the (outer redundancy + 1)-th failure instead of decoding
    the remaining blocks."""
    code = ConcatCode(BchCode(2, 4, 2), RsCode(ExtField(2, 7), 40, 32), FlatLayout())
    rng = random.Random(21)
    word = [rng.randrange(2) for _ in range(code.base_length)]
    synd = code.syndrome(word)
    # the blocks whose packed remainder decode_packed refuses; the decode
    # erases each one, for which the inner _message_error returns None
    inner_decode = code.inner.decode_packed
    failing = 0
    for block in _pack_runs(word, code.n_in):
        remainder = code.inner.remainder(_unpack_bits([block], code.n_in))
        try:
            inner_decode(_pack_bits(remainder))
        except DecodeFailure:
            failing += 1
    assert failing > code.outer.redundancy + 1

    failures = []
    message_error = code._inner_decode  # the inner code's _message_error

    def counting(rem):
        error = message_error(rem)
        if error is None:
            failures.append(rem)
        return error

    monkeypatch.setattr(code, "_inner_decode", counting)
    with pytest.raises(DecodeFailure):
        code.decode(synd)
    assert len(failures) == code.outer.redundancy + 1


def test_v_bound_rectangles_touch_at_most_s_tiles(v_code):
    """Every placement of every guaranteed rectangle intersects at most s
    inner-code tiles (counted exhaustively)."""
    lay = v_code.layout
    tile_r = v_code.n_in // lay.b
    s = v_code.outer_t
    rows, cols = v_code.shape
    for h, w in v_code.capability("burst_rectangles"):
        for r0 in range(rows - h + 1):
            for c0 in range(cols - w + 1):
                tiles = {
                    (r // tile_r, c // lay.b)
                    for r in range(r0, r0 + h)
                    for c in range(c0, c0 + w)
                }
                assert len(tiles) <= s


def test_capability_query_rejects_wrong_layout(iv_code):
    with pytest.raises(QueryUnsupportedError):
        iv_code.capability("single_burst")


def test_v_reproduces_square_expansion_bit_for_bit():
    outer = RsCode(ExtField(2, 4), 15, 7)
    square = ExpandedCode.square_array(outer, 3, 5)
    asv = ConcatCode(TrivialCode(2, 4), outer, VLayout(a=5, b=2))
    assert asv.shape == square.shape
    rng = random.Random(21)
    for _ in range(25):
        msg = [rng.randrange(16) for _ in range(7)]
        assert asv.encode(msg) == square.expand(outer.encode(msg))


def test_v_reproduces_companion_expansion_bit_for_bit():
    outer = RsCode(ExtField(2, 4), 15, 5)
    comp = ExpandedCode.companion_array(outer, 3, 5)
    m = 4
    rng = random.Random(22)
    for _ in range(25):
        word = [rng.randrange(16) for _ in range(15)]
        grid = comp.expand(word)
        rebuilt = [[0] * 20 for _ in range(12)]
        for i in range(1, 16):
            image = comp.rs.field.to_companion_matrix(word[i - 1])
            for u in range(m):
                for v in range(m):
                    r, c = VLayout(5, m).cell(15, m * m, i, u * m + v + 1)
                    rebuilt[r][c] = image[u][v]
        assert rebuilt == grid


def test_trivial_inner_code_surface():
    code = TrivialCode(2, 4)
    assert code.encode([1, 0, 1, 1]) == [1, 0, 1, 1]


@pytest.mark.parametrize(
    "build",
    [
        lambda: ConcatCode(BchCode(2, 4, 2), RsCode(ExtField(2, 7), 16, 8), VLayout(0, 5)),
        lambda: ConcatCode(BchCode(2, 4, 2), RsCode(ExtField(2, 7), 16, 8), IvLayout(7, 0)),
        lambda: ConcatCode(BchCode(2, 4, 2), RsCode(ExtField(2, 7), 16, 8), VLayout(-4, -5)),
        lambda: ExpandedCode.square_array(RsCode(ExtField(2, 4), 15, 7), -3, -5),
        lambda: ExpandedCode.companion_array(RsCode(ExtField(2, 4), 15, 5), -3, -5),
    ],
    ids=["v(0,5)", "iv(7,0)", "v(-4,-5)", "cII(-3,-5)", "cIII(-3,-5)"],
)
def test_layout_parameters_below_one_are_refused(build):
    """A layout parameter below 1 is a shape mismatch, not a division by
    zero or a code whose cells lie outside its word."""
    with pytest.raises(ShapeMismatchError):
        build()
