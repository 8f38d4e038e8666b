"""End-to-end acceptance suite.

Each test pins one verification target for the whole package: exhaustive
decoder oracles at desk scale, the guaranteed burst bounds of every
layout, the structural layout identities, the authentication round trip
for every construction, and the decoder cost scaling.  One PASS line per
criterion is printed (run with -s to see them on success).
"""

import itertools
import math
import time
import zlib

import pytest

from synfuzz.channel import Rng, gen_burst_1d, gen_burst_2d, gen_mixed
from synfuzz.codespec import parse_spec
from synfuzz.concat import ConcatCode, TrivialCode, VLayout
from synfuzz.expand import ExpandedCode
from synfuzz.fuzzy import enroll, verify
from synfuzz.gf import MUL_COUNTER, ExtField
from synfuzz.rs import RsCode


def _report(name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def _random_word(rng: Rng, shape, order):
    if len(shape) == 1:
        return [rng.below(order) for _ in range(shape[0])]
    return [[rng.below(order) for _ in range(shape[1])] for _ in range(shape[0])]


def test_c01_exhaustive_small_rs_oracle():
    """RS(7,3): every weight<=2 pattern decodes from its syndrome alone and
    the minimum distance is exactly n-k+1 = 5; all inside 5 seconds."""
    start = time.monotonic()
    code = RsCode(ExtField(2, 3), 7, 3)
    count = 0
    for positions in itertools.chain(
        itertools.combinations(range(7), 1), itertools.combinations(range(7), 2)
    ):
        for values in itertools.product(range(1, 8), repeat=len(positions)):
            err = [0] * 7
            for pos, val in zip(positions, values):
                err[pos] = val
            assert code.decode_syndrome(code.syndrome(err)) == err
            count += 1
    assert count == 1078
    min_weight = 7
    for msg in itertools.product(range(8), repeat=3):
        if msg == (0, 0, 0):
            continue
        w = sum(1 for c in code.encode(list(msg)) if c)
        min_weight = min(min_weight, w)
    assert min_weight == 5
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _report("01 exhaustive RS(7,3) oracle", f"{elapsed:.1f}s")


def test_c02_row_expansion_burst_bound():
    """Row expansion: every burst within the bound corrects, exhaustively on
    the small code and 10^4 randomized trials on RS(255,223); under 2 min."""
    start = time.monotonic()
    small = ExpandedCode.row_vector(RsCode(ExtField(2, 3), 7, 3))
    assert small.capability(1, "1d") == 4
    rng = Rng(0xC2)
    prime = small.rs.field.prime
    for length in range(1, 5):
        for offset in range(21 - length + 1):
            for _ in range(100):
                pat = gen_burst_1d(rng, prime, 21, length, offset)
                assert small.decode(small.syndrome(pat.dense())) == pat.dense()

    big = ExpandedCode.row_vector(RsCode(ExtField(2, 8), 255, 223))
    bound = big.capability(1, "1d")
    assert bound == 8 * 15 + 1 == 121
    nbase = big.shape[0]
    prime = big.rs.field.prime
    failures = 0
    for _ in range(10_000):
        length = 1 + rng.below(bound)
        offset = rng.below(nbase - length + 1)
        pat = gen_burst_1d(rng, prime, nbase, length, offset)
        if big.decode(big.syndrome(pat.dense())) != pat.dense():
            failures += 1
    assert failures == 0
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report("02 row-expansion burst bound", f"{elapsed:.1f}s")


def test_c03_parity_variant_structure_and_distance():
    """Parity blocks: length (m+1)n with zero block sums, and the doubled
    minimum distance confirmed by full enumeration of RS(7,5)."""
    rs75 = RsCode(ExtField(2, 3), 7, 5)
    code = ExpandedCode.row_vector_parity(rs75)
    assert code.shape == (28,)
    rng = Rng(0xC3)
    for _ in range(100):
        msg = [rng.below(8) for _ in range(5)]
        base = code.expand(rs75.encode(msg))
        for i in range(7):
            assert sum(base[4 * i : 4 * i + 4]) % 2 == 0
    d_plain = 3
    assert rs75.distance == d_plain
    min_weight = 28
    for m_int in range(1, 8**5):
        msg = [(m_int >> (3 * i)) & 7 for i in range(5)]
        base = code.expand(rs75.encode(msg))
        min_weight = min(min_weight, sum(1 for v in base if v))
    assert min_weight >= 2 * d_plain
    _report("03 parity variant structure", f"expanded min weight {min_weight}")


def test_c04_square_and_companion_burst_bounds():
    """Square tiles on the 6x10 array take any side-3 burst (10^4 trials)
    and the worst-case tile count matches the ceiling formula exhaustively;
    companion tiles on RS(15,5) take side-5 bursts (10^4 trials)."""
    square = ExpandedCode.square_array(RsCode(ExtField(2, 4), 15, 7), 3, 5)
    assert square.capability(1, "square") == 3
    rng = Rng(0xC4)
    prime = square.rs.field.prime
    rows, cols = square.shape
    for _ in range(10_000):
        pos = (rng.below(rows - 2), rng.below(cols - 2))
        pat = gen_burst_2d(rng, prime, square.shape, 3, 3, pos)
        assert square.decode(square.syndrome(pat.dense())) == pat.dense()
    sm = square.sm
    for side in range(1, 7):
        bound = (math.ceil((side - 1) / sm) + 1) ** 2
        for r0 in range(rows - side + 1):
            for c0 in range(cols - side + 1):
                tiles = {
                    (r // sm, c // sm)
                    for r in range(r0, r0 + side)
                    for c in range(c0, c0 + side)
                }
                assert len(tiles) <= bound

    comp = ExpandedCode.companion_array(RsCode(ExtField(2, 4), 15, 5), 3, 5)
    side = comp.capability(1, "square")
    assert side == 4 * (math.isqrt(5) - 1) + 1 == 5
    rows, cols = comp.shape
    prime = comp.rs.field.prime
    for _ in range(10_000):
        pos = (rng.below(rows - side + 1), rng.below(cols - side + 1))
        pat = gen_burst_2d(rng, prime, comp.shape, side, side, pos)
        assert comp.decode(comp.syndrome(pat.dense())) == pat.dense()
    _report("04 square/companion burst bounds")


def test_c05_concat_flat_burst_bound():
    """Two-step decoding takes every burst below n(s-1)+2t+1: inner
    [15,7] t=2, outer shortened with s=9, 10^4 bursts of length 124."""
    code = parse_spec(
        "concat(inner=bch(15,2;gf(2)), outer=rs(30,12;gf(2^7)), layout=flat)"
    )
    assert code.outer_t == 9
    bound = code.capability("single_burst")
    assert bound == 15 * 8 + 4 == 124
    rng = Rng(0xC5)
    prime = code.inner.field.prime
    for _ in range(10_000):
        offset = rng.below(code.base_length - bound + 1)
        pat = gen_burst_1d(rng, prime, code.base_length, bound, offset)
        assert code.decode(code.syndrome(pat.dense())) == pat.dense()
    _report("05 concatenated flat burst bound")


def test_c06_block_interleaver_structure_and_bursts():
    """Every N/b x b window of the block interleaver holds each inner code
    once (exhaustive); t window bursts plus s random errors always decode."""
    code = parse_spec(
        "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=iv(7,5))"
    )
    rows, cols = code.shape
    owner = {}
    for i in range(1, code.N + 1):
        for p in range(1, code.n_in + 1):
            owner[code.layout_index(i, p)] = i
    hh, ww = code.N // code.layout.b, code.layout.b
    for r0 in range(rows - hh + 1):
        for c0 in range(cols - ww + 1):
            seen = [
                owner[(r, c)] for r in range(r0, r0 + hh) for c in range(c0, c0 + ww)
            ]
            assert len(seen) == len(set(seen))

    count, dims = code.capability("bursts")
    extra = code.capability("random_errors")
    assert (count, dims, extra) == (1, (3, 5), 2)
    rng = Rng(0xC6)
    prime = code.inner.field.prime
    for _ in range(10_000):
        pat = gen_mixed(rng, prime, code.shape, [dims] * count, random_errors=extra)
        assert code.decode(code.syndrome(pat.dense())) == pat.dense()
    _report("06 block interleaver structure and bursts")


def test_c07_plain_and_diagonal_layouts():
    """The un-interleaved layout corrects its bound rectangle for every
    factor pair; the diagonal layout takes all thin bursts exhaustively and
    absorbs a full diagonal as exactly one outer error."""
    v_code = parse_spec(
        "concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))"
    )
    s = v_code.outer_t
    lay = v_code.layout
    tile_r = v_code.n_in // lay.b
    rng = Rng(0xC7)
    prime = v_code.inner.field.prime
    rows, cols = v_code.shape
    pairs = [
        (s1, s2) for s1 in range(1, s + 1) for s2 in range(1, s + 1) if s1 * s2 <= s
    ]
    for s1, s2 in pairs:
        h = (s1 - 1) * tile_r + 1
        w = (s2 - 1) * lay.b + 1
        for _ in range(1000):
            pos = (rng.below(rows - h + 1), rng.below(cols - w + 1))
            pat = gen_burst_2d(rng, prime, v_code.shape, h, w, pos)
            assert v_code.decode(v_code.syndrome(pat.dense())) == pat.dense()

    vi_code = parse_spec(
        "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)"
    )
    assert vi_code.inner.t == 1 and vi_code.shape == (4, 8)
    prime = vi_code.inner.field.prime
    rows, cols = vi_code.shape
    for r in range(rows):
        for c0 in range(cols - 4 + 1):
            for _ in range(25):
                pat = gen_burst_2d(rng, prime, vi_code.shape, 1, 4, (r, c0))
                assert vi_code.decode(vi_code.syndrome(pat.dense())) == pat.dense()
    for c in range(cols):
        for _ in range(25):
            pat = gen_burst_2d(rng, prime, vi_code.shape, 4, 1, (0, c))
            assert vi_code.decode(vi_code.syndrome(pat.dense())) == pat.dense()
    for i in range(1, vi_code.N + 1):
        word = vi_code.zero_word()
        for p in range(1, vi_code.n_in + 1):
            r, c = vi_code.layout_index(i, p)
            word[r][c] = rng.nonzero(prime)
        pattern, info = vi_code.decode(vi_code.syndrome(word), with_info=True)
        assert pattern == word
        assert info.outer_error_count == 1
        assert set(info.inner_failed) | set(info.outer_corrected) == {i - 1}
    _report("07 plain and diagonal layouts")


def test_c08_trivial_inner_special_cases():
    """With a trivial inner code the un-interleaved layout reproduces the
    square expansion exactly, and with the matrix encoding it reproduces
    the companion expansion, cell for cell."""
    outer = RsCode(ExtField(2, 4), 15, 7)
    square = ExpandedCode.square_array(outer, 3, 5)
    as_v = ConcatCode(TrivialCode(2, 4), outer, VLayout(a=5, b=2))
    assert as_v.shape == square.shape
    rng = Rng(0xC8)
    for _ in range(100):
        msg = [rng.below(16) for _ in range(7)]
        assert as_v.encode(msg) == square.expand(outer.encode(msg))

    outer5 = RsCode(ExtField(2, 4), 15, 5)
    comp = ExpandedCode.companion_array(outer5, 3, 5)
    m = 4
    for _ in range(100):
        word = [rng.below(16) for _ in range(15)]
        grid = comp.expand(word)
        rebuilt = [[0] * 20 for _ in range(12)]
        for i in range(1, 16):
            image = outer5.field.to_companion_matrix(word[i - 1])
            for u in range(m):
                for v in range(m):
                    r, c = VLayout(5, m).cell(15, m * m, i, u * m + v + 1)
                    rebuilt[r][c] = image[u][v]
        assert rebuilt == grid
    _report("08 trivial-inner special cases")


# the whole enrollable surface: (spec, in-capability perturbation factory)
def _in_capability_pattern(code, rng: Rng):
    prime = (
        code.field if isinstance(code, RsCode) else
        code.rs.field.prime if isinstance(code, ExpandedCode) else
        code.inner.field.prime
    )
    if isinstance(code, RsCode):
        err_positions = set()
        while len(err_positions) < code.t:
            err_positions.add(rng.below(code.n))
        word = [0] * code.n
        for pos in err_positions:
            word[pos] = rng.nonzero(code.field)
        shape = (code.n,)
        from synfuzz.channel import ErrorPattern

        return ErrorPattern(code.field, shape, tuple(word))
    if isinstance(code, ExpandedCode):
        if code.is_array:
            side = code.capability(1, "square")
            rows, cols = code.shape
            pos = (rng.below(rows - side + 1), rng.below(cols - side + 1))
            return gen_burst_2d(rng, prime, code.shape, side, side, pos)
        cap = code.capability(1, "1d")
        length = 1 + rng.below(cap)
        offset = rng.below(code.shape[0] - length + 1)
        return gen_burst_1d(rng, prime, code.shape[0], length, offset)
    lay = code.layout.spec_string().partition("(")[0]
    if lay == "flat":
        bound = code.capability("single_burst")
        length = 1 + rng.below(bound)
        offset = rng.below(code.base_length - length + 1)
        return gen_burst_1d(rng, prime, (code.base_length), length, offset)
    if lay == "iv":
        count, dims = code.capability("bursts")
        extra = code.capability("random_errors")
        return gen_mixed(rng, prime, code.shape, [dims] * count, random_errors=extra)
    if lay == "v":
        rects = code.capability("burst_rectangles")
        h, w = rects[rng.below(len(rects))]
        rows, cols = code.shape
        pos = (rng.below(rows - h + 1), rng.below(cols - w + 1))
        return gen_burst_2d(rng, prime, code.shape, h, w, pos)
    count, shapes = code.capability("thin_bursts")
    h, w = shapes[rng.below(len(shapes))]
    rows, cols = code.shape
    pos = (rng.below(rows - h + 1), rng.below(cols - w + 1))
    return gen_burst_2d(rng, prime, code.shape, h, w, pos)


def _far_pattern(code, rng: Rng):
    """Corrupt well past any capability: at least half of all symbols."""
    alpha = (
        code.field if isinstance(code, RsCode) else
        code.rs.field.prime if isinstance(code, ExpandedCode) else
        code.inner.field.prime
    )
    shape = (code.n,) if isinstance(code, RsCode) else code.shape
    from synfuzz.channel import ErrorPattern

    if len(shape) == 1:
        cells = [rng.nonzero(alpha) if rng.below(2) else 0 for _ in range(shape[0])]
        if sum(1 for v in cells if v) < shape[0] // 3:
            cells[rng.below(shape[0])] = rng.nonzero(alpha)
        return ErrorPattern(alpha, shape, tuple(cells))
    cells = [
        [rng.nonzero(alpha) if rng.below(2) else 0 for _ in range(shape[1])]
        for _ in range(shape[0])
    ]
    return ErrorPattern(alpha, shape, tuple(tuple(r) for r in cells))


ALL_CONSTRUCTIONS = [
    "cI(rs(15,7;gf(2^4)))",
    "cI+parity(rs(15,7;gf(2^4)))",
    "cII(rs(15,7;gf(2^4));3,5)",
    "cIII(rs(15,5;gf(2^4));3,5)",
    "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=flat)",
    "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=iv(7,5))",
    "concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))",
    "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)",
]


@pytest.mark.parametrize("spec", ALL_CONSTRUCTIONS)
def test_c09_fuzzy_round_trip_per_construction(spec):
    """Enroll, perturb within capability, verify: always Accept with the
    exact original; far perturbations never produce a false accept."""
    code = parse_spec(spec)
    rng = Rng(0xC9 ^ zlib.crc32(spec.encode()) & 0xFFFF)
    shape = (code.n,) if isinstance(code, RsCode) else code.shape
    order = (
        code.field.order if isinstance(code, RsCode) else
        code.rs.field.p if isinstance(code, ExpandedCode) else code.p
    )
    for _ in range(1000):
        x = _random_word(rng, shape, order)
        template = enroll(x, code)
        pat = _in_capability_pattern(code, rng)
        res = verify(pat.apply_to(x), template, code=code)
        assert res.accepted, f"{spec}: in-capability reject ({res.reason})"
        assert res.recovered == x
    false_accepts = 0
    for _ in range(1000):
        x = _random_word(rng, shape, order)
        template = enroll(x, code)
        pat = _far_pattern(code, rng)
        y = pat.apply_to(x)
        res = verify(y, template, code=code)
        if res.accepted and res.recovered != x:
            false_accepts += 1
    assert false_accepts == 0
    _report(f"09 fuzzy round trip [{spec}]")


def test_c09_odd_characteristic_orientation():
    """p=3 pins the difference orientation: recovered = presented + v."""
    code = parse_spec("rs(8,4;gf(3^2))")
    rng = Rng(0x39)
    for _ in range(300):
        x = [rng.below(9) for _ in range(8)]
        template = enroll(x, code)
        err = [0] * 8
        npos = 1 + rng.below(2)
        while sum(1 for v in err if v) < npos:
            err[rng.below(8)] = rng.nonzero(code.field)
        y = [code.field.add(a, b) for a, b in zip(x, err)]
        res = verify(y, template, code=code)
        assert res.accepted and res.recovered == x
    _report("09 odd-characteristic orientation")


def test_c10_decode_cost_scaling():
    """Decoder multiplication counts grow with n*(n-k): the measured ratio
    between RS(255,223) and RS(15,7) full-load decodes stays within a
    factor of two of the predicted one."""
    small = RsCode(ExtField(2, 4), 15, 7)
    big = RsCode(ExtField(2, 8), 255, 223)
    rng = Rng(0x10)

    def mean_full_load_mults(code, trials=30):
        total = 0
        for _ in range(trials):
            err = [0] * code.n
            chosen = set()
            while len(chosen) < code.t:
                chosen.add(rng.below(code.n))
            for pos in chosen:
                err[pos] = rng.nonzero(code.field)
            synd = code.syndrome(err)
            before = MUL_COUNTER.count
            assert code.decode_syndrome(synd, count=True) == err
            total += MUL_COUNTER.count - before
        return total / trials

    small_cost = mean_full_load_mults(small)
    big_cost = mean_full_load_mults(big)
    predicted = (big.n * big.redundancy) / (small.n * small.redundancy)
    measured = big_cost / small_cost
    assert predicted / 2 <= measured <= predicted * 2, (
        f"measured {measured:.1f} vs predicted {predicted:.1f}"
    )
    _report(
        "10 decode cost scaling",
        f"measured {measured:.1f}, predicted {predicted:.1f}",
    )
