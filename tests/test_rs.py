import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synfuzz.errors import (
    AlphabetMismatchError,
    CapacityTooLargeError,
    DecodeFailure,
    IndexOutOfRangeError,
    LengthMismatchError,
    ShapeMismatchError,
    TooManyErasuresError,
)
from synfuzz.codespec import parse_spec
from synfuzz.gf import ExtField
from synfuzz.rs import BchCode, RsCode

import oracle


@pytest.fixture(scope="module")
def rs73():
    return RsCode(ExtField(2, 3), 7, 3)


@pytest.fixture(scope="module")
def rs157():
    return RsCode(ExtField(2, 4), 15, 7)


def test_parameters(rs73):
    assert rs73.redundancy == 4
    assert rs73.t == 2
    assert rs73.distance == 5
    assert len(rs73.generator) == 5


def test_generator_divides_x_n_minus_1(rs73):
    # x^7 - 1 over gf(2): coefficient list with 1 at degrees 0 and 7
    xn1 = [1] + [0] * 6 + [1]
    rem = oracle.poly_mod(2, xn1, [c for c in rs73.generator])
    # generator coefficients live in the extension field; reduce via the
    # field itself instead: evaluate x^7-1 at each generator root
    f = rs73.field
    for j in range(1, 5):
        root, power = f.alpha_pow(j), 1
        for _ in range(7):
            power = f.mul(power, root)
        assert power == 1
    assert rem is not None  # oracle call kept for the binary sanity path


def test_zero_message_encodes_to_zero(rs73):
    assert rs73.encode([0, 0, 0]) == [0] * 7


def test_encoded_words_have_zero_syndrome(rs73):
    rng = random.Random(7)
    for _ in range(50):
        msg = [rng.randrange(8) for _ in range(3)]
        word = rs73.encode(msg)
        assert not any(rs73.syndrome(word))
        # systematic: message sits in the high-order positions
        assert word[4:] == msg


def test_min_distance_is_exactly_five(rs73):
    # linear code: minimum distance equals minimum nonzero codeword weight
    best = 7
    for msg in itertools.product(range(8), repeat=3):
        if msg == (0, 0, 0):
            continue
        best = min(best, oracle.weight(rs73.encode(list(msg))))
    assert best == 5


def test_length_and_alphabet_checks(rs73):
    with pytest.raises(LengthMismatchError):
        rs73.encode([0, 0])
    with pytest.raises(LengthMismatchError):
        rs73.syndrome([0] * 6)
    with pytest.raises(AlphabetMismatchError):
        rs73.syndrome([0, 0, 0, 0, 0, 0, 9])


def test_zero_syndrome_decodes_to_zero(rs73):
    assert rs73.decode_syndrome((0, 0, 0, 0)) == [0] * 7


def test_single_error_syndrome_formula(rs73):
    f = rs73.field
    for i in range(7):
        for e in range(1, 8):
            word = [0] * 7
            word[i] = e
            synd = rs73.syndrome(word)
            for j in range(4):
                assert synd[j] == f.mul(e, f.alpha_pow((1 + j) * i))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(0, 7), min_size=7, max_size=7),
    st.lists(st.integers(0, 7), min_size=7, max_size=7),
)
def test_syndrome_linearity(u, v):
    code = RsCode(ExtField(2, 3), 7, 3)
    s = code.syndrome_sub(code.syndrome(u), code.syndrome(v))
    w = [code.field.sub(a, b) for a, b in zip(u, v)]
    assert s == code.syndrome(w)


def test_exhaustive_weight_le_2_decoding(rs73):
    """All 1078 patterns of weight <= 2 come back exactly from their syndrome."""
    count = 0
    for positions in itertools.chain(
        itertools.combinations(range(7), 1), itertools.combinations(range(7), 2)
    ):
        for values in itertools.product(range(1, 8), repeat=len(positions)):
            err = [0] * 7
            for pos, val in zip(positions, values):
                err[pos] = val
            assert rs73.decode_syndrome(rs73.syndrome(err)) == err
            count += 1
    assert count == 1078


def test_weight_3_never_claims_recovery(rs73):
    """Weight-3 patterns either fail or miscorrect; the returned vector is
    always syndrome-consistent and never falsely equal to the input."""
    for positions in itertools.combinations(range(7), 3):
        for values in itertools.product(range(1, 8), repeat=3):
            err = [0] * 7
            for pos, val in zip(positions, values):
                err[pos] = val
            synd = rs73.syndrome(err)
            try:
                got = rs73.decode_syndrome(synd)
            except DecodeFailure:
                continue
            assert got != err
            assert rs73.syndrome(got) == synd


def test_random_error_round_trip_rs157(rs157):
    rng = random.Random(157)
    n, k, t = rs157.n, rs157.k, rs157.t
    for _ in range(10_000):
        msg = [rng.randrange(16) for _ in range(k)]
        word = rs157.encode(msg)
        nerr = rng.randint(0, t)
        err = [0] * n
        for pos in rng.sample(range(n), nerr):
            err[pos] = rng.randrange(1, 16)
        noisy = [rs157.field.add(a, b) for a, b in zip(word, err)]
        synd = rs157.syndrome(noisy)
        assert rs157.decode_syndrome(synd) == err


def test_random_error_round_trip_rs255():
    code = RsCode(ExtField(2, 8), 255, 223)
    rng = random.Random(255)
    for _ in range(300):
        msg = [rng.randrange(256) for _ in range(223)]
        word = code.encode(msg)
        nerr = rng.randint(0, 16)
        err = [0] * 255
        for pos in rng.sample(range(255), nerr):
            err[pos] = rng.randrange(1, 256)
        noisy = [a ^ b for a, b in zip(word, err)]
        assert code.decode_syndrome(code.syndrome(noisy)) == err


@pytest.mark.parametrize(
    "code",
    [
        RsCode(ExtField(2, 4), 15, 7),
        RsCode(ExtField(3, 2), 8, 4),
        # locator degrees reach p, so Forney's derivative drops p | j terms
        RsCode(ExtField(5, 2), 24, 12),
        RsCode(ExtField(7, 2), 48, 30),
    ],
    ids=lambda code: code.spec_string(),
)
def test_errors_and_erasures(code):
    """Any pattern with 2e + f <= n-k is corrected when the f positions are flagged."""
    rng = random.Random(99)
    n, r, q = code.n, code.redundancy, code.field.order
    for _ in range(2000):
        f = rng.randint(0, r)
        e = rng.randint(0, (r - f) // 2)
        positions = rng.sample(range(n), f + e)
        erased, errcnt = positions[:f], positions[f:]
        err = [0] * n
        for pos in errcnt:
            err[pos] = rng.randrange(1, q)
        for pos in erased:
            err[pos] = rng.randrange(q)  # erased position may even be clean
        synd = code.syndrome(err)
        assert code.decode_syndrome(synd, erasures=erased) == err


def test_too_many_erasures(rs157):
    with pytest.raises(TooManyErasuresError):
        rs157.decode_syndrome((0,) * 8, erasures=list(range(9)))


# Codes on the region decoder (p = 2, m <= 8) and on the scalar one (odd p).
CHECKED_DECODERS = ["rs(15,11;gf(2^4))", "rs(8,4;gf(3^2))", "bch(15,2;gf(2))",
                    "rs(255,223;gf(2^8))"]


@pytest.mark.parametrize("spec", CHECKED_DECODERS)
@pytest.mark.parametrize("bad", ["q", "q+4", -1, "a"])
def test_decode_syndrome_refuses_a_symbol_outside_the_field(spec, bad):
    """The field order q, a larger value, -1 and a str, first or last in
    the syndrome, are each an AlphabetMismatchError, and a syndrome of the
    wrong length a LengthMismatchError: never a bare IndexError or
    ValueError from the decoder's tables."""
    code = parse_spec(spec)
    q = code.field.order
    value = {"q": q, "q+4": q + 4}.get(bad, bad)
    for at in (0, code.count - 1):
        synd = [0] * code.count
        synd[at] = value
        with pytest.raises(AlphabetMismatchError):
            code.decode_syndrome(tuple(synd))
    with pytest.raises(LengthMismatchError):
        code.decode_syndrome((0,) * (code.count + 1))


@pytest.mark.parametrize("spec", CHECKED_DECODERS[:2])
@pytest.mark.parametrize("erasures", [[1.5], ["1"], [None], ["n"], [-1], [0, "n"]],
                         ids=["float", "str", "none", "n", "minus-one", "zero-and-n"])
def test_erasure_positions_are_checked_once(spec, erasures):
    """A position that is not an int in 0 .. n-1 is an
    IndexOutOfRangeError on both decoders; repeats are one erasure."""
    code = parse_spec(spec)
    erasures = [code.n if e == "n" else e for e in erasures]
    with pytest.raises(IndexOutOfRangeError):
        code.decode_syndrome((0,) * code.count, erasures=erasures)
    repeated = [code.n - 1] * (code.count + 1)
    assert code.decode_syndrome((0,) * code.count, erasures=repeated) == [0] * code.n


def test_a_field_above_two_to_the_sixteen_is_refused_at_construction():
    """A template symbol holds at most two bytes, so an RS code over
    gf(2^17) is refused when it is built, with the ValueError of its n/k
    check, rather than failing later in its syndrome or its enrollment;
    gf(2^16) is still taken."""
    field = ExtField(2, 17, modulus=(1, 0, 0, 1) + (0,) * 13 + (1,))  # x^17 + x^3 + 1
    with pytest.raises(ValueError, match=r"at most 65536 elements, got gf\(2\^17;"):
        RsCode(field, 20, 12)
    assert RsCode(ExtField(2, 16), 20, 12).redundancy == 8


def test_shortened_code_round_trip():
    full = ExtField(2, 7)
    code = RsCode(full, 30, 12)
    assert code.is_shortened
    assert code.redundancy == 18
    rng = random.Random(30)
    for _ in range(200):
        msg = [rng.randrange(128) for _ in range(12)]
        word = code.encode(msg)
        assert not any(code.syndrome(word))
        err = [0] * 30
        for pos in rng.sample(range(30), rng.randint(0, 9)):
            err[pos] = rng.randrange(1, 128)
        noisy = [a ^ b for a, b in zip(word, err)]
        assert code.decode_syndrome(code.syndrome(noisy)) == err


def test_nonbinary_rs_round_trip():
    code = RsCode(ExtField(3, 2), 8, 4)
    rng = random.Random(9)
    for _ in range(500):
        msg = [rng.randrange(9) for _ in range(4)]
        word = code.encode(msg)
        assert not any(code.syndrome(word))
        err = [0] * 8
        for pos in rng.sample(range(8), rng.randint(0, 2)):
            err[pos] = rng.randrange(1, 9)
        noisy = [code.field.add(a, b) for a, b in zip(word, err)]
        assert code.decode_syndrome(code.syndrome(noisy)) == err


# ---------------------------------------------------------------------------
# BCH codes
# ---------------------------------------------------------------------------


def _coset_size_oracle(powers, p, n):
    seen = set()
    for j in powers:
        cur = j % n
        while cur not in seen:
            seen.add(cur)
            cur = (cur * p) % n
    return len(seen)


def test_bch_15_7_dimensions():
    code = BchCode(2, 4, 2)
    assert (code.n, code.k) == (15, 7)
    assert len(code.generator) - 1 == _coset_size_oracle([1, 2, 3, 4], 2, 15)


def test_bch_hamming():
    code = BchCode(2, 3, 1)
    assert (code.n, code.k) == (7, 4)


def test_bch_repetition_extreme():
    code = BchCode(2, 4, 7)
    assert code.k == 1
    word = code.encode([1])
    assert oracle.weight(word) == 15


def test_bch_capacity_check():
    with pytest.raises(CapacityTooLargeError):
        BchCode(2, 3, 4)


def test_bch_min_weight_at_least_design_distance():
    code = BchCode(2, 4, 2)
    best = code.n
    for m in range(1, 1 << code.k):
        msg = [(m >> i) & 1 for i in range(code.k)]
        best = min(best, oracle.weight(code.encode(msg)))
    assert best >= 5


def test_bch_decode_round_trip():
    code = BchCode(2, 4, 2)
    rng = random.Random(4)
    for _ in range(2000):
        err = [0] * 15
        for pos in rng.sample(range(15), rng.randint(0, 2)):
            err[pos] = 1
        assert code.decode_syndrome(code.syndrome(err)) == err
        assert code.decode_syndrome(code.power_sums(code.remainder(err))) == err


def test_bch_remainder_matches_power_sums():
    code = BchCode(2, 4, 2)
    rng = random.Random(44)
    for _ in range(100):
        word = [rng.randrange(2) for _ in range(15)]
        assert code.power_sums(code.remainder(word)) == code.syndrome(word)


def test_bch_over_f5_length_4():
    """Degree-1 splitting field: the [4,2] code over gf(5) with t=1."""
    code = BchCode(5, 1, 1)
    assert (code.n, code.k, code.t) == (4, 2, 1)
    rng = random.Random(5)
    for _ in range(500):
        err = [0] * 4
        if rng.random() < 0.8:
            err[rng.randrange(4)] = rng.randrange(1, 5)
        assert code.decode_syndrome(code.power_sums(code.remainder(err))) == err


def test_bch_rejects_extension_symbols():
    code = BchCode(2, 4, 2)
    with pytest.raises(AlphabetMismatchError):
        code.syndrome([0] * 14 + [2])


@pytest.mark.parametrize("p,m,t", [(5, 1, 1), (3, 2, 1), (2, 4, 2)])
def test_bch_remainder_entry_points_refuse_words_outside_their_shape(p, m, t):
    """``power_sums`` takes exactly redundancy digits in gf(p), for odd p
    as over F_2: a wrong length, the digit p, -1 or a str is a
    ShapeMismatchError, never an IndexError, TypeError or a silently
    wrapped index."""
    code = BchCode(p, m, t)
    r = code.redundancy
    bad = [[0] * (r + 1), [0] * (r - 1), [p] + [0] * (r - 1), [0] * (r - 1) + [-1],
           [0] * (r - 1) + ["a"]]
    for rem in bad:
        with pytest.raises(ShapeMismatchError):
            code.power_sums(rem)
    assert code.power_sums([0] * r) == (0,) * code.count


# ---------------------------------------------------------------------------
# Packed decoding tables over characteristic 2
# ---------------------------------------------------------------------------


def _locators(field, n, r, rng):
    """Seeded locators of degree 1..r with psi[0] = 1: random ones, which
    seldom split, and products of (1 - alpha^l x) over random l < q - 1,
    whose roots fall in range unless the code is shortened past them."""
    q1 = field.order - 1
    out = []
    for deg in range(1, r + 1):
        out.append([1] + [rng.randrange(field.order) for _ in range(deg - 1)]
                   + [rng.randrange(1, field.order)])
        if deg <= q1:
            psi = [1]
            for l in rng.sample(range(q1), deg):
                x = field.alpha_pow(l)
                psi = [a ^ field.mul(x, b) for a, b in zip(psi + [0], [0] + psi)]
            out.append(psi)
    return out


@pytest.mark.parametrize(
    "m,n,r",
    [(3, 7, 4), (3, 5, 4), (4, 15, 8), (4, 11, 6), (7, 127, 18), (7, 40, 8),
     (7, 127, 100), (8, 255, 32), (8, 100, 16)],
    ids=lambda v: str(v),
)
def test_packed_chien_search_matches_the_scalar_one(m, n, r):
    """The same roots, full length and shortened."""
    from synfuzz import rs

    field = ExtField(2, m)
    assert rs._chien_fits(field)
    for psi in _locators(field, n, r, random.Random(1000 * m + n)):
        got = rs._chien_search(field, bytes(psi), n, rs._chien_table(field, n, r))
        assert got == rs._chien_roots(field, psi, n)[0], psi


@pytest.mark.parametrize(
    "code",
    [RsCode(ExtField(2, 3), 7, 3), RsCode(ExtField(2, 4), 15, 7),
     RsCode(ExtField(2, 7), 40, 22), RsCode(ExtField(2, 8), 255, 223)],
    ids=lambda code: code.spec_string(),
)
def test_rs_decode_with_the_packed_search_matches_the_scalar_one(code, monkeypatch):
    """On seeded syndromes of 0..t+2 errors and of random words, the
    decoder returns the same pattern or DecodeFailure with the packed
    Chien search as with the scalar one."""
    rng = random.Random(code.n)
    syndromes = []
    for _ in range(150):
        err = [0] * code.n
        for pos in rng.sample(range(code.n), rng.randint(0, code.t + 2)):
            err[pos] = rng.randrange(1, code.field.order)
        syndromes.append(code.syndrome(err))
        syndromes.append(tuple(rng.randrange(code.field.order)
                               for _ in range(code.redundancy)))

    def outcomes():
        out = []
        for synd in syndromes:
            try:
                out.append(code.decode_syndrome(synd))
            except DecodeFailure:
                out.append(None)
        return out

    packed = outcomes()
    assert code._chien  # the packed search ran
    monkeypatch.setattr(code, "_by_region", False)  # as above the cap
    assert packed == outcomes()
    assert any(got is None for got in packed) and any(packed)


@pytest.mark.parametrize(
    "code",
    [RsCode(ExtField(2, 8), 255, 223), RsCode(ExtField(3, 2), 8, 4)],
    ids=lambda code: code.spec_string(),
)
def test_decode_rechecks_the_pattern_it_returns(code, monkeypatch):
    """A Chien search that moves every root one position on leads Forney
    to a wrong pattern; the decoder's final re-check against the syndrome
    refuses it, from the packed search over F_{2^8} and the scalar one
    over F_9."""
    from synfuzz import rs

    err = [0] * code.n
    err[2], err[5] = 3, 7
    synd = code.syndrome(err)
    assert code.decode(synd) == err
    assert bool(code._chien) == (code.field.p == 2)
    if code._by_region:
        search = rs._chien_search
        monkeypatch.setattr(rs, "_chien_search",
                            lambda *args: [(i + 1) % code.n for i in search(*args)])
    else:
        scan = rs._chien_roots

        def shifted(*args):
            roots, mults = scan(*args)
            return [(i + 1) % code.n for i in roots], mults

        monkeypatch.setattr(rs, "_chien_roots", shifted)
    with pytest.raises(DecodeFailure, match="does not match the syndrome"):
        code.decode(synd)


@pytest.mark.parametrize(
    "m,t", [(3, 1), (4, 2), (6, 2)], ids=["bch(7,1)", "bch(15,2)", "bch(63,2)"]
)
def test_coset_table_matches_berlekamp_massey(m, t):
    """On the remainders of seeded patterns of weight 0..t+2, the coset
    lookup of the inner decode (``_message_error``) gives the message
    digits of Berlekamp-Massey's pattern, or None where it fails, and
    ``decode_packed`` gives that pattern, or DecodeFailure."""
    from synfuzz.rs import _pack_bits

    code = BchCode(2, m, t)
    r = code.redundancy
    rng = random.Random(100 * m + t)
    failures = 0
    for weight in range(t + 3):
        for _ in range(60):
            err = [0] * code.n
            for pos in rng.sample(range(code.n), weight):
                err[pos] = 1
            rem = code.remainder(err)
            try:
                expected = _pack_bits(code.decode_syndrome(code.power_sums(rem)))
            except DecodeFailure:
                expected = None
                failures += 1
            try:
                packed = code.decode_packed(_pack_bits(rem))
            except DecodeFailure:
                packed = None
            got = code._message_error(_pack_bits(rem))
            assert packed == expected, (weight, err)
            assert got == (None if expected is None else expected >> r), (weight, err)
            if weight <= t:
                assert packed == _pack_bits(err) and got == _pack_bits(err) >> r
    # bch(7,1) is the perfect Hamming code: every remainder has a pattern
    assert code._cosets and (failures > 0) == (m != 3)
