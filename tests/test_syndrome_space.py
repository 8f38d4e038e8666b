"""Decoders checked over every syndrome of small codes.

A decoder must return, for each syndrome, a pattern that reproduces it,
and it must decode exactly the syndromes of the patterns within its
capability: t = count // 2 symbol errors, a Hamming ball of
sum_{w <= t} C(n, w) (q - 1)^w patterns.  Enumerating the whole
syndrome space checks both at once, with no sampling, and compares the
packed F_2 paths (the Chien table and the BCH coset table) with the
scalar ones they stand in for.
"""

import random
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

import oracle
from synfuzz import codespec, rs
from synfuzz.errors import DecodeFailure
from synfuzz.gf import ExtField
from synfuzz.rs import BchCode, RsCode


def ball_volume(n: int, q: int, t: int) -> int:
    return sum(comb(n, w) * (q - 1) ** w for w in range(t + 1))


def every_syndrome(code):
    """Every syndrome ``code.segments`` admits, in lexicographic order."""
    return product(*(range(field.order) for count, field in code.segments for _ in range(count)))


def decode_all(code):
    """Each syndrome with its pattern, or None on DecodeFailure."""
    out = []
    for synd in every_syndrome(code):
        try:
            got = code.decode(synd)
        except DecodeFailure:
            got = None
        out.append((synd, got))
    return out


@pytest.mark.parametrize(
    "spec,syndromes,decodable",
    [
        ("rs(7,3;gf(2^3))", 4096, 1079),
        ("rs(8,4;gf(3^2))", 6561, 1857),
        ("cI(rs(7,3;gf(2^3)))", 4096, 1079),
    ],
)
def test_every_syndrome_decodes_to_a_pattern_that_reproduces_it(spec, syndromes, decodable):
    code = codespec.parse_spec(spec)
    outer = code if isinstance(code, RsCode) else code.rs
    assert decodable == ball_volume(outer.n, outer.field.order, outer.t)
    results = decode_all(code)
    assert len(results) == syndromes
    found = [(synd, got) for synd, got in results if got is not None]
    assert len(found) == decodable
    for synd, got in found:
        assert code.syndrome(got) == synd
        symbols = got if code is outer else oracle.block_symbols(code, got)
        assert sum(map(bool, symbols)) <= outer.t


def test_scalar_chien_search_matches_the_packed_one(monkeypatch):
    """Over every syndrome of rs(7,3;gf(2^3)), the scalar search gives the
    packed search's outcomes."""
    packed = RsCode(ExtField(2, 3), 7, 3)
    expected = decode_all(packed)
    assert packed._chien
    monkeypatch.setattr(rs, "_chien_fits", lambda field: False)
    scalar = RsCode(ExtField(2, 3), 7, 3)
    assert decode_all(scalar) == expected
    assert scalar._by_region is False and scalar._chien is None


def test_every_syndrome_of_rs_15_11_decodes_alike_by_packed_and_scalar_search(monkeypatch):
    """All 65,536 syndromes of rs(15,11;gf(2^4)): the 23,851 of the
    Hamming ball decode to a pattern that reproduces them, and the scalar
    Chien search gives the packed one's outcomes."""
    packed = RsCode(ExtField(2, 4), 15, 11)
    expected = decode_all(packed)
    assert packed._chien
    assert len(expected) == 1 << 16
    found = [(synd, got) for synd, got in expected if got is not None]
    assert len(found) == 23851 == ball_volume(15, 16, 2)
    for synd, got in found:
        assert packed.syndrome(got) == synd
        assert sum(map(bool, got)) <= 2
    monkeypatch.setattr(rs, "_chien_fits", lambda field: False)
    scalar = RsCode(ExtField(2, 4), 15, 11)
    assert decode_all(scalar) == expected
    assert scalar._by_region is False and scalar._chien is None


RS73 = RsCode(ExtField(2, 3), 7, 3)


def pack(synd):
    """An rs(7,3;gf(2^3)) syndrome as one int, three bits per value."""
    return sum(v << 3 * k for k, v in enumerate(synd))


def unpack(s):
    return tuple(s >> 3 * k & 7 for k in range(RS73.redundancy))


# By linearity, each pattern's packed syndrome is the XOR of its symbols'.
RS73_UNITS = [[pack(RS73.syndrome([v if j == i else 0 for j in range(RS73.n)]))
               for v in range(RS73.field.order)] for i in range(RS73.n)]


def erasure_patterns(erased):
    """Packed syndrome -> the pattern ({position: symbol}) of every pattern
    of rs(7,3;gf(2^3)) with 2 * (errors off the erasures) + |erasures| <=
    4, checked to be one pattern per syndrome."""
    q, n, r = RS73.field.order, RS73.n, RS73.redundancy
    off = [i for i in range(n) if i not in erased]
    patterns, count = {}, 0
    for errors in range((r - len(erased)) // 2 + 1):
        for where in combinations(off, errors):
            found = {0: {}}
            for i in erased + where:
                values = range(q) if i in erased else range(1, q)
                found = {s ^ RS73_UNITS[i][v]: {**pattern, i: v}
                         for s, pattern in found.items() for v in values}
            patterns.update(found)
            count += q ** len(erased) * (q - 1) ** errors
    assert len(patterns) == count
    return patterns


def test_erasure_decodes_of_rs_7_3_reproduce_their_syndrome():
    """Every erasure set of one or two positions of rs(7,3;gf(2^3)),
    against seeded syndromes: half drawn from all 4096, half the syndromes
    of patterns with 2 * (errors off the erasures) + |erasures| <= 4.  The
    decode returns exactly the one such pattern with that syndrome, and
    refuses a syndrome that has none."""
    code, q, r = RS73, RS73.field.order, RS73.redundancy
    rng = random.Random(0xE7A5)
    for size in (1, 2):
        for erased in combinations(range(code.n), size):
            off = [i for i in range(code.n) if i not in erased]
            patterns = erasure_patterns(erased)
            assert len(patterns) == q**size * (1 + (code.n - size) * (q - 1))
            packed = [rng.randrange(q**r) for _ in range(64)] + rng.sample(sorted(patterns), 64)
            for s in packed:
                synd = unpack(s)
                try:
                    got = code.decode_syndrome(synd, erasures=erased)
                except DecodeFailure:
                    assert s not in patterns
                    continue
                assert code.syndrome(got) == synd
                errors = sum(1 for i in off if got[i])
                assert 2 * errors + size <= r
                assert got == [patterns[s].get(i, 0) for i in range(code.n)]


def test_flagged_parity_blocks_are_the_erasures_of_the_outer_decode():
    """Every set of one to four flagged blocks of
    cI+parity(rs(7,3;gf(2^3))), its residual run nonzero exactly there,
    against seeded outer syndromes, half of them those of patterns the
    erasure oracle admits.  A decode reproduces the whole syndrome with
    the oracle's symbol pattern; a refusal comes exactly where the oracle
    has no pattern."""
    code = codespec.parse_spec("cI+parity(rs(7,3;gf(2^3)))")
    assert code.outer == RS73 and code.segments[1] == (RS73.n, code.alphabet)
    q, n, r = RS73.field.order, RS73.n, RS73.redundancy
    rng = random.Random(0xF1A6)
    sets = [erased for size in range(1, r + 1) for erased in combinations(range(n), size)]
    assert len(sets) == 98
    decoded = refused = 0
    for erased in sets:
        patterns = erasure_patterns(erased)
        res = tuple(int(i in erased) for i in range(n))
        for s in [rng.randrange(q**r) for _ in range(8)] + rng.sample(sorted(patterns), 8):
            synd = unpack(s) + res
            try:
                got = code.decode(synd)
            except DecodeFailure:
                assert s not in patterns
                refused += 1
                continue
            assert code.syndrome(got) == synd
            assert oracle.block_symbols(code, got) == [patterns[s].get(i, 0) for i in range(n)]
            decoded += 1
    assert decoded + refused == 98 * 16 and refused


@pytest.mark.parametrize("m,t,decodable", [(3, 1, 8), (4, 2, 121)], ids=["bch(7,1)", "bch(15,2)"])
def test_coset_table_and_fallback_agree_on_every_remainder(m, t, decodable, monkeypatch):
    """Every packed remainder of a binary BCH code gives the same message
    digits through the inner decode (``_message_error``) from the coset
    table and, above its cap, through the syndrome decoder; the table
    holds exactly the decodable remainders, and each pattern found
    (``rs._coset_table``'s) has that remainder and those message digits,
    and is the algebraic decode's (``decode_packed``)."""

    def outcomes(code):
        return [code._message_error(rem) for rem in range(1 << code.redundancy)]

    table = BchCode(2, m, t)
    from_table = outcomes(table)
    assert table._cosets
    monkeypatch.setattr(rs, "_COSET_CAP", 0)
    fallback = BchCode(2, m, t)
    assert outcomes(fallback) == from_table
    assert fallback._by_cosets is False and fallback._cosets is None
    patterns = rs._coset_table(table._packed_remainder, table.n, t)
    found = sorted(patterns.items())
    assert [rem for rem, _ in found] == [rem for rem, e in enumerate(from_table) if e is not None]
    assert len(found) == decodable == ball_volume(table.n, 2, t) == len(table._cosets)
    for rem, err in found:
        bits = [err >> i & 1 for i in range(table.n)]
        assert table.remainder(bits) == tuple(rem >> i & 1 for i in range(table.redundancy))
        assert err >> table.redundancy == from_table[rem] and fallback.decode_packed(rem) == err


def test_every_remainder_of_an_odd_p_bch_code_decodes_only_to_base_field_patterns():
    """bch(8,1;gf(3)) has its roots in gf(3^2): of its 81 remainders the
    17 of the Hamming ball 1 + 8*2 decode, each to a pattern of weight
    <= 1 with that remainder.  Every other one is a DecodeFailure, and 48
    of them are refused because the one error the key equation finds has a
    magnitude in gf(9) outside gf(3)."""
    code = BchCode(3, 2, 1)
    assert (code.redundancy, code.field.order) == (4, 9)
    decoded, causes = 0, Counter()
    for rem in product(range(3), repeat=code.redundancy):
        try:
            err = code.decode_syndrome(code.power_sums(rem))
        except DecodeFailure as exc:
            causes[str(exc)] += 1
            continue
        assert code.remainder(err) == rem
        assert sum(1 for v in err if v) <= 1
        decoded += 1
    assert decoded == ball_volume(code.n, 3, code.design_t) == 17
    assert sum(causes.values()) == 81 - 17
    assert causes["magnitude outside the base field"] == 48


# Block codes, each with the volume of its outer Hamming ball.
BLOCK_CODES = [
    ("cI+parity(rs(7,3;gf(2^3)))", 1079),
    ("cIII(rs(7,3;gf(2^3));1,7)", 1079),
    ("concat(inner=bch(7,1;gf(2)), outer=rs(15,13;gf(2^4)), layout=flat)", 226),
    ("concat(inner=bch(4,1;gf(5)), outer=rs(8,6;gf(5^2)), layout=vi)", 193),
]


@pytest.mark.parametrize("residual", ["zero", "seeded"])
@pytest.mark.parametrize("spec,decodable", BLOCK_CODES, ids=[c[0] for c in BLOCK_CODES])
def test_every_outer_syndrome_of_a_block_code_decodes_to_a_pattern_that_reproduces_it(
    spec, decodable, residual
):
    """Every outer syndrome beside one residual run decodes to a pattern
    with exactly that whole syndrome: the contract every block code's
    re-check of the map it returns holds.  The residual run is zero, or
    nonzero in t seeded blocks.  With the zero run the decodable
    syndromes are the outer Hamming ball."""
    code = codespec.parse_spec(spec)
    outer = code.outer
    at = code.segments.index((outer.redundancy, outer.field))
    (count, prime), = (run for i, run in enumerate(code.segments) if i != at)
    chk = count // outer.n
    res = [0] * count
    rng = random.Random(0x5E6)
    for i in rng.sample(range(outer.n), outer.t if residual == "seeded" else 0):
        part = [rng.randrange(prime.order) for _ in range(chk)]
        part[rng.randrange(chk)] = rng.randrange(1, prime.order)
        res[i * chk : (i + 1) * chk] = part
    res = tuple(res)
    found = 0
    for sums in product(range(outer.field.order), repeat=outer.redundancy):
        synd = sums + res if at == 0 else res + sums
        try:
            got = code.decode(synd)
        except DecodeFailure:
            continue
        assert code.syndrome(got) == synd
        found += 1
    assert decodable == ball_volume(outer.n, outer.field.order, outer.t)
    if residual == "zero":
        assert found == decodable
    else:
        assert found
