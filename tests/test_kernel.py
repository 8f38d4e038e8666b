"""The packed syndrome kernel against a schoolbook oracle.

Over characteristic 2 every syndrome comes from packed ints: a
table-driven LFSR gives the remainder modulo the generator and a packed
linear map gives the power sums.  Here each syndrome is recomputed from
tests/oracle.py alone (coefficient-list products and remainders), with the
block map and the generators as the only inputs taken from the package.
"""

import gc
import math
import random
import weakref

import pytest

import oracle
from synfuzz import concat, expand, rs
from synfuzz.codespec import parse_spec
from synfuzz.concat import ConcatCode
from synfuzz.expand import KIND_COMPANION, KIND_ROW_PARITY, ExpandedCode
from synfuzz.errors import AlphabetMismatchError
from synfuzz.gf import MUL_COUNTER, ExtField
from synfuzz.rs import BchCode, RsCode

from test_golden import GOLDEN

LARGEST_FLAT_CONCAT = "concat(inner=bch(63,11;gf(2)), outer=rs(16644,16580;gf(2^16)), layout=flat)"
LARGEST_RS = "rs(65535,65471;gf(2^16))"
# Symbols of more than eight bits take the kernel's two-table path.
WIDE = (
    ("rs(60,36;gf(2^12))", 201),
    ("cI+parity(rs(20,12;gf(2^10)))", 202),
    ("cIII(rs(6,2;gf(2^9));2,3)", 203),
    ("concat(inner=bch(15,1;gf(2)), outer=rs(20,12;gf(2^11)), layout=flat)", 204),
)
CACHES = (rs._generator, rs._kernel, rs._check_tables, rs._chien_table, rs._coset_table)


class OracleField:
    """Powers of the primitive element and products, the slow way."""

    def __init__(self, field):
        self.p, self.m, self.modulus = field.p, field.m, field.modulus
        self.q1 = field.order - 1
        self.powers = [1]
        for _ in range(self.q1 - 1):
            self.powers.append(self.mul(self.powers[-1], field.alpha))

    def mul(self, a, b):
        return oracle.elem_mul(self.p, self.m, self.modulus, a, b)

    def add(self, a, b):
        return oracle.elem_add(self.p, self.m, a, b)

    def power_sums(self, word, count):
        """word(alpha^j) for j = 1..count."""
        out = []
        for j in range(1, count + 1):
            acc = 0
            for i, c in enumerate(word):
                if c:
                    acc = self.add(acc, self.mul(c, self.powers[i * j % self.q1]))
            out.append(acc)
        return out


def remainder(p, word, generator):
    rem = oracle.poly_mod(p, list(word), list(generator))
    return rem + [0] * (len(generator) - 1 - len(rem))


def blocks_of(code, word):
    flat = word if len(code.shape) == 1 else [v for row in word for v in row]
    order = code._block_order()
    if order is not None:
        flat = [flat[at] for at in order]
    width = code.n_in if isinstance(code, ConcatCode) else code.base_length // code.rs.n
    return [flat[at : at + width] for at in range(0, len(flat), width)]


def oracle_syndrome(code, word):
    if isinstance(code, RsCode):
        return OracleField(code.field).power_sums(word, code.redundancy)
    p = code.alphabet.p
    blocks = blocks_of(code, word)
    if isinstance(code, ExpandedCode):
        ext = OracleField(code.rs.field)
        m = ext.m
        symbols = [oracle.from_digits(block[:m], p) for block in blocks]
        values = ext.power_sums(symbols, code.rs.redundancy)
        for block, sym in zip(blocks, symbols):
            if code.kind == KIND_ROW_PARITY:
                values.append(sum(block) % p)
            elif code.kind == KIND_COMPANION:
                # columns 1..m-1 of the image of sym: the digits of sym x^c
                cols = [oracle.to_digits(ext.mul(sym, p**c), p, m) for c in range(1, m)]
                fill = [col[r] for r in range(m) for col in cols]
                values.extend((b - f) % p for b, f in zip(block[m:], fill))
        return values
    assert isinstance(code, ConcatCode)
    inner = code.inner
    values = []
    for block in blocks:
        values.extend(remainder(p, block, inner.generator))
    systematic = [oracle.from_digits(block[inner.redundancy :], p) for block in blocks]
    return values + OracleField(code.outer.field).power_sums(systematic, code.outer.redundancy)


def seeded_words(code, seed, count=3):
    """Random words, then one with a single nonzero cell."""
    rng = random.Random(seed)
    q = code.alphabet.order
    cells = code.base_length
    flats = [[rng.randrange(q) for _ in range(cells)] for _ in range(count)]
    sparse = [0] * cells
    sparse[rng.randrange(cells)] = rng.randrange(1, q)
    flats.append(sparse)
    if len(code.shape) == 1:
        return flats
    cols = code.shape[1]
    return [[flat[at : at + cols] for at in range(0, cells, cols)] for flat in flats]


@pytest.mark.parametrize(
    "spec,seed",
    [(g[1], g[4]) for g in GOLDEN] + list(WIDE),
    ids=[g[0] for g in GOLDEN] + [spec for spec, _ in WIDE],
)
def test_syndrome_matches_the_oracle(spec, seed):
    code = parse_spec(spec)
    for word in seeded_words(code, seed):
        assert list(code.syndrome(word).values) == oracle_syndrome(code, word)


@pytest.mark.parametrize("m,t", [(4, 2), (6, 5)], ids=["bch(15,2)", "bch(63,5)"])
def test_bch_remainder_and_power_sums_match_the_oracle(m, t):
    code = BchCode(2, m, t)
    ext = OracleField(code.field)
    count = 2 * t
    # the generator the oracle divides by vanishes at every syndrome root
    assert ext.power_sums(code.generator, count) == [0] * count
    rng = random.Random(1000 * m + t)
    words = [[rng.randrange(2) for _ in range(code.n)] for _ in range(20)]
    words += [[int(i == at) for i in range(code.n)] for at in (0, code.redundancy, code.n - 1)]
    for word in words:
        rem = remainder(2, word, code.generator)
        assert list(code.remainder(word)) == rem
        sums = ext.power_sums(word, count)
        assert list(code.syndrome(word).values) == sums
        assert list(code.power_sums(rem).values) == ext.power_sums(rem, count) == sums


def test_parsing_builds_no_kernel_table(monkeypatch):
    """Tables are built on a code's first syndrome, never by parse_spec,
    and a re-parsed spec finds them in the cache."""

    def refuse(*args, **kwargs):
        raise AssertionError("built syndrome tables")

    for cache in CACHES:
        cache.cache.clear()
    specs = [g[1] for g in GOLDEN] + [LARGEST_RS, LARGEST_FLAT_CONCAT]
    with monkeypatch.context() as patch:
        patch.setattr(rs, "_BinaryKernel", refuse)
        patch.setattr(rs, "_byte_tables", refuse)
        codes = [parse_spec(spec) for spec in specs]
    assert not any(cache.cache for cache in CACHES)
    small = [code for code in codes if code.base_length < 10_000]
    for code in small:
        code.syndrome(code.zero_word())
    assert any(key[3] is concat._parity_checks for key in rs._check_tables.cache)
    monkeypatch.setattr(rs, "_BinaryKernel", refuse)
    monkeypatch.setattr(rs, "_byte_tables", refuse)
    for code in small:
        again = parse_spec(code.spec_string())
        assert again.syndrome(again.zero_word()).is_zero


def kernel_ints(kernel):
    return [v for table in kernel.top for v in table] + list(kernel.columns)


def test_kernel_tables_are_bounded_by_the_description():
    """At most 512 + r*m ints of r*m bits for RS, whatever the length;
    the concatenation adds one inner kernel of 256 + (n-k) ints."""
    code = parse_spec(LARGEST_RS)
    r, m = code.redundancy, code.field.m
    ints = kernel_ints(rs._kernel(code.field, code.s, r))
    assert len(ints) <= 512 + r * m
    assert max(v.bit_length() for v in ints) <= r * m

    concat = parse_spec(LARGEST_FLAT_CONCAT)
    outer, inner = concat.outer, concat.inner
    assert (outer.field, outer.redundancy) == (code.field, r)
    ints = kernel_ints(rs._kernel(inner.field, inner.s, inner.count))
    assert len(ints) <= 256 + inner.redundancy
    assert max(v.bit_length() for v in ints) <= max(inner.redundancy, 2 * inner.t * inner.field.m)
    assert all(cache.maxsize == 32 for cache in CACHES)


def test_cached_tables_keep_no_field_alive():
    """The caches key on the field's description (p, m, modulus), so the
    tables a code builds do not keep its field, with the field's own
    tables, alive after the code is gone."""
    modulus = (1, 1, 0, 1, 0, 1, 0, 0, 1)  # x^8 + x^5 + x^3 + x + 1
    field = ExtField(2, 8, modulus)
    assert not field.modulus_is_default
    code = ExpandedCode.row_vector_parity(RsCode(field, 40, 30))
    word = random.Random(205).choices((0, 1), k=code.base_length)
    synd = code.syndrome(word)
    error = code.zero_word()
    error[7] = 1
    assert code.decode(code.syndrome(error)) == error
    ref = weakref.ref(field)
    del code, field
    gc.collect()
    assert ref() is None
    assert (2, 8, modulus, 256, 10) in rs._kernel.cache
    assert (2, 8, modulus, expand._dropped_checks, KIND_ROW_PARITY) in rs._check_tables.cache
    assert (2, 8, modulus, 40, 10) in rs._chien_table.cache
    again = parse_spec("cI+parity(rs(40,30;gf(2^8;modulus=1,1,0,1,0,1,0,0,1)))")
    assert again.syndrome(word) == synd

    inner = BchCode(2, 4, 2)
    key = (2, 4, inner.field.modulus, 15, 2)
    assert inner.decode_packed(1) == 1
    ref = weakref.ref(inner.field)
    del inner
    gc.collect()
    assert ref() is None
    assert key in rs._coset_table.cache

    code = ConcatCode(BchCode(2, 4, 2), RsCode(ExtField(2, 7), 20, 12))
    key = (2, 4, code.inner.field.modulus, concat._parity_checks, 4, 7)
    word = random.Random(206).choices((0, 1), k=code.base_length)
    synd = code.syndrome(word)
    refs = [weakref.ref(code.inner.field), weakref.ref(code.outer.field)]
    del code
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert key in rs._check_tables.cache
    again = parse_spec("concat(inner=bch(15,2;gf(2)), outer=rs(20,12;gf(2^7)), layout=flat)")
    assert again.syndrome(word) == synd


def test_check_tables_count_no_multiplication():
    """The check tables of every binary expansion and concatenation are
    built from uncounted table products, like the kernels."""
    rs._check_tables.cache.clear()
    for spec in [g[1] for g in GOLDEN] + [WIDE[1][0], WIDE[2][0], WIDE[3][0]]:
        code = parse_spec(spec)
        if code.alphabet.p != 2 or not getattr(code, "_chk", 0):
            continue
        before = MUL_COUNTER.count
        assert code._load_checks() is code._checks
        assert MUL_COUNTER.count == before
        assert len(code._checks) == (code.outer.field.m + 7) // 8 <= 2
    # the flat and v golden concatenations share bch(15,2)'s tables
    assert len(rs._check_tables.cache) == 7


def test_bch_names_its_base_field_in_symbol_errors():
    code = BchCode(2, 4, 2)
    with pytest.raises(AlphabetMismatchError, match=r"symbol 2 outside gf\(2\)$"):
        code.syndrome([0] * 14 + [2])
    with pytest.raises(AlphabetMismatchError, match=r"symbol 7 outside alphabet of 4$"):
        RsCode(ExtField(2, 2), 3, 1).syndrome([0, 7, 0])


def test_decoding_tables_stay_under_their_caps():
    """Decoding every golden construction builds Chien tables of at most
    2^21 bits and coset tables of at most 4096 patterns."""
    for cache in CACHES:
        cache.cache.clear()
    for _, spec, _, _, seed in GOLDEN:
        code = parse_spec(spec)
        word = seeded_words(code, seed)[-1]  # one nonzero cell
        assert code.decode(code.syndrome(word)) == word
    assert rs._chien_table.cache and rs._coset_table.cache
    for (p, m, _, n, r), columns in rs._chien_table.cache.items():
        assert len(columns) == r * m
        assert len(columns) * n * 8 <= rs._CHIEN_CAP_BITS
        assert max(c.bit_length() for c in columns) <= 8 * n
    for (p, m, _, n, t), table in rs._coset_table.cache.items():
        assert len(table) == sum(math.comb(n, w) for w in range(t + 1)) <= rs._COSET_CAP


def test_codes_above_the_caps_keep_the_scalar_decoders(monkeypatch):
    """The size predicates refuse what the caps exclude, and a code they
    refuse decodes without building a table."""
    outer = parse_spec(LARGEST_FLAT_CONCAT).outer
    assert not rs._chien_fits(outer.field, outer.n, outer.redundancy)  # m = 16
    assert not rs._chien_fits(ExtField(2, 8), 255, 155)  # 155 * 8 columns of 255 bytes
    assert rs._chien_fits(ExtField(2, 8), 255, 128)
    assert not rs._chien_fits(ExtField(3, 4), 80, 8)  # odd p
    assert not rs._coset_fits(63, 3)  # 41,728 patterns
    assert rs._coset_fits(63, 2) and rs._coset_fits(7, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("built a decoding table above its cap")

    code = RsCode(ExtField(2, 8), 255, 100)
    error = [0] * 255
    for at in (3, 90, 254):
        error[at] = at
    with monkeypatch.context() as patch:
        patch.setattr(rs, "_chien_table", refuse)
        assert code.decode(code.syndrome(error)) == error
    inner = BchCode(2, 6, 3)
    error = [int(i in (0, 9, 62)) for i in range(63)]
    monkeypatch.setattr(rs, "_coset_table", refuse)
    assert inner.decode_packed(rs._pack_bits(inner.remainder(error))) == rs._pack_bits(error)
    assert inner._cosets is False
