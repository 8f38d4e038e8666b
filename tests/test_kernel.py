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
from synfuzz import rs
from synfuzz.codespec import parse_spec
from synfuzz.concat import ConcatCode
from synfuzz.expand import KIND_COMPANION, KIND_ROW_PARITY, ExpandedCode
from synfuzz.errors import AlphabetMismatchError
from synfuzz.fuzzy import syndrome_to_bytes
from synfuzz.gf import MUL_COUNTER, ExtField
from synfuzz.rs import BchCode, RsCode

from test_golden import GOLDEN, WIDE_GOLDEN

LARGEST_FLAT_CONCAT = "concat(inner=bch(63,11;gf(2)), outer=rs(16644,16580;gf(2^16)), layout=flat)"
LARGEST_RS = "rs(65535,65471;gf(2^16))"
# Symbols of more than eight bits take the kernel's two-table path.
WIDE = (
    ("rs(60,36;gf(2^12))", 201),
    ("cI+parity(rs(20,12;gf(2^10)))", 202),
    ("cIII(rs(6,2;gf(2^9));2,3)", 203),
    ("concat(inner=bch(15,1;gf(2)), outer=rs(20,12;gf(2^11)), layout=flat)", 204),
)
TABLE_SLOTS = ("_gen", "_tables", "_chien", "_cosets", "_checks", "_columns")


def parts(code):
    """The code and the RS and BCH codes it holds."""
    held = (code, getattr(code, "outer", None), getattr(code, "inner", None))
    return list({id(c): c for c in held if c is not None}.values())


def built_tables(code):
    """The table slots the code and the codes it holds have filled."""
    return [(type(part).__name__, slot) for part in parts(code)
            for slot in TABLE_SLOTS if getattr(part, slot, None) is not None]


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
        assert list(code.syndrome(word)) == oracle_syndrome(code, word)


@pytest.mark.parametrize("m", range(2, 9))
def test_four_symbol_kernel_matches_the_per_symbol_power_sums(m):
    """Over F_{2^m}, m <= 8, the kernel shifts in four byte-wide symbols per
    step; its power sums equal the per-symbol ones for full and shortened
    codes of every length mod 4 (the reader pads the word's high end with
    zero bytes to whole chunks)."""
    field = ExtField(2, m)
    full = field.order - 1
    rng = random.Random(300 + m)
    for n in sorted({full, full - 1, min(full, 5), min(full, 4)}):
        r = min(n - 1, 2 + m % 5)
        code = RsCode(field, n, n - r)
        words = [[rng.randrange(field.order) for _ in range(n)] for _ in range(5)]
        words += [[0] * (n - 1) + [1], [1] + [0] * (n - 1), [field.order - 1] * n]
        for word in words:
            expected = rs._sparse_syndrome(field, word, code.count)
            assert list(code.syndrome(word)) == expected, (n, word)
        assert code._quads.size == n + -n % 4


@pytest.mark.parametrize("spec", [f"rs({2**m - 1},{2**m - 1 - 2 * m};gf(2^{m}))"
                                  for m in range(3, 9)] + ["rs(255,191;gf(2^8))"])
def test_byte_wide_kernel_columns_are_the_scalar_columns(spec):
    """A byte-wide RS kernel takes its power-sum columns from the field's
    multiply rows, as the single-bit entries 1, 2, 4 and 8 of its nibble
    tables; they are the columns the scalar loop, which BCH and m > 8
    kernels use, writes entry by entry: bits b >= m zero columns."""
    code = parse_spec(spec)
    field, r = code.field, code.redundancy
    kernel = code._load_kernel()
    bits = [(1 << b) * (b < field.m) for b in range(8)]
    columns = [table[1 << b] for table in kernel.nibbles for b in range(4)]
    assert len(kernel.nibbles) == 2 * r and {len(table) for table in kernel.nibbles} == {16}
    assert len(columns) == 8 * r
    assert columns == rs._kernel_columns(field, r, bits, code.count, 8)


def byte_wide_codes(m):
    """RS codes over F_{2^m} of the four lengths mod 4 from the full one
    down, each at a few redundancies: 1, 3, 2m and up to 64."""
    full = 2**m - 1
    for n in range(full, full - 4, -1):
        for r in sorted({min(n - 1, r) for r in (1, 3, 2 * m, 64)}):
            yield RsCode(ExtField(2, m), n, n - r)


@pytest.mark.parametrize("m", range(3, 9))
def test_four_symbol_remainder_and_nibble_sums_match_the_scalar_ones(m):
    """The byte-wide kernel's four-symbol remainder is ``_poly_remainder``
    of the word and its nibble-table power sums are ``_sparse_syndrome``'s,
    on zero, one-hot, all-(q - 1) and seeded random words, for n of every
    residue mod 4 and r up to 64 (rs(255,191;gf(2^8))); each nibble
    table's single-bit entries are the scalar power-sum columns."""
    rng = random.Random(400 + m)
    codes = list(byte_wide_codes(m))
    assert {code.n % 4 for code in codes} == {0, 1, 2, 3}
    assert m < 8 or any(code.redundancy == 64 for code in codes)
    for code in codes:
        field, n, r = code.field, code.n, code.redundancy
        kernel, quads = code._load_kernel(), code._quads
        bits = [(1 << b) * (b < m) for b in range(8)]
        assert [table[1 << b] for table in kernel.nibbles for b in range(4)] == \
            rs._kernel_columns(field, r, bits, code.count, 8)
        words = [[0] * n, [field.order - 1] * n]
        words += [[int(i == at) for i in range(n)] for at in (0, r, n - 1)]
        words += [[rng.randrange(field.order) for _ in range(n)] for _ in range(3)]
        for word in words:
            chunks = reversed(quads.unpack(bytes(word).ljust(quads.size, b"\0")))
            rem = kernel.remainder(chunks)
            assert list(rem.to_bytes(r, "little")) == rs._poly_remainder(field, word, code.generator)
            assert list(kernel.power_sums(rem)) == rs._sparse_syndrome(field, word, code.count)
            assert list(code._power_sums(bytes(word))) == rs._sparse_syndrome(field, word, code.count)


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
        assert list(code.syndrome(word)) == sums
        assert list(code.power_sums(rem)) == ext.power_sums(rem, count) == sums


def refuse_tables(patch):
    def refuse(*args, **kwargs):
        raise AssertionError("built syndrome tables")

    patch.setattr(rs, "_BinaryKernel", refuse)
    patch.setattr(rs, "_byte_tables", refuse)
    patch.setattr(rs, "_power_columns", refuse)


def test_parsing_builds_no_kernel_table(monkeypatch, fresh_codes):
    """Tables are built into a code's slots on its first syndrome, never
    by parse_spec, and a re-parsed spec is the same code with its tables
    built: a binary block code's per-cell columns too, which a first
    syndrome builds with the check tables where the code is within the
    column cap."""
    # the largest first: the golden codes evict the largest concatenation
    specs = [LARGEST_RS, LARGEST_FLAT_CONCAT] + [g[1] for g in GOLDEN]
    with monkeypatch.context() as patch:
        refuse_tables(patch)
        codes = [parse_spec(spec) for spec in specs]
    assert not any(built_tables(code) for code in codes)
    assert all(getattr(code, "_columns", None) is None for code in codes)
    small = [(spec, code) for spec, code in zip(specs, codes) if code.base_length < 10_000]
    for _, code in small:
        code.syndrome(code.zero_word())
    assert all(code._checks for _, code in small if isinstance(code, ConcatCode) and code.p == 2)
    capped = [code for _, code in small if getattr(code, "_columns", None)]
    assert len(capped) == 9 and all(code.base_length <= rs._COLUMN_CAP_CELLS for code in capped)
    refuse_tables(monkeypatch)
    for spec, code in small:
        again = parse_spec(spec)
        assert again is code and not any(again.syndrome(again.zero_word()))


def kernel_ints(kernel):
    return [v for table in kernel.top for v in table] + list(kernel.columns)


def test_kernel_tables_are_bounded_by_the_description():
    """At most 512 + r*m ints of r*m bits for RS, whatever the length;
    the concatenation adds one inner kernel of 256 + (n-k) ints, whose
    power-sum columns take one byte a sum."""
    code = parse_spec(LARGEST_RS)
    r, m = code.redundancy, code.field.m
    ints = kernel_ints(code._load_kernel())
    assert len(ints) <= 512 + r * m
    assert max(v.bit_length() for v in ints) <= r * m

    concat = parse_spec(LARGEST_FLAT_CONCAT)
    outer, inner = concat.outer, concat.inner
    assert (outer.field, outer.redundancy) == (code.field, r)
    ints = kernel_ints(inner._load_kernel())
    assert len(ints) <= 256 + inner.redundancy
    assert max(v.bit_length() for v in ints) <= max(inner.redundancy, 2 * inner.t * 8)


@pytest.mark.parametrize("spec", ["rs(255,191;gf(2^8))", "rs(31,21;gf(2^5))"])
def test_byte_wide_kernel_tables_are_bounded_by_the_description(spec):
    """A byte-wide RS kernel holds four step tables of 2^m ints of at most
    8r + 32 bits and 2r nibble tables of 16 ints of at most 8*count bits:
    at most 1024 + 32r ints, whatever the length."""
    code = parse_spec(spec)
    r, m = code.redundancy, code.field.m
    kernel = code._load_kernel()
    assert [len(table) for table in kernel.steps] == [2**m] * 4
    assert max(v.bit_length() for table in kernel.steps for v in table) <= 8 * r + 32
    assert [len(table) for table in kernel.nibbles] == [16] * (2 * r)
    assert max(v.bit_length() for table in kernel.nibbles for v in table) <= 8 * code.count


def test_dropped_codes_free_their_fields_and_tables():
    """A code's tables live in its own slots, so once the code is gone
    nothing keeps its fields, their tables or its own alive; a new code of
    the same spec builds them again to the same syndrome."""
    modulus = (1, 1, 0, 1, 0, 1, 0, 0, 1)  # x^8 + x^5 + x^3 + x + 1
    field = ExtField(2, 8, modulus)
    assert not field.modulus_is_default
    code = ExpandedCode.row_vector_parity(RsCode(field, 40, 30))
    word = random.Random(205).choices((0, 1), k=code.base_length)
    synd = code.syndrome(word)
    error = code.zero_word()
    error[7] = 1
    assert code.decode(code.syndrome(error)) == error
    assert code._checks and code.rs._chien
    refs = [weakref.ref(field), weakref.ref(code.rs._tables)]
    del code, field
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    again = ExpandedCode.row_vector_parity(RsCode(ExtField(2, 8, modulus), 40, 30))
    assert again.syndrome(word) == synd

    inner = BchCode(2, 4, 2)
    assert inner.decode_packed(1) == 1 and inner._message_error(1) == 0 and inner._cosets
    refs = [weakref.ref(inner.field), weakref.ref(inner._tables)]
    del inner
    gc.collect()
    assert [ref() for ref in refs] == [None, None]

    code = ConcatCode(BchCode(2, 4, 2), RsCode(ExtField(2, 7), 20, 12))
    word = random.Random(206).choices((0, 1), k=code.base_length)
    synd = code.syndrome(word)
    assert code._checks
    refs = [weakref.ref(code.inner.field), weakref.ref(code.outer.field)]
    del code
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    again = ConcatCode(BchCode(2, 4, 2), RsCode(ExtField(2, 7), 20, 12))
    assert again.syndrome(word) == synd


def test_check_tables_count_no_multiplication():
    """The check tables of every binary expansion and concatenation are
    built from uncounted table products, like the kernels."""
    built = []
    for spec in [g[1] for g in GOLDEN] + [WIDE[1][0], WIDE[2][0], WIDE[3][0]]:
        code = parse_spec(spec)
        if code.alphabet.p != 2 or not getattr(code, "_chk", 0):
            continue
        before = MUL_COUNTER.count
        assert code._load_checks() is code._checks
        assert MUL_COUNTER.count == before
        assert len(code._checks) == (code.outer.field.m + 7) // 8 <= 2
        built.append(code._checks)
    # the flat and v golden concatenations build the same bch(15,2) tables
    assert len(built) == 8 and len(set(built)) == 7


# Every binary block code with check cells: the golden ones and those with
# symbols wider than a byte.
BINARY_CHECKED = [spec for spec in [g[1] for g in GOLDEN + WIDE_GOLDEN] + [w[0] for w in WIDE]
                  if spec.startswith(("cI+parity", "cIII", "concat")) and "gf(2^" in spec]


def oracle_unit_checks(code):
    """The check cells of each unit symbol x^b's block, packed with cell k
    at bit k, by schoolbook arithmetic: the parity of x^(r+b) mod the inner
    generator for a concatenation, the digit sum 1 for the parity layout,
    and columns 1..m-1 row-major of x^b's companion image, column c
    holding the digits of x^(b+c)."""
    field = code.outer.field
    m = field.m
    out = []
    for b in range(m):
        if isinstance(code, ConcatCode):
            r = code.inner.redundancy
            cells = remainder(2, [0] * (r + b) + [1], code.inner.generator)
        elif code.kind == KIND_ROW_PARITY:
            cells = [1]
        else:
            cols = [oracle.to_digits(oracle.elem_mul(2, m, field.modulus, 1 << b, 1 << c), 2, m)
                    for c in range(1, m)]
            cells = [col[row] for row in range(m) for col in cols]
        assert len(cells) == code._chk
        out.append(sum(d << k for k, d in enumerate(cells)))
    return out


@pytest.mark.parametrize("spec", BINARY_CHECKED)
def test_check_tables_and_lanes_match_the_oracle(spec):
    """Each byte table maps a symbol byte to the XOR of its set bits'
    oracle checks, and check digit k's lane list is its check cell, then
    every symbol digit whose unit check sets bit k."""
    code = parse_spec(spec)
    m = code.outer.field.m
    unit = oracle_unit_checks(code)
    tables = code._load_checks()
    assert len(tables) == (m + 7) // 8
    for i, table in enumerate(tables):
        basis = unit[8 * i : 8 * i + 8]
        assert len(table) == 1 << len(basis)
        for v, image in enumerate(table):
            expected = 0
            for j, check in enumerate(basis):
                if v >> j & 1:
                    expected ^= check
            assert image == expected, (i, v)
    lanes = tuple((code._chk_at + k, *(code._sym_at + b for b in range(m) if unit[b] >> k & 1))
                  for k in range(code._chk))
    assert code._load_lanes() == lanes


# The multiplications the scalar encoder counts on the 20 seeded messages
# of each odd-p or Reed-Solomon code below.
ENCODE_MULTS = {"bch(4,1;gf(5))": 70, "bch(8,1;gf(3))": 168, "rs(255,223;gf(2^8))": 142080}


@pytest.mark.parametrize("code", [
    BchCode(2, 3, 1), BchCode(2, 4, 2), BchCode(2, 6, 11),
    BchCode(5, 1, 1), BchCode(3, 2, 1), RsCode(ExtField(2, 8), 255, 223),
], ids=lambda code: code.spec_string())
def test_codewords_are_the_scalar_systematic_encoding(code):
    """A codeword is the message high and minus x^r * message mod g low,
    the remainder taken by the scalar ``_poly_remainder``.  Binary BCH
    parity comes from the packed kernel and counts no multiplication; the
    other codes count what the scalar remainder counts."""
    rng = random.Random(700 + code.n)
    field, r = code.field, code.redundancy
    spent = expected = 0
    for _ in range(20):
        message = [rng.randrange(code.s) for _ in range(code.k)]
        before = MUL_COUNTER.count
        word = code.encode(message)
        spent += MUL_COUNTER.count - before
        before = MUL_COUNTER.count
        parity = rs._poly_remainder(field, [0] * r + message, code.generator)
        expected += MUL_COUNTER.count - before
        assert word == [field.neg(v) for v in parity] + message
    if isinstance(code, BchCode) and code.p == 2:
        assert spent == 0 < expected
    else:
        assert spent == expected == ENCODE_MULTS[code.spec_string()]


def test_bch_names_its_base_field_in_symbol_errors():
    code = BchCode(2, 4, 2)
    with pytest.raises(AlphabetMismatchError, match=r"symbol 2 outside gf\(2\)$"):
        code.syndrome([0] * 14 + [2])
    with pytest.raises(AlphabetMismatchError, match=r"symbol 7 outside alphabet of 4$"):
        RsCode(ExtField(2, 2), 3, 1).syndrome([0, 7, 0])


def test_decoding_tables_stay_under_their_caps(fresh_codes):
    """Decoding every golden construction builds Chien tables of at most
    2^21 bits and coset tables of at most 4096 entries: a binary table
    one per pattern of weight <= t, an odd-p table one per remainder."""
    chien, cosets = [], []
    for _, spec, _, _, seed in GOLDEN:
        code = parse_spec(spec)
        word = seeded_words(code, seed)[-1]  # one nonzero cell
        assert code.decode(code.syndrome(word)) == word
        for part in parts(code):
            if getattr(part, "_chien", None):
                chien.append(part)
            if getattr(part, "_cosets", None):
                cosets.append(part)
    assert chien and cosets
    for code in chien:
        columns = code._chien
        assert len(columns) == code.count * code.field.m
        assert len(columns) * code.n * 8 <= rs._CHIEN_CAP_BITS
        assert max(c.bit_length() for c in columns) <= 8 * code.n
    for code in cosets:
        n, t = code.n, code.design_t
        if code.p == 2:
            assert len(code._cosets) == sum(math.comb(n, w) for w in range(t + 1)) <= rs._COSET_CAP
        else:
            assert len(code._cosets) == code.p**code.redundancy <= rs._COSET_CAP
    assert {code.p for code in cosets} == {2, 5}


def test_codes_above_the_caps_keep_the_scalar_decoders(monkeypatch):
    """The size predicates refuse what the caps exclude, and a code they
    refuse decodes without building a table."""
    outer = parse_spec(LARGEST_FLAT_CONCAT).outer
    assert not rs._chien_fits(outer.field, outer.n, outer.redundancy)  # m = 16
    assert not rs._chien_fits(ExtField(2, 8), 255, 155)  # 155 * 8 columns of 255 bytes
    assert rs._chien_fits(ExtField(2, 8), 255, 128)
    assert not rs._chien_fits(ExtField(3, 4), 80, 8)  # odd p
    assert not BchCode(2, 6, 3)._by_cosets  # 2^18 remainders
    assert BchCode(2, 6, 2)._by_cosets and BchCode(2, 3, 1)._by_cosets  # 2^12 and 2^3

    def refuse(*args, **kwargs):
        raise AssertionError("built a decoding table above its cap")

    code = RsCode(ExtField(2, 8), 255, 100)
    error = [0] * 255
    for at in (3, 90, 254):
        error[at] = at
    with monkeypatch.context() as patch:
        patch.setattr(rs, "_chien_table", refuse)
        assert code.decode(code.syndrome(error)) == error
    assert code._by_region is False and code._chien is None
    inner = BchCode(2, 6, 3)
    error = [int(i in (0, 9, 62)) for i in range(63)]
    monkeypatch.setattr(rs, "_coset_table", refuse)
    remainder = rs._pack_bits(inner.remainder(error))
    assert inner.decode_packed(remainder) == rs._pack_bits(error)
    assert inner._message_error(remainder) == rs._pack_bits(error) >> inner.redundancy
    assert inner._by_cosets is False and inner._cosets is None


@pytest.mark.parametrize("spec,seed", [
    ("rs(6,2;gf(2^9))", 211), ("rs(20,12;gf(2^10))", 212),
    ("rs(60,36;gf(2^12))", 213), ("rs(20,12;gf(2^16))", 214),
])
def test_wide_rs_kernel_bytes_are_the_template_of_the_scalar_sums(spec, seed):
    """Over F_{2^m}, m > 8, the kernel's power sums are their template
    bytes, two big-endian bytes a sum: ``syndrome_to_bytes`` of the
    scalar power sums, whose tuple ``syndrome`` still returns."""
    code = parse_spec(spec)
    field = code.field
    rng = random.Random(seed)
    words = [[rng.randrange(field.order) for _ in range(code.n)] for _ in range(20)]
    words += [[0] * code.n, [field.order - 1] * code.n, [0] * (code.n - 1) + [1]]
    for word in words:
        scalar = rs._sparse_syndrome(field, word, code.count)
        sums = code._power_sums(word)
        assert type(sums) is bytes and sums == syndrome_to_bytes(code, scalar)
        assert code.syndrome(word) == tuple(scalar)


@pytest.mark.parametrize("m,t", [(4, 2), (8, 5), (9, 3), (12, 2)])
def test_bch_kernel_bytes_are_the_template_of_the_scalar_sums(m, t):
    """A binary BCH kernel's power sums of a remainder are one byte a sum
    for m <= 8 and two big-endian bytes above; ``power_sums`` and
    ``syndrome`` still return the scalar sums' tuple."""
    code = BchCode(2, m, t)
    field, width = code.field, 1 if m <= 8 else 2
    rng = random.Random(220 + m)
    words = [[rng.randrange(2) for _ in range(code.n)] for _ in range(10)]
    words += [[int(i == at) for i in range(code.n)] for at in (0, code.redundancy, code.n - 1)]
    kernel = code._load_kernel()
    for word in words:
        rem = code.remainder(word)
        scalar = rs._sparse_syndrome(field, list(rem), code.count)
        sums = kernel.power_sums(rs._pack_bits(rem))
        assert sums == b"".join(v.to_bytes(width, "big") for v in scalar)
        assert code.power_sums(rem) == code.syndrome(word) == tuple(scalar)
