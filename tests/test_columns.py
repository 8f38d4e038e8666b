"""Per-cell syndrome columns against the paths they stand in for.

A binary block code of at most ``rs._COLUMN_CAP_CELLS`` cells, with outer
symbols of m <= 8 bits, takes its syndrome as the XOR of one column per
set cell, and its decoder re-checks the sparse map it returns by the
same XOR.  With the cap patched to 0 the same code takes the bit lanes
and the re-read of the blocks the map it returns touches,
``_BlockCode._recheck``: the oracle here.

An odd-p block code with one-byte outer symbols and cells * (p - 1) <= 255
takes its syndrome as the sum of one column per cell in digit bytes,
reduced mod p and packed into template bytes, and re-checks its decodes
by the same sum; a concatenation's inner decodes read the coset table.
With both caps patched to 0 the code takes the per-symbol split,
``_poly_remainder`` and ``_gpz_decode``: the oracle.
"""

import gc
import random
import sys
import tracemalloc
from collections import OrderedDict
from itertools import product

import pytest

import test_protocol
from synfuzz import codespec, rs
from synfuzz.errors import DecodeFailure, TemplateFormatError
from synfuzz.fuzzy import enroll, syndrome_from_bytes, syndrome_to_bytes, verify
from synfuzz.gf import MUL_COUNTER, _from_digits
from synfuzz.rs import BchCode

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
    assert lanes._by_columns is False and lanes._columns is None
    capped = columns.base_length <= 256 and columns.outer.field.m <= 8
    assert columns._by_columns == bool(columns._columns) == capped
    if not capped:
        return
    for at, column in enumerate(columns._columns):
        unit = bytearray(columns.base_length)
        unit[at] = 1
        assert column.to_bytes(columns._size, "little") == lanes._body_syndrome(unit)


def walk(code):
    """``decode_all`` of every syndrome of cI(rs(7,3;gf(2^3))), else the
    outer walk of tests/test_syndrome_space.py beside a zero residual run
    and one nonzero in t seeded blocks: per syndrome the pattern or
    None."""
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
            try:
                got = code.decode(synd)
            except DecodeFailure:
                got = None
            out.append((synd, got))
    return out


WALKS = ["cI(rs(7,3;gf(2^3)))"] + [spec for spec, _ in BLOCK_CODES]


@pytest.mark.parametrize("spec", WALKS)
def test_syndrome_walks_decode_alike_on_both_paths(spec, monkeypatch):
    """The same outcome for every syndrome the syndrome-space walks
    decode, with columns and with lanes."""
    columns = fresh(spec)
    expected = walk(columns)
    assert any(got is not None for _, got in expected)
    assert columns._by_columns or columns.alphabet.p != 2
    lanes_off(monkeypatch)
    lanes = fresh(spec)
    assert walk(lanes) == expected
    assert lanes._by_columns is False and lanes._columns is None


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
    assert low._by_columns and high._by_columns is False
    for cap, code, text in ((0, low, templates[0]), (1 << 20, high, templates[1])):
        monkeypatch.setattr(rs, "_COLUMN_CAP_CELLS", cap)
        other = fresh(code.spec_string())
        assert enroll(golden_word(code.shape, 2, code.base_length), other).to_text() == text
        assert other._by_columns == (cap > 0)


REFUSALS = [
    test_protocol.test_concat_decode_refuses_a_pattern_its_syndrome_does_not_reproduce,
    test_protocol.test_concat_decode_refuses_a_rebuilt_block_whose_residual_is_not_stored,
    test_protocol.test_concat_decode_refuses_a_pattern_that_leaves_out_a_damaged_block,
]


@pytest.mark.parametrize("refusal", REFUSALS, ids=[f.__name__[5:] for f in REFUSALS])
@pytest.mark.parametrize("spec", test_protocol.CONCATS)
def test_concat_refusals_hold_on_the_lanes_too(spec, refusal, monkeypatch, fresh_codes):
    """The concatenations' refusal tests run on the column re-check for
    iv and v (under the cap) and on ``_BlockCode._recheck`` for the
    rest; with the cap at 0 every one runs on ``_recheck``."""
    lanes_off(monkeypatch)
    refusal(spec, monkeypatch)
    assert codespec.parse_spec(spec)._by_columns is False


def one_cell_word(code, seed):
    rng = random.Random(seed)
    flat = [0] * code.base_length
    flat[rng.randrange(code.base_length)] = 1
    return code._shaped(flat)


def drop_a_cell(code, found, touched):
    del found[next(iter(found))]


def set_a_cell_outside(code, found, touched):
    """The first cell of the first block the decode did not touch."""
    order = code._block_order() or range(code.base_length)
    found[order[min(set(range(code.outer.n)) - set(touched)) * code._width]] = 1


def change_a_check_cell(code, found, touched):
    """The first touched block's first check cell plus one."""
    order = code._block_order() or range(code.base_length)
    at = order[touched[0] * code._width + code._chk_at]
    value = (found.pop(at, 0) + 1) % code.alphabet.p
    if value:
        found[at] = value


def spoil(code, fault, monkeypatch):
    """Make the code's decodes leave the first touched block out of the
    symbol error map they rebuild from, or apply ``fault`` to the map of
    cells they rebuild."""
    if fault == "leave_out_a_block":
        decode_blocks = code._decode_blocks

        def left_out(parts, sums):
            errors, erasures, delta = decode_blocks(parts, sums)
            del errors[next(iter(errors))]
            return errors, erasures, delta

        monkeypatch.setattr(code, "_decode_blocks", left_out)
        return
    cells_of = code._cells_of

    def faulty(offsets, syms, parts):
        found = cells_of(offsets, syms, parts)
        fault(code, found, list(syms))
        return found

    monkeypatch.setattr(code, "_cells_of", faulty)


@pytest.mark.parametrize("spec", ["cI+parity(rs(15,7;gf(2^4)))", "cII(rs(15,7;gf(2^4));3,5)",
                                  "cIII(rs(15,5;gf(2^4));3,5)"])
def test_an_expansion_refuses_a_pattern_with_a_dropped_cell(spec, monkeypatch):
    """An expansion re-checks its sparse map against the whole syndrome:
    a rebuilt block with one set cell dropped makes the decode fail,
    under the cap by the columns and without them by the re-read of the
    touched blocks (``_BlockCode._recheck``)."""
    for cap in (rs._COLUMN_CAP_CELLS, 0):
        monkeypatch.setattr(rs, "_COLUMN_CAP_CELLS", cap)
        code = fresh(spec)
        word = one_cell_word(code, 700)
        synd = code.syndrome(word)
        assert code.decode(synd) == word
        spoil(code, drop_a_cell, monkeypatch)
        with pytest.raises(DecodeFailure, match="does not reproduce the syndrome"):
            code.decode(synd)


# Every golden block code with each fault that applies to it: a code
# without check cells has none to change.
FAULTY_MAPS = [(g[1], fault) for g in GOLDEN + WIDE_GOLDEN if not g[1].startswith("rs")
               for fault in (drop_a_cell, set_a_cell_outside, change_a_check_cell,
                             "leave_out_a_block")
               if fault is not change_a_check_cell or fresh(g[1])._chk]


@pytest.mark.parametrize("cap", [rs._COLUMN_CAP_CELLS, 0], ids=["cap", "no-columns"])
@pytest.mark.parametrize("spec,fault", FAULTY_MAPS,
                         ids=[f"{spec}-{getattr(f, '__name__', f)}" for spec, f in FAULTY_MAPS])
def test_a_block_code_refuses_a_faulty_map(spec, fault, cap, monkeypatch):
    """Every golden block code, with its columns and without: a decode
    whose map has one set cell dropped, one cell set in a block it did
    not touch, one check cell changed or one damaged block left out
    fails, on the verify path's template bytes and on the public decode's
    tuple.  The word has two damaged blocks, one cell each."""
    monkeypatch.setattr(rs, "_COLUMN_CAP_CELLS", cap)
    code = fresh(spec)
    rng = random.Random(702)
    flat = [0] * code.base_length
    order = code._block_order() or range(code.base_length)
    for i in rng.sample(range(code.outer.n), 2):
        flat[order[i * code._width + rng.randrange(code._width)]] = 1
    word = code._shaped(flat)
    synd = code._body_syndrome(code._read(word))
    assert code._dense(code._decode(synd)[0]) == code.decode(code.syndrome(word)) == word
    spoil(code, fault, monkeypatch)
    for decode, given in ((code._decode, synd), (code.decode, code.syndrome(word))):
        with pytest.raises(DecodeFailure, match="does not reproduce the syndrome"):
            decode(given)


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


# The odd-p golden block codes: vi over gf(5), cI+parity and cIII over gf(3).
ODD_BLOCK = [g[1] for g in GOLDEN if g[3] in (3, 5) and not g[1].startswith("rs")]


def scalar_off(monkeypatch):
    """Both caps at 0 and an empty code cache: the codes parsed next take
    the per-symbol paths, their inner codes the scalar decode."""
    monkeypatch.setattr(rs, "_COLUMN_CAP_CELLS", 0)
    monkeypatch.setattr(rs, "_COSET_CAP", 0)
    monkeypatch.setattr(codespec, "_codes", OrderedDict())


def seeded_words(code, seed, count=8):
    rng = random.Random(seed)
    q = code.alphabet.order
    return [code._shaped([rng.randrange(q) for _ in range(code.base_length)])
            for _ in range(count)] + [code.zero_word()]


def noisy_reads(code, word, seed):
    """Reads of the word with 0 .. 2t + 1 damaged blocks, one to all cells
    each, and two other words: within and past the capability."""
    rng = random.Random(seed)
    q, width, outer = code.alphabet.order, code._width, code.outer
    flat = [v for row in word for v in row] if len(code.shape) == 2 else list(word)
    order = code._block_order() or range(code.base_length)
    reads = []
    for blocks in list(range(2 * outer.t + 2)) * 3:
        cells = list(flat)
        for i in rng.sample(range(outer.n), blocks):
            for j in rng.sample(range(width), rng.randint(1, width)):
                at = order[i * width + j]
                cells[at] = (cells[at] + rng.randrange(1, q)) % q
        reads.append(code._shaped(cells))
    return reads + seeded_words(code, seed + 1, 2)[:2]


def outcome(decode, synd):
    """The sparse map and DecodeInfo a decode returns, or None."""
    try:
        return decode(synd)
    except DecodeFailure:
        return None


def digit_runs(code, symbols):
    """The digit bytes of a syndrome tuple: each symbol's base-p digits,
    low first."""
    fields = [f for count, f in code.segments for _ in range(count)]
    return bytes(d for v, f in zip(symbols, fields) for d in f.to_base_vector(v))


@pytest.mark.parametrize("spec", ODD_BLOCK)
def test_odd_columns_give_the_per_symbol_syndromes(spec, monkeypatch, fresh_codes):
    """Seeded words and the zero word: the per-symbol path's template
    bytes, and each column the digits of the syndrome of its cell's
    value alone."""
    columns = fresh(spec)
    words = seeded_words(columns, 0x0DD)
    templates = [columns._body_syndrome(columns._read(w)) for w in words]
    units = []
    for at in range(columns.base_length):
        for v in range(columns.alphabet.p):
            unit = bytearray(columns.base_length)
            unit[at] = v
            units.append(unit)
    scalar_off(monkeypatch)
    oracle_code = fresh(spec)
    expected = [oracle_code._body_syndrome(oracle_code._read(w)) for w in words]
    assert oracle_code._by_columns is False and type(expected[0]) is bytes
    assert columns._by_columns and columns._digits and columns._columns
    assert templates == expected
    assert [columns.syndrome(w) for w in words] == [oracle_code._stored(t) for t in expected]
    assert [columns._columns[at][v] for at in range(columns.base_length)
            for v in range(columns.alphabet.p)] == [
        int.from_bytes(digit_runs(columns, oracle_code._stored(oracle_code._body_syndrome(u))),
                       "little")
        for u in units]


@pytest.mark.parametrize("spec", ODD_BLOCK)
def test_odd_columns_decode_like_the_per_symbol_path(spec, monkeypatch, fresh_codes):
    """The verify path with columns and coset table and with the
    per-symbol split and scalar inner decode: the same templates,
    VerifyResults with their decode_mults (verify asked to count), and
    ``_decode`` outcomes, on noisy reads and on seeded template
    syndromes, in range and out."""
    code = fresh(spec)
    words = seeded_words(code, 0x0DE, 3)
    cases = [(w, r) for k, w in enumerate(words) for r in noisy_reads(code, w, k)]
    rng = random.Random(0x0DF)
    raws = [bytes(rng.randrange(f.order) for count, f in code.segments for _ in range(count))
            for _ in range(200)]
    zero = code._body_syndrome(code._read(code.zero_word()))

    def run(code):
        results = []
        for word, read in cases:
            template = enroll(word, code)
            synd = code._body_syndrome(code._read(read))
            results.append((template, verify(read, template, code=code, count=True),
                            outcome(code._decode, code._stored_minus(template.syndrome, synd))))
        return results + [outcome(code._decode, code._stored_minus(raw, zero)) for raw in raws]

    expected = run(code)
    scalar_off(monkeypatch)
    oracle_code = fresh(spec)
    zero = oracle_code._body_syndrome(oracle_code._read(oracle_code.zero_word()))
    assert type(zero) is bytes
    assert run(oracle_code) == expected
    assert oracle_code._by_columns is False and code._by_columns
    accepted = [v.accepted for _, v, _ in expected[: len(cases)]]
    assert any(accepted) and not all(accepted)
    assert any(got is None for got in expected[len(cases):])
    assert any(got is not None for got in expected[len(cases):])


@pytest.mark.parametrize("spec", ODD_BLOCK)
def test_odd_digit_bytes_refuse_what_the_tuple_reader_refuses(spec, fresh_codes):
    """Stored syndrome bytes with a symbol outside its run's field, or of
    the wrong length, raise the tuple reader's TemplateFormatError, with
    its message, from ``_stored_minus`` too."""
    code = fresh(spec)
    word = code.zero_word()
    raw = enroll(word, code).syndrome
    presented = code._body_syndrome(code._read(word))
    at, bad = 0, []
    for count, field in code.segments:
        for value in (field.order, 255):
            bad.append(raw[:at] + bytes([value]) + raw[at + 1 :])
        at += count
    bad += [raw[:-1], raw + b"\0", b""]
    for raw in bad:
        with pytest.raises(TemplateFormatError) as tuple_error:
            syndrome_from_bytes(code, raw)
        with pytest.raises(TemplateFormatError) as minus_error:
            code._stored_minus(raw, presented)
        assert str(minus_error.value) == str(tuple_error.value)


@pytest.mark.parametrize("spec, takes_columns", [
    ("cI(rs(31,23;gf(3^4)))", True),  # 124 cells: 124 * 2 = 248
    ("cI(rs(32,24;gf(3^4)))", False),  # 128 cells: 256 could carry
])
def test_the_odd_cap_counts_cells_times_p_minus_one(spec, takes_columns, monkeypatch,
                                                    fresh_codes):
    """A code whose column sum stays under 256 in every byte takes
    columns, one block more takes the per-symbol path; both give the
    oracle's templates and verify results."""
    code = fresh(spec)
    words = seeded_words(code, 0x0E0, 2)
    cases = [(w, r) for k, w in enumerate(words) for r in noisy_reads(code, w, k)]
    expected = [(enroll(w, code), verify(r, enroll(w, code), code=code)) for w, r in cases]
    assert bool(code._columns) == takes_columns == bool(code._digits)
    assert code.base_length * 2 <= 255 if takes_columns else code.base_length * 2 > 255
    scalar_off(monkeypatch)
    oracle_code = fresh(spec)
    assert [(enroll(w, oracle_code), verify(r, enroll(w, oracle_code), code=oracle_code))
            for w, r in cases] == expected
    assert any(v.accepted for _, v in expected) and not all(v.accepted for _, v in expected)


def scalar_message_error(code, remainder):
    """The inner decode a concatenation ran per damaged block before the
    coset table: the remainder's power sums to the scalar decoder, the
    pattern's message digits read as one int."""
    try:
        sums = rs._sparse_syndrome(code.field, remainder, code.count)
        errors = code._errors(rs._pack_run(sums, code.field.order))
    except DecodeFailure:
        return None
    r = code.redundancy
    return _from_digits([errors.get(i, 0) for i in range(r, code.n)], code.p)


@pytest.mark.parametrize("spec, p, entries", [("bch(4,1;gf(5))", 5, 25),
                                              ("bch(8,1;gf(3))", 3, 81)])
def test_the_odd_coset_table_is_the_scalar_decode(spec, p, entries):
    """bch(4,1;gf(5)) and bch(8,1;gf(3)): parsing builds no table, and
    the first inner decode builds it counting nothing, as a lookup counts
    nothing.  Then every remainder's entry, keyed by the tuple of its
    digits, which a lookup returns, is the scalar decode's message error."""
    code = fresh(spec)
    assert code._cosets is None and code.p == p
    start = MUL_COUNTER.count
    assert code._message_error((0,) * code.redundancy) == 0 and MUL_COUNTER.count == start
    assert len(code._cosets) == entries == p**code.redundancy <= rs._COSET_CAP
    decodable = 0
    for remainder in product(range(p), repeat=code.redundancy):
        error = scalar_message_error(code, remainder)
        assert code._cosets[remainder] == error == code._message_error(remainder)
        decodable += error is not None
    # the remainders of the patterns of weight <= 1: 1 + n (p - 1)
    assert decodable == 1 + code.n * (p - 1)


def test_an_inner_code_above_the_coset_cap_decodes_with_the_scalar_decoder(monkeypatch):
    """bch(26,2;gf(3)) has 3^9 remainders, above the cap: no table, and
    each inner decode runs _gpz_decode."""
    code = BchCode(3, 3, 2)
    assert code.p**code.redundancy == 3**9 > rs._COSET_CAP
    calls = []
    gpz = rs._gpz_decode

    def counting(*args, **kwargs):
        calls.append(args)
        return gpz(*args, **kwargs)

    monkeypatch.setattr(rs, "_gpz_decode", counting)
    remainder = bytes(code.remainder([0] * 20 + [1] + [0] * 5))
    assert code._message_error(remainder) == 3 ** (20 - code.redundancy)
    assert code._by_cosets is False and code._cosets is None and len(calls) == 1
    assert code._message_error(bytes(code.redundancy)) == 0 and len(calls) == 2


def test_the_digit_walk_decodes_like_the_tuple_walk(fresh_codes):
    """Every syndrome of the vi walk, serialized and taken through
    ``_stored_minus`` against the zero word, decodes by ``_decode`` with
    the column re-check to the pattern the public decode gives the
    tuple."""
    spec = next(spec for spec in WALKS if spec.endswith("layout=vi)"))
    code = fresh(spec)
    zero = code._body_syndrome(code._read(code.zero_word()))
    expected = walk(code)
    got = []
    for synd, _ in expected:
        diff = code._stored_minus(syndrome_to_bytes(code, synd), zero)
        result = outcome(code._decode, diff)
        got.append((synd, None if result is None else code._dense(result[0])))
    assert code._digits and type(zero) is bytes
    assert got == expected


def retained(objects) -> int:
    """The bytes of the distinct objects reachable through tuples, dicts
    and their contents from ``objects``."""
    seen, total, todo = set(), 0, list(objects)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            todo += [*obj.keys(), *obj.values()]
        elif isinstance(obj, tuple):
            todo += obj
    return total


PACKED_FIELDS = [(p, m) for p in (3, 5, 7, 11, 13) for m in range(1, 6) if 3 <= p**m <= 256]


@pytest.mark.parametrize("p, m", PACKED_FIELDS, ids=[f"gf({p}^{m})" for p, m in PACKED_FIELDS])
def test_one_multiplication_packs_the_outer_digits(p, m):
    """``_column_template`` on the widest row expansion over gf(p^m)
    that takes columns: every byte of a column sum, the largest (255)
    among them, reduced mod p, and each outer symbol's m digits packed
    into its byte as the sum of digit b times p^b, without a carry
    between the symbols."""
    from synfuzz.expand import ExpandedCode
    from synfuzz.gf import ExtField
    from synfuzz.rs import RsCode

    n = min(p**m - 1, 255 // (m * (p - 1)))
    code = ExpandedCode(RsCode(ExtField(p, m), n, max(1, n - 3)), "row-vector")
    assert code._by_columns
    maps = code._load_digits()
    rng = random.Random(p * 8 + m)
    sums = [bytes([255] * maps.size)] + [bytes(rng.randrange(256) for _ in range(maps.size))
                                         for _ in range(50)]
    for total in sums:
        digits = bytes(v % p for v in total)
        want = bytes(sum(digits[j + b] * p**b for b in range(m)) for j in range(0, maps.sums, m))
        assert code._column_template(int.from_bytes(total, "little")) == want + digits[maps.sums:]


def test_the_odd_tables_fit_the_code_weight():
    """The sizes codespec._CODE_WEIGHT's comment states: the largest odd-p
    columns (p = 3, 124 cells, 120 digit bytes) under 50 KB, and of the
    odd-p BCH codes a concatenation admits as inner codes (p^r within the
    coset cap, outer field p^k <= 2^16) the largest coset table,
    bch(6,2;gf(7)) with 2401 remainders, under 320 KB once full; both
    within the 40 bytes per unit of the weight."""
    code = fresh("cI(rs(31,1;gf(3^4)))")
    assert code._by_columns and code._load_columns() and code._digits.size == 120
    assert retained([code._columns]) < 50_000
    admitted = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        m = 1
        while p**m - 1 <= codespec._MAX_BCH_LENGTH:
            n = p**m - 1
            for t in range(1, (n + 1) // 2):  # r grows with t
                r = len(rs._root_exponents(n, p, 2 * t))
                if r >= n or p**r > rs._COSET_CAP:
                    break
                if p ** (n - r) <= 1 << 16:
                    admitted.append((p**r, p, m, t))
            m += 1
    entries, p, m, t = max(admitted)
    assert (entries, p, m, t) == (2401, 7, 1, 2)
    inner = BchCode(p, m, t)
    assert len(inner._load_cosets()) == entries
    assert retained([inner._cosets]) < 320_000 < codespec._CODE_WEIGHT * 40


def test_an_odd_identity_concatenation_takes_columns_like_the_oracle(monkeypatch):
    """An identity inner code over gf(3) has no check cells: its columns
    hold only outer sums, and its templates and verify results are the
    per-symbol path's."""
    from synfuzz.concat import ConcatCode, TrivialCode, VLayout
    from synfuzz.gf import ExtField
    from synfuzz.rs import RsCode

    def build():
        return ConcatCode(TrivialCode(3, 2), RsCode(ExtField(3, 2), 8, 4), VLayout(2, 2))

    code = build()
    words = seeded_words(code, 0x0E1, 3)
    cases = [(w, r) for k, w in enumerate(words) for r in noisy_reads(code, w, k)]
    expected = [(enroll(w, code), verify(r, enroll(w, code), code=code)) for w, r in cases]
    assert code._by_columns and code._digits.size == 4 * 2
    monkeypatch.setattr(rs, "_COLUMN_CAP_CELLS", 0)
    oracle_code = build()
    assert [(enroll(w, oracle_code), verify(r, enroll(w, oracle_code), code=oracle_code))
            for w, r in cases] == expected
    assert oracle_code._by_columns is False and oracle_code._columns is None
    assert any(v.accepted for _, v in expected) and not all(v.accepted for _, v in expected)
