"""The byte-region decoder against the scalar one it stands in for.

Over F_{2^m}, m <= 8, a code with a Chien table decodes on byte regions
(``_CyclicCode._region_errors``) and takes sparse power sums from its
per-position columns (``_sums``).  Setting a code's ``_by_region`` to
False switches both off: the code then decodes with the scalar
``_gpz_decode`` and the dense ``_power_sums``, the oracle here.  Every
outcome must agree: the same error map, or the same DecodeFailure type
and message.  The region decoder counts no multiplication; what the
public decode counts is its reference twin's, on the scalar path
(tests/test_paths.py compares those counts).  The syndrome-space
walks of ``rs(7,3;gf(2^3))`` and ``rs(15,11;gf(2^4))`` in
test_syndrome_space.py make the same comparison over their whole spaces.
"""

import gc
import random
import tracemalloc
from functools import partial
from itertools import combinations, product

import pytest

import oracle
from synfuzz import codespec, rs
from synfuzz.concat import ConcatCode
from synfuzz.errors import DecodeFailure
from synfuzz.fuzzy import enroll, syndrome_from_bytes, syndrome_to_bytes, verify
from synfuzz.gf import ExtField
from synfuzz.rs import BchCode, RsCode

from test_golden import FORM_EDGES, GOLDEN, WIDE_GOLDEN, golden_word


def outcome(decode, *args):
    """The decode's result or its DecodeFailure."""
    try:
        return decode(*args)
    except DecodeFailure as exc:
        return type(exc), str(exc)


def region_and_scalar(monkeypatch, cyclic, decode, cases):
    """Each case's outcome with the region decoder, then with the scalar
    oracle switched in on ``cyclic``; both lists, which must be equal."""
    region = [outcome(decode, *case) for case in cases]
    assert cyclic._chien  # the region path ran
    with monkeypatch.context() as patch:
        patch.setattr(cyclic, "_by_region", False)
        scalar = [outcome(decode, *case) for case in cases]
    assert region == scalar
    return region


@pytest.mark.parametrize("m", range(2, 9))
def test_field_rows_are_the_products(m):
    field = ExtField(2, m)
    rows = field._load_rows()
    q = field.order
    assert len(rows) == q and all(len(row) == 256 for row in rows)
    for c in sorted({0, 1, q - 1, *random.Random(m).sample(range(q), min(q, 12))}):
        assert list(rows[c][:q]) == [oracle.elem_mul(2, m, field.modulus, c, a) for a in range(q)]
        assert not any(rows[c][q:])


@pytest.mark.parametrize("m", range(3, 9))
def test_chien_table_from_the_rows_matches_the_entry_by_entry_builder(m):
    """Full length and shortened, r in {2, 4, min(32, n - 1)}."""
    field = ExtField(2, m)
    full = field.order - 1
    for n in sorted({full, full // 2 + 1, 5}):
        for r in sorted({2, 4, min(32, n - 1)}):
            assert rs._chien_table(field, n, r) == oracle.chien_table(field, n, r), (n, r)


@pytest.mark.parametrize("m,n,r", [(3, 7, 4), (4, 11, 6), (7, 16, 8), (8, 255, 32)])
def test_power_columns_are_the_sums_of_unit_errors(m, n, r):
    field = ExtField(2, m)
    columns = rs._power_columns(field, n, r)
    assert len(columns) == n
    for i, column in enumerate(columns):
        assert list(column) == [field.alpha_pow(i * j) for j in range(1, r + 1)]


def test_region_decoder_matches_the_scalar_one_on_rs_255_223(monkeypatch):
    """Seeded syndromes of 0..17 errors (t = 16) and uniformly random
    syndromes, errors only, and seeded erasure sets."""
    code = RsCode(ExtField(2, 8), 255, 223)
    rng = random.Random(0x255)
    cases = []
    for errors in range(18):
        for _ in range(12):
            err = [0] * code.n
            for pos in rng.sample(range(code.n), errors):
                err[pos] = rng.randrange(1, 256)
            cases.append((code._body_syndrome(bytes(err)), ()))
    cases += [(bytes(rng.randrange(256) for _ in range(32)), ()) for _ in range(100)]
    for erased in (1, 5, 16, 31):
        for errors in (0, (32 - erased) // 2, (32 - erased) // 2 + 1):
            err = [0] * code.n
            where = rng.sample(range(code.n), erased + errors)
            for pos in where[: errors + erased // 2]:
                err[pos] = rng.randrange(1, 256)
            cases.append((code._body_syndrome(bytes(err)), tuple(where[errors:])))
    got = region_and_scalar(monkeypatch, code, code._errors, cases)
    decoded = [errors for errors in got if isinstance(errors, dict)]
    assert len(decoded) > 18 * 12 // 2 and any(isinstance(e, tuple) for e in got)


def test_region_decoder_matches_the_scalar_one_on_rs_7_3_erasure_sets(monkeypatch):
    """Every erasure set of one to four positions of rs(7,3;gf(2^3)),
    each against 48 seeded syndromes of the 4096."""
    code = RsCode(ExtField(2, 3), 7, 3)
    rng = random.Random(0xE7A)
    cases = [(tuple(rng.randrange(8) for _ in range(4)), erased)
             for size in range(1, 5) for erased in combinations(range(7), size)
             for _ in range(48)]
    got = region_and_scalar(monkeypatch, code, code._decode_syndrome, cases)
    assert any(isinstance(e, list) for e in got) and any(isinstance(e, tuple) for e in got)


def test_region_decoder_keeps_bch_magnitudes_in_the_base_field(monkeypatch):
    """bch(63,3;gf(2)) is above the coset-table cap, so its packed
    remainders decode through the syndrome decoder, with base_limit 2.
    Power sums of a remainder are conjugate-closed and decode to binary
    magnitudes; uniformly random power sums often do not."""
    code = BchCode(2, 6, 3)
    assert code._by_cosets is False
    rng = random.Random(0xB63)
    cases = []
    for errors in range(6):
        for _ in range(30):
            err = [0] * code.n
            for pos in rng.sample(range(code.n), errors):
                err[pos] = 1
            cases.append((rs._pack_bits(code.remainder(err)),))
    cases += [(rng.getrandbits(code.redundancy),) for _ in range(100)]
    region_and_scalar(monkeypatch, code, code.decode_packed, cases)
    cases = [(bytes(rng.randrange(64) for _ in range(code.count)),) for _ in range(300)]
    got = region_and_scalar(monkeypatch, code, code._errors, cases)
    causes = {e[1] for e in got if isinstance(e, tuple)}
    assert "magnitude outside the base field" in causes


SPACES = [
    "cI(rs(7,3;gf(2^3)))",
    "cI+parity(rs(7,3;gf(2^3)))",
    "cIII(rs(7,3;gf(2^3));1,7)",
    "concat(inner=bch(7,1;gf(2)), outer=rs(15,13;gf(2^4)), layout=flat)",
]


@pytest.mark.parametrize("spec", SPACES)
def test_region_decoder_matches_the_scalar_one_on_every_outer_syndrome(spec, monkeypatch):
    """Every outer syndrome of the binary block codes test_syndrome_space.py
    walks, beside a zero residual run and one nonzero in t seeded blocks:
    the whole decode, erasures, sparse sums and concat re-check included."""
    code = codespec.parse_spec(spec)
    outer = code.outer
    at = code.segments.index((outer.redundancy, outer.field))
    count = sum(c for c, _ in code.segments) - outer.redundancy  # the residual run
    seeded = [0] * count
    for i in random.Random(0x5E7).sample(range(outer.n), outer.t if count else 0):
        seeded[i * count // outer.n] = 1
    cases = [((sums + res) if at == 0 else (res + sums),)
             for res in {(0,) * count, tuple(seeded)}
             for sums in product(range(outer.field.order), repeat=outer.redundancy)]
    got = region_and_scalar(monkeypatch, outer, lambda synd: code._decode(bytes(synd))[0], cases)
    assert any(e for e in got if isinstance(e, dict))


def test_bch_remainder_spaces_decode_alike_through_both_decoders(monkeypatch):
    """Every remainder of bch(7,1;gf(2)) and bch(15,2;gf(2)) through the
    syndrome decoder, the coset table switched off."""
    monkeypatch.setattr(rs, "_COSET_CAP", 0)
    for m, t in ((3, 1), (4, 2)):
        code = BchCode(2, m, t)
        assert code._by_cosets is False
        cases = [(rem,) for rem in range(1 << code.redundancy)]
        region_and_scalar(monkeypatch, code, code.decode_packed, cases)


FORMS = GOLDEN + WIDE_GOLDEN + FORM_EDGES


@pytest.mark.parametrize("stem,spec,shape,q,seed", FORMS, ids=[g[0] for g in FORMS])
def test_the_internal_syndrome_is_the_template_bytes(stem, spec, shape, q, seed):
    """``syndrome`` is a tuple for every code; the syndrome of the word's
    body is the template bytes enroll stores, for both p, two big-endian
    bytes a symbol past 256 elements, from the code and from its
    reference twin alike, and the tuple is read from them."""
    code = codespec.parse_spec(spec)
    twin = code._twin or code._load_twin()
    for word in (code.zero_word(), golden_word(shape, q, seed)):
        stored = enroll(word, code).syndrome
        internal = code._body_syndrome(code._read(word))
        assert type(internal) is bytes and internal == stored
        assert twin._body_syndrome(twin._read(word)) == stored
        public = code.syndrome(word)
        assert type(public) is tuple and syndrome_to_bytes(code, public) == stored
        assert public == syndrome_from_bytes(code, stored)


@pytest.mark.parametrize("spec", ["rs(255,191;gf(2^8))", "bch(255,32;gf(2))"])
def test_the_region_tables_fit_the_code_weight(spec):
    """The heaviest codes that decode on regions (r = 64 over gf(2^8)):
    once a decode of two errors (one error takes the one-error exit, which
    needs no columns) has built the kernel, the Chien table, the columns
    and the field's rows, what the code retains, its reference twin
    included, stays under 40 bytes per unit of its cache weight."""
    gc.collect()
    tracemalloc.start()
    try:
        code = codespec._parse_code(spec)
        error = [0] * code.n
        error[3] = error[7] = 1
        synd = code.syndrome(error)
        decode = code.decode if isinstance(code, RsCode) else code.decode_syndrome
        assert decode(synd) == error
        assert code._chien and code._cols and code.field._rows and code._twin is not code
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= codespec._weight(spec, code) * 40


def test_parsing_builds_no_region_table(fresh_codes):
    """The rows, the Chien table and the columns are built on the first
    decode, never by parse_spec (perfbench's setup_s times the parse)."""
    code = codespec.parse_spec("cI(rs(255,223;gf(2^8)))")
    outer = code.outer
    assert (outer._chien, outer._cols, outer.field._rows) == (None, None, None)
    word = code.zero_word()
    word[40] = 1
    assert code.decode(code.syndrome(word)) == word
    assert outer._chien and outer._cols and outer.field._rows


def test_a_fresh_codes_first_decode_takes_the_warm_path(monkeypatch):
    """A freshly built concatenation whose first decode has a nonzero
    inner estimate (one flipped message digit of block 0) subtracts it
    through the Chien table's ``_sums``, which ``_minus_sums`` builds on
    first use, and so does its second: both verifies call ``_sums`` as
    often, get bytes from every ``_minus_sums`` and accept, counting
    nothing unasked."""
    code = ConcatCode(BchCode(2, 4, 2), RsCode(ExtField(2, 7), 127, 109))
    assert code.outer._chien is None
    calls, kinds = [], set()
    sums, minus = RsCode._sums, RsCode._minus_sums
    monkeypatch.setattr(RsCode, "_sums", lambda self, pairs: calls.append(1) or sums(self, pairs))
    monkeypatch.setattr(RsCode, "_minus_sums",
                        lambda self, *args: kinds.add(type(got := minus(self, *args))) or got)
    word = code.zero_word()
    template = enroll(word, code)
    read = list(word)
    read[12] = 1
    per_verify = []
    for _ in range(2):
        calls.clear()
        assert verify(read, template, code=code) == (True, word, None, None)
        per_verify.append(len(calls))
    assert per_verify[0] == per_verify[1] > 0 and kinds == {bytes}


def one_error_syndromes(code, positions, values):
    """The syndrome bytes s_j = v alpha^(ij), j = 1..count, of one error
    of value v at position i, for every position and value; a position
    of n or more gives a syndrome of the one-error shape that no error in
    range has."""
    field = code.field
    return [bytes(field.mul(v, field.alpha_pow(i * j)) for j in range(1, code.count + 1))
            for i in positions for v in values]


@pytest.mark.parametrize("build, positions, values, exits", [
    (lambda: RsCode(ExtField(2, 4), 15, 7), range(15), range(1, 16), 225),
    (lambda: RsCode(ExtField(2, 7), 40, 22), range(40), range(1, 128), 40 * 127),
    (lambda: RsCode(ExtField(2, 7), 40, 22), range(40, 127), (1, 2, 77, 127), 0),
    (lambda: BchCode(2, 4, 2), range(15), range(1, 16), 15),
], ids=["rs(15,7)", "rs(40,22)", "rs(40,22)-past-n", "bch(15,2)"])
def test_the_one_error_exit_gives_the_reference_twins_outcome(build, positions, values, exits,
                                                             monkeypatch):
    """Every one-error syndrome of rs(15,7;gf(2^4)) and of the shortened
    rs(40,22;gf(2^7)) (all n positions times all q - 1 values), the
    one-error-shaped syndromes of rs(40,22) at positions n .. q - 2, and
    those of bch(15,2;gf(2)) at every value, whose magnitude lies in the
    base field only at 1: the region decoder's pattern or DecodeFailure
    cause is the reference twin's.  The exit answers the ``exits``
    syndromes in range without a Chien search; the others go on to the
    full decode."""
    code = build()
    twin = code._twin or code._load_twin()
    assert code._by_region and twin._by_region is False
    searches = []
    search = rs._chien_search
    monkeypatch.setattr(rs, "_chien_search", lambda *args: searches.append(1) or search(*args))
    syndromes = one_error_syndromes(code, positions, values)
    exited = 0
    for synd in syndromes:
        before = len(searches)
        got = outcome(code._errors, synd)
        assert got == outcome(twin._errors, synd), synd
        exited += len(searches) == before
    assert exited == exits
    if exits < len(syndromes):
        causes = {got[1] for got in map(partial(outcome, code._errors), syndromes)
                  if isinstance(got, tuple)}
        past = "magnitude outside the base field" if code.s == 2 else (
            "locator of degree 1 has 0 roots in range")
        assert causes == {past}
