import gc
import itertools
import random
import sys
import threading
import tracemalloc
import weakref

import pytest

import synfuzz
from synfuzz import codespec, fuzzy, gf, rs
from synfuzz.codespec import parse_field, parse_spec
from synfuzz.concat import ConcatCode, FlatLayout, IvLayout, ViLayout, VLayout
from synfuzz.errors import (
    NonPrimitiveAlphaError,
    NotPrimeError,
    ShapeMismatchError,
    SpecParseError,
    SynfuzzError,
)
from synfuzz.expand import ExpandedCode
from synfuzz.rs import BchCode, RsCode

from test_golden import GOLDEN, WIDE_GOLDEN
from test_paths import reads_of


def test_parse_field_forms():
    assert parse_field("gf(2)").order == 2
    assert parse_field("gf(2^3)").order == 8
    f = parse_field("gf(2^8;modulus=1,0,1,1,1,0,0,0,1)")
    assert f.order == 256 and f.modulus_is_default


def test_parse_field_errors():
    with pytest.raises(SpecParseError):
        parse_field("gf2^3")
    with pytest.raises(SpecParseError):
        parse_field("gf(2^3;mod=1,1,0,1)")
    with pytest.raises(NonPrimitiveAlphaError):
        parse_field("gf(2^3;modulus=1,0,0,1)")
    with pytest.raises(SpecParseError, match="too many clauses"):
        parse_field("gf(2^3;modulus=1,1,0,1;modulus=1,1,0,1)")
    with pytest.raises(SpecParseError, match="monic"):
        parse_field("gf(3^3;modulus=1,2,0,2)")
    with pytest.raises(NotPrimeError):
        parse_field("gf(4)")
    for text in ("gf (2)", "GF(2)", "gf(2)x", "gf(2", "gf2)", "gf)2("):
        with pytest.raises(SpecParseError):
            parse_field(text)


def test_parse_rs():
    code = parse_spec("rs(7,3;gf(2^3))")
    assert isinstance(code, RsCode)
    assert (code.n, code.k) == (7, 3)
    shortened = parse_spec("rs(30,12;gf(2^7))")
    assert shortened.is_shortened
    with pytest.raises(SpecParseError, match="n <= 7"):
        parse_spec("rs(9,3;gf(2^3))")


def test_parse_bch():
    code = parse_spec("bch(15,2;gf(2))")
    assert isinstance(code, BchCode)
    assert (code.n, code.k, code.t) == (15, 7, 2)
    tiny = parse_spec("bch(4,1;gf(5))")
    assert (tiny.n, tiny.k) == (4, 2)
    with pytest.raises(SpecParseError):
        parse_spec("bch(14,2;gf(2))")
    with pytest.raises(SpecParseError):
        parse_spec("bch(15,2;gf(2^4))")


def test_parse_expansions():
    c1 = parse_spec("cI(rs(7,3;gf(2^3)))")
    assert isinstance(c1, ExpandedCode) and c1.kind == "row-vector"
    c1p = parse_spec("cI+parity(rs(7,3;gf(2^3)))")
    assert c1p.kind == "row-vector-parity"
    c2 = parse_spec("cII(rs(15,7;gf(2^4));3,5)")
    assert c2.kind == "square-array" and c2.shape == (6, 10)
    c3 = parse_spec("cIII(rs(15,5;gf(2^4));3,5)")
    assert c3.kind == "companion-array" and c3.shape == (12, 20)


def test_parse_concat_layouts():
    flat = parse_spec("concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)")
    assert isinstance(flat, ConcatCode) and flat.layout == FlatLayout()
    iv = parse_spec("concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=iv(7,5))")
    assert iv.layout == IvLayout(7, 5)
    v = parse_spec("concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))")
    assert v.layout == VLayout(4, 5)
    vi = parse_spec("concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)")
    assert vi.layout == ViLayout()
    with pytest.raises(ShapeMismatchError, match="primes differ"):
        parse_spec("concat(inner=bch(8,1;gf(3)), outer=rs(3,1;gf(2^2)), layout=flat)")


# A concatenation names each component and its layout exactly once.
REPEATED_OR_EMPTY_CONCAT_CLAUSES = (
    "concat(inner=bch(15,2;gf(2)), inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=flat)",
    "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), outer=rs(15,11;gf(2^4)), layout=flat)",
    "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=flat, layout=vi)",
    "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=flat,)",
    "concat(inner=bch(7,1;gf(2)), , outer=rs(15,11;gf(2^4)), layout=flat)",
)


def test_parse_errors(fresh_codes):
    """Each refusal comes before any component is parsed and cached."""
    with pytest.raises(SpecParseError):
        parse_spec("huh(1,2)")
    with pytest.raises(SpecParseError):
        parse_spec("rs(7,3)")
    with pytest.raises(SpecParseError):
        parse_spec("concat(inner=bch(15,2;gf(2)), layout=flat)")
    with pytest.raises(SpecParseError):
        parse_spec("concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=diag)")
    for text in REPEATED_OR_EMPTY_CONCAT_CLAUSES:
        with pytest.raises(SpecParseError):
            parse_spec(text)
    assert not codespec._codes


@pytest.mark.parametrize("text", [
    "rs (7,3;gf(2^3))",
    "rs(7,3;gf (2^3))",
    "concat(layout=v (4,5), inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)))",
    "RS(7,3;gf(2^3))",
    "CI(rs(7,3;gf(2^3)))",
    "cI(RS(7,3;gf(2^3)))",
    "cIV(rs(7,3;gf(2^3)))",
    "cI+parity2(rs(7,3;gf(2^3)))",
    "concat2(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))",
    "concat(layout=vi(), inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)))",
    "rs(7,3;gf(2^3))x",
    "rs(7,3;gf(2^3)) (1)",
    "cI(rs(7,3;gf(2^3)))rs(7,3;gf(2^3))",
    "rs(7,3;gf(2^3)",
    "rs(7,3;gf(2^3)))",
    "rs)7,3;gf(2^3)(",
    "rs(7,3;gf)2^3()",
    "cI(rs(7,3;gf(2^3))",
])
def test_names_are_read_exactly(fresh_codes, text):
    """A name is written in its own case, directly before its '(', and
    its parentheses balance and close the text: anything else is refused,
    and nothing is cached."""
    with pytest.raises(SpecParseError):
        parse_spec(text)
    assert not codespec._codes


@pytest.mark.parametrize("text,spec", [
    ("cI( rs(255,223;gf(2^8)) )", "cI(rs(255,223;gf(2^8)))"),
    ("  rs( 7 , 3 ; gf( 2 ^ 3 ) )  ", "rs(7,3;gf(2^3))"),
    ("cII( rs(15,7;gf(2^4)) ; 3 , 5 )", "cII(rs(15,7;gf(2^4));3,5)"),
    ("rs(7,3;gf(2^3; modulus=1,1,0,1))", "rs(7,3;gf(2^3))"),
    ("concat(inner=bch(15,2;gf(2)) ,outer=rs(16,8;gf(2^7)), layout= v( 4 , 5 ) )",
     "concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))"),
])
def test_spaces_around_separators_are_ignored(text, spec):
    assert parse_spec(text).spec_string() == spec


def test_format_parse_round_trip():
    specs = [
        "rs(7,3;gf(2^3))",
        "rs(30,12;gf(2^7))",
        "bch(15,2;gf(2))",
        "cI(rs(15,7;gf(2^4)))",
        "cI+parity(rs(15,7;gf(2^4)))",
        "cII(rs(15,7;gf(2^4));3,5)",
        "cIII(rs(15,5;gf(2^4));3,5)",
        "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=iv(7,5))",
        "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)",
    ]
    for spec in specs:
        code = parse_spec(spec)
        assert code.spec_string() == spec
        # parsing the formatted form gives an equivalent code
        again = parse_spec(code.spec_string())
        assert again.spec_string() == spec


@pytest.fixture
def no_field_work(monkeypatch):
    """Fail the test if parsing reaches primality testing or table building."""
    def refuse(*args, **kwargs):
        raise AssertionError("spec parsing did work before bounding sizes")

    monkeypatch.setattr(codespec, "ExtField", refuse)
    monkeypatch.setattr(codespec, "BchCode", refuse)
    monkeypatch.setattr(gf, "_is_prime", refuse)


@pytest.mark.parametrize("text", [
    "gf(1000000000000000003)",
    "gf(100003)",
    "gf(65537)",
    "gf(2^17)",
    "gf(3^11)",
    "gf(2^100000000)",
])
def test_oversized_fields_are_refused_before_building(no_field_work, text):
    with pytest.raises(SpecParseError):
        parse_field(text)


def test_oversized_bch_length_is_refused_before_building(no_field_work):
    for text in (
        "bch(131071,2;gf(2))",
        "bch(1000000000000,2;gf(3))",
        "bch(8191,1000;gf(2))",
        "bch(6560,2;gf(3))",
        "concat(inner=bch(8191,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=flat)",
    ):
        with pytest.raises(SpecParseError):
            parse_spec(text)


def test_rs_generator_is_not_built_at_parse_time(monkeypatch, fresh_codes):
    """Neither an RS nor a BCH generator is built by parse_spec: the
    dimension comes from the root cosets, not the polynomial."""

    def refuse(*args, **kwargs):
        raise AssertionError("parsing built a generator polynomial")

    monkeypatch.setattr(rs, "_poly_mul", refuse)
    rs_code = parse_spec("rs(4095,4031;gf(2^12))")
    assert (rs_code.n, rs_code.k) == (4095, 4031)
    bch = parse_spec("bch(4095,32;gf(2))")
    assert (bch.n, bch.k) == (4095, 4095 - 12 * 32)  # 32 cosets of 12 roots
    concats = [parse_spec(g[1]) for g in GOLDEN if g[1].startswith("concat(")]
    cyclic = [rs_code, bch] + [c for code in concats for c in (code.inner, code.outer)]
    assert all(c._gen is None for c in cyclic)


@pytest.mark.parametrize("text", [
    "rs(1023,1;gf(2^10))",
    "bch(4095,33;gf(2))",
])
def test_oversized_redundancy_is_refused_before_building(no_field_work, text):
    with pytest.raises(SpecParseError):
        parse_spec(text)


@pytest.mark.parametrize("text", [
    "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=iv(0,5))",
    "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=iv(-7,5))",
    "concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(-5,7))",
    "concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,0))",
    "cII(rs(15,7;gf(2^4));-3,-5)",
    "cIII(rs(15,5;gf(2^4));0,5)",
])
def test_non_positive_layout_parameters_are_refused(text):
    with pytest.raises(SpecParseError):
        parse_spec(text)


def test_parsing_builds_no_cell_table(fresh_codes):
    """A code's block map is built on first use, never when a template's
    spec is parsed."""
    assert vars(parse_spec("cIII(rs(4095,4031;gf(2^12));63,65)"))["_order"] is None
    code = parse_spec("concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))")
    assert vars(code)["_order"] is None
    code.syndrome(code.zero_word())
    assert vars(code)["_order"] is not None


def test_codes_are_identified_by_their_spec():
    specs = [g[1] for g in GOLDEN] + ["rs(30,12;gf(2^7))"]
    codes = [parse_spec(spec) for spec in specs]
    for spec, code in zip(specs, codes):
        again = parse_spec(spec)
        assert again == code and hash(again) == hash(code)
        assert repr(code) == f"{type(code).__name__}({spec})"
    for a, b in itertools.combinations(codes, 2):
        assert a != b
    assert parse_spec("rs(7,3;gf(2^3;modulus=1,1,0,1))") == parse_spec("rs(7,3;gf(2^3))")


def test_layouts_are_identified_by_their_spec():
    """A layout, like a code, is its spec string: equal, hashed and shown
    by it, and never equal to a layout of another type."""
    assert IvLayout(7, 5) == IvLayout(a=7, b=5)
    assert hash(IvLayout(7, 5)) == hash(IvLayout(a=7, b=5))
    assert repr(IvLayout(7, 5)) == "IvLayout(iv(7,5))"
    assert repr(ViLayout()) == "ViLayout(vi)"
    layouts = [FlatLayout(), ViLayout(), IvLayout(7, 5), IvLayout(5, 7), VLayout(7, 5)]
    assert FlatLayout() == FlatLayout() and VLayout(7, 5) == VLayout(a=7, b=5)
    for a, b in itertools.combinations(layouts, 2):
        assert a != b
    code = parse_spec("concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=iv(7,5))")
    assert {code.layout: 1}[IvLayout(7, 5)] == 1


def test_every_alphabet_and_syndrome_run_is_a_field():
    for spec in [g[1] for g in GOLDEN]:
        code = parse_spec(spec)
        assert isinstance(code.alphabet, gf.ExtField)
        assert all(isinstance(field, gf.ExtField) for _, field in code.segments)


def test_every_exported_name_resolves():
    for name in synfuzz.__all__:
        assert hasattr(synfuzz, name), name


def test_a_reparsed_spec_is_the_same_code_and_builds_no_field(monkeypatch, fresh_codes):
    specs = [g[1] for g in GOLDEN] + ["bch(15,2;gf(2))"]
    codes = [parse_spec(spec) for spec in specs]

    def refuse(*args, **kwargs):
        raise AssertionError("a re-parse built a field")

    monkeypatch.setattr(gf.ExtField, "__init__", refuse)
    assert all(parse_spec(spec) is code for spec, code in zip(specs, codes))


def test_heavy_distinct_specs_stay_under_the_weight_bound(fresh_codes):
    """Each cI(rs(n,n-2;gf(2^16))) and its RS code are cached apart, and
    each weighs about 147,500 units for the 5.5 MB field they share, so
    the bound keeps eight of them.  A stream of five such codes, each
    decoded once, evicts the oldest, and what the cache retains stays
    under 48 bytes per unit of its bound."""
    gc.collect()
    tracemalloc.start()
    try:
        for n in range(3, 8):
            code = parse_spec(f"cI(rs({n},{n - 2};gf(2^16)))")
            word = [0] * code.base_length
            word[16:32] = [1] * 16  # symbol 1 of block 1
            assert code.decode(code.syndrome(word)) == word
            weights = [weight for _, weight in codespec._codes.values()]
            assert codespec._codes_weight == sum(weights) <= codespec._CACHE_BOUND
        del code
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    rs_specs = [f"rs({n},{n - 2};gf(2^16))" for n in range(4, 8)]
    assert list(codespec._codes) == [text for rs in rs_specs for text in (rs, f"cI({rs})")]
    assert retained <= codespec._CACHE_BOUND * 48


def test_long_distinct_spec_texts_stay_under_the_weight_bound(fresh_codes):
    """120 distinct spellings of one code padded with 1 MB are refused;
    padded to just under the spec cap they are cached apart, and what the
    cache retains stays under 48 bytes per unit of its bound."""
    gc.collect()
    tracemalloc.start()
    try:
        for i in range(120):
            spec = f"rs(7,{' ' * i}3;gf(2^3))"
            with pytest.raises(SpecParseError):
                parse_spec(spec.ljust(1 << 20))
            parse_spec(spec.ljust(codespec.MAX_SPEC_CHARS - 1))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert codespec._codes_weight <= codespec._CACHE_BOUND
    assert all(len(text) < codespec.MAX_SPEC_CHARS for text in codespec._codes)
    assert retained <= codespec._CACHE_BOUND * 48


@pytest.mark.parametrize(
    "spec",
    [
        "cI(rs(65535,65471;gf(2^16)))",
        "cI+parity(rs(61680,61616;gf(2^16)))",
        "concat(inner=bch(31,3;gf(2)), outer=rs(33825,33761;gf(2^16)), layout=flat)",
        "cIII(rs(10485,10421;gf(3^10));1,10485)",
        "cIII(rs(4096,4032;gf(2^16));64,64)",
        "concat(inner=bch(63,11;gf(2)), outer=rs(16644,16580;gf(2^16)), layout=v(4,7))",
    ],
)
def test_the_heaviest_codes_fit_the_bound(spec):
    code = codespec._parse_code(spec)
    assert code.base_length > codespec.MAX_CELLS - (1 << 10)
    assert codespec._weight(spec, code) <= codespec._CACHE_BOUND


# The roster's constructions are the first ten golden ones.
ROSTER = [g[1] for g in GOLDEN[:10]]
PRICED = ROSTER + [g[1] for g in GOLDEN[10:] + WIDE_GOLDEN] + [
    "rs(65,1;gf(2^16))",
    "rs(255,191;gf(2^8))",
    "bch(255,32;gf(2))",
    "cI(rs(32,1;gf(2^8)))",
    "concat(inner=bch(26,7;gf(3)), outer=rs(2,1;gf(3^4)), layout=flat)",
]


def warm_up():
    """Load what a first enroll and verify load once per process (the
    hash modules), so that tracemalloc sees only a code's own bytes."""
    code = codespec._parse_code("rs(7,3;gf(2^3))")
    fuzzy.verify([0] * 7, fuzzy.enroll([0] * 7, code), code, count=True)


def decode_thrice(code, seed):
    """An enroll, a decode and a counted decode of a read with s damaged
    blocks (s the outer capability); a bare BCH code decodes a syndrome
    of t errors."""
    if isinstance(code, BchCode):
        error = [int(i < code.t) for i in range(code.n)]
        synd = code.syndrome(error)
        assert code.decode_syndrome(synd) == code.decode_syndrome(synd, count=True) == error
        return
    word, reads = reads_of(code, seed)
    template = fuzzy.enroll(word, code)
    plain, counted = (fuzzy.verify(reads[2], template, code, count=c) for c in (False, True))
    assert plain.accepted and counted.accepted


@pytest.mark.parametrize("spec", PRICED)
def test_a_code_retains_at_most_its_weight(spec, fresh_codes):
    """What a parsed code retains, its components and reference twins
    included, once it has enrolled, decoded and counted a decode, is at
    most 40 bytes per unit of its weight, its price (rs._cost) with its
    key; a roster construction's is at least a quarter of it."""
    warm_up()
    gc.collect()
    tracemalloc.start()
    try:
        code = parse_spec(spec)
        decode_thrice(code, 0x5EED)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    weight = codespec._weight(spec, code)
    assert retained <= weight * 40
    if spec in ROSTER:
        assert retained >= weight * 10


def verify_eight(code, counted_first):
    """Four counted and four plain verifies of a code's reads, in the
    order given, after one enroll."""
    word, reads = reads_of(code, 0x7717)
    template = fuzzy.enroll(word, code)
    for count in (counted_first, not counted_first):
        for read in reads[1:5]:
            fuzzy.verify(read, template, code, count=count)


@pytest.mark.parametrize("spec", ROSTER)
def test_a_twin_holds_the_tables_its_code_builds(spec, fresh_codes):
    """Counted verifies first or plain verifies first, a code retains the
    same bytes up to its twins' own objects: the twin reads the code's
    tables and builds none that the code builds too.  A first run, not
    compared, fills the process-wide caches (struct formats, mod
    tables)."""
    retained = []
    for counted_first in (True, True, False):
        codespec._codes.clear()
        codespec._codes_weight = 0
        gc.collect()
        tracemalloc.start()
        try:
            code = parse_spec(spec)
            verify_eight(code, counted_first)
            gc.collect()
            retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
    del retained[0]
    twins = {id(c._twin): c._twin for c in (code, getattr(code, "outer", None),
                                            getattr(code, "inner", None)) if c and c._twin is not c}
    own = sum(sys.getsizeof(twin) + sys.getsizeof(vars(twin)) for twin in twins.values())
    assert abs(retained[0] - retained[1]) <= own


def test_an_evicted_code_is_freed(monkeypatch, fresh_codes):
    first = parse_spec("rs(7,3;gf(2^3))")
    # room for the next code alone
    second = codespec._parse_code("rs(15,7;gf(2^4))")
    monkeypatch.setattr(codespec, "_CACHE_BOUND", codespec._weight("", second))
    ref = weakref.ref(first)
    del first
    parse_spec("rs(15,7;gf(2^4))")
    gc.collect()
    assert ref() is None
    assert list(codespec._codes) == ["rs(15,7;gf(2^4))"]


def test_a_failed_parse_is_not_cached(fresh_codes):
    for text in (
        "rs(7,3)",
        "rs(7,3;gf(2^3;modulus=1,0,0,1))",
        "cII(rs(15,7;gf(2^4));3,4)",
        "rs(7,3;gf(2^3))".ljust(codespec.MAX_SPEC_CHARS + 1),
        "rs(２５５,223;gf(2^8))",
        "rs(2_55,22_3;gf(2^8))",
        "rs(+255,223;gf(2^8))",
    ):
        with pytest.raises(SynfuzzError):
            parse_spec(text)
    # the refused cII's RS code parsed, and is cached under its own text
    assert list(codespec._codes) == ["rs(15,7;gf(2^4))"]
    assert codespec._codes_weight == codespec._codes["rs(15,7;gf(2^4))"][1]


def test_constructions_share_their_cached_components(fresh_codes):
    plain = parse_spec("rs(255,223;gf(2^8))")
    assert parse_spec("cI( rs(255,223;gf(2^8)) )").rs is plain
    flat, v = (parse_spec(g[1]) for g in GOLDEN if g[1].startswith("concat(inner=bch(15,2"))
    assert flat.inner is v.inner is parse_spec("bch(15,2;gf(2))")


def test_a_bare_bch_spec_is_cached_and_still_not_enrollable(fresh_codes):
    code = parse_spec("bch(15,2;gf(2))")
    assert parse_spec("bch(15,2;gf(2))") is code
    assert codespec._codes_weight == codespec._weight("bch(15,2;gf(2))", code)
    with pytest.raises(ShapeMismatchError, match="not an enrollable code"):
        fuzzy.enrollable(code)


def test_threads_keep_the_cache_weight_consistent(monkeypatch, fresh_codes):
    """Eight threads parse overlapping specs under a bound that forces
    evictions; a lost update would leave the running weight off the sum
    of the cached codes' weights."""
    specs = [f"rs({n},{n - 2};gf(2^5))" for n in range(3, 32)]
    lightest = codespec._weight(specs[0], codespec._parse_code(specs[0]))
    monkeypatch.setattr(codespec, "_CACHE_BOUND", 5 * lightest)
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                spec = rng.choice(specs)
                assert parse_spec(spec).spec_string() == spec
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not errors
    weights = [weight for _, weight in codespec._codes.values()]
    assert codespec._codes_weight == sum(weights) <= codespec._CACHE_BOUND
    assert 0 < len(weights) <= 5
