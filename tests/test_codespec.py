import itertools

import pytest

import synfuzz
from synfuzz import codespec, gf, rs
from synfuzz.codespec import format_spec, parse_field, parse_spec
from synfuzz.concat import ConcatCode, FlatLayout, IvLayout, ViLayout, VLayout
from synfuzz.errors import ReducibleModulusError, SpecParseError
from synfuzz.expand import ExpandedCode
from synfuzz.rs import BchCode, RsCode

from test_golden import GOLDEN


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
    with pytest.raises(ReducibleModulusError):
        parse_field("gf(2^3;modulus=1,0,0,1)")


def test_parse_rs():
    code = parse_spec("rs(7,3;gf(2^3))")
    assert isinstance(code, RsCode)
    assert (code.n, code.k) == (7, 3)
    shortened = parse_spec("rs(30,12;gf(2^7))")
    assert shortened.is_shortened


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


def test_parse_errors():
    with pytest.raises(SpecParseError):
        parse_spec("huh(1,2)")
    with pytest.raises(SpecParseError):
        parse_spec("rs(7,3)")
    with pytest.raises(SpecParseError):
        parse_spec("concat(inner=bch(15,2;gf(2)), layout=flat)")
    with pytest.raises(SpecParseError):
        parse_spec("concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=diag)")


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
        assert format_spec(code) == spec
        # parsing the formatted form gives an equivalent code
        again = parse_spec(format_spec(code))
        assert format_spec(again) == spec


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


def test_rs_generator_is_not_built_at_parse_time(monkeypatch):
    """Neither an RS nor a BCH generator is built by parse_spec: the
    dimension comes from the root cosets, not the polynomial."""

    def refuse(*args, **kwargs):
        raise AssertionError("parsing built a generator polynomial")

    rs._generator.cache.clear()
    monkeypatch.setattr(rs, "_poly_mul", refuse)
    code = parse_spec("rs(4095,4031;gf(2^12))")
    assert (code.n, code.k) == (4095, 4031)
    code = parse_spec("bch(4095,32;gf(2))")
    assert (code.n, code.k) == (4095, 4095 - 12 * 32)  # 32 cosets of 12 roots
    for spec in [g[1] for g in GOLDEN if g[1].startswith("concat(")]:
        parse_spec(spec)
    assert not rs._generator.cache


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


def test_parsing_builds_no_cell_table():
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


def test_every_alphabet_and_syndrome_run_is_a_field():
    for spec in [g[1] for g in GOLDEN]:
        code = parse_spec(spec)
        assert isinstance(code.alphabet, gf.ExtField)
        assert all(isinstance(field, gf.ExtField) for _, field in code.segments)


def test_every_exported_name_resolves():
    for name in synfuzz.__all__:
        assert hasattr(synfuzz, name), name
