"""Each code's three table paths, and every combination of them.

A code decides its paths once, in its constructor, from its parameters:
a block code's per-cell columns (``_by_columns``, ``rs._columns_fit``),
a cyclic code's byte-region decoder (``_by_region``, ``rs._chien_fits``)
and a BCH code's coset table (``_by_cosets``, p^r <= ``rs._COSET_CAP``).
Turning a flag off switches that code back to the scalar oracle, and
everything that follows from the flag with it.  Every combination must
enroll the same templates and verify alike.
"""

import random
from itertools import combinations

import pytest

from oracle import fresh_code, paths_on
from synfuzz import rs
from synfuzz.fuzzy import enroll, verify
from synfuzz.gf import ExtField
from synfuzz.rs import RsCode

from test_golden import GOLDEN, WIDE_GOLDEN

# The paths each golden construction takes.  A cap edit that moves one
# of them fails here, not only in timings.
TRAFFIC = {
    "rs(255,223;gf(2^8))": ("_by_region",),
    "cI(rs(7,3;gf(2^3)))": ("_by_columns", "outer._by_region"),
    "cI(rs(255,223;gf(2^8)))": ("outer._by_region",),
    "cI+parity(rs(15,7;gf(2^4)))": ("_by_columns", "outer._by_region"),
    "cII(rs(15,7;gf(2^4));3,5)": ("_by_columns", "outer._by_region"),
    "cIII(rs(15,5;gf(2^4));3,5)": ("_by_columns", "outer._by_region"),
    "concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)":
        ("outer._by_region", "inner._by_region", "inner._by_cosets"),
    "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=iv(7,5))":
        ("_by_columns", "outer._by_region", "inner._by_region", "inner._by_cosets"),
    "concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))":
        ("_by_columns", "outer._by_region", "inner._by_region", "inner._by_cosets"),
    "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)":
        ("_by_columns", "inner._by_cosets"),
    "rs(8,4;gf(3^2))": (),
    "cI+parity(rs(8,4;gf(3^2)))": ("_by_columns",),
    "cIII(rs(8,4;gf(3^2));2,4)": ("_by_columns",),
    "cI(rs(20,12;gf(2^10)))": (),
    "concat(inner=bch(63,11;gf(2)), outer=rs(20,12;gf(2^16)), layout=flat)":
        ("inner._by_region",),
}


def test_each_golden_construction_takes_its_paths():
    assert set(TRAFFIC) == {g[1] for g in GOLDEN + WIDE_GOLDEN}
    assert {spec: paths_on(fresh_code(spec)) for spec in TRAFFIC} == TRAFFIC


def rs_255(k):
    """rs(255,k;gf(2^8)), built directly: no spec reaches the Chien cap."""
    return lambda: RsCode(ExtField(2, 8), 255, k)


# One code on each side of each cap: the flag it sets, and whether it is on.
CAP_SIDES = [
    ("cI(rs(32,24;gf(2^8)))", "_by_columns", True),  # 256 cells
    ("cI(rs(33,25;gf(2^8)))", "_by_columns", False),  # 264 cells
    ("cI(rs(31,23;gf(3^4)))", "_by_columns", True),  # 124 cells: 248 per byte
    ("cI(rs(32,24;gf(3^4)))", "_by_columns", False),  # 128 cells: 256 could carry
    ("concat(inner=bch(15,3;gf(2)), outer=rs(8,4;gf(2^5)), layout=flat)",
     "inner._by_cosets", True),  # 576 patterns
    ("concat(inner=bch(31,3;gf(2)), outer=rs(6,2;gf(2^16)), layout=flat)",
     "inner._by_cosets", False),  # 4992 patterns
    ("concat(inner=bch(8,1;gf(3)), outer=rs(8,4;gf(3^4)), layout=flat)",
     "inner._by_cosets", True),  # 3^4 remainders
    ("concat(inner=bch(26,7;gf(3)), outer=rs(4,2;gf(3^4)), layout=flat)",
     "inner._by_cosets", False),  # 3^22 remainders
    (rs_255(128), "_by_region", True),  # 127 * 8 columns of 255 bytes
    (rs_255(100), "_by_region", False),  # 155 * 8 columns
]
CASES = [g[1] for g in GOLDEN + WIDE_GOLDEN] + [spec for spec, _, _ in CAP_SIDES]
IDS = [g[0] for g in GOLDEN + WIDE_GOLDEN] + [
    spec if isinstance(spec, str) else spec().spec_string() for spec, _, _ in CAP_SIDES]


@pytest.mark.parametrize("spec, path, on", CAP_SIDES, ids=IDS[-len(CAP_SIDES):])
def test_each_cap_falls_between_its_pair(spec, path, on):
    assert (path in paths_on(fresh_code(spec))) == on
    assert rs._COLUMN_CAP_CELLS == 256 and rs._COSET_CAP == 4096
    assert rs._CHIEN_CAP_BITS == 1 << 21


def blocks(code):
    """The row-major cells of each outer symbol, block by block: one cell
    a symbol for a plain RS code."""
    if isinstance(code, RsCode):
        return [[i] for i in range(code.n)]
    order, width = code._block_order() or range(code.base_length), code._width
    return [order[at : at + width] for at in range(0, code.base_length, width)]


def reads_of(code, seed):
    """A seeded word and its reads: twice each 0, 1, s, s + 1 and 2s + 1
    damaged blocks (s the outer capability), one to all cells of each,
    then two impostors."""
    rng = random.Random(seed)
    q, units = code.alphabet.order, blocks(code)
    s = getattr(code, "outer", code).t
    word = [rng.randrange(q) for _ in range(code.base_length)]
    reads = []
    for count in sorted({0, 1, s, s + 1, 2 * s + 1}) * 2:
        cells = list(word)
        for block in rng.sample(units, min(count, len(units))):
            for at in rng.sample(block, rng.randint(1, len(block))):
                cells[at] = (cells[at] + rng.randrange(1, q)) % q
        reads.append(cells)
    reads += [[rng.randrange(q) for _ in range(code.base_length)] for _ in range(2)]
    return code._shaped(word), [code._shaped(cells) for cells in reads]


@pytest.mark.parametrize("spec", CASES, ids=IDS)
def test_every_path_combination_enrolls_and_verifies_alike(spec):
    """Every combination of the flags the code has on, each turned off on
    a fresh code: the same template text, per read the same syndrome of
    its body, as bytes, and the same acceptance, recovered word and
    reason, counted or not.
    ``decode_mults``, asked for, is the same too, except between
    combinations that differ in a binary inner code's coset table, which
    the reference twin keeps as built and whose lookups count no product."""
    base = fresh_code(spec)
    on, (word, reads) = paths_on(base), reads_of(base, 0x9A7)
    binary_inner = "inner._by_cosets" in on and base.inner.p == 2
    first, mults = None, {}
    for k in range(len(on) + 1):
        for off in combinations(on, k):
            code = fresh_code(spec, off)
            template = enroll(word, code)
            results = [verify(read, template, code=code, count=True) for read in reads]
            synds = [code._body_syndrome(code._read(read)) for read in reads]
            assert all(type(synd) is bytes for synd in synds), off
            got = (template.to_text(), [result[:3] for result in results], synds)
            assert [verify(read, template, code=code)[:3] for read in reads] == got[1], off
            if first is None:
                first = got
                assert any(r.accepted for r in results) and not all(r.accepted for r in results)
            assert got == first, off
            group = binary_inner and "inner._by_cosets" in off
            counts = mults.setdefault(group, [r.decode_mults for r in results])
            assert [r.decode_mults for r in results] == counts, off
