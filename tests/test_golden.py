"""Golden templates: enrollment output is pinned byte for byte.

Each file under tests/golden/ is the template of one seeded word under one
construction.  Re-enrolling the same word must reproduce the file exactly,
and the stored template must accept its own word.  The word shapes and
alphabet sizes are written out here so the test reads nothing but the
spec string, enroll and verify from the package.
"""

import random
from pathlib import Path

import pytest

from synfuzz.codespec import parse_spec
from synfuzz.fuzzy import Template, enroll, verify

GOLDEN_DIR = Path(__file__).parent / "golden"

# (file stem, spec, data shape, alphabet size, word seed)
GOLDEN = (
    ("rs-255-223", "rs(255,223;gf(2^8))", (255,), 256, 101),
    ("cI-7-3", "cI(rs(7,3;gf(2^3)))", (21,), 2, 102),
    ("cI-255-223", "cI(rs(255,223;gf(2^8)))", (2040,), 2, 103),
    ("cIp-15-7", "cI+parity(rs(15,7;gf(2^4)))", (75,), 2, 104),
    ("cII-15-7", "cII(rs(15,7;gf(2^4));3,5)", (6, 10), 2, 105),
    ("cIII-15-5", "cIII(rs(15,5;gf(2^4));3,5)", (12, 20), 2, 106),
    ("concat-flat",
     "concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)",
     (1905,), 2, 107),
    ("concat-iv",
     "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=iv(7,5))",
     (21, 5), 2, 108),
    ("concat-v",
     "concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))",
     (12, 20), 2, 109),
    ("concat-vi",
     "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)",
     (4, 8), 5, 110),
    ("rs-8-4-gf9", "rs(8,4;gf(3^2))", (8,), 9, 111),
    ("cIp-8-4-gf9", "cI+parity(rs(8,4;gf(3^2)))", (24,), 3, 112),
    ("cIII-8-4-gf9", "cIII(rs(8,4;gf(3^2));2,4)", (4, 8), 3, 113),
)
# Binary block codes whose outer symbols are wider than a byte (m > 8);
# pinned here only, so the suites parametrized over GOLDEN stay small.
WIDE_GOLDEN = (
    ("cI-20-12-gf1024", "cI(rs(20,12;gf(2^10)))", (200,), 2, 114),
    ("concat-bch63",
     "concat(inner=bch(63,11;gf(2)), outer=rs(20,12;gf(2^16)), layout=flat)",
     (1260,), 2, 115),
)

# Odd-p codes past the edges of the golden ones, for the syndrome-form
# tests: symbols of two bytes (p > 256), two-byte residual digits, a
# block code past the carry bound of odd-p columns and an odd-p
# concatenation without columns.  No template file pins them.
FORM_EDGES = (
    ("rs-40-30-gf257", "rs(40,30;gf(257))", (40,), 257, 116),
    ("cIp-40-30-gf65521", "cI+parity(rs(40,30;gf(65521)))", (80,), 65521, 117),
    ("cI-32-24-gf81", "cI(rs(32,24;gf(3^4)))", (128,), 3, 118),
    ("concat-bch8-gf27",
     "concat(inner=bch(8,2;gf(3)), outer=rs(26,20;gf(3^3)), layout=flat)",
     (208,), 3, 119),
)


def golden_word(shape, q, seed):
    rng = random.Random(seed)
    if len(shape) == 1:
        return [rng.randrange(q) for _ in range(shape[0])]
    rows, cols = shape
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("stem,spec,shape,q,seed", GOLDEN + WIDE_GOLDEN,
                         ids=[g[0] for g in GOLDEN + WIDE_GOLDEN])
def test_golden_template(stem, spec, shape, q, seed):
    stored = (GOLDEN_DIR / f"{stem}.sfh").read_bytes()
    code = parse_spec(spec)
    word = golden_word(shape, q, seed)
    assert enroll(word, code).to_text().encode("ascii") == stored
    result = verify(word, Template.from_text(stored.decode("ascii")))
    assert result.accepted and result.recovered == word
