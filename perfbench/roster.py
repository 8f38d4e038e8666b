"""The ten constructions every workload runs over, their inputs and checks.

Everything here is the benchmark's own: the data shapes, the guaranteed
noise bounds (the closed forms listed in the repository README), the
seeded word and noise generators, and the digest serialization that the
checks recompute with hashlib.  Only `check_bounds` (which compares the
closed forms with the program's capability figures) and `codeword` (which
asks the program's encoders for a codeword) call into the program.

This module imports nothing from synfuzz, so the set-up probe can time the
package import on its own.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

# Genuine reads carry noise at these fractions of the guaranteed bound:
# fraction 0 is one symbol or cell, fraction 1 is the bound itself.
NOISE_FRACTIONS = (0.0, 1 / 3, 2 / 3, 1.0)
# Each word is read once per noise fraction and once by an impostor, so
# one read in five is an impostor.
IMPOSTORS_PER_WORD = 1


def row_bound(m: int, r: int) -> int:
    """Row layouts: one burst of length m*(floor(r/2) - 1) + 1."""
    return m * (r // 2 - 1) + 1


def square_bound(m: int, r: int) -> int:
    """Square tiles: one square burst of side sqrt(m)*(floor(sqrt(r/2)) - 1) + 1."""
    return math.isqrt(m) * (math.isqrt(r // 2) - 1) + 1


def companion_bound(m: int, r: int) -> int:
    """Companion tiles: one square burst of side m*(floor(sqrt(r/2)) - 1) + 1."""
    return m * (math.isqrt(r // 2) - 1) + 1


def flat_bound(n: int, s: int, t: int) -> int:
    """Flat concatenation: one burst of length n*(s-1) + 2t."""
    return n * (s - 1) + 2 * t


def v_rectangles(n: int, b: int, s: int) -> tuple:
    """v layout: one ((s1-1)n/b + 1) x ((s2-1)b + 1) burst for each maximal
    factor pair s1*s2 <= s."""
    pairs = [(s1, s // s1) for s1 in range(1, s + 1)]
    maximal = [
        (s1, s2) for s1, s2 in pairs
        if not any(o1 >= s1 and o2 >= s2 and (o1, o2) != (s1, s2) for o1, o2 in pairs)
    ]
    return tuple(((s1 - 1) * (n // b) + 1, (s2 - 1) * b + 1) for s1, s2 in maximal)


@dataclass(frozen=True)
class Construction:
    """One roster entry.

    ``noise`` is "random" (``size`` scattered symbol errors), "burst" (one
    1D burst of length ``size``) or "rect" (one ``size`` = (rows, cols)
    rectangle plus ``extra`` scattered cells).  ``bounds`` pairs each
    capability query the noise relies on with the closed-form answer; the
    query () stands for the plain RS code's t.
    """

    spec: str
    family: str          # "rs", "expand" or "concat": which encoder gives codewords
    shape: tuple
    q: int               # data alphabet size
    alphabet: str        # canonical field spec that heads the hashed serialization
    noise: str
    size: object
    extra: int
    bounds: tuple


_RS_T = (255 - 223) // 2
_IV_WINDOW = (15 // 5, 5)            # iv(7,5) over N=15 blocks: N/b x b
_V_RECTS = v_rectangles(15, 5, 4)    # v(4,5), inner n=15, outer s=4
_VI_THIN = ((1, 4), (4, 1))          # vi, inner n=4

ROSTER = (
    Construction("rs(255,223;gf(2^8))", "rs", (255,), 256,
                 "gf(2^8;modulus=1,0,1,1,1,0,0,0,1)", "random", _RS_T, 0,
                 (((), _RS_T),)),
    Construction("cI(rs(7,3;gf(2^3)))", "expand", (21,), 2, "gf(2)",
                 "burst", row_bound(3, 4), 0, (((1, "1d"), row_bound(3, 4)),)),
    Construction("cI(rs(255,223;gf(2^8)))", "expand", (2040,), 2, "gf(2)",
                 "burst", row_bound(8, 32), 0, (((1, "1d"), row_bound(8, 32)),)),
    Construction("cI+parity(rs(15,7;gf(2^4)))", "expand", (75,), 2, "gf(2)",
                 "burst", row_bound(4, 8), 0, (((1, "1d"), row_bound(4, 8)),)),
    Construction("cII(rs(15,7;gf(2^4));3,5)", "expand", (6, 10), 2, "gf(2)",
                 "rect", (square_bound(4, 8),) * 2, 0,
                 (((1, "square"), square_bound(4, 8)),)),
    Construction("cIII(rs(15,5;gf(2^4));3,5)", "expand", (12, 20), 2, "gf(2)",
                 "rect", (companion_bound(4, 10),) * 2, 0,
                 (((1, "square"), companion_bound(4, 10)),)),
    Construction("concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)",
                 "concat", (1905,), 2, "gf(2)", "burst", flat_bound(15, 9, 2), 0,
                 ((("single_burst",), flat_bound(15, 9, 2)),)),
    Construction("concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=iv(7,5))",
                 "concat", (21, 5), 2, "gf(2)", "rect", _IV_WINDOW, 2,
                 ((("bursts",), (1, _IV_WINDOW)), (("random_errors",), 2))),
    Construction("concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))",
                 "concat", (12, 20), 2, "gf(2)", "rect", _V_RECTS[1], 0,
                 ((("burst_rectangles",), _V_RECTS),)),
    Construction("concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)",
                 "concat", (4, 8), 5, "gf(5)", "rect", _VI_THIN[0], 0,
                 ((("thin_bursts",), (1, _VI_THIN)),)),
)

SPECS = tuple(c.spec for c in ROSTER)


def check_bounds(code, con: Construction) -> list[str]:
    """Where the program's capability figures differ from the closed forms."""
    bad = []
    for query, expected in con.bounds:
        got = code.capability(*query) if query else code.t
        if got != expected:
            bad.append(f"{con.spec}: capability{query} is {got!r}, closed form gives {expected!r}")
    return bad


# ---------------------------------------------------------------------------
# words and noise
# ---------------------------------------------------------------------------


def add_symbols(q: int, a: int, b: int) -> int:
    """Symbol addition: XOR in characteristic 2, mod q for a prime q."""
    return a ^ b if q & (q - 1) == 0 else (a + b) % q


def random_word(rng, con: Construction):
    q = con.q
    if len(con.shape) == 1:
        return [rng.randrange(q) for _ in range(con.shape[0])]
    rows, cols = con.shape
    return [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]


def _scaled(bound: int, fraction: float) -> int:
    return 1 + round(fraction * (bound - 1))


def noise_cells(rng, con: Construction, fraction: float) -> dict:
    """Error values by flat cell index, at ``fraction`` of the bound.

    Bursts and rectangles are dense: every cell inside gets a nonzero error.
    """
    q = con.q
    cells = {}
    if con.noise == "random":
        for pos in rng.sample(range(con.shape[0]), _scaled(con.size, fraction)):
            cells[pos] = rng.randrange(1, q)
    elif con.noise == "burst":
        length = _scaled(con.size, fraction)
        start = rng.randrange(con.shape[0] - length + 1)
        for pos in range(start, start + length):
            cells[pos] = rng.randrange(1, q)
    else:
        rows, cols = con.shape
        h, w = (_scaled(d, fraction) for d in con.size)
        r0 = rng.randrange(rows - h + 1)
        c0 = rng.randrange(cols - w + 1)
        for r in range(r0, r0 + h):
            for c in range(c0, c0 + w):
                cells[r * cols + c] = rng.randrange(1, q)
        outside = [i for i in range(rows * cols) if i not in cells]
        for pos in rng.sample(outside, round(fraction * con.extra)):
            cells[pos] = rng.randrange(1, q)
    return cells


def add_noise(con: Construction, word, cells: dict):
    q = con.q
    if len(con.shape) == 1:
        out = list(word)
        for pos, e in cells.items():
            out[pos] = add_symbols(q, out[pos], e)
        return out
    cols = con.shape[1]
    out = [list(row) for row in word]
    for pos, e in cells.items():
        r, c = divmod(pos, cols)
        out[r][c] = add_symbols(q, out[r][c], e)
    return out


def as_lists(word):
    """A word as (nested) lists, whatever sequence type the program returns."""
    if word and not isinstance(word[0], int):
        return [list(row) for row in word]
    return list(word)


def xor_words(a, b):
    if a and isinstance(a[0], list):
        return [[x ^ y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return [x ^ y for x, y in zip(a, b)]


def codeword(code, con: Construction, rng):
    """A random codeword, from the program's own encoders."""
    if con.family == "rs":
        return code.encode([rng.randrange(code.field.order) for _ in range(code.k)])
    if con.family == "expand":
        rs = code.rs
        return code.expand(rs.encode([rng.randrange(rs.field.order) for _ in range(rs.k)]))
    outer = code.outer
    return code.encode([rng.randrange(outer.field.order) for _ in range(outer.k)])


# ---------------------------------------------------------------------------
# the digest, recomputed apart from the program
# ---------------------------------------------------------------------------


def canonical_bytes(con: Construction, word) -> bytes:
    """The serialization documented in fuzzy.canonical_bytes: the field spec,
    the shape, then every symbol row-major as minimal big-endian bytes."""
    head = f"{con.alphabet}|{'x'.join(str(d) for d in con.shape)}|".encode("ascii")
    width = ((con.q - 1).bit_length() + 7) // 8
    flat = word if len(con.shape) == 1 else [v for row in word for v in row]
    return head + b"".join(v.to_bytes(width, "big") for v in flat)


def digest(con: Construction, word) -> bytes:
    return hashlib.sha256(canonical_bytes(con, word)).digest()
