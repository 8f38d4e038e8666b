"""Brute-force reference arithmetic used to pin expected values in tests.

Everything here works on explicit coefficient lists with schoolbook
algorithms, independent of the table-driven paths in the package.
``fresh_code`` builds a code with chosen table paths switched back to
their scalar oracles.
"""

from __future__ import annotations

import math
from collections import OrderedDict

# Each code's path flags, set in its constructor: a block code's
# per-cell columns, a cyclic code's byte-region decoder, a BCH code's
# coset table.
PATH_FLAGS = ("_by_columns", "_by_region", "_by_cosets")


def paths_on(code) -> tuple:
    """The path flags that are on in the code, its ``outer`` and its
    ``inner``, named as ``fresh_code`` takes them: ``"_by_columns"``,
    ``"outer._by_region"``, ``"inner._by_cosets"``, ..."""
    parts = [("", code)] + [(f"{name}.", getattr(code, name))
                            for name in ("outer", "inner") if hasattr(code, name)]
    return tuple(f"{prefix}{flag}" for prefix, part in parts for flag in PATH_FLAGS
                 if getattr(part, flag, False))


def fresh_code(spec, off=()):
    """A new code outside the parse cache, its RS and BCH components new
    too, with each flag named in ``off`` (as ``paths_on`` names it, and
    on) turned off.  ``spec`` is a spec string or a function that builds
    the code; the parse cache is left as it was."""
    from synfuzz import codespec

    if callable(spec):
        code = spec()
    else:
        saved = codespec._codes, codespec._codes_weight
        codespec._codes, codespec._codes_weight = OrderedDict(), 0
        try:
            code = codespec.parse_spec(spec)
        finally:
            codespec._codes, codespec._codes_weight = saved
    for path in off:
        owner, _, flag = path.rpartition(".")
        part = getattr(code, owner) if owner else code
        assert getattr(part, flag) is True, path
        setattr(part, flag, False)
    return code


def to_digits(value: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        value, d = divmod(value, p)
        out.append(d)
    return out


def from_digits(digits, p: int) -> int:
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def poly_mul(p: int, f, g) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def poly_mod(p: int, f, g) -> list[int]:
    f = [c % p for c in f]
    g = [c % p for c in g]
    while len(g) > 1 and g[-1] == 0:
        g.pop()
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i]
        if c:
            factor = (c * inv_lead) % p
            for j in range(dg + 1):
                f[i - dg + j] = (f[i - dg + j] - factor * g[j]) % p
    out = f[:dg] if dg else [0]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def elem_mul(p: int, m: int, modulus, a: int, b: int) -> int:
    """Multiply two encoded extension-field elements the slow way."""
    fa = to_digits(a, p, m)
    fb = to_digits(b, p, m)
    prod = poly_mod(p, poly_mul(p, fa, fb), list(modulus))
    prod = prod + [0] * (m - len(prod))
    return from_digits(prod[:m], p)


def elem_add(p: int, m: int, a: int, b: int) -> int:
    da = to_digits(a, p, m)
    db = to_digits(b, p, m)
    return from_digits([(x + y) % p for x, y in zip(da, db)], p)


def weight(word) -> int:
    return sum(1 for c in word if c)


def hamming(a, b) -> int:
    return sum(1 for x, y in zip(a, b) if x != y)


def lookup(tables, v: int) -> int:
    """The image of v under the F_2-linear map whose byte tables are
    ``tables``: table i holds the image of every value of bits 8i .. 8i+7."""
    out = 0
    for table in tables:
        out ^= table[v & 255]
        v >>= 8
    return out


def split_blocks(code, cells):
    """A binary block code's outer symbols and flat residual digits, one
    block at a time: each block packed into one int (cell j at bit j), its
    symbol read off bits sym_at .. sym_at + m - 1, and its residual the
    check bits XOR the code's check-table image of the symbol.  An odd-p
    code without check cells has no residual digits, and each block's
    symbol is its digits read in base p."""
    m, width, chk = code.outer.field.m, code._width, code._chk
    p = code.alphabet.p
    if p != 2:
        assert not chk, "odd-p residuals are not split here"
        return [from_digits(cells[at : at + width], p) for at in range(0, len(cells), width)], []
    tables = (code._checks or code._load_checks()) if chk else ()
    syms, res = [], []
    for at in range(0, len(cells), width):
        block = sum(d << j for j, d in enumerate(cells[at : at + width]))
        sym = block >> code._sym_at & ((1 << m) - 1)
        rest = (block >> code._chk_at & ((1 << chk) - 1)) ^ lookup(tables, sym)
        syms.append(sym)
        res.extend(rest >> k & 1 for k in range(chk))
    return syms, res


def cells(code, word) -> list:
    """A data word's cells, row-major."""
    return [v for row in word for v in row] if len(code.shape) == 2 else list(word)


def gather(code, word) -> list:
    """A data word's cells in the code's block order: the inverse of
    ``scatter``."""
    flat = cells(code, word)
    order = code._block_order()
    return flat if order is None else [flat[at] for at in order]


def block_symbols(code, word) -> list:
    """The outer symbol of each block of a block code's word, read off the
    m coefficient digits at the block's symbol cells in ``gather``'s
    order."""
    m, width, at = code.outer.field.m, code._width, code._sym_at
    flat = gather(code, word)
    p = code.alphabet.p
    return [from_digits(flat[i + at : i + at + m], p) for i in range(0, len(flat), width)]


def scatter(code, cells):
    """The data word whose cells, in the code's block order, are ``cells``:
    the inverse of ``gather``."""
    order = code._block_order()
    flat = list(cells)
    if order is not None:
        for at, v in zip(order, cells):
            flat[at] = v
    return code._shaped(flat)


def expansion_layout(kind: str, rs, n1: int = 1, n2: int = 1):
    """The shape, syndrome segments and block order of an expansion of the
    RS code ``rs``, by tile arithmetic: symbol i's tile sits at grid
    position (i div n2, i mod n2), and its digits at (row, column) offsets
    within the tile, the m coefficient digits first.  The order is None
    for the row kinds, whose blocks lie side by side."""
    field, n = rs.field, rs.n
    m = field.m
    if kind == "square-array":
        side = math.isqrt(m)
        tile = [divmod(u, side) for u in range(m)]
    elif kind == "companion-array":
        tile = [(u, 0) for u in range(m)] + [(u, v) for u in range(m) for v in range(1, m)]
    else:
        tile = [(0, v) for v in range(m + (kind == "row-vector-parity"))]
    chk = len(tile) - m
    segments = ((rs.redundancy, field),) + (((n * chk, field.prime),) if chk else ())
    tile_rows, tile_cols = (max(d) + 1 for d in zip(*tile))
    if kind.startswith("row-vector"):
        return (n * tile_cols,), segments, None
    cols = n2 * tile_cols
    origins = ((i // n2) * tile_rows * cols + (i % n2) * tile_cols for i in range(n))
    order = tuple(origin + u * cols + v for origin in origins for u, v in tile)
    return (n1 * tile_rows, cols), segments, order


def serialize(alphabet: str, order: int, shape, data) -> bytes:
    """The enrollment bytes of a data word, spelled out: the alphabet's
    spec, the shape joined by x, then every symbol row by row as a
    big-endian int of the fewest bytes that hold order - 1."""
    width = max(1, -(-(order - 1).bit_length() // 8))
    rows = data if len(shape) == 2 else [data]
    head = f"{alphabet}|{'x'.join(map(str, shape))}|".encode("ascii")
    return head + b"".join(v.to_bytes(width, "big") for row in rows for v in row)


def chien_table(field, n: int, r: int) -> tuple:
    """The Chien table read entry by entry off the exp table: column
    (j, b), at index (j-1)*m + b for j = 1..r and b < m, holds
    x^b alpha^(-ij) in byte i for i = 0..n-1."""
    exp, log = field._exp, field._log
    q1 = field.order - 1
    columns = []
    for j in range(1, r + 1):
        for b in range(field.m):
            lb = log[1 << b]
            lane = bytes([exp[(lb - i * j) % q1] for i in range(n)])
            columns.append(int.from_bytes(lane, "little"))
    return tuple(columns)
