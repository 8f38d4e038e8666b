"""Base-field views of a Reed-Solomon code for burst error correction.

Four layouts are provided:

* ``row-vector``      - each extension symbol becomes its m-digit
  coefficient vector; the word becomes one long base-field vector.
* ``row-vector-parity`` - as above plus one parity digit per block chosen
  so every (m+1)-digit block sums to zero.
* ``square-array``    - m must be a perfect square; each symbol becomes a
  sqrt(m) x sqrt(m) digit tile, written row-wise, and the word fills an
  n1 x n2 grid of tiles.
* ``companion-array`` - each symbol becomes its m x m companion-matrix
  image, so bursts hitting a tile still touch only one symbol.

A block is one extension symbol: its m coefficient digits, then the cells
the contraction drops (the parity digit, or the companion tile's columns
1..m-1 row-major), which hold ``_fill(sym)``.  A layout supplies only that
fill and, for the array layouts, ``_block_order()``, the flat offsets of
each tile's cells; the row layouts hold their blocks in order.

The template syndrome of a base word is the RS syndrome of the word's
blockwise contraction, extended with each block's dropped cells minus
their fill: per-block parity sums for the parity layout, and per-tile
off-algebra residuals for the companion layout (a corrupted tile usually
leaves F_p[P]; the residual keeps the decoder exact).  Together these
parts form a full parity check of the expanded code: the syndrome is zero
exactly on valid expansions, and its symbol count equals the code's
redundancy.

The syndrome is one flat vector; ``segments`` lays it out as

* the n-k RS power sums over F_{p^m}, then
* parity layout: the n per-block digit sums over F_p;
  companion layout: per tile, in tile order, the m*(m-1) residual entries
  of columns 1..m-1 (row-major) over F_p.

The parity layout hands each block with a nonzero digit sum to the RS
decoder as an erasure (one syndrome instead of two); clean blocks are
never flagged, so every bound of the plain layout still holds.

Over F_2 the syndrome reads each block as one packed int: its low m bits
are the symbol, whose power sums come from rs.py's packed kernel, and
the fill of the dropped cells, being linear in the symbol, comes from
byte-indexed tables cached per field and layout.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import compress

from .errors import (
    NotInAlgebraError,
    ShapeMismatchError,
    ShapeUnsupportedError,
)
from .rs import (
    LinearCode,
    RsCode,
    Syndrome,
    _byte_tables,
    _cached_by_description,
    _lookup,
    _pack_bits,
    _pack_runs,
    _unpack_bits,
)

KIND_ROW = "row-vector"
KIND_ROW_PARITY = "row-vector-parity"
KIND_SQUARE = "square-array"
KIND_COMPANION = "companion-array"

GUIDANCE_BY_KIND = {
    KIND_ROW: "single-stage decoding; strong against long 1D bursts, "
              "tolerates only a few scattered random errors",
    KIND_ROW_PARITY: "row expansion plus per-block parity: extra distance "
                     "for random errors at a small length cost",
    KIND_SQUARE: "single-stage decoding; strong against square bursts in "
                 "matrix data, few random errors",
    KIND_COMPANION: "square-burst protection from a shorter decoder at a "
                    "lower rate; suits constrained decoders",
}


def _parity_fill(field, sym: int) -> list[int]:
    digits = field.to_base_vector(sym)
    return digits + [-sum(digits) % field.p]


def _companion_fill(field, sym: int) -> list[int]:
    cols = field._companion_image(sym)
    rest = cols[1:]
    return cols[0] + [col[r] for r in range(len(cols)) for col in rest]


# The layouts whose blocks hold more than the m coefficient digits.
_FILLS = {KIND_ROW_PARITY: _parity_fill, KIND_COMPANION: _companion_fill}


@_cached_by_description
def _dropped_tables(field, kind: str) -> tuple[tuple[int, ...], ...]:
    """Byte tables of the F_2-linear map sending a symbol to the dropped
    cells of its fill, packed (dropped cell i at bit i)."""
    fill, m = _FILLS[kind], field.m
    return _byte_tables([_pack_bits(fill(field, 1 << b)[m:]) for b in range(m)])


class ExpandedCode(LinearCode):
    """A base-field expansion of an RS code with its layout bookkeeping."""

    def __init__(self, rs: RsCode, kind: str, n1: int | None = None, n2: int | None = None):
        self.rs = rs
        self.kind = kind
        field = rs.field
        m = field.m
        n = rs.n
        self.tile = m  # digits per tile side (per block for the row layouts)
        is_row = kind in (KIND_ROW, KIND_ROW_PARITY)
        # (row, column) of each block digit within its tile, coefficients first
        if is_row:
            if n1 is not None or n2 is not None:
                raise ShapeUnsupportedError("row layouts take no array shape")
            n1, n2 = 1, n
            order = [(0, v) for v in range(m + (kind == KIND_ROW_PARITY))]
        elif kind == KIND_SQUARE:
            self.sm = self.tile = math.isqrt(m)
            if self.sm * self.sm != m:
                raise ShapeUnsupportedError(f"m={m} is not a perfect square")
            order = [divmod(u, self.sm) for u in range(m)]
        elif kind == KIND_COMPANION:
            order = [(u, 0) for u in range(m)] + [(u, v) for u in range(m) for v in range(1, m)]
        else:
            raise ShapeUnsupportedError(f"unknown expansion kind {kind!r}")
        if n1 is None or n2 is None or n1 * n2 != n:
            raise ShapeMismatchError(f"need n1*n2 = {n}")
        self.n1, self.n2 = n1, n2
        self._fill = partial(_FILLS[kind], field) if kind in _FILLS else field.to_base_vector
        tile_rows, tile_cols = (max(d) + 1 for d in zip(*order))
        self.shape = (n2 * tile_cols,) if is_row else (n1 * tile_rows, n2 * tile_cols)
        cols = self.shape[-1]
        self._steps = (tile_rows * cols, tile_cols)
        self._tile_offsets = tuple(u * cols + v for u, v in order)
        self._width = len(order)  # cells per block
        self._dropped = len(order) - m
        self._order = None
        self.base_length = n * len(order)
        self.base_dimension = m * rs.k
        self.alphabet = field.prime
        self.guidance = GUIDANCE_BY_KIND[kind]
        self.segments = ((rs.redundancy, field),)
        if self._dropped:
            self.segments += ((n * self._dropped, self.alphabet),)

    @classmethod
    def row_vector(cls, rs: RsCode) -> "ExpandedCode":
        return cls(rs, KIND_ROW)

    @classmethod
    def row_vector_parity(cls, rs: RsCode) -> "ExpandedCode":
        return cls(rs, KIND_ROW_PARITY)

    @classmethod
    def square_array(cls, rs: RsCode, n1: int, n2: int) -> "ExpandedCode":
        return cls(rs, KIND_SQUARE, n1, n2)

    @classmethod
    def companion_array(cls, rs: RsCode, n1: int, n2: int) -> "ExpandedCode":
        return cls(rs, KIND_COMPANION, n1, n2)

    @property
    def is_array(self) -> bool:
        return len(self.shape) == 2

    def _block_order(self):
        """Each symbol's tile cells, symbols in grid order; None for the
        row layouts."""
        if not self.is_array:
            return None
        rstep, cstep = self._steps
        tile = self._tile_offsets
        origins = ((i // self.n2) * rstep + (i % self.n2) * cstep for i in range(self.rs.n))
        return tuple(origin + at for origin in origins for at in tile)

    # ------------------------------------------------------------------
    # expansion and contraction
    # ------------------------------------------------------------------

    def expand(self, word) -> list:
        """Lay an extension-field word out over the base field."""
        if len(word) != self.rs.n:
            raise ShapeMismatchError(f"expected {self.rs.n} extension symbols")
        return self._scatter([d for sym in word for d in self._fill(sym)])

    def contract(self, base) -> list[int]:
        """Invert expand(); every block must be its symbol's expansion."""
        word = self.project(base)
        if self.expand(word) != base:
            raise NotInAlgebraError("a block is not the expansion of its symbol")
        return word

    def project(self, base) -> list[int]:
        """Blockwise contraction tolerant of corrupted blocks: each block is
        sent to the symbol read off its coefficient digits."""
        return [self._symbol(block) for block in self._blocks(base, self._width)]

    def _symbol(self, block) -> int:
        return self.rs.field.from_base_vector(block[: self.rs.field.m])

    # ------------------------------------------------------------------
    # syndrome and decoding
    # ------------------------------------------------------------------

    def syndrome(self, base) -> Syndrome:
        """Template syndrome of a base word; linear in the word.

        The RS syndrome of the blockwise contraction, then each block's
        dropped cells minus their fill.  Over F_2 each block is packed into
        an int: its symbol is the low m bits, and the fill of its dropped
        cells comes from byte tables, the fill being linear."""
        m = self.rs.field.m
        p = self.alphabet.p
        if p == 2:
            blocks = _pack_runs(self._gather(base), self._width)
            low = (1 << m) - 1
            word = [b & low for b in blocks]
            values = self.rs.syndrome(word).values
            if self._dropped:
                tables = _dropped_tables(self.rs.field, self.kind)
                rest = [(b >> m) ^ _lookup(tables, sym) for b, sym in zip(blocks, word)]
                values += tuple(_unpack_bits(rest, self._dropped))
            return Syndrome(values)
        blocks = self._blocks(base, self._width)
        word = [self._symbol(block) for block in blocks]
        extra = [(b - f) % p for block, sym in zip(blocks, word)
                 for b, f in zip(block[m:], self._fill(sym)[m:])]
        return Syndrome(self.rs.syndrome(word).values + tuple(extra))

    def decode(self, synd: Syndrome) -> list:
        """Base-field error pattern reproducing the syndrome.

        The extension-level pattern comes from the RS decoder; the dropped
        cells (parity digits, companion residuals) get their fill plus the
        stored syndrome components, so the reconstruction is exact whenever
        the RS step is.  The parity layout passes its parity-inconsistent
        blocks to the RS decoder as erasures.
        """
        self._check_syndrome(synd)
        r = self.rs.redundancy
        extra = synd.values[r:]
        erasures = ()
        if self.kind == KIND_ROW_PARITY:
            erasures = tuple(i for i, s in enumerate(extra) if s)
        evec = self.rs.decode_syndrome(Syndrome(synd.values[:r]), erasures=erasures)
        m = self.rs.field.m
        p = self.alphabet.p
        w, width = self._dropped, self._width
        touched = set(compress(range(len(evec)), evec))
        touched.update(at // w for at in compress(range(len(extra)), extra))
        cells = [0] * self.base_length
        for i in touched:
            fill = self._fill(evec[i])
            fill[m:] = [(f + s) % p for f, s in zip(fill[m:], extra[i * w : (i + 1) * w])]
            cells[i * width : (i + 1) * width] = fill
        return self._scatter(cells)

    # ------------------------------------------------------------------
    # burst capability
    # ------------------------------------------------------------------

    def capability(self, bursts: int = 1, shape: str = "1d") -> int:
        """Guaranteed-correctable burst size: maximum length of each of
        ``bursts`` disjoint 1D bursts, or the side of each square burst.
        Returns 0 when no positive bound is guaranteed."""
        if bursts < 1:
            raise ShapeUnsupportedError("burst count must be >= 1")
        per = self.rs.redundancy // (2 * bursts)
        if shape == "1d":
            return max(self.tile * (per - 1) + 1, 0)
        if shape == "square":
            if not self.is_array:
                raise ShapeUnsupportedError("square bursts need an array layout")
            return max(self.tile * (math.isqrt(per) - 1) + 1, 0)
        raise ShapeUnsupportedError(f"unknown burst shape {shape!r}")

    def _kind_lines(self) -> list[str]:
        return [f"kind: {self.kind} expansion of {self.rs.spec_string()}", *self._shape_lines()]

    def _bound_lines(self) -> list[str]:
        lines = []
        for l in (1, 2):
            label = "single 1D burst" if l == 1 else f"{l} bursts"
            lines.append(f"{label}: length <= {self.capability(l, '1d')}")
        if self.is_array:
            side = self.capability(1, "square")
            lines.append(f"single square burst: side <= {side} (area {side * side})")
            lines.append(f"2 square bursts: side <= {self.capability(2, 'square')} each")
        return lines

    def spec_string(self) -> str:
        inner = self.rs.spec_string()
        if self.kind == KIND_ROW:
            return f"cI({inner})"
        if self.kind == KIND_ROW_PARITY:
            return f"cI+parity({inner})"
        tag = "cII" if self.kind == KIND_SQUARE else "cIII"
        return f"{tag}({inner};{self.n1},{self.n2})"
