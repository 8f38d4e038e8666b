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

A block is one extension symbol on ``rs._BlockCode``'s block format,
shared with the concatenations: its m coefficient digits, then its check
cells (the parity digit, or the companion tile's columns 1..m-1
row-major), which hold ``_fill(sym)``.  An expansion has
no block order of its own: it is placed by a concatenation layout, as
over a trivial inner code (acceptance check c08).  The row kinds use
``FlatLayout``; ``square-array`` is ``VLayout(n2, sqrt(m))``, and
``companion-array`` is ``VLayout(n2, m)`` with the tile's coefficient
column listed first.

The template syndrome of a base word is the RS syndrome of its block
symbols, each read off its coefficient digits, then each block's
residual, its check cells minus their fill: the parity layout's n digit
sums, and the companion layout's off-algebra residuals over F_p, per
tile the m*(m-1) entries of columns 1..m-1 row-major (a corrupted tile
usually leaves F_p[P]; the residual keeps the decoder exact).  ``segments`` lists the n-k RS power sums over
F_{p^m}, then the residuals.  The syndrome is zero exactly on valid
expansions, and its symbol count equals the code's redundancy.

Decoding hands the parity layout's blocks with a nonzero digit sum to
the RS decoder as erasures (one syndrome instead of two); a companion
tile's symbol stands.  Clean blocks are never flagged, so every bound of
the plain layout still holds.  A decode's Python-level work is per
damaged and touched block, and the row and square kinds, which have no
check cells, read no block part.  Every decode re-checks the sparse map it returns against
the whole syndrome by ``rs._BlockCode``'s one rule: the per-cell
syndrome columns where ``rs._columns_fit`` gives the code them, else the
re-read of the blocks the map touches.
"""

import math
from functools import partial

from .errors import ShapeMismatchError, ShapeUnsupportedError
from .concat import FlatLayout, VLayout
from .rs import RsCode, _BlockCode, _check_symbols, _uncounted

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


class ExpandedCode(_BlockCode):
    """A base-field expansion of an RS code with its layout bookkeeping.

    Every decode re-checks the sparse map it returns against the whole
    syndrome: by the per-cell columns where the code takes them
    (``rs._columns_fit``), by their XOR over F_2 and their sum mod p
    over odd p; else the decode re-reads each touched block from the map
    once and compares its residual with its stored part and the outer
    power sums of the re-read symbols with the syndrome's, and without
    check cells the outer sums are the whole check."""

    syndrome = _BlockCode.syndrome

    def __init__(self, rs: RsCode, kind: str, n1: int | None = None, n2: int | None = None):
        self.kind = kind
        field = rs.field
        m = field.m
        self.tile = m  # digits per tile side (per block for the row layouts)
        self._fill, places = field.to_base_vector, None
        if kind in (KIND_ROW, KIND_ROW_PARITY):
            if n1 is not None or n2 is not None:
                raise ShapeUnsupportedError("row layouts take no array shape")
            n1, n2 = 1, rs.n
            layout = FlatLayout()
            if kind == KIND_ROW_PARITY:
                self._fill = partial(_parity_fill, field)
        elif kind == KIND_SQUARE:
            self.sm = self.tile = math.isqrt(m)
            if self.sm * self.sm != m:
                raise ShapeUnsupportedError(f"m={m} is not a perfect square")
            layout = VLayout(n2, self.sm)
        elif kind == KIND_COMPANION:
            self._fill = partial(_companion_fill, field)
            layout = VLayout(n2, m)
            # the coefficient column, then the other cells row-major
            places = (*range(1, m * m + 1, m), *(p for p in range(1, m * m + 1) if (p - 1) % m))
        else:
            raise ShapeUnsupportedError(f"unknown expansion kind {kind!r}")
        if n1 is None or n2 is None or n1 * n2 != rs.n:
            raise ShapeMismatchError(f"need n1*n2 = {rs.n}")
        self.n1, self.n2 = n1, n2
        # the check cells are the fill's cells past the m symbol digits
        super().__init__(rs, len(self._fill(0)) - m, 0, layout, places)
        self.guidance = GUIDANCE_BY_KIND[kind]

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
    def rs(self) -> RsCode:
        """The RS code expanded, the block format's outer code."""
        return self.outer

    @property
    def is_array(self) -> bool:
        return len(self.shape) == 2

    def _inner_decode(self, residual):
        """Parity: a damaged block is an erasure; companion: its symbol stands."""
        return None if self.kind == KIND_ROW_PARITY else 0

    def _recheck(self, found, offsets, syms, parts, sums) -> None:
        """``_BlockCode._recheck`` under ``rs._uncounted``: an expansion's
        decode counts the products of its outer decode alone."""
        _uncounted(partial(super()._recheck, found, offsets, syms, parts, sums))

    # ------------------------------------------------------------------
    # expansion
    # ------------------------------------------------------------------

    def expand(self, word) -> list:
        """Lay an extension-field word out over the base field."""
        rs = self.rs
        _check_symbols(word, rs.n, rs.s, rs._symbols)
        return self._rebuild(word, [0] * rs.n)

    # ------------------------------------------------------------------
    # syndrome and decoding
    # ------------------------------------------------------------------

    # The extension-level pattern comes from the RS decoder, with the
    # parity layout's damaged blocks as erasures; each touched block is
    # rebuilt from its symbol error and stored residual, and the returned
    # map is re-checked against the whole syndrome.
    decode = _BlockCode.decode

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
