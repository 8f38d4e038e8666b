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

The template syndrome of a base word is the RS syndrome of the word's
blockwise contraction, extended with whatever the contraction discards:
per-block parity sums for the parity layout, and per-tile off-algebra
residuals for the companion layout (a corrupted tile usually leaves
F_p[P]; the residual keeps the decoder exact).  Together these parts form
a full parity check of the expanded code: the syndrome is zero exactly on
valid expansions, and its symbol count equals the code's redundancy.

The syndrome is one flat vector; ``segments`` lays it out as

* the n-k RS power sums over F_{p^m}, then
* parity layout: the n per-block digit sums over F_p;
  companion layout: per tile, in tile order, the m*(m-1) residual entries
  of columns 1..m-1 (row-major) over F_p.

The parity layout hands each block with a nonzero digit sum to the RS
decoder as an erasure (one syndrome instead of two); clean blocks are
never flagged, so every bound of the plain layout still holds.
"""

from __future__ import annotations

import math
from .errors import (
    DecodeFailure,
    ShapeMismatchError,
    ShapeUnsupportedError,
    TooManyErasuresError,
)
from .rs import LinearCode, RsCode, Syndrome

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


class ExpandedCode(LinearCode):
    """A base-field expansion of an RS code with its layout bookkeeping."""

    def __init__(self, rs: RsCode, kind: str, n1: int | None = None, n2: int | None = None):
        self.rs = rs
        self.kind = kind
        field = rs.field
        m = field.m
        n = rs.n
        self.tile = m  # digits per tile side (per block for the row layouts)
        if kind in (KIND_ROW, KIND_ROW_PARITY):
            if n1 is not None or n2 is not None:
                raise ShapeUnsupportedError("row layouts take no array shape")
            self.block = m if kind == KIND_ROW else m + 1
            self.shape = (n * self.block,)
        elif kind == KIND_SQUARE:
            sm = math.isqrt(m)
            if sm * sm != m:
                raise ShapeUnsupportedError(f"m={m} is not a perfect square")
            if n1 is None or n2 is None or n1 * n2 != n:
                raise ShapeMismatchError(f"need n1*n2 = {n}")
            self.sm = self.tile = sm
            self.n1, self.n2 = n1, n2
            self.shape = (n1 * sm, n2 * sm)
        elif kind == KIND_COMPANION:
            if n1 is None or n2 is None or n1 * n2 != n:
                raise ShapeMismatchError(f"need n1*n2 = {n}")
            self.n1, self.n2 = n1, n2
            self.shape = (n1 * m, n2 * m)
        else:
            raise ShapeUnsupportedError(f"unknown expansion kind {kind!r}")
        self.base_length = self.shape[0] if len(self.shape) == 1 else self.shape[0] * self.shape[1]
        self.base_dimension = m * rs.k
        self.alphabet = field.prime
        self.guidance = GUIDANCE_BY_KIND[kind]
        self.segments = ((rs.redundancy, field),)
        if kind == KIND_ROW_PARITY:
            self.segments += ((n, field.prime),)
        elif kind == KIND_COMPANION:
            self.segments += ((n * m * (m - 1), field.prime),)

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

    def tile_origin(self, i: int) -> tuple[int, int]:
        """Top-left cell of the tile holding extension symbol i (0-based)."""
        return (i // self.n2) * self.tile, (i % self.n2) * self.tile

    # ------------------------------------------------------------------
    # expansion and contraction
    # ------------------------------------------------------------------

    def expand(self, word) -> list:
        """Lay an extension-field word out over the base field."""
        field = self.rs.field
        m = field.m
        if len(word) != self.rs.n:
            raise ShapeMismatchError(f"expected {self.rs.n} extension symbols")
        if self.kind in (KIND_ROW, KIND_ROW_PARITY):
            out = [0] * self.shape[0]
            blk = self.block
            for i, sym in enumerate(word):
                digits = field.to_base_vector(sym)
                out[i * blk : i * blk + m] = digits
                if blk > m:
                    out[i * blk + m] = field.prime.neg(sum(digits) % field.p)
            return out
        grid = self.zero_word()
        if self.kind == KIND_SQUARE:
            sm = self.sm
            for i, sym in enumerate(word):
                if sym:
                    r0, c0 = self.tile_origin(i)
                    digits = field.to_base_vector(sym)
                    for u in range(m):
                        grid[r0 + u // sm][c0 + u % sm] = digits[u]
            return grid
        for i, sym in enumerate(word):
            if sym:
                r0, c0 = self.tile_origin(i)
                image = field._companion_image(sym)
                for u in range(m):
                    grid[r0 + u][c0 : c0 + m] = image[u]
        return grid

    def contract(self, base) -> list[int]:
        """Invert expand(); companion tiles must lie in F_p[P]."""
        return self._gather(base, strict=True)

    def project(self, base) -> list[int]:
        """Blockwise contraction tolerant of corrupted companion tiles:
        each tile is sent to the algebra element read off its first column."""
        return self._gather(base, strict=False)

    def _gather(self, base, strict: bool) -> list[int]:
        self._check_shape(base)
        field = self.rs.field
        m = field.m
        n = self.rs.n
        if self.kind in (KIND_ROW, KIND_ROW_PARITY):
            blk = self.block
            return [
                field.from_base_vector(base[i * blk : i * blk + m]) for i in range(n)
            ]
        out = [0] * n
        if self.kind == KIND_SQUARE:
            sm = self.sm
            for i in range(n):
                r0, c0 = self.tile_origin(i)
                digits = [base[r0 + u // sm][c0 + u % sm] for u in range(m)]
                out[i] = field.from_base_vector(digits)
            return out
        for i in range(n):
            r0, c0 = self.tile_origin(i)
            tile = [base[r0 + u][c0 : c0 + m] for u in range(m)]
            if strict:
                out[i] = field.from_companion_matrix(tile)
            else:
                out[i] = field.from_base_vector([row[0] for row in tile])
        return out

    # ------------------------------------------------------------------
    # syndrome and decoding
    # ------------------------------------------------------------------

    def syndrome(self, base) -> Syndrome:
        """Template syndrome of a base word; linear in the word."""
        word = self._gather(base, strict=False)
        field = self.rs.field
        m = field.m
        p = field.p
        extra = []
        if self.kind == KIND_ROW_PARITY:
            blk = self.block
            extra = [sum(base[i * blk : (i + 1) * blk]) % p for i in range(self.rs.n)]
        elif self.kind == KIND_COMPANION:
            for i, elem in enumerate(word):
                r0, c0 = self.tile_origin(i)
                image = field._companion_image(elem)
                extra.extend(
                    (base[r0 + u][c0 + v] - image[u][v]) % p
                    for u in range(m)
                    for v in range(1, m)
                )
        return Syndrome(self.rs.syndrome(word).values + tuple(extra))

    def decode(self, synd: Syndrome) -> list:
        """Base-field error pattern reproducing the syndrome.

        The extension-level pattern comes from the RS decoder; the parts
        the contraction discards (parity digits, companion residuals) are
        filled back in from the stored syndrome components, so the
        reconstruction is exact whenever the RS step is.  The parity layout
        passes its parity-inconsistent blocks to the RS decoder as
        erasures.
        """
        r = self.rs.redundancy
        extra = synd.values[r:]
        erasures = ()
        if self.kind == KIND_ROW_PARITY:
            erasures = tuple(i for i, s in enumerate(extra) if s)
        try:
            evec = self.rs.decode_syndrome(Syndrome(synd.values[:r]), erasures=erasures)
        except TooManyErasuresError as exc:
            raise DecodeFailure(str(exc)) from exc
        field = self.rs.field
        m = field.m
        p = field.p
        if self.kind == KIND_ROW:
            return self.expand(evec)
        if self.kind == KIND_ROW_PARITY:
            out = [0] * self.shape[0]
            blk = self.block
            for i, sym in enumerate(evec):
                digits = field.to_base_vector(sym)
                out[i * blk : i * blk + m] = digits
                out[i * blk + m] = (extra[i] - sum(digits)) % p
            return out
        if self.kind == KIND_SQUARE:
            return self.expand(evec)
        grid = self.zero_word()
        w = m * (m - 1)
        for i, sym in enumerate(evec):
            res = extra[i * w : (i + 1) * w]
            if not sym and not any(res):
                continue
            r0, c0 = self.tile_origin(i)
            image = field._companion_image(sym)
            for u in range(m):
                row = grid[r0 + u]
                row[c0] = image[u][0]
                for v in range(1, m):
                    row[c0 + v] = (image[u][v] + res[u * (m - 1) + (v - 1)]) % p
        return grid

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

    def __eq__(self, other):
        return (
            isinstance(other, ExpandedCode)
            and self.kind == other.kind
            and self.rs == other.rs
            and self.shape == other.shape
        )

    def __hash__(self):
        return hash((self.kind, self.rs, self.shape))

    def __repr__(self):
        return f"ExpandedCode({self.spec_string()})"
