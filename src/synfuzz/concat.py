"""Concatenated codes with identical inner codes and interleaved layouts.

An outer Reed-Solomon code over F_{p^k} feeds N inner codewords of a
[n, k] code over F_p (the outer field's degree matches the inner
dimension, so outer symbols re-encode directly).  Three array layouts are
provided on top of the flat blockwise word:

* ``iv``  - block interleaving on divisors b | N, a | n: every contiguous
  N/b x b window holds each inner code at most once, so whole windows can
  burn without exceeding any inner budget.
* ``v``   - no interleaving: each inner codeword fills one contiguous
  n/b x b tile, and a burst covering few tiles costs few outer symbols.
* ``vi``  - diagonal interleaving on an n x N array: thin 1 x n or n x 1
  bursts touch each inner code at most once, and a full diagonal wipes
  exactly one inner codeword.

Each layout class (``FlatLayout``, ``IvLayout``, ``VLayout``,
``ViLayout``) makes every decision about its layout: ``shape(N, n)``
checks divisibility and gives the array shape, ``cell(N, n, i, p)``
places position p of inner code i, ``bounds(N, n, t, s)`` maps each
capability query to its guaranteed figure, and ``bound_lines`` and
``guidance`` give the report text.  ``ConcatCode`` never asks which
layout it holds: ``_BlockCode._block_order()`` lists every ``cell``,
inner codeword by inner codeword (none for the flat layout, already in
order), a word's bit lanes are read through it and a decode's sparse
map writes through it.  The square and companion expansions are placed by
``VLayout`` too.  A layout, like a code, is its ``spec_string()``
(``rs._SpecIdentity``): ``IvLayout(7, 5) == IvLayout(a=7, b=5)``, and
it never equals a layout of another type.  ``DecodeInfo``, the
diagnostics of a decode, lives in ``rs`` and is re-exported here.

A concatenation is an expansion whose per-symbol map is the inner
encoder (Forney, *Concatenated Codes*, 1966), on ``rs._BlockCode``'s
block format: block i is outer symbol i's inner codeword, parity first,
and its residual is its inner remainder, its check cells minus those of
its symbol's codeword, by ``_BlockCode``'s one residual for every block
code (over F_2, its parity XOR the image of its symbol under the check
tables, built from the inner codewords of the unit symbols; over odd p,
``_BlockCode._residual``).
The inner code alone computes its parity.  The syndrome, of N*n - K*k
symbols and zero exactly on codewords, lists by ``segments`` the N
residuals in block order (N*(n-k) symbols over F_p), then the N-K outer
power sums of the blocks' symbols over F_{p^k}.  A decode's Python-level
work is per damaged and touched block: it inner-decodes each damaged
block, corrects the estimates with the outer decoder into one sparse map
of symbol errors by block, rebuilds the touched blocks from their symbol
errors and stored residuals into a sparse map of cells and re-checks
that map against the whole syndrome by ``rs._BlockCode``'s one rule: the
per-cell syndrome columns where ``rs._columns_fit`` gives the code them,
else the re-read of the touched blocks from the map
(``_BlockCode._recheck``), which requires each touched block's residual
to be its stored one, every other block's to be zero and the outer power
sums of the re-read symbols to be the stored ones.  Each damaged block's
inner decode is one call, ``BchCode._message_error``, the coset table's
one reader: where the inner code takes cosets (``BchCode._by_cosets``,
one rule for both p: p^r <= ``rs._COSET_CAP``), a lookup in the coset
table, else the algebraic decode; either returns None for a block it
cannot decode.  Such a block is an outer erasure, at one outer syndrome
instead of two; a block within the inner capability never fails, so
every bound still holds.
"""

from .errors import (
    IndexOutOfRangeError,
    QueryUnsupportedError,
    ShapeMismatchError,
)
from .rs import DecodeInfo, RsCode, _BlockCode, _check_symbols, _SpecIdentity, _twin


class TrivialCode:
    """The identity code: n = k, no redundancy, no correction."""

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.k = n
        self.t = 0
        self.redundancy = 0
        self._twin = self  # no table paths: its own reference twin

    def encode(self, message) -> list[int]:
        _check_symbols(message, self.k, self.p, f"gf({self.p})")
        return list(message)

    def spec_string(self) -> str:
        return f"id({self.n};gf({self.p}))"


class FlatLayout(_SpecIdentity):
    """The N blocks side by side in one vector."""

    guidance = "two-stage decoding; one long 1D burst plus extra random errors"
    translates = True  # every block is the first one moved by an offset

    def shape(self, N: int, n: int) -> tuple[int, ...]:
        return (N * n,)

    def cell(self, N: int, n: int, i: int, p: int) -> tuple[int, int]:
        raise QueryUnsupportedError("flat layout has no two-dimensional indexing")

    def bounds(self, N: int, n: int, t: int, s: int) -> dict:
        """``"single_burst"``: longest guaranteed 1D burst, n*(s-1) + 2t."""
        return {"single_burst": n * (s - 1) + 2 * t}

    def bound_lines(self, bounds: dict) -> list[str]:
        b = bounds["single_burst"]
        return [f"single 1D burst: length <= {b} (bound {b + 1} is not guaranteed)"]

    def spec_string(self) -> str:
        return "flat"


class IvLayout(_SpecIdentity):
    guidance = "several wide rectangular bursts, with a limited random-error budget"
    translates = True

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def shape(self, N: int, n: int) -> tuple[int, int]:
        if min(self.a, self.b) < 1 or N % self.b or n % self.a:
            raise ShapeMismatchError("iv layout needs a, b >= 1, b | N and a | n")
        return (N * self.a // self.b, n * self.b // self.a)

    def cell(self, N: int, n: int, i: int, p: int) -> tuple[int, int]:
        """Codes advance along rows in runs of b; positions advance b-wide
        column groups within a row band and jump bands every n/a positions."""
        r, j = divmod(i - 1, self.b)
        w, cb = divmod(p - 1, n // self.a)
        return w * (N // self.b) + r, cb * self.b + j

    def bounds(self, N: int, n: int, t: int, s: int) -> dict:
        """``"bursts"``: (count, (rows, cols)) of window bursts;
        ``"random_errors"``: extra scattered errors besides."""
        return {"bursts": (t, (N // self.b, self.b)), "random_errors": s}

    def bound_lines(self, bounds: dict) -> list[str]:
        count, (h, w) = bounds["bursts"]
        return [
            f"rectangular bursts: {count} of size {h}x{w}",
            f"random errors besides: <= {bounds['random_errors']}",
        ]

    def spec_string(self) -> str:
        return f"iv({self.a},{self.b})"


class VLayout(_SpecIdentity):
    guidance = "one large burst plus random errors spread thinly over the tiles"
    translates = True

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def shape(self, N: int, n: int) -> tuple[int, int]:
        if min(self.a, self.b) < 1 or N % self.a or n % self.b:
            raise ShapeMismatchError("v layout needs a, b >= 1, a | N and b | n")
        return (N * n // (self.a * self.b), self.a * self.b)

    def cell(self, N: int, n: int, i: int, p: int) -> tuple[int, int]:
        """Code i owns the contiguous (n/b) x b tile at block position
        ((i-1) div a, (i-1) mod a)."""
        w, g = divmod(i - 1, self.a)
        r, j = divmod(p - 1, self.b)
        return w * (n // self.b) + r, g * self.b + j

    def bounds(self, N: int, n: int, t: int, s: int) -> dict:
        """``"burst_rectangles"``: maximal guaranteed rectangles, one
        (rows, cols) per maximal factor pair s1*s2 <= s;
        ``"off_burst_tile_errors"``: per-tile budget away from the burst."""
        tile_r = n // self.b
        pairs = [(s1, s // s1) for s1 in range(1, s + 1)]
        rects = tuple(
            ((s1 - 1) * tile_r + 1, (s2 - 1) * self.b + 1)
            for s1, s2 in pairs
            if not any(o1 >= s1 and o2 >= s2 and (o1, o2) != (s1, s2) for o1, o2 in pairs)
        )
        return {"burst_rectangles": rects, "off_burst_tile_errors": t}

    def bound_lines(self, bounds: dict) -> list[str]:
        pretty = ", ".join(f"{h}x{w}" for h, w in bounds["burst_rectangles"])
        return [
            f"single burst rectangles: {pretty}",
            f"off-burst tiles tolerate <= {bounds['off_burst_tile_errors']} errors each",
        ]

    def spec_string(self) -> str:
        return f"v({self.a},{self.b})"


class ViLayout(_SpecIdentity):
    guidance = ("thin row/column bursts and random errors; a full diagonal costs "
                "one outer symbol")
    translates = False  # the diagonals wrap around the columns

    def shape(self, N: int, n: int) -> tuple[int, int]:
        if N < n:
            raise ShapeMismatchError("vi layout needs N >= n")
        return (n, N)

    def cell(self, N: int, n: int, i: int, p: int) -> tuple[int, int]:
        """Position p of every code sits on row p-1, shifted one column per
        position, so code i runs down a wrapped diagonal."""
        return p - 1, (i - 1 + p - 1) % N

    def bounds(self, N: int, n: int, t: int, s: int) -> dict:
        """``"thin_bursts"``: (count, ((1, n), (n, 1)));
        ``"diagonal_bursts"``: diagonals absorbable as outer errors."""
        return {"thin_bursts": (t, ((1, n), (n, 1))), "diagonal_bursts": s}

    def bound_lines(self, bounds: dict) -> list[str]:
        count, shapes = bounds["thin_bursts"]
        pretty = " or ".join(f"{h}x{w}" for h, w in shapes)
        return [
            f"thin bursts: {count} of size {pretty}",
            f"diagonal wipes absorbed as outer errors: <= {bounds['diagonal_bursts']}",
        ]

    def spec_string(self) -> str:
        return "vi"


class ConcatCode(_BlockCode):
    """Inner/outer concatenated code with one of the four layouts."""

    syndrome = _BlockCode.syndrome

    def __init__(self, inner, outer: RsCode, layout=FlatLayout()):
        if inner.p != outer.field.p:
            raise ShapeMismatchError("inner and outer base primes differ")
        if outer.field.m != inner.k:
            raise ShapeMismatchError(
                f"outer extension degree {outer.field.m} must equal inner dimension {inner.k}"
            )
        super().__init__(outer, inner.redundancy, inner.redundancy, layout)
        self.inner = inner
        self.p = inner.p
        self.N, self.n_in = outer.n, inner.n
        self.guidance = layout.guidance

    def layout_index(self, i: int, p: int) -> tuple[int, int]:
        """Array cell of inner code i (1-based), position p (1-based)."""
        if not (1 <= i <= self.N and 1 <= p <= self.n_in):
            raise IndexOutOfRangeError(f"(i={i}, p={p}) outside 1..{self.N} x 1..{self.n_in}")
        return self.layout.cell(self.N, self.n_in, i, p)

    def _fill(self, sym: int) -> list[int]:
        """The inner codeword of a symbol's digits, unchecked: they are in
        range (an identity inner code's codeword is the digits)."""
        digits = self.outer.field.to_base_vector(sym)
        return self.inner._codeword(digits) if self._chk else digits

    # ------------------------------------------------------------------
    # encode / syndrome / decode
    # ------------------------------------------------------------------

    def encode(self, message) -> list:
        """Outer-encode, inner-encode each outer symbol, lay out."""
        return self._rebuild(self.outer.encode(message), [0] * self.N)

    decode = _BlockCode.decode

    def _inner_decode(self, part):
        """A damaged block's symbol error from its residual, None to erase
        it (``BchCode._message_error``); an identity inner code has none,
        as none of its blocks is damaged."""
        return self.inner._message_error(part)

    def _load_twin(self):
        """The reference twin: without columns, on the outer and inner
        codes' twins."""
        outer, inner = (code._twin or code._load_twin() for code in (self.outer, self.inner))
        self._twin = _twin(self, _by_columns=False, outer=outer, inner=inner)
        return self._twin

    # ------------------------------------------------------------------
    # capability bounds
    # ------------------------------------------------------------------

    @property
    def outer_t(self) -> int:
        return self.outer.t

    def capability(self, query: str):
        """The layout's guaranteed figure ``query`` (see each layout's
        ``bounds``); QueryUnsupportedError if the layout has none."""
        bounds = self._bounds()
        if query not in bounds:
            raise QueryUnsupportedError(
                f"query {query!r} does not apply to {self.layout.spec_string()}"
            )
        return bounds[query]

    def _bounds(self) -> dict:
        return self.layout.bounds(self.N, self.n_in, self.inner.t, self.outer_t)

    def _kind_lines(self) -> list[str]:
        return [
            f"kind: concatenated, inner {self.inner.spec_string()} "
            f"(t={self.inner.t}), outer {self.outer.spec_string()} (s={self.outer_t})",
            *self._shape_lines(),
        ]

    def _bound_lines(self) -> list[str]:
        return self.layout.bound_lines(self._bounds())

    def spec_string(self) -> str:
        return (
            f"concat(inner={self.inner.spec_string()}, "
            f"outer={self.outer.spec_string()}, layout={self.layout.spec_string()})"
        )
