"""Seeded error-pattern generation: bursts, rectangles, and mixed noise.

A 1D burst of length L has nonzero first and last entries; the interior is
uniform over the whole field, zeros included.  A 2D rectangular burst has
at least one nonzero entry in each of its first and last rows and columns.
Randomness comes from an explicit SplitMix64 stream, so identical seeds
and parameters reproduce identical patterns on any platform;
``Rng.split`` derives independent streams for per-trial use.
"""

from collections import namedtuple
from itertools import product
from math import prod

from .errors import OutOfRangeError, PlacementFailedError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Random positions tried per burst before gen_mixed gives up on placing it.
_MAX_ATTEMPTS = 200


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Rng:
    """SplitMix64 pseudo-random stream with explicit state."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free by rejection."""
        if n <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def split(self, key: int) -> "Rng":
        """An independent stream derived from this one's seed and a key."""
        return Rng(_mix64(self._seed ^ ((key + 1) * _GOLDEN)))

    def element(self, field) -> int:
        return self.below(field.order)

    def nonzero(self, field) -> int:
        return 1 + self.below(field.order - 1)


class ErrorPattern(namedtuple("ErrorPattern", "field shape cells bursts random_errors",
                              defaults=((), 0))):
    """A dense error word or array plus a record of how it was built."""

    __slots__ = ()

    @property
    def is_2d(self) -> bool:
        return len(self.shape) == 2

    def dense(self):
        if self.is_2d:
            return [list(row) for row in self.cells]
        return list(self.cells)

    def apply_to(self, data):
        """data + pattern, componentwise in the field."""
        add = self.field.add
        if self.is_2d:
            return [
                [add(a, b) for a, b in zip(drow, prow)]
                for drow, prow in zip(data, self.cells)
            ]
        return [add(a, b) for a, b in zip(data, self.cells)]


def _freeze(shape, cells):
    if len(shape) == 2:
        return tuple(tuple(row) for row in cells)
    return tuple(cells)


def gen_burst_1d(rng: Rng, field, shape_len: int, burst_len: int, position: int) -> ErrorPattern:
    """A burst of burst_len symbols starting at position; endpoints nonzero."""
    if burst_len < 1 or position < 0 or position + burst_len > shape_len:
        raise OutOfRangeError(
            f"burst of {burst_len} at {position} does not fit in {shape_len}"
        )
    cells = [0] * shape_len
    _fill_burst_1d(rng, field, cells, position, burst_len)
    return ErrorPattern(field, (shape_len,), _freeze((shape_len,), cells),
                        bursts=((position, burst_len),))


def _fill_burst_1d(rng, field, cells, position, burst_len):
    if burst_len == 1:
        cells[position] = rng.nonzero(field)
        return
    cells[position] = rng.nonzero(field)
    cells[position + burst_len - 1] = rng.nonzero(field)
    for i in range(position + 1, position + burst_len - 1):
        cells[i] = rng.element(field)


def gen_burst_2d(rng: Rng, field, shape: tuple[int, int], rows: int, cols: int,
                 position: tuple[int, int]) -> ErrorPattern:
    """A rows x cols rectangular burst; every border row/column holds a nonzero."""
    big_r, big_c = shape
    r0, c0 = position
    if rows < 1 or cols < 1 or r0 < 0 or c0 < 0 or r0 + rows > big_r or c0 + cols > big_c:
        raise OutOfRangeError(f"{rows}x{cols} burst at {position} does not fit in {shape}")
    cells = [[0] * big_c for _ in range(big_r)]
    _fill_burst_2d(rng, field, cells, r0, c0, rows, cols)
    return ErrorPattern(field, shape, _freeze(shape, cells),
                        bursts=(((r0, c0), (rows, cols)),))


def _fill_burst_2d(rng, field, cells, r0, c0, rows, cols):
    for r in range(r0, r0 + rows):
        for c in range(c0, c0 + cols):
            cells[r][c] = rng.element(field)
    for r in (r0, r0 + rows - 1):
        if not any(cells[r][c0 : c0 + cols]):
            cells[r][c0 + rng.below(cols)] = rng.nonzero(field)
    for c in (c0, c0 + cols - 1):
        if not any(cells[r][c] for r in range(r0, r0 + rows)):
            cells[r0 + rng.below(rows)][c] = rng.nonzero(field)


def _overlaps(a, b):
    """Whether two boxes ``(position, extents)`` share a cell."""
    (pa, ea), (pb, eb) = a, b
    return all(p < q + f and q < p + e for p, e, q, f in zip(pa, ea, pb, eb))


def gen_mixed(rng: Rng, field, shape, bursts, random_errors: int = 0) -> ErrorPattern:
    """Disjoint bursts of the given dimensions plus scattered single errors.

    ``bursts`` is a list of lengths (1D shapes) or (rows, cols) pairs (2D
    shapes).  Bursts are placed uniformly at random, pairwise disjoint;
    random errors land on single cells off every burst.  Raises
    OutOfRangeError for an empty burst or one that does not fit, and
    PlacementFailedError when a disjoint placement cannot be found.

    Both shapes share one path: a burst is a box of ``len(shape)``
    extents, and a cell is a coordinate tuple.  Only the burst fill and
    the write of a cell depend on the dimension.
    """
    two_d = len(shape) == 2
    placed = []
    for dims in bursts:
        extents = tuple(dims) if two_d else (dims,)
        if any(e < 1 or e > s for e, s in zip(extents, shape)):
            raise OutOfRangeError(f"burst {dims} does not fit in {shape}")
        for _ in range(_MAX_ATTEMPTS):
            cand = (tuple(rng.below(s - e + 1) for e, s in zip(extents, shape)), extents)
            if not any(_overlaps(cand, other) for other in placed):
                placed.append(cand)
                break
        else:
            raise PlacementFailedError(f"could not place burst {dims} disjointly")

    fill = _fill_burst_2d if two_d else _fill_burst_1d
    cells = [[0] * shape[1] for _ in range(shape[0])] if two_d else [0] * shape[0]
    for pos, extents in placed:
        fill(rng, field, cells, *pos, *extents)
    in_burst = set()
    for pos, extents in placed:
        in_burst.update(product(*(range(p, p + e) for p, e in zip(pos, extents))))
    if random_errors > prod(shape) - len(in_burst):
        raise PlacementFailedError("more random errors than free cells")
    chosen = set()
    while len(chosen) < random_errors:
        cell = tuple(rng.below(s) for s in shape)
        if cell not in in_burst and cell not in chosen:
            chosen.add(cell)
            line = cells[cell[0]] if two_d else cells
            line[cell[-1]] = rng.nonzero(field)

    if not two_d:
        placed = [(pos, length) for (pos,), (length,) in placed]
    return ErrorPattern(field, tuple(shape), _freeze(shape, cells),
                        bursts=tuple(placed), random_errors=random_errors)
