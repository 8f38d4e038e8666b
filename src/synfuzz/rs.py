"""Reed-Solomon and BCH codes on one cyclic-code core, decoded from syndromes.

Both families are narrow-sense cyclic codes: a code of length n over F_s
whose syndrome roots alpha^1 .. alpha^count lie in F_q (s = q for
Reed-Solomon, s = p for BCH).  ``_CyclicCode`` holds what they share, and
one rule gives every generator: the product of the minimal polynomials
over F_s of the roots, one per cyclotomic coset of j -> j*s mod (q - 1).
With s = q every coset is one exponent and the product is
prod (x - alpha^j).  The coset sizes fix the redundancy, so a code knows
n, k and t without building its generator.

One decoder serves both: Berlekamp-Massey solves the key equation for
the locator, a Chien search finds its roots, and Forney's formula gives
the error magnitudes.  Erasures (blocks the expanded and concatenated
codes flag as damaged) seed Berlekamp-Massey with their locator
polynomial and cost one syndrome each instead of two.  The decoder always
re-checks that the returned error pattern reproduces every input syndrome
component; anything inconsistent raises DecodeFailure rather than
returning a silently wrong vector.

``LinearCode`` is the protocol every enrollable code follows
(``enrollable`` checks it for enroll, verify and the CLI).  Its
``_read`` is the one check of a data word, and returns the word's
canonical body: the bytes both the syndrome and the digest are taken
from.  A base-field code's one block map gives its lanes, and a decode
maps the cells it rebuilt through it.  ``_BlockCode`` is the
one block format of the expansions and concatenations: a word's outer
symbols plus check residuals, and the sparse decode of damaged blocks.

Every code, for both p, on every path and in its reference twin, holds
a syndrome as its template bytes: per run of ``segments`` one byte a
symbol, or two big-endian bytes past 256 elements (``_read_run`` reads a
run, ``_pack_run`` packs one and ``_run_minus`` subtracts two).  The
tuple is the public form: ``syndrome``, ``decode``, ``decode_syndrome``
and ``syndrome_sub`` take or give it, ``LinearCode._template`` packs it
and ``_stored`` reads it back.

Words are lists of ints, index i holding the coefficient of x^i.
Systematic encoding puts the message in the high-order positions and the
parity symbols in positions 0..n-k-1.

Each code chooses three table paths once, in ``__init__``, each by one
rule that sits beside its cap and sets a boolean.  Every path reads the
boolean; none reads a missing table as a decision:

- ``_BlockCode._by_columns`` (``_columns_fit``): per-cell syndrome
  columns and the column re-check;
- ``_CyclicCode._by_region`` (``_chien_fits``): the byte-region decoder
  and its packed Chien search, else ``_gpz_decode`` and ``_chien_roots``;
- ``BchCode._by_cosets`` (p^r <= ``_COSET_CAP``, one rule for both p):
  the coset table, else the algebraic decode.

A code's reference twin is the same code with ``_by_columns`` off,
``_by_region`` off, an odd-p ``_by_cosets`` off and a binary one as
built: a shallow copy made on first request (``_load_twin``, ``_twin``),
which shares the tables built so far, or the code itself where it takes
none of those paths.  ``decode_mults`` is the twin's count: its scalar
paths count one multiplication per nonzero product (``_gpz_decode``,
``_poly_remainder``, ``_sparse_syndrome``) and no fast path counts.  A
table build counts nothing (``_uncounted``, the one writer of the
counter back).  One rule serves every entry point that takes ``count``:
the public ``decode`` and ``decode_syndrome`` and ``fuzzy.verify`` run
on ``_decoder``'s code, the twin alone with ``count`` and the code
itself without, so a counted call runs one decode, never two.

Over characteristic 2 (syndrome roots in F_{2^m}, m <= 16) syndromes
come from a packed kernel: a table-driven LFSR reduces the word modulo
the generator, and one packed F_2-linear map takes the remainder to the
power sums, in the byte form of the rule above.  An RS code over
F_{2^m}, m <= 8, takes ``_ByteKernel``: four symbols a step, slicing by
4 (Kounavis and Berry, ISCC 2005), through four tables of 2^m entries
that also clear the overflow they are looked up by, so its loop
needs no mask, and one nibble table per 4 remainder bits for the power
sums, their single-bit entries the power-sum columns translated through
the field's multiply rows, which the Chien table reuses.  A binary BCH
code, and an RS code over F_{2^m}, m > 8, takes ``_BinaryKernel``: one
masked step of eight digits or one symbol, and one column per remainder
bit.  Neither kernel counts a multiplication.  A binary
block word reaches it through bit lanes: one int per cell position of a
block, across all blocks, from one strided byte slice; a binary block
code with columns skips both and XORs one per-cell syndrome column per
set cell (``_BlockCode._columns``).  An odd-p block code with columns
sums one column per cell, one byte per F_p digit of the syndrome,
reduces every byte mod p at the end and packs each outer symbol's digits
into its template byte (``_BlockCode._digit_columns``,
``_column_template``); one without keeps the per-symbol paths
``_sparse_syndrome`` and ``_poly_remainder``.  Such a code's decode
re-checks a syndrome by the same columns and rebuilds its touched blocks
from a fill table (``_BlockCode._fills``).  A block decode costs per
damaged and touched block: its symbol errors are one sparse map by
block, and a code without check cells reads no block part.  A block code
without columns re-checks the sparse map a decode returns by re-reading
each block it touches from the map once.  A binary block decode with
check cells reads its block parts from bit lanes, one int per check
digit.

A cyclic code on the region path decodes on byte regions (``_CyclicCode._region_errors``): a polynomial is a byte
string, and multiplying one by a constant c is one ``bytes.translate``
through the field's row of c (``ExtField._load_rows``).  The Chien table
evaluates a polynomial at every position at once: evaluation is
F_2-linear in the coefficient bits, so it XORs one packed column per set
bit, one byte per position (``_chien_table``).  It finds the locator's
roots and gives Forney's formula its values, and per-position columns of
the powers alpha^(ij) turn any sparse word into its power sums, one
translate per nonzero symbol (``_CyclicCode._sums``): the decoder's
re-check, and a block code's outer sums of the few blocks a decode
touches.  The region decoder gives the scalar ``_gpz_decode``'s outcome,
first trying one error, which one translate of the syndrome tests.  A
binary BCH code with cosets decodes a packed remainder in its inner
decode by one lookup in its coset-leader table, the remainder of every
pattern of weight <= design_t (``_coset_table``; standard-array
decoding, Slepian 1956), which its coset table keys to the pattern's
message digits; ``decode_packed`` is the algebraic decode.  An odd-p
one's coset table maps every remainder, a tuple of its digits, to the
message error of the scalar decode (``BchCode._load_cosets``).  So a
concatenation's inner decode is one call for both p,
``BchCode._message_error``, the coset table's one reader: one ``get``
that gives the message digits, or None for an erasure, with no
exception raised or caught.

Every table (generator, kernel, Chien table, the columns of ``_sums``,
coset and check tables, a block code's per-cell columns and
fill table, a field's rows, and the reference twin) is built on first
use by its own loader
into a slot its owner sets to None in ``__init__``, never at
construction, and the slot holds None or the table.  The tables
live and die with their code; ``codespec.parse_spec`` keeps parsed codes,
so a re-parsed spec finds them built.
"""

import struct
from collections import namedtuple
from functools import cache, reduce
from itertools import chain, combinations, compress, product, repeat
from operator import add, countOf, getitem, itemgetter, xor

from .errors import (
    AlphabetMismatchError,
    CapacityTooLargeError,
    DecodeFailure,
    IndexOutOfRangeError,
    LengthMismatchError,
    ShapeMismatchError,
    TemplateFormatError,
    TooManyErasuresError,
)
from .gf import _MAX_DEFAULT_ORDER, MUL_COUNTER, ExtField, _from_digits, _to_digits


class DecodeInfo(namedtuple("DecodeInfo", "inner_failed outer_corrected")):
    """Diagnostics of a decode: the blocks erased for the outer decode and
    the outer symbols it corrected (every corrected symbol of a plain RS
    code)."""

    __slots__ = ()

    @property
    def outer_error_count(self) -> int:
        return len(set(self.inner_failed) | set(self.outer_corrected))


class _SpecIdentity:
    """A code or a layout is its ``spec_string()``: two of the same type
    are equal exactly when their spec strings are, and hash and repr
    follow it."""

    def __eq__(self, other):
        return type(other) is type(self) and other.spec_string() == self.spec_string()

    def __hash__(self):
        return hash(self.spec_string())

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string()})"


class LinearCode(_SpecIdentity):
    """What enroll and verify need from a code.

    The template stores a syndrome that is linear in the data word (the
    syndrome-based secure sketch of Dodis, Reyzin and Smith, "Fuzzy
    Extractors", arXiv cs/0602007): syndrome(x) - syndrome(y) is the
    syndrome of x - y, so the difference decodes to the noise pattern.

    A subclass sets ``shape`` and ``alphabet`` (the data word and the field
    its symbols lie in), ``base_length`` and ``base_dimension`` over that
    alphabet, and ``segments``: the syndrome as consecutive
    ``(count, field)`` runs, each symbol an element of its run's field.  It
    implements ``_body_syndrome(body)``, the syndrome of a word's body
    (``_read``, below) laid out as ``segments``, as its template bytes
    (the module's form rule).  The code alone converts between those
    bytes and the public tuple (``_template``, ``_stored``) and subtracts
    a presented syndrome from stored bytes (``_stored_minus``, which
    checks their range).  ``syndrome(word)`` is the syndrome of a word
    after its read, always a tuple.  ``_decode(syndrome)`` is the one
    decode: the error as a sparse map from row-major flat cell offset to
    its nonzero value, and the decode's ``DecodeInfo``.  ``_decode``
    takes template bytes known to fit ``segments`` (``fuzzy.verify``
    builds them in range) and raises DecodeFailure where no pattern
    within reach reproduces them.  ``decode(syndrome)`` is its one dense
    wrapper: it checks the tuple syndrome, packs it into template bytes,
    so it runs verify's path, and returns the pattern shaped like the
    data word, with the ``DecodeInfo`` if asked.  For a plain RS or BCH
    code the syndrome is the power sums S_j = word(alpha^j), j =
    1..count.

    A base-field code states only where its blocks live: ``_block_order()``
    gives the flat offsets of its cells, block by block, or None where they
    lie in row-major order (``_BlockCode``).  A decode's sparse map gives
    each cell at its row-major offset.

    ``_read(word)`` is the one read of a data word and decides alone which
    words the code accepts: exactly the words of ``shape`` whose cells are
    ints (bools are; an object that only defines ``__index__`` is not) in
    0 .. alphabet.order - 1.  It makes one shape check, one int-type test
    (an exact-int count, with the isinstance test only past another type)
    and one range check, and raises ShapeMismatchError or one of its
    subclasses for any other word: ``_shape_error`` for the shape,
    ``_type_error`` for a cell that is not an int (an RS code's are
    LengthMismatchError and AlphabetMismatchError), AlphabetMismatchError
    for a cell out of range.  It returns the body ``fuzzy.canonical_bytes``
    hashes after the digest head: the cells row-major, one byte each (a
    fresh bytearray) for an alphabet of order <= 256, else each
    big-endian in the fewest bytes that hold order - 1 (``_cells`` reads
    the ints back).  ``enroll`` hashes ``_head`` plus the body and takes
    the syndrome of the same body; ``_spec``, ``_head`` and the range
    table ``_below`` are built by the first read into slots a code sets to
    None in ``__init__``.

    For the ``info`` and ``capability`` reports it also sets ``guidance``
    and implements ``_kind_lines()`` (what the code is) and
    ``_bound_lines()`` (what it guarantees); ``info_lines()`` and
    ``capability_lines()`` frame them with the lines every code shares.
    """

    shape: tuple[int, ...]
    base_length: int
    base_dimension: int
    segments: tuple[tuple[int, object], ...]
    guidance: str

    def syndrome(self, word) -> tuple:
        """The syndrome of a data word, a tuple of ints laid out as
        ``segments``; ShapeMismatchError for a word the code does not
        take."""
        return self._stored(self._body_syndrome(self._read(word)))

    def syndrome_sub(self, a: tuple, b: tuple) -> tuple:
        """a - b, symbol by symbol in each run's field."""
        out = []
        at = 0
        for count, field in self.segments:
            end = at + count
            out.extend(map(field.sub, a[at:end], b[at:end]))
            at = end
        return tuple(out)

    def decode(self, synd, with_info: bool = False, count: bool = False):
        """The error pattern, shaped like the data word, that the syndrome
        decodes to, and its ``DecodeInfo`` if ``with_info``.  A syndrome
        that does not fit ``segments`` is a ShapeMismatchError.  With
        ``count`` the reference twin decodes, and MUL_COUNTER advances by
        its multiplications (``_decoder``)."""
        self._check_syndrome(synd)
        code = _decoder(self, count)
        errors, info = code._decode(code._template(tuple(synd)))
        pattern = self._dense(errors)
        return (pattern, info) if with_info else pattern

    def _template(self, synd) -> bytes:
        """The template bytes of a tuple syndrome, every symbol packed in
        its run's width (``_pack_run``), or of template bytes, which are
        returned as they are."""
        if type(synd) is bytes:
            return synd
        runs, at = [], 0
        for count, field in self.segments:
            runs.append(_pack_run(synd[at : at + count], field.order))
            at += count
        return b"".join(runs)

    def _stored(self, raw) -> tuple:
        """The tuple of template bytes, ``_template``'s inverse; a
        TemplateFormatError where they are too short or too long for
        ``segments`` or a symbol lies outside its run's field, the runs of
        ``_runs`` read in order (``_read_run``)."""
        if self._below is None:
            self._load_consts()
        values = []
        for at, end, field, _ in self._runs:
            if len(raw) < end:
                raise TemplateFormatError("syndrome too short for this code")
            run = _read_run(raw[at:end], field.order)
            if run and max(run) >= field.order:
                raise TemplateFormatError(f"syndrome symbol outside {field.spec_string()}")
            values.extend(run)
        if len(raw) > end:
            raise TemplateFormatError("syndrome longer than the code redundancy")
        return tuple(values)

    def _stored_minus(self, raw, presented) -> bytes:
        """The stored template bytes ``raw`` minus a presented syndrome's
        template bytes, after checking that ``raw`` fits ``segments``
        (TemplateFormatError, as ``_stored`` names it): ``presented`` is
        in range, so the difference is in range exactly when ``raw`` is
        as long and in range.  Over characteristic 2 ``raw`` is in range
        when it sets no bit of ``_spill``, and the difference is one XOR
        of the two byte strings as ints.  Over odd p it is in range when
        every symbol lies in its run's field, and each run of ``_runs``
        subtracts: over F_p, p < 128, as ints with p added to every byte,
        so that none borrows, and each byte reduced mod p by one
        translate; else symbol by symbol (``_run_minus``)."""
        if self._below is None:
            self._load_consts()
        if self.alphabet.p == 2:
            stored = int.from_bytes(raw, "little")
            if len(raw) != len(presented) or stored & self._spill:
                self._stored(raw)  # raises, naming the fault
            return (stored ^ int.from_bytes(presented, "little")).to_bytes(len(raw), "little")
        if len(raw) != len(presented):
            self._stored(raw)  # raises, naming the fault
        diff = []
        for at, end, field, carry in self._runs:
            stored, given = raw[at:end], presented[at:end]
            if max(_read_run(stored, field.order)) >= field.order:
                self._stored(raw)  # raises, naming the fault
            if carry:
                run = int.from_bytes(stored, "little") + carry - int.from_bytes(given, "little")
                diff.append(run.to_bytes(end - at, "little").translate(_mod_table(field.p)))
            else:
                diff.append(_run_minus(field, stored, given))
        return b"".join(diff)

    def zero_word(self):
        return self._shaped([0] * self.base_length)

    def _dense(self, errors: dict) -> list:
        """The data word holding a sparse error map's values, zero elsewhere."""
        flat = [0] * self.base_length
        for at, v in errors.items():
            flat[at] = v
        return self._shaped(flat)

    def _shaped(self, flat: list) -> list:
        """A row-major cell list reshaped to the data word's shape."""
        if len(self.shape) == 1:
            return flat
        cols = self.shape[1]
        return [flat[at : at + cols] for at in range(0, len(flat), cols)]

    # The error classes of a word of the wrong shape and of a cell that is
    # not an int; a cell outside the alphabet is an AlphabetMismatchError.
    _shape_error = _type_error = ShapeMismatchError
    _spec = None  # spec_string(), set on first use
    _head = None  # the digest head, set on first use
    _below = None  # the byte table of the alphabet's symbols, set on first use
    _spill = None  # the bits no stored symbol over F_{2^m} sets, set on first use
    _runs = None  # the byte span, field and carry of each run of segments, set on first use

    def _load_consts(self) -> None:
        """Build ``_spec``, ``_head`` (``canonical_spec()|shape|`` in
        ASCII), ``_below`` (the bytes 0 .. min(order, 256) - 1, which a
        one-byte body in range is made of), ``_spill`` and ``_runs`` once
        per code.  ``_spill``: over characteristic 2, the template bytes as
        a little-endian int with every bit set that no symbol sets, a
        symbol of m bits being any value below 2^m (for m > 8, its high
        byte's bits past m - 8).  ``_runs``: per run of ``segments`` its
        template bytes' start and end, its field and, over F_p, 2 < p <
        128, the int with p in each of its bytes (else 0)."""
        alphabet, shape = self.alphabet, "x".join(map(str, self.shape))
        self._spec = self.spec_string()
        self._head = f"{alphabet.canonical_spec()}|{shape}|".encode("ascii")
        self._below = bytes(range(min(alphabet.order, 256)))
        self._spill = int.from_bytes(b"".join([
            (bytes([256 - f.order]) if f.order <= 256 else bytes([256 - (f.order >> 8), 0])) * count
            for count, f in self.segments]), "little")
        runs, at = [], 0
        for count, f in self.segments:
            end = at + count * _symbol_width(f.order)
            carry = int.from_bytes(bytes([f.order]) * count, "little") if f.m == 1 and 2 < f.order < 128 else 0
            runs.append((at, end, f, carry))
            at = end
        self._runs = tuple(runs)

    def _read(self, word) -> bytes:
        """The data word's canonical body, after its one check: its cells
        row-major, one byte each for an alphabet of order <= 256, else each
        big-endian in the fewest bytes that hold order - 1.

        The word must have ``shape`` (``_shape_error``), every cell must be
        an int (``_type_error``; bools are, an object that only defines
        ``__index__`` is not) and lie in 0 .. order - 1
        (AlphabetMismatchError).  A one-byte body is a fresh bytearray."""
        shape = self.shape
        try:
            if len(shape) == 1:
                fits, cells = len(word) == shape[0], word
            else:
                rows, cols = shape
                fits = len(word) == rows and countOf(map(len, word), cols) == rows
                cells = []
                if fits:
                    for row in word:
                        cells += row
        except TypeError:  # a word or row without a length, e.g. None or an int
            fits = False
        if not fits:
            raise self._shape_error(f"expected a word of shape {shape}")
        # exact ints first: the isinstance test runs only past another type
        if countOf(map(type, cells), int) != len(cells) and not all(
            map(isinstance, cells, repeat(int))
        ):
            bad = next(c for c in cells if not isinstance(c, int))
            raise self._type_error(f"symbol {bad!r} outside {self._symbols}")
        if self._below is None:
            self._load_consts()
        order = self.alphabet.order
        if order <= 256:
            try:
                body = bytearray(cells)
                if not body.translate(None, self._below):
                    return body
            except ValueError:  # a cell outside 0 .. 255
                pass
        elif min(cells) >= 0 and max(cells) < order:
            width = _symbol_width(order)
            return b"".join([v.to_bytes(width, "big") for v in cells])
        bad = next(c for c in cells if not 0 <= c < order)
        raise AlphabetMismatchError(f"symbol {bad} outside {self._symbols}")

    def _cells(self, body):
        """The ints of a body ``_read`` returned: the body itself where
        every cell is one byte."""
        width = len(body) // self.base_length
        if width == 1:
            return body
        return [int.from_bytes(body[at : at + width], "big") for at in range(0, len(body), width)]

    def _block_order(self):
        """The flat offsets of the cells, block by block, as a tuple; None
        where the blocks already lie in row-major order."""
        return None

    def _check_syndrome(self, synd) -> None:
        """Raise unless the syndrome fits ``segments``: ShapeMismatchError on
        a wrong length, AlphabetMismatchError on a symbol that is not an int
        of its run's field (``_check_symbols`` of each run)."""
        try:
            fits = len(synd) == sum(count for count, _ in self.segments)
        except TypeError:  # None, an int
            fits = False
        if not fits:
            raise ShapeMismatchError("syndrome has the wrong length for this code")
        at = 0
        for count, field in self.segments:
            _check_symbols(synd[at : at + count], count, field.order, field.spec_string())
            at += count

    def syndrome_symbol_count(self) -> int:
        """Redundancy in data-alphabet symbols: base_length - base_dimension."""
        return self.base_length - self.base_dimension

    @property
    def rate(self) -> float:
        return self.base_dimension / self.base_length

    def info_lines(self) -> list[str]:
        return [
            f"code: {self.spec_string()}",
            *self._kind_lines(),
            f"syndrome symbols: {self.syndrome_symbol_count()}",
        ]

    def capability_lines(self) -> list[str]:
        return [
            f"rate: {self.base_dimension}/{self.base_length} = {self.rate:.4f}",
            *self._bound_lines(),
            f"guidance: {self.guidance}",
        ]

    def _shape_lines(self) -> list[str]:
        shape = "x".join(str(d) for d in self.shape)
        return [
            f"base shape: {shape} over {self.alphabet.spec_string()}",
            f"base dimension: {self.base_dimension}",
        ]


def enrollable(code):
    """The code itself if it follows the LinearCode protocol (a bare BCH
    code does not), else ShapeMismatchError."""
    if not isinstance(code, LinearCode):
        raise ShapeMismatchError(f"not an enrollable code: {code!r}")
    return code


def _twin(code, **paths):
    """A code's reference twin: the code itself where each attribute in
    ``paths`` is already that object, else a shallow copy holding them,
    which shares the tables built so far and is its own twin.  The copy
    takes every instance attribute as it stands when the twin is built,
    a method patched onto the instance included."""
    if all(getattr(code, name) is value for name, value in paths.items()):
        return code
    twin = object.__new__(type(code))
    twin.__dict__.update(vars(code), **paths, _twin=twin)
    return twin


def _decoder(code, count: bool):
    """The code a call with ``count`` runs on, for the public decodes and
    ``fuzzy.verify`` alike: the code itself, or with ``count`` its
    reference twin alone, whose scalar paths count the decode's
    multiplications in MUL_COUNTER."""
    return (code._twin or code._load_twin()) if count else code


def _uncounted(build):
    """``build()``, with MUL_COUNTER left as it found it: a table build
    is no decode, whatever scalar products it runs."""
    counted = MUL_COUNTER.n
    try:
        return build()
    finally:
        MUL_COUNTER.n = counted


class _BlockCode(LinearCode):
    """A base-field code whose block i holds outer Reed-Solomon symbol i.

    A block has ``_width`` cells: the symbol's m digits at ``_sym_at`` and
    ``_chk`` check cells at ``_chk_at`` (none for cI, cII or an identity
    inner code).  ``_fill(sym)`` is a symbol's valid block, and a block's
    residual is its check cells minus those of its symbol's fill, one
    rule for every block code (``_residual``; a concatenation's is its
    inner remainder).  Over F_2 the fill's check cells are linear in the
    symbol: ``_checks`` holds their byte tables, built on first use by
    ``_load_checks()`` from the fills of the unit symbols, and ``_lanes``
    the symbol digits each check digit sums, read off them.

    ``__init__`` sets ``_by_columns`` by ``_columns_fit``, the one rule
    of which block codes take per-cell syndrome columns.  The whole
    syndrome is F_2-linear in a binary word, so such a code's
    ``_columns`` hold, per row-major cell, the syndrome of the word with
    a single 1 there as a little-endian int (``_load_columns``).  Its
    syndrome is the XOR of the columns of the set cells, one C-level pass
    with no split and no LFSR.  Any other binary word splits as bit
    lanes, one int per cell position across all blocks, with no loop
    over the blocks (``_split_lanes``), and its symbols go to the outer
    code unchecked (``RsCode._power_sums``).  Lane j is the strided slice
    ``cells[j::_width]`` of its cells in block order: the body itself
    where the blocks lie row-major, else the body gathered by one
    itemgetter of the block order (``_gather``, built on first use).

    Over odd p the syndrome is F_p-linear in the word.  A code with
    columns holds p ints per cell, value v's syndrome at that cell in
    digit bytes: one byte per F_p digit, an outer symbol's m digits low
    first (``_digit_columns``).  Its syndrome is the sum of one column
    per cell, where no byte carries, reduced mod p by one translate and
    packed into template bytes (``_column_template``, with the maps of
    ``_digits``).  Any other odd-p word is split block by block from its
    gathered cells.

    Every placement decision is the ``layout``'s (a ``concat.py`` layout
    object): ``shape`` is ``layout.shape(n, _width)``, and
    ``_block_order()`` asks ``layout.cell(n, _width, i, p)`` for the
    cells, with p running over ``places`` in block-format order (default
    1.._width): for every cell, or only for the first block and each
    block's origin where ``layout.translates``; a one-row shape needs no
    order.  The syndrome lists its
    two runs in the order a block lists its cells: the outer power sums
    first where the symbol digits come first (``_sym_at == 0``), the
    residuals first otherwise, and an empty residual run is left out of
    ``segments``.  ``_body_syndrome`` computes its template bytes; each
    subclass binds the public ``syndrome`` in its own class
    (perfbench/spans.py traces it there).

    ``_decode`` takes template bytes, and its Python-level work is per
    damaged and touched block; only C-level passes (the part split, the
    search for nonzero parts) run over every block.  With check cells it
    cuts the outer sums from the residual run by the residual run's
    length, N * chk symbols, and splits the residual run into block
    parts: over F_2 with at most 8 check digits one int per check digit
    k, the lane ``res[k::_chk]`` shifted by k, summed and read back as
    bytes, byte i block i's part; wider ones by ``_pack_runs``; over odd
    p tuples of digits.  Without check cells (cI, cII, an identity inner code) it
    reads no part: the outer sums are the whole syndrome.  The symbol
    errors are one sparse map by block (``_decode_blocks``): each damaged
    block, one with a nonzero part, in ascending order, with its inner
    estimate or as an erasure, then the blocks the outer decode corrects.
    The map's blocks are the touched ones, and only they are rebuilt,
    from their symbol errors and stored parts (over F_2 in one unpack;
    with odd-p columns from the fill table, below).  Their nonzero cells,
    at each touched block's slice of the block order, are the sparse
    error map (``_cells_of``); every other block is zero.  One rule
    re-checks that map against the whole syndrome, for expansions and
    concatenations alike: the columns where the code takes them
    (``_by_columns``), else the re-read of the touched blocks.  With
    binary ``_columns`` the XOR of the map's columns must be the
    syndrome; with odd-p ones the sum of the map's columns of its values,
    reduced mod p and packed, must be.  Without columns ``_recheck``
    reads each touched block's cells from the map once and compares its
    residual with its stored part, every other part with zero and the
    outer power sums of the re-read symbols, recomputed, with the
    syndrome's; an expansion's counts no product
    (``ExpandedCode._recheck``).  An odd-p code with columns takes each
    rebuilt block's fill from ``_fills``, one entry per outer symbol
    built on first use (``_load_fills``).  A subclass also gives
    ``_inner_decode(part)``: the symbol error a damaged block's residual
    suggests, or None to make the block an outer erasure.  The reference
    twin (``_load_twin``) takes no columns and decodes on the outer
    code's twin.
    """

    def __init__(self, outer, chk: int, sym_at: int, layout, places=None):
        m = outer.field.m
        self.outer = outer
        self._chk, self._sym_at = chk, sym_at
        self._chk_at = 0 if sym_at else m
        self._width = m + chk
        self._places = places
        self._checks = None  # the check tables over F_2, set on first use
        self._lanes = None  # the lanes of each check digit over F_2, set on first use
        self._columns = None  # the per-cell syndrome columns, set on first use
        self._digits = None  # the digit-byte maps of odd-p columns, set on first use
        self._fills = None  # per symbol its fill, with odd-p columns; set on first use
        self._order = None
        self._gather = None  # the itemgetter of a 2-D body in block order, set on first use
        self._twin = None  # the reference twin, set on first request
        self._symbols = f"gf({outer.field.p})"
        self.layout = layout
        self.shape = layout.shape(outer.n, self._width)
        self.base_length = outer.n * self._width
        # per-cell columns and the column re-check
        self._by_columns = _columns_fit(outer.field, self.base_length)
        self.base_dimension = outer.k * m
        self.alphabet = outer.field.prime
        sums = ((outer.redundancy, outer.field),)
        res = ((outer.n * chk, self.alphabet),) if chk else ()
        self.segments = res + sums if sym_at else sums + res
        self._size = outer.redundancy + outer.n * chk  # syndrome symbols

    def _block_order(self):
        """The row-major offset of every cell the layout places, block by
        block in block-format order; None for a one-row shape.  Where every
        block is the first one moved by an offset (``layout.translates``:
        iv and v), the first block's offsets plus each block's origin, one
        addition per cell; else ``layout.cell`` of every cell."""
        if len(self.shape) == 1:
            return None
        N, width, cell, cols = self.outer.n, self._width, self.layout.cell, self.shape[1]
        places = self._places or range(1, width + 1)
        if not self.layout.translates:
            return tuple([r * cols + c for i in range(1, N + 1) for p in places
                          for r, c in (cell(N, width, i, p),)])
        first = [r * cols + c for p in places for r, c in (cell(N, width, 1, p),)]
        origins = [r * cols + c - first[0] for i in range(1, N + 1)
                   for r, c in (cell(N, width, i, places[0]),)]
        return tuple(map(add, first * N, chain.from_iterable(map(repeat, origins, repeat(width)))))

    def _body_syndrome(self, body) -> bytes:
        """The template bytes of the outer power sums of a body's block
        symbols and the blocks' residuals, in ``segments`` order.  With
        binary ``_columns``, the XOR of the columns of the body's set
        cells; with odd-p ones, the ``_column_template`` of the sum of
        each cell's column of its value."""
        if self._by_columns:
            columns = self._columns or self._load_columns()
            if self.alphabet.p == 2:
                return reduce(xor, compress(columns, body), 0).to_bytes(self._size, "little")
            return self._column_template(sum(map(getitem, columns, body)))
        syms, res = self._split_body(body)
        sums = self.outer._power_sums(syms)
        return b"".join((res, sums) if self._sym_at else (sums, res))

    def _column_template(self, total: int) -> bytes:
        """The template bytes of a sum of odd-p columns: its digit bytes,
        each reduced mod p by one translate, then each outer symbol's m
        digits, low first, packed into its byte by one multiplication.
        Read as an int, the outer sums hold symbol j's digit b in byte
        j*m + b; times ``pack``, the sum of p^c 256^(m-1-c) over c < m,
        byte j*m + m - 1 holds the sum of digit b times p^b, symbol j,
        and no byte carries: each byte sums at most one digit times p^c
        for each c, at most p^m - 1 <= 255."""
        size, cut, reduce, pack, m = self._digits or self._load_digits()
        digits = total.to_bytes(size, "little").translate(reduce)
        res, sums = (digits[:-cut], digits[-cut:]) if self._sym_at else (digits[cut:], digits[:cut])
        packed = (int.from_bytes(sums, "little") * pack >> 8 * m - 8).to_bytes(cut, "little")[::m]
        return res + packed if self._sym_at else packed + res

    def _decode(self, synd):
        """The sparse error map template bytes decode to and its
        DecodeInfo: with check cells, the outer sums cut from the residual
        run by its length, N * chk symbols, and the residual run split into
        parts; without, the outer sums are the whole syndrome and no part
        is read.  Then the damaged blocks' symbol errors, the outer decode
        (``_decode_blocks``), the touched blocks rebuilt from their symbol
        errors and stored parts into the map at their cells' offsets
        (``_offsets``, ``_cells_of``) and the map re-checked: with binary
        ``_columns`` the XOR of the columns of its cells must be the whole
        syndrome; with odd-p ones the ``_column_template`` of the sum of
        its columns of its values; else ``_recheck`` re-reads the touched
        blocks at the same offsets."""
        sums, parts = synd, ()
        if self._chk:
            size = self.outer.n * self._chk * _symbol_width(self.alphabet.order)  # residual run bytes
            res, sums = (synd[:size], synd[size:]) if self._sym_at else (synd[-size:], synd[:-size])
            parts = self._parts(res)
        errors, erasures, delta = self._decode_blocks(parts, sums)
        # a list where the re-check reads the offsets a second time
        offsets = self._offsets(errors) if self._by_columns else list(self._offsets(errors))
        found = self._cells_of(offsets, errors, parts)
        if not self._by_columns:
            self._recheck(found, offsets, errors, parts, sums)
        elif self.alphabet.p != 2:
            columns = self._columns or self._load_columns()
            total = sum(map(getitem, map(columns.__getitem__, found), found.values()))
            if self._column_template(total) != synd:
                raise DecodeFailure("reconstructed pattern does not reproduce the syndrome")
        elif reduce(xor, map((self._columns or self._load_columns()).__getitem__, found), 0) != (
                int.from_bytes(synd, "little")):
            raise DecodeFailure("reconstructed pattern does not reproduce the syndrome")
        return found, DecodeInfo(tuple(erasures), tuple(delta))

    def _load_twin(self):
        """The reference twin: without columns, on the outer code's twin."""
        self._twin = _twin(self, _by_columns=False, outer=self.outer._twin or self.outer._load_twin())
        return self._twin

    def _recheck(self, found, offsets, syms, parts, sums) -> None:
        """Raise DecodeFailure unless the sparse map ``found`` has the
        whole syndrome, the touched blocks (the blocks of the symbol error
        map ``syms``, their cells at ``offsets``) read back from it once
        (``_read_blocks``): every cell of the map lies in a touched block;
        each touched block's residual, recomputed from its cells, is its
        stored part; every other block's part is zero; and the outer power
        sums of the re-read symbols, recomputed, are ``sums``.  Without
        check cells the outer sums are the whole check.  It serves every
        code without columns."""
        cells = list(map(found.get, offsets, repeat(0)))
        if len(found) != (countOf(cells, 1) if self.alphabet.p == 2 else len(cells) - cells.count(0)):
            raise DecodeFailure("reconstructed pattern does not reproduce the syndrome")
        got_syms, got = self._read_blocks(cells)
        if (
            self._chk and (got != [parts[i] for i in syms]
                           or len(parts) - parts.count(0) != len(got) - got.count(0))
            or any(self.outer._minus_sums(sums, compress(zip(syms, got_syms), got_syms)))
        ):
            raise DecodeFailure("reconstructed pattern does not reproduce the syndrome")

    def _read_blocks(self, cells):
        """The outer symbols and the parts (as ``_parts`` gives them, none
        without check cells) of whole blocks from their cells in block
        order, block by block.  Over F_2, where every cell is 0 or 1, a
        block's cells pack into one int: its symbol bits are its symbol,
        and its check bits XOR the check-table image of the symbol its
        part.  Over odd p a block's symbol is ``_from_digits`` of its
        digits and its part its ``_residual``."""
        m, width, chk, p = self.outer.field.m, self._width, self._chk, self.alphabet.p
        if p == 2:
            blocks = _pack_runs(cells, width)
            syms = [(v >> self._sym_at) & ((1 << m) - 1) for v in blocks]
            return syms, [(v >> self._chk_at) & ((1 << chk) - 1)
                          ^ _lookup(self._checks or self._load_checks(), s)
                          for v, s in zip(blocks, syms)] if chk else []
        blocks = [cells[at : at + width] for at in range(0, len(cells), width)]
        syms = [_from_digits(b[self._sym_at : self._sym_at + m], p) for b in blocks]
        return syms, [tuple(r) if any(r) else 0
                      for r in map(self._residual, blocks, syms)] if chk else []

    def _load_columns(self):
        """Column c: the syndrome of the word with a single 1 at row-major
        cell c, read as a little-endian int (``_bit_columns``), over odd p
        a tuple of one int per cell value (``_digit_columns``)."""
        by_block = self._bit_columns() if self.alphabet.p == 2 else _uncounted(self._digit_columns)
        columns = [0] * len(by_block)
        for at, col in zip(self._order or self._load_order(), by_block):
            columns[at] = col
        self._columns = tuple(columns)
        return self._columns

    def _bit_columns(self) -> list:
        """Over F_2, the column of every cell, block by block in
        block-format order.  A symbol digit b of block i has the outer power
        column of position i times x^b as its sums and its unit fill's
        check cells as block i's residual digits; a check cell has its one
        residual digit."""
        outer, field, chk = self.outer, self.outer.field, self._chk
        rows = field._rows or field._load_rows()
        units = [rows[1 << b] for b in range(field.m)]
        fills = [0] * field.m  # per symbol digit, its unit fill's residual digits
        if chk:
            tables = self._checks or self._load_checks()
            fills = [int.from_bytes(_unpack_bits([_lookup(tables, 1 << b)], chk), "little")
                     for b in range(field.m)]
        sums_at, res_at = (8 * outer.n * chk, 0) if self._sym_at else (0, 8 * outer.redundancy)
        by_block = []
        for i, col in enumerate(_power_columns(field, outer.n, outer.count)):
            at = res_at + 8 * i * chk
            block = [0] * self._width
            for b, row in enumerate(units):
                sums = int.from_bytes(col.translate(row), "little")
                block[self._sym_at + b] = sums << sums_at | fills[b] << at
            for k in range(chk):
                block[self._chk_at + k] = 1 << at + 8 * k
            by_block += block
        return by_block

    def _digit_columns(self) -> list:
        """Over odd p, the column of every cell, block by block in
        block-format order: p ints per cell, value v's the
        syndrome of the word with v at that cell and zeros elsewhere, as
        digit bytes (one byte per F_p digit, an outer symbol's m digits low
        first) read as a little-endian int.  A sum of one column per cell
        holds at most cells * (p - 1) <= 255 in a byte, so no byte carries
        and one translate reduces the sum mod p (``_body_syndrome``).

        A symbol digit b of block i has x^b alpha^(ij), j = 1..r, as its
        outer sums and minus its unit fill's check cells as block i's
        residual digits; a check cell has its one residual digit."""
        outer, field, chk, p = self.outer, self.outer.field, self._chk, self.alphabet.p
        m, r, q1 = field.m, outer.redundancy, field.order - 1
        size = (self._digits or self._load_digits()).size
        sums_at, res_at = (outer.n * chk, 0) if self._sym_at else (0, r * m)
        fills = [[-v % p for v in self._fill(p**b)[self._chk_at : self._chk_at + chk]]
                 for b in range(m)]
        scales = [bytes(v * d % p for d in range(256)) for v in range(p)]  # d -> v*d mod p
        by_block = []
        for i in range(outer.n):
            at = res_at + i * chk
            for j in range(self._width):
                unit = bytearray(size)
                b = j - self._sym_at
                if 0 <= b < m:
                    sums = (field._exp[(b + i * e) % q1] for e in range(1, r + 1))
                    unit[sums_at : sums_at + r * m] = bytes(
                        d for v in sums for d in _to_digits(v, p, m))
                    unit[at : at + chk] = fills[b]
                else:
                    unit[at + j - self._chk_at] = 1
                by_block.append(tuple(int.from_bytes(unit.translate(scale), "little")
                                      for scale in scales))
        return by_block

    def _load_digits(self):
        """The ``_DigitMaps`` of an odd-p code with columns: a syndrome of
        N * chk residual digits and r outer symbols of m digits."""
        p, m = self.alphabet.p, self.outer.field.m
        sums = self.outer.redundancy * m
        pack = sum(p**c << 8 * (m - 1 - c) for c in range(m))
        self._digits = _DigitMaps(self.outer.n * self._chk + sums, sums, _mod_table(p), pack, m)
        return self._digits

    def _load_order(self):
        """The block order as 4-byte offsets, a memoryview of native
        unsigned ints (a code has at most 2^20 cells): the getter built
        from it holds the only int objects.  A one-row code's is the
        identity, a range."""
        order = self._block_order()
        self._order = (memoryview(struct.pack(f"{len(order)}I", *order)).cast("I") if order
                       else range(self.base_length))
        return self._order

    def _split_body(self, body):
        """The outer symbols of the blocks of a word's body and their flat
        residuals as template bytes, from its cells in block order: the
        body itself where the blocks lie row-major, else its cells
        gathered through the block order.  Over F_2 from the lanes
        ``cells[j::_width]``, else block by block (``_read_blocks``)."""
        cells, width, p = self._cells(body), self._width, self.alphabet.p
        if len(self.shape) > 1:
            cells = (self._gather or self._load_gather())(cells)
        if p == 2:
            return self._split_lanes([cells[j::width] for j in range(width)])
        syms, parts = self._read_blocks(cells)
        return syms, _pack_run([d for part in parts for d in part or repeat(0, self._chk)], p)

    def _load_gather(self):
        """The itemgetter of a 2-D body's cells in block order."""
        self._gather = itemgetter(*(self._order or self._load_order()))
        return self._gather

    def _split_lanes(self, lanes):
        """The outer symbols and flat residuals of the binary blocks whose
        cell j is lane j's digit i, one lane per cell position.

        Lane j is read as the int whose byte i (bytes i*w .. i*w + w - 1,
        w = 2 for m > 8) holds cell j of block i, with no loop over the
        blocks.  The symbols are the sum of the symbol lanes shifted by
        their digit, read back as bytes (a tuple for m > 8), and residual
        digit k is the XOR of the lanes ``_lanes`` lists for it.
        """
        m, chk, sym_at = self.outer.field.m, self._chk, self._sym_at
        n, size = len(lanes[0]), 1 if m <= 8 else 2
        if size == 1:
            lanes = [int.from_bytes(lane, "little") for lane in lanes]
        else:
            wide, ints = bytearray(2 * n), []
            for lane in lanes:
                wide[::2] = lane
                ints.append(int.from_bytes(wide, "little"))
            lanes = ints
        packed = 0
        for b in range(m):
            packed |= lanes[sym_at + b] << b
        packed = packed.to_bytes(size * n, "little")
        syms = packed if size == 1 else struct.unpack(f"<{n}H", packed)
        if not chk:
            return syms, b""
        res = bytearray(n * chk)
        for k, row in enumerate(self._lanes or self._load_lanes()):
            digits = reduce(xor, map(lanes.__getitem__, row)).to_bytes(size * n, "little")
            res[k::chk] = digits[::size]
        return syms, res

    def _load_checks(self):
        """The byte tables of the F_2-linear map from a symbol to its
        fill's check cells, packed with cell k at bit k: unit symbol
        1 << b's check cells are the image of bit b."""
        at, end = self._chk_at, self._chk_at + self._chk
        fills = (self._fill(1 << b)[at:end] for b in range(self.outer.field.m))
        self._checks = _byte_tables([_pack_bits(cells) for cells in fills])
        return self._checks

    def _load_lanes(self):
        """Per check digit k over F_2, the lanes whose XOR is its
        residual: check cell k, then the symbol digits whose unit fill sets
        check bit k, read off the check tables."""
        m, tables = self.outer.field.m, self._checks or self._load_checks()
        basis = [tables[b >> 3][1 << (b & 7)] for b in range(m)]
        self._lanes = tuple(
            (self._chk_at + k, *(self._sym_at + b for b in range(m) if basis[b] >> k & 1))
            for k in range(self._chk)
        )
        return self._lanes

    def _residual(self, block, sym: int) -> list:
        """An odd-p block's check cells minus those of its symbol's fill,
        for every block code: a concatenation's is the block's inner
        remainder."""
        at, end = self._chk_at, self._chk_at + self._chk
        return [(v - f) % self.alphabet.p for v, f in zip(block[at:end], self._fill(sym)[at:end])]

    def _parts(self, res) -> list:
        """Each block's residual from the template bytes of the flat
        residuals of consecutive blocks: an int over F_2 (digit j at bit
        j), else the tuple of its digits (``_read_run``), which over F_p,
        p > 256, may exceed a byte; 0 where it is zero.  A code without
        check cells has none to read.  Over F_2 with at most 8
        check digits the parts are bytes, byte i block i's: lane k,
        ``res[k::chk]`` read as a little-endian int, holds digit k of
        every block in bit 0 of its byte, so the lanes shifted by k and
        summed are the parts."""
        chk = self._chk
        if self.alphabet.p == 2:
            if chk > 8:
                return _pack_runs(res, chk)
            packed = 0
            for k in range(chk):  # byte i of lane k is digit k of part i
                packed |= int.from_bytes(res[k::chk], "little") << k
            return packed.to_bytes(len(res) // chk, "little")
        res = _read_run(res, self.alphabet.order)
        parts = [tuple(res[at : at + chk]) for at in range(0, len(res), chk)]
        return [part if any(part) else 0 for part in parts]

    def _rebuild(self, syms, parts) -> list:
        """The word whose blocks hold the symbols ``syms`` with residuals
        ``parts``."""
        syms = dict(enumerate(syms))
        return self._dense(self._cells_of(self._offsets(syms), syms, parts))

    def _offsets(self, blocks):
        """The row-major offsets of the cells of ``blocks``, block by block
        in block-format order: each block's slice of the block order."""
        width, order = self._width, self._order or self._load_order()
        return chain.from_iterable([order[i * width : (i + 1) * width] for i in blocks])

    def _cells_of(self, offsets, syms, parts) -> dict:
        """The sparse map of the word whose block i, for each block of the
        map ``syms``, holds symbol syms[i] with residual parts[i], every
        other block zero: the nonzero cells by row-major flat offset, the
        cells of the map's blocks lying at ``offsets`` in turn.  Over F_2
        the cells come from one unpack and every set cell is 1; over odd p
        with digit columns each block comes from the fill table.  A code
        without check cells reads no part."""
        at, chk, p, width = self._chk_at, self._chk, self.alphabet.p, self._width
        if p == 2:
            if chk:
                tables, sym_at = self._checks or self._load_checks(), self._sym_at
                blocks = [s << sym_at | (parts[i] ^ _lookup(tables, s)) << at
                          for i, s in syms.items()]
            else:
                blocks = list(syms.values())
            return dict.fromkeys(compress(offsets, _unpack_bits(blocks, width)), 1)
        fill = (self._fills or self._load_fills()).__getitem__ if self._by_columns else self._fill
        cells = []
        for i, s in syms.items():
            block = fill(s)
            if chk and parts[i]:
                block = list(block)
                block[at : at + chk] = [(f + r) % p for f, r in zip(block[at : at + chk], parts[i])]
            cells += block
        return dict(compress(zip(offsets, cells), cells))

    def _load_fills(self):
        """Per outer symbol of an odd-p code with digit columns, its fill
        as a tuple."""
        self._fills = _uncounted(lambda: tuple([tuple(self._fill(sym))
                                                for sym in range(self.outer.field.order)]))
        return self._fills

    def _decode_blocks(self, parts, sums):
        """The outer symbol errors as a sparse map by block, ascending,
        the erasures and the outer corrections (a sparse map).  Each
        damaged block, one with a nonzero part, enters the map with its
        inner decoder's estimate of its symbol error, or 0 as an erasure;
        the outer decoder corrects the estimates, and a block it alone
        corrects joins the map.  So the map's blocks are the touched ones:
        the damaged and the corrected."""
        outer = self.outer
        errors, erasures = {}, []
        for i in compress(range(len(parts)), parts):
            e = self._inner_decode(parts[i])
            if e is None:
                if len(erasures) == outer.redundancy:  # the outer decode would refuse one more
                    raise TooManyErasuresError(f"{len(erasures) + 1} erasures exceed redundancy "
                                               f"{outer.redundancy}")
                erasures.append(i)
            errors[i] = e or 0
        if any(errors.values()):  # in range: inner decodes give base-field digits
            sums = outer._minus_sums(sums, compress(errors.items(), errors.values()))
        delta = outer._errors(sums, erasures)
        if not errors:  # no damaged block: the corrections, ascending as every outer decode gives them
            return delta, erasures, delta
        add, damaged = outer.field.add, len(errors)
        for i, d in delta.items():
            errors[i] = add(errors[i], d) if i in errors else d
        return errors if len(errors) == damaged else dict(sorted(errors.items())), erasures, delta


# An odd-p block code's digit-byte maps: the syndrome's size in digit
# bytes, the digit bytes of its outer sums, the translate table reducing
# each byte mod p, the multiplier packing each outer symbol's digits
# (``_BlockCode._column_template``) and m.
_DigitMaps = namedtuple("_DigitMaps", "size sums reduce pack m")


def _poly_mul(field: ExtField, f, g):
    """f * g, for building generators: table products, not counted."""
    exp, log = field._exp, field._log
    add = field.add
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] = add(out[i + j], exp[log[a] + log[b]])
    return out


def _chien_roots(field: ExtField, psi, n):
    """Positions i in [0, n) with psi(alpha^-i) = 0, plus the mult count.

    psi[0] is 1, so each point compares the sum of the other terms with -1
    and spends no multiplication on the constant.  The search stops at the
    deg(psi)-th root: a polynomial has no more roots than its degree.  A
    locator of degree 1 has its one root read off psi_1's log, with the
    count of a scan that stops there or runs past all n positions.
    """
    exp, log = field._exp, field._log
    if len(psi) == 2 and psi[1]:  # 1 + psi_1 x vanishes at alpha^-i where alpha^i = -psi_1
        i = log[field.neg(psi[1])]
        return ([i], i + 1) if i < n else ([], n)
    q1 = field.order - 1
    add = field.add
    minus_one = field.neg(1)
    es = []
    steps = []
    for j in range(1, len(psi)):
        c = psi[j]
        if c:
            es.append(log[c])
            steps.append(-j % q1)
    nt = len(es)
    deg = len(psi) - 1
    roots = []
    for i in range(n):
        acc = 0
        for t in range(nt):
            e = es[t]
            acc = add(acc, exp[e])
            e += steps[t]
            if e >= q1:
                e -= q1
            es[t] = e
        if acc == minus_one:
            roots.append(i)
            if len(roots) == deg:
                break
    return roots, (i + 1) * nt


def _gpz_decode(field: ExtField, synd, n, known=(), base_limit=None):
    """Errors-and-erasures decode of a syndrome vector, one symbol at a
    time: the decoder of a code off the region path (``_chien_fits``) and
    the oracle of ``_CyclicCode._region_errors``.

    ``synd`` is the template bytes of the sums (``_read_run``).
    ``known`` holds the erasure positions, sorted, distinct, in range and
    at most one per sum (``_CyclicCode._errors`` checks them).
    Returns the unique error vector v with
    2*weight(v off erasures) + |erasures| <= len(synd) that reproduces the
    syndromes, as a map from each position to its nonzero value, or raises
    DecodeFailure.  With base_limit set, magnitudes
    must lie in the base subfield (values below base_limit).

    One pass: the erasure locator Gamma seeds Berlekamp-Massey (Massey
    1969) in Blahut's errors-and-erasures form, which finds the locator
    Psi = Lambda*Gamma from the plain syndromes; a Chien search finds its
    roots X^-1, and Forney's formula (Forney 1965) gives each magnitude as
    -Omega(X^-1)/Psi'(X^-1) with Omega = S*Psi mod x^r.  The final re-check
    recomputes every syndrome from the pattern.
    """
    synd = list(_read_run(synd, field.order))
    r, f = len(synd), len(known)
    if not any(synd) and not known:
        return {}

    exp, log = field._exp, field._log
    q1 = field.order - 1
    add, sub = field.add, field.sub
    nm = 0
    try:
        # erasure locator gamma(x) = prod (1 - alpha^pos * x)
        gamma = [1]
        for pos in known:
            lx = pos % q1
            nxt = gamma + [0]
            for idx, c in enumerate(gamma):
                if c:
                    nxt[idx + 1] = sub(nxt[idx + 1], exp[lx + log[c]])
                    nm += 1
            gamma = nxt

        # Berlekamp-Massey from psi = prev = gamma and length L = f; prev is
        # the locator before the last length change, lb the log of the
        # discrepancy that made it (1 at the start), shift its distance.
        # psi[0] stays 1, so its products with the syndrome cost nothing,
        # and deg psi <= L <= k keeps every synd index in range.
        psi = gamma
        prev = gamma
        lb = 0
        shift = 1
        L = f
        for k in range(f, r):
            d = synd[k]
            for j in range(1, len(psi)):
                c, s = psi[j], synd[k - j]
                if c and s:
                    d = add(d, exp[log[c] + log[s]])
                    nm += 1
            if not d:
                shift += 1
                continue
            # psi - (d / b) x^shift prev; d / b folds into each product's log
            scale = (log[d] - lb) % q1
            nxt = psi + [0] * (len(prev) + shift - len(psi))
            for j, c in enumerate(prev):
                if c:
                    nxt[j + shift] = sub(nxt[j + shift], exp[log[c] + scale])
                    nm += 1
            if 2 * L <= k + f:
                L = k + 1 + f - L
                prev, lb, shift = psi, log[d], 1
            else:
                shift += 1
            psi = nxt
        while psi[-1] == 0:
            psi.pop()
        if len(psi) - 1 != L or 2 * L - f > r:
            raise DecodeFailure(f"no locator of {L - f} errors fits the syndrome")

        roots, c = _chien_roots(field, psi, n)
        nm += c
        if len(roots) != L:
            raise DecodeFailure(f"locator of degree {L} has {len(roots)} roots in range")

        # Forney: BM leaves Omega's coefficients from x^L up zero, and the
        # roots are simple, so Psi'(X^-1) is nonzero.  The derivative's
        # x^(j-1) coefficient is (j mod p) * psi_j.
        omega = []
        for k in range(L):
            acc = synd[k]
            for j in range(1, k + 1):
                c, s = psi[j], synd[k - j]
                if c and s:
                    acc = add(acc, exp[log[c] + log[s]])
                    nm += 1
            omega.append(acc)
        dpsi = []
        for j in range(1, L + 1):
            c, s = psi[j], j % field.p
            if c and s > 1:
                c = exp[log[c] + log[s]]
                nm += 1
            dpsi.append(c if s else 0)
        mags = []
        for pos in roots:
            step = -pos % q1
            num = den = e = 0
            for j in range(L):
                c, dc = omega[j], dpsi[j]
                if c:
                    num = add(num, exp[log[c] + e])
                    nm += 1
                if dc:
                    den = add(den, exp[log[dc] + e])
                    nm += 1
                e += step
                if e >= q1:
                    e -= q1
            if num:
                num = field.neg(exp[log[num] - log[den] + q1])
                nm += 1
            mags.append(num)
        if base_limit is not None and any(v >= base_limit for v in mags):
            raise DecodeFailure("magnitude outside the base field")

        error = {pos: val for pos, val in zip(roots, mags) if val}
        support = [(pos, log[val]) for pos, val in error.items()]

        for j in range(r):
            acc = 0
            e = 1 + j
            for pos, lv in support:
                acc = add(acc, exp[lv + pos * e % q1])
            nm += len(support)
            if acc != synd[j]:
                raise DecodeFailure("candidate pattern does not match the syndrome")
        return error
    finally:
        MUL_COUNTER.add(nm)


def _symbol_width(order: int) -> int:
    """The bytes of one symbol of an alphabet of ``order`` symbols, in a
    word's body and in a template's syndrome: the fewest that hold
    order - 1, big-endian."""
    return ((order - 1).bit_length() + 7) // 8


@cache
def _mod_table(p: int) -> bytes:
    """The translate table taking every byte to its residue mod p."""
    return bytes(v % p for v in range(256))


def _read_run(raw, order: int):
    """The symbols of a run of template bytes over a field of ``order``
    elements, unchecked: the bytes themselves where a symbol takes one
    byte, else the ints of two big-endian bytes each."""
    return raw if order <= 256 else struct.unpack(f">{len(raw) // 2}H", raw)


def _pack_run(symbols, order: int) -> bytes:
    """``_read_run``'s inverse: a sequence of symbols of a field of
    ``order`` elements as a run of template bytes."""
    return bytes(symbols) if order <= 256 else struct.pack(f">{len(symbols)}H", *symbols)


def _run_minus(field: ExtField, a, b) -> bytes:
    """Run ``a`` minus run ``b`` of template bytes over ``field``, both
    in range, symbol by symbol in the field."""
    order = field.order
    return _pack_run(list(map(field.sub, _read_run(a, order), _read_run(b, order))), order)


def _check_symbols(word, length: int, limit: int, name: str) -> None:
    """Raise unless the word is ``length`` ints (bools are; an object that
    only defines ``__index__`` is not) in 0 .. limit - 1; ``name`` names
    the alphabet in the message."""
    try:
        fits = len(word) == length
    except TypeError:  # None, an int
        fits = False
    if not fits:
        raise LengthMismatchError(f"expected a word of {length} symbols")
    if not all(map(isinstance, word, repeat(int))):
        bad = next(c for c in word if not isinstance(c, int))
        raise AlphabetMismatchError(f"symbol {bad!r} outside {name}")
    if word and (min(word) < 0 or max(word) >= limit):
        bad = next(c for c in word if not 0 <= c < limit)
        raise AlphabetMismatchError(f"symbol {bad} outside {name}")


def _poly_remainder(field: ExtField, word, g) -> list[int]:
    """word(x) mod the monic g(x), as len(g) - 1 coefficients.

    Counts one multiplication per nonzero product."""
    exp, log = field._exp, field._log
    sub = field.sub
    r = len(g) - 1
    work = list(word)
    nm = 0
    for i in range(len(work) - 1, r - 1, -1):
        c = work[i]
        if c:
            lc = log[c]
            base = i - r
            for j in range(r):
                gj = g[j]
                if gj:
                    work[base + j] = sub(work[base + j], exp[lc + log[gj]])
                    nm += 1
    MUL_COUNTER.add(nm)
    return work[:r]


def _sparse_syndrome(field: ExtField, word, count):
    """Power sums word(alpha^1) .. word(alpha^count), skipping zero symbols."""
    exp, log = field._exp, field._log
    q1 = field.order - 1
    add = field.add
    out = [0] * count
    nm = 0
    for i, c in enumerate(word):
        if c:
            lc = log[c]
            step = i % q1
            e = step
            for j in range(count):
                out[j] = add(out[j], exp[lc + e])
                e += step
                if e >= q1:
                    e -= q1
            nm += count
    MUL_COUNTER.add(nm)
    return out


# ---------------------------------------------------------------------------
# The packed syndrome kernel for characteristic 2
# ---------------------------------------------------------------------------

# bytes.translate tables between the digits 0, 1 and the characters "0",
# "1"; any other byte becomes a character int(..., 2) refuses.
_TO_CHARS = b"01" + b"x" * 254
_TO_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack_runs(digits, width: int) -> list[int]:
    """Each run of ``width`` F_2 digits d_0, d_1, ... in turn as the int
    sum d_i 2^i."""
    try:
        chars = bytearray(digits).translate(_TO_CHARS)
        chars.reverse()
        packed = [int(chars[at : at + width], 2) for at in range(0, len(chars), width)]
    except (TypeError, ValueError):
        raise AlphabetMismatchError("digit outside gf(2)") from None
    packed.reverse()
    return packed


def _pack_bits(digits) -> int:
    """The F_2 digits d_0, d_1, ... as the int sum d_i 2^i."""
    return _pack_runs(digits, len(digits))[0] if len(digits) else 0


def _unpack_bits(values, width: int) -> bytes:
    """The ``width`` bits of each int in turn, each below 2^width, low
    bit first, one digit per byte: the ints packed into one, read by one
    ``bin`` past a set bit above them all."""
    packed = 1
    for v in reversed(values):
        packed = packed << width | v
    return bin(packed)[:2:-1].encode().translate(_TO_DIGITS)


def _byte_tables(basis, bits: int = 8) -> tuple[tuple[int, ...], ...]:
    """Lookup tables of the F_2-linear map sending index bit b to basis[b]:
    table i holds the image of every value of index bits bits*i ..
    bits*(i+1) - 1, eight by default."""
    tables = []
    for at in range(0, len(basis), bits):
        table = [0]
        for image in basis[at : at + bits]:
            table += [t ^ image for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def _lookup(tables, v: int) -> int:
    """The image of v under the map ``_byte_tables`` tabulated."""
    out = 0
    for table in tables:
        out ^= table[v & 255]
        v >>= 8
    return out


def _overflow_polys(field: ExtField, g, terms: int) -> list[list[int]]:
    """x^(r+u) mod g for u < ``terms``, r = deg g, low coefficient first:
    the terms a step pushes past x^r, each folded back below it."""
    exp, log = field._exp, field._log
    low = list(g[:-1])
    polys = [low]
    for _ in range(terms - 1):
        prev = polys[-1]
        top = prev[-1]
        polys.append([c ^ (exp[log[top] + log[gk]] if top and gk else 0)
                      for c, gk in zip([0] + prev[:-1], low)])
    return polys


class _BinaryKernel:
    """Packed syndrome tables of a binary BCH code, or of an RS code over
    F_{2^m}, 8 < m <= 16: syndrome roots alpha^1 .. alpha^count in
    F_{2^m}, monic generator g of degree R.  An RS code over F_{2^m},
    m <= 8, takes the byte-wide ``_ByteKernel`` instead.

    A remainder modulo g packs into one int, coefficient k in bits
    k*width .. (k+1)*width - 1 (width m for RS symbols, 1 for BCH bits).
    ``remainder`` is a table-driven LFSR in the style of Sarwate's
    table-lookup CRC (CACM 31(8), 1988): each step shifts in ``step``
    bits (one m-bit symbol or eight BCH digits), masks the remainder's
    bits and folds the bits pushed past x^R back in through ``top``,
    byte-indexed tables of overflow * x^R mod g (``_overflow_polys``).
    ``power_sums`` evaluates a packed remainder at the roots: it is
    F_2-linear, so it XORs one packed column per set remainder bit, the
    column of bit (k, b) holding x^b alpha^(jk) for j = 1..count
    (``_kernel_columns``).  Sum j takes one byte for m <= 8 and two for
    m > 8, their bytes swapped in the column, so the XOR's little-endian
    bytes are the sums in the template's form (the ``rs`` module's form
    rule): one byte a sum, or two big-endian bytes.

    The tables depend only on the field, g and count, never on the code
    length: at most 512 ints of R*width bits plus R*width ints of count*m
    bits.  Building them spends no counted multiplication.
    """

    def __init__(self, field: ExtField, g, width: int, step: int, count: int):
        exp, log = field._exp, field._log
        m, r = field.m, len(g) - 1
        self.step = step
        self.size = r * width
        self.mask = (1 << self.size) - 1

        def pack(coeffs):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc << width) | c
            return acc

        # the image of each bit (u, b) of a step's overflow, x^b x^(r+u) mod g
        # packed; bits b >= m of a coefficient are always zero
        bits = [(1 << b) * (b < m) for b in range(width)]
        self.top = _byte_tables([pack([exp[log[bit] + log[c]] if bit and c else 0 for c in poly])
                                 for poly in _overflow_polys(field, g, step // width)
                                 for bit in bits])
        # a step overflows by at most 16 bits: a low and a high byte table,
        # the high one all zero when the overflow fits one byte
        self.lo, self.hi = self.top if len(self.top) == 2 else (*self.top, (0,))
        # sum j sits at bits (j-1)*w of the XOR, w = 8 for m <= 8 and 16 above
        self.columns = _kernel_columns(field, r, bits, count, 8 if m <= 8 else 16)
        self.sums_size = count if m <= 8 else 2 * count

    def remainder(self, chunks) -> int:
        """The packed remainder mod g of the word whose ``step``-bit
        chunks, highest first, are ``chunks``."""
        step, shift, mask = self.step, self.size, self.mask
        lo, hi = self.lo, self.hi
        rem = 0
        for c in chunks:
            v = (rem << step) | c
            t = v >> shift
            rem = (v & mask) ^ lo[t & 255] ^ hi[t >> 8]
        return rem

    def power_sums(self, rem: int) -> bytes:
        """rem(alpha^j) for j = 1..count, one byte a sum for m <= 8, two
        big-endian bytes for m > 8."""
        bits = bin(rem)[:1:-1].encode().translate(_TO_DIGITS)
        return reduce(xor, compress(self.columns, bits), 0).to_bytes(self.sums_size, "little")


# A translate table from the characters of ``hex`` to the nibbles they write.
_FROM_HEX = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


class _ByteKernel:
    """Packed syndrome tables of an RS code over F_{2^m}, m <= 8, slicing
    by 4: syndrome roots alpha^1 .. alpha^count, monic generator g of
    degree R.

    A remainder modulo g packs into one int, coefficient k in byte k (bits
    b >= m of a byte always zero).  ``remainder`` is Sarwate's
    table-lookup CRC (CACM 31(8), 1988) widened to 32 bits a step, as
    slicing-by-4 widens it (Kounavis and Berry, ISCC 2005): each step
    shifts in four symbols, one 32-bit chunk of the word (chunks highest
    first, symbol 4i + u in byte u of chunk i), and folds the four bytes
    pushed past x^R back in through ``steps``, one byte table per
    overflow byte u, entry v the image of v x^(R+u) mod g
    (``_overflow_polys``).  Each entry also holds v itself at bits
    8(R+u) .., the overflow byte it is looked up by, so the XOR of the
    four lookups clears every bit past x^R as it folds them in, and the
    loop needs no mask.

    Bits b >= m of a coefficient are always zero, so a step table has
    2^m entries, indexed by the m bits its overflow byte can set.

    ``power_sums`` evaluates a packed remainder at the roots.  It is
    F_2-linear, so per 4 remainder bits it XORs the entry of their value
    in that nibble's table of ``nibbles``.  Nibble i holds bits 4i ..
    4i+3, and its single-bit entries 1, 2, 4 and 8 are the power-sum
    columns of bits (k, b), k = i // 2: x^b alpha^(jk) in byte j - 1, the
    power sums of x^k translated through the field's row of x^b, and
    entry v is the XOR of the columns of v's set bits.  The XOR's
    little-endian bytes are the sums in the template's form, one byte a
    sum.

    The tables depend only on the field, g and count, never on the code
    length: 4 * 2^m <= 1024 ints of 8R + 32 bits and 32R ints of
    8*count bits.  Building them spends no counted multiplication.
    """

    def __init__(self, field: ExtField, g, count: int):
        m, r = field.m, len(g) - 1
        self.size = 8 * r
        # a polynomial times x^b is one translate through the row of x^b
        # (row 0, all zero, for b >= m)
        rows = field._rows or field._load_rows()
        units = [rows[(1 << b) * (b < m)] for b in range(8)]
        images = product(enumerate(map(bytes, _overflow_polys(field, g, 4))), enumerate(units[:m]))
        self.steps = _byte_tables([int.from_bytes(poly.translate(row), "little") ^ 1 << self.size + 8 * u + b
                                   for (u, poly), (b, row) in images], m)
        columns = iter([int.from_bytes(sums.translate(row), "little")
                        for sums in _power_columns(field, r, count) for row in units])
        nibbles = []
        for a, b, c, d in zip(columns, columns, columns, columns):
            # entry v: the XOR of the columns of v's set bits
            ab, cd = a ^ b, c ^ d
            nibbles.append((0, a, b, ab, c, a ^ c, b ^ c, ab ^ c,
                            d, a ^ d, b ^ d, ab ^ d, cd, a ^ cd, b ^ cd, ab ^ cd))
        self.nibbles = tuple(nibbles)
        self.sums_size = count

    def remainder(self, chunks) -> int:
        """The packed remainder mod g of the word whose 32-bit chunks,
        four symbols each, highest first, are ``chunks``."""
        t0, t1, t2, t3 = self.steps
        shift = self.size
        rem = 0
        for c in chunks:
            v = rem << 32 | c
            t = v >> shift
            rem = v ^ t0[t & 255] ^ t1[t >> 8 & 255] ^ t2[t >> 16 & 255] ^ t3[t >> 24]
        return rem

    def power_sums(self, rem: int) -> bytes:
        """rem(alpha^j) for j = 1..count, one byte a sum: one nibble
        table's entry per hex digit of rem, low digit first."""
        nibbles = hex(rem)[:1:-1].encode().translate(_FROM_HEX)
        return reduce(xor, map(getitem, self.nibbles, nibbles), 0).to_bytes(self.sums_size, "little")


def _kernel_columns(field: ExtField, r: int, bits, count: int, w: int) -> list[int]:
    """The power-sum column of remainder bit (k, b) for k < r and each
    ``bits`` entry x^b (0 for a bit past the field), entry by entry off
    the exp table: x^b alpha^(jk) at bits (j-1)*w for j = 1..count, its
    two bytes swapped where w = 16."""
    exp, log = field._exp, field._log
    q1 = field.order - 1
    columns = []
    for k in range(r):
        for bit in bits:
            col = 0
            if bit:
                for j in range(count, 0, -1):
                    v = exp[(log[bit] + j * k) % q1]
                    col = (col << w) | (v if w == 8 else (v & 255) << 8 | v >> 8)
            columns.append(col)
    return columns


# ---------------------------------------------------------------------------
# The cyclic-code core
# ---------------------------------------------------------------------------


def _root_exponents(n: int, s: int, count: int):
    """Exponents l of the generator's roots alpha^l: the cyclotomic cosets
    {j, j*s, j*s^2, ...} mod n of j = 1..count, each walked once."""
    if s % n == 1:  # j*s = j: every coset is one exponent, as for RS
        return range(1, count + 1)
    roots: set[int] = set()
    for j in range(1, count + 1):
        while j not in roots:
            roots.add(j)
            j = j * s % n
    return roots


def _generator(field: ExtField, s: int, count: int) -> tuple[int, ...]:
    """The product of the minimal polynomials over F_s of alpha^1 ..
    alpha^count: prod (x - alpha^l) over their cosets' exponents l, so its
    coefficients lie in F_s.  With s = q this is prod (x - alpha^j)."""
    g = [1]
    for l in _root_exponents(field.order - 1, s, count):
        g = _poly_mul(field, g, [field.neg(field.alpha_pow(l)), 1])
    return tuple(g)


# ---------------------------------------------------------------------------
# The three path rules: each class's constructor reads its one rule, and
# its paths read the flag it sets.  Packed decoding tables follow.
# ---------------------------------------------------------------------------

# A Chien table holds r*m columns of n bytes; past this many bits the
# search stays scalar.  rs(255,223;gf(2^8)) needs just under 2^19.
_CHIEN_CAP_BITS = 1 << 21
# A binary block code of at most this many cells has per-cell syndrome
# columns.  One big-int XOR per set cell beats the bit lanes' fixed cost
# on short codes and loses on long ones (Python 3.11, 2 CPUs): 7.6 against
# 26.9 us for cIII(rs(15,5;gf(2^4));3,5), 240 cells, 1.2x faster still at
# 441 cells, but 0.81x at 889 and 0.70x for cI(rs(255,223;gf(2^8))).
_COLUMN_CAP_CELLS = 256
# A BCH code of redundancy r over F_p takes its coset table where its p^r
# remainders number at most this many, for both p (``BchCode._by_cosets``).
# A binary table holds one entry per pattern of weight <= t, at most 2^r:
# bch(15,2;gf(2)) 121 of 256, bch(63,2;gf(2)) 2017 of 4096, and
# bch(63,3;gf(2)) (r = 18) is above it.  A table over odd p holds one
# entry per remainder.
_COSET_CAP = 4096


def _columns_fit(field: ExtField, cells: int) -> bool:
    """Whether a block code of ``cells`` cells with outer symbols in
    ``field`` takes per-cell syndrome columns (``_BlockCode._by_columns``):
    outer symbols of one byte (p^m <= 256), at most ``_COLUMN_CAP_CELLS``
    cells, and over odd p no byte of a sum of one column per cell that
    could carry (cells * (p - 1) <= 255).  Such a code takes its syndrome
    from the columns, summed in digit bytes over odd p, and re-checks
    each decode by them; any other takes bit lanes over F_2, else the
    per-block split, and the re-check that re-reads the touched blocks."""
    p = field.p
    return field.order <= 256 and cells <= _COLUMN_CAP_CELLS and (p == 2 or cells * (p - 1) <= 255)


def _chien_fits(field: ExtField, n: int, r: int) -> bool:
    """Whether a cyclic code of length n with r syndrome roots decodes on
    byte regions with the packed Chien search (``_CyclicCode._by_region``):
    characteristic 2, one byte per position (m <= 8) and a Chien table of
    r*m columns of n bytes within the cap.  Any other takes the scalar
    ``_gpz_decode`` and its scalar search."""
    return field.p == 2 and field.m <= 8 and r * field.m * n * 8 <= _CHIEN_CAP_BITS


def _lanes(field: ExtField, n: int, r: int, sign: int) -> list[bytes]:
    """Lane j for j = 1..r, over F_{2^m}, m <= 8: byte i holds
    alpha^(sign*i*j) for i < n.  Each lane is one strided slice of the exp
    table repeated, so no lane reads the table in Python."""
    q1 = field.order - 1
    reps = (n - 1) * r // q1 + 1
    powers = bytes(field._exp[:q1]) * (reps + 1)
    start = reps * q1 if sign < 0 else 0
    return [powers[start :: sign * j][:n] for j in range(1, r + 1)]


def _chien_table(field: ExtField, n: int, r: int) -> tuple[int, ...]:
    """Column (j, b), at index (j-1)*m + b for j = 1..r and b < m, holds
    x^b alpha^(-ij) in byte i for i = 0..n-1: lane j of the negative
    powers translated through the field's row of x^b."""
    rows = field._rows or field._load_rows()
    units = [rows[1 << b] for b in range(field.m)]
    return tuple(int.from_bytes(lane.translate(row), "little")
                 for lane in _lanes(field, n, r, -1) for row in units)


def _power_columns(field: ExtField, n: int, r: int) -> tuple[bytes, ...]:
    """Per position i < n, the r bytes alpha^(ij), j = 1..r: the power
    sums of a unit error at i, read across the lanes of the positive
    powers."""
    grid = bytearray(n * r)
    for j, lane in enumerate(_lanes(field, n, r, 1)):
        grid[j::r] = lane
    grid = bytes(grid)
    return tuple(grid[at : at + r] for at in range(0, n * r, r))


# Per m < 8, the bits of a byte-wide coefficient that the Chien table has
# columns for: its low m, for up to 65 coefficients.
_STRIDES = {m: (b"\1" * m + bytes(8 - m)) * 65 for m in range(1, 8)}


def _chien_values(table, coeffs: int, m: int, n: int) -> bytes:
    """Byte i: the polynomial sum c_j x^j over j >= 1, c_j byte j - 1 of
    ``coeffs``, at alpha^-i, from the packed ``_chien_table``: evaluation
    is F_2-linear in the coefficient bits, so it is the XOR of the columns
    of the set bits."""
    if not coeffs:
        return bytes(n)
    bits = bin(coeffs)[:1:-1].encode().translate(_TO_DIGITS)
    if m < 8:
        bits = compress(bits, _STRIDES[m])
    return reduce(xor, compress(table, bits), 0).to_bytes(n, "little")


def _chien_search(field: ExtField, psi: bytes, n: int, table) -> list:
    """The roots of ``_chien_roots(field, psi, n)`` over F_{2^m}, m <= 8,
    from the packed ``_chien_table``: byte i of ``_chien_values`` of
    psi's coefficients past psi_0 = 1 is psi(alpha^-i) - 1, so the roots
    are the bytes equal to 1, at most deg psi of them; a locator of
    degree 1 has ``_chien_roots``' one root, read off psi_1's log.  psi
    is the bytes of its coefficients, low first, the last nonzero."""
    if len(psi) == 2:
        return _chien_roots(field, psi, n)[0]
    values = _chien_values(table, int.from_bytes(psi[1:], "little"), field.m, n)
    deg = len(psi) - 1
    roots = []
    i = values.find(1)
    while i >= 0 and len(roots) < deg:
        roots.append(i)
        i = values.find(1, i + 1)
    return roots


# The mask of the odd bytes of a polynomial of up to 72 coefficients.
_ODD_BYTES = int.from_bytes(b"\0\xff" * 36, "little")


def _coset_table(kernel: _BinaryKernel, n: int, t: int) -> dict[int, int]:
    """Packed remainder -> packed error over every binary pattern of
    weight <= t of the BCH code of length n and design capability t whose
    kernel is ``kernel``.  Distance >= 2t + 1 makes each remainder's
    pattern unique, so a remainder missing here has none."""
    width = (n + 7) // 8
    table = {}
    for w in range(t + 1):
        for support in combinations(range(n), w):
            err = sum(1 << i for i in support)
            table[kernel.remainder(err.to_bytes(width, "big"))] = err
    return table


class _CyclicCode(_SpecIdentity):
    """A narrow-sense cyclic code of length n over F_s, s = q for
    Reed-Solomon and s = p for BCH, with syndrome roots alpha^1 ..
    alpha^count in ``field`` = F_q: what both families share.

    The redundancy is the number of root exponents, so ``__init__`` builds
    no polynomial, and ``_by_region`` is ``_chien_fits``; the generator,
    the packed kernel, the Chien table and the per-position columns of
    ``_sums`` are built into their slots on first use.  ``_encode`` and ``_errors`` are
    the one encoder and decoder, the decoder's result a sparse map from
    position to error value; ``_decode_syndrome`` is its dense form, and
    the one check of a syndrome given from outside.
    ``_errors`` runs ``_region_errors`` where ``_by_region`` and
    ``_gpz_decode`` elsewhere, on the sums' template bytes, which the
    public ``_decode_syndrome`` packs from its tuple.
    Each family binds ``_encode`` and ``_decode_syndrome`` in its own
    class (perfbench/spans.py traces them there); ``RsCode._decode`` and
    the block codes' outer decode call ``_errors``.  The
    encoder's parity is the family's ``_remainder``, a word's unchecked
    remainder modulo the generator: ``_poly_remainder`` here, and over
    F_2 ``BchCode``'s packed kernel, the one place binary BCH parity is
    computed.  A syndrome has ``count`` power sums, decoded to at most
    t = count // 2 errors, with magnitudes held to F_s when it is a proper
    subfield.
    """

    def __init__(self, field: ExtField, s: int, n: int, count: int, symbols: str):
        self.field = field
        self.s = s
        self.n = n
        self.count = count
        self.t = count // 2
        self.redundancy = len(_root_exponents(field.order - 1, s, count))
        self.k = n - self.redundancy
        self._symbols = symbols  # the alphabet's name in symbol errors
        self._base_limit = s if s < field.order else None  # magnitudes held to F_s
        self._gen = None  # the generator, set on first use
        self._tables = None  # the packed kernel, set on first use
        self._quads = None  # its 32-bit chunk reader over F_{2^m}, m <= 8, set with it
        # the byte-region decoder and the packed Chien search, else the scalar ones
        self._by_region = _chien_fits(field, n, count)
        self._chien = None  # the Chien table, set on first use
        self._cols = None  # the per-position power columns of ``_sums``, set on first use
        self._twin = None  # the reference twin, set on first request

    @property
    def generator(self) -> tuple[int, ...]:
        """The monic generator polynomial, low coefficient first."""
        if self._gen is None:
            self._gen = _generator(self.field, self.s, self.count)
        return self._gen

    def _load_kernel(self):
        """The packed syndrome tables.  Each LFSR step shifts in eight
        one-bit digits over F_2 and one m-bit symbol over F_{2^m}, m > 8
        (``_BinaryKernel``); over F_{2^m}, m <= 8, four symbols packed one
        byte wide (``_ByteKernel``), which ``_quads`` reads as 32-bit
        chunks off the word, zero bytes past its end."""
        field = self.field
        if self.s < field.order:
            self._tables = _BinaryKernel(field, self.generator, 1, 8, self.count)
        elif field.m <= 8:
            self._quads = struct.Struct(f"<{(self.n + 3) // 4}I")
            self._tables = _ByteKernel(field, self.generator, self.count)
        else:
            self._tables = _BinaryKernel(field, self.generator, field.m, field.m, self.count)
        return self._tables

    def _encode(self, message) -> list[int]:
        """Systematic cyclic encoding: message high, parity low."""
        _check_symbols(message, self.k, self.s, self._symbols)
        return self._codeword(list(message))

    def _codeword(self, message: list) -> list[int]:
        """``_encode`` of a message list known to lie in F_s, unchecked."""
        parity, field = self._remainder([0] * self.redundancy + message), self.field
        if field.p == 2:  # negation is the identity
            return [*parity, *message]
        if self.s == field.p:  # digits of F_p negate mod p
            return [-v % field.p for v in parity] + message
        return [field.neg(v) for v in parity] + message

    def _remainder(self, word) -> list[int]:
        """word(x) mod the generator, for a word known to lie in F_s."""
        return _poly_remainder(self.field, word, self.generator)

    def _decode_syndrome(self, synd, erasures=(), count: bool = False) -> list[int]:
        """Error vector consistent with the syndrome, or DecodeFailure.
        The syndrome must be ``count`` ints of the field, else
        ShapeMismatchError (``_check_symbols``); the erasures are checked
        by ``_errors``.

        Each erasure position costs one syndrome, each error off them two.
        With ``count`` the reference twin decodes (``_decoder``).
        """
        field = self.field
        _check_symbols(synd, self.count, field.order, field.spec_string())
        error = [0] * self.n
        for pos, v in _decoder(self, count)._errors(_pack_run(synd, field.order), erasures).items():
            error[pos] = v
        return error

    def _load_twin(self):
        """The reference twin: off the region path."""
        self._twin = _twin(self, _by_region=False)
        return self._twin

    def _errors(self, synd, erasures=()) -> dict:
        """The nonzero values of ``_decode_syndrome``'s error vector by
        position, for the template bytes of ``count`` values known to lie
        in the field: on byte regions where ``_by_region``, else
        ``_gpz_decode``.

        The one check of the erasure positions: each must be an int in
        0 .. n-1 (IndexOutOfRangeError), and once repeats are dropped there
        may be at most one per syndrome value (TooManyErasuresError)."""
        known = ()
        if erasures:
            if not all(map(isinstance, erasures, repeat(int))):
                raise IndexOutOfRangeError("an erasure position is not an int")
            known = sorted(set(erasures))
            if known[0] < 0 or known[-1] >= self.n:
                raise IndexOutOfRangeError(f"erasure position outside 0..{self.n - 1}")
            if len(known) > self.count:
                raise TooManyErasuresError(
                    f"{len(known)} erasures exceed redundancy {self.count}")
        if self._by_region:
            return self._region_errors(synd, known)
        return _gpz_decode(self.field, synd, self.n, known, self._base_limit)

    def _load_chien(self):
        """The Chien table of the region decoder."""
        self._chien = _chien_table(self.field, self.n, self.count)
        return self._chien

    def _load_cols(self):
        """The per-position power columns of ``_sums``."""
        self._cols = _power_columns(self.field, self.n, self.count)
        return self._cols

    def _sums(self, symbols) -> int:
        """The power sums of the n-symbol word whose nonzero symbols are
        the ``(position, value)`` pairs, sum j - 1 in byte j - 1 of the int:
        each symbol's column translated through the row of its value, the
        results XORed.  Table lookups only, so nothing is counted; the code
        must decode on byte regions."""
        rows, cols = self.field._rows or self.field._load_rows(), self._cols or self._load_cols()
        acc = 0
        for i, v in symbols:
            acc ^= int.from_bytes(cols[i].translate(rows[v]), "little")
        return acc

    def _region_errors(self, synd, known=()) -> dict:
        """``_gpz_decode`` on byte regions, for a code on the region path
        (``_by_region``): the same pattern or DecodeFailure from the same
        checked erasure positions ``known``, the syndrome read as bytes.
        It counts no multiplication.

        Without erasures a syndrome with s_(j+1) = s_j X for every j, X =
        alpha^i, i < n, has one error, of magnitude s_1 / X: one translate
        of its first r - 1 sums through the row of X is its last r - 1.
        That test re-checks every sum, and a magnitude outside the base
        field, or i >= n, goes on to the full decode, which gives its
        DecodeFailure.

        A polynomial is a byte string, coefficient k in byte k, and one
        translate through the field's row of c multiplies it by c.
        Berlekamp-Massey carries T = S*Psi beside the locator Psi, and the
        same product beside the earlier locator (the reformulated form of
        Sarwate and Shanbhag, IEEE Trans. VLSI 9(5), 2001): one string
        holds T, exact, in bytes 0 .. 2r-1 and Psi from byte 2r on (deg
        Psi <= L <= r), so step k's discrepancy is byte k, and an update is
        one translate of the earlier string, one shift and one XOR.  Omega
        is T's low L bytes.  The Chien table evaluates the locator, Omega
        and Psi's even part at every position; at a root X^-1, Psi's odd
        part x*Psi' is one plus its even part, so each magnitude
        Omega(X^-1) / Psi'(X^-1) is one division.  The re-check is
        ``_sums`` of the pattern against the whole syndrome.
        """
        field, n, table = self.field, self.n, self._chien or self._load_chien()
        r, f = len(synd), len(known)
        S = int.from_bytes(synd, "little")
        if not S and not known:
            return {}
        exp, log, rows = field._exp, field._log, field._rows or field._load_rows()
        q1 = field.order - 1
        if not known and r > 1 and synd[0] and synd[1]:
            i = (log[synd[1]] - log[synd[0]]) % q1  # X = s_2 / s_1
            if i < n and synd[:-1].translate(rows[exp[i]]) == synd[1:]:
                value = exp[(log[synd[0]] - i) % q1]
                if self._base_limit is None or value < self._base_limit:
                    return {i: value}

        # the erasure locator Gamma = prod (1 + alpha^pos x), T = S*Gamma
        top, size = 2 * r, 3 * r + 1
        V = S | 1 << 8 * top
        for pos in known:
            V ^= int.from_bytes(V.to_bytes(size, "little").translate(rows[exp[pos % q1]]),
                                "little") << 8

        # Berlekamp-Massey from Psi = prev = Gamma, as in _gpz_decode
        prev = Vb = V.to_bytes(size, "little")
        lb, shift, L = 0, 1, f
        for k in range(f, r):
            d = Vb[k]
            if not d:
                shift += 1
                continue
            row = rows[exp[(log[d] - lb) % q1]]  # d / b
            V ^= int.from_bytes(prev.translate(row), "little") << 8 * shift
            if 2 * L <= k + f:
                L = k + 1 + f - L
                prev, lb, shift = Vb, log[d], 1
            else:
                shift += 1
            Vb = V.to_bytes(size, "little")
        psi = Vb[top:].rstrip(b"\0")
        if len(psi) - 1 != L or 2 * L - f > r:
            raise DecodeFailure(f"no locator of {L - f} errors fits the syndrome")

        roots = _chien_search(field, psi, n, table)
        if len(roots) != L:
            raise DecodeFailure(f"locator of degree {L} has {len(roots)} roots in range")

        # Forney: Omega = T mod x^L, and Psi'(X^-1) = X * odd(X^-1),
        # where odd = 1 + even at a root (Psi = 1 + odd + even' there)
        m, w0 = field.m, Vb[0]
        nums = _chien_values(table, int.from_bytes(Vb[1:L], "little"), m, n)
        evens = _chien_values(table, int.from_bytes(psi[1:], "little") & _ODD_BYTES, m, n)
        mags = [exp[(log[num] - log[evens[pos] ^ 1] - pos) % q1] if (num := nums[pos] ^ w0) else 0
                for pos in roots]
        if self._base_limit is not None and any(v >= self._base_limit for v in mags):
            raise DecodeFailure("magnitude outside the base field")

        error = {pos: val for pos, val in zip(roots, mags) if val}
        if S != self._sums(error.items()):
            raise DecodeFailure("candidate pattern does not match the syndrome")
        return error


class RsCode(_CyclicCode, LinearCode):
    """A Reed-Solomon code over F_{p^m} in cyclic form.

    Full length is p^m - 1; passing a smaller n gives the shortened code
    (the dropped high-order information positions are pinned to zero).
    Minimum distance is n - k + 1 either way.  The field has at most 2^16
    elements, as many as a template's two-byte symbol holds.
    """

    guidance = "plain extension-field code: random symbol errors only"
    _shape_error, _type_error = LengthMismatchError, AlphabetMismatchError

    def __init__(self, field: ExtField, n: int, k: int):
        full = field.order - 1
        if field.order > _MAX_DEFAULT_ORDER:
            raise ValueError(f"need a field of at most {_MAX_DEFAULT_ORDER} elements, "
                             f"got {field.spec_string()}")
        if not 0 < k < n <= full:
            raise ValueError(f"need 0 < k < n <= {full}, got n={n} k={k}")
        super().__init__(field, field.order, n, n - k, f"alphabet of {field.order}")
        self.is_shortened = n < full
        self.shape = (n,)
        self.alphabet = field
        self.base_length = n
        self.base_dimension = k
        self.segments = ((self.redundancy, field),)

    encode = _CyclicCode._encode
    decode_syndrome = _CyclicCode._decode_syndrome

    @property
    def distance(self) -> int:
        return self.n - self.k + 1

    syndrome = LinearCode.syndrome

    def _body_syndrome(self, body) -> bytes:
        """The template bytes of the power sums of a body."""
        return self._power_sums(self._cells(body))

    def _power_sums(self, word) -> bytes:
        """The template bytes of the power sums of n symbols known to lie
        in the field, unchecked: the outer symbols a block code has just
        read (bytes over F_{2^m}, m <= 8) or estimated.  Over
        characteristic 2 the packed kernel's, else ``_sparse_syndrome``'s
        packed."""
        field = self.field
        if field.p != 2:
            return _pack_run(_sparse_syndrome(field, word, self.count), field.order)
        kernel = self._tables or self._load_kernel()
        if field.m > 8:
            chunks = reversed(word)
        else:  # four symbols a chunk, symbol 4i + u in byte u of chunk i
            chunks = reversed(self._quads.unpack(bytes(word).ljust(self._quads.size, b"\0")))
        return kernel.power_sums(kernel.remainder(chunks))

    def _decode(self, synd):
        errors = self._errors(synd)
        return errors, DecodeInfo((), tuple(errors))

    def _minus_sums(self, synd, symbols) -> bytes:
        """The template bytes ``synd`` minus the power sums of the
        n-symbol word whose nonzero symbols are the ``(position, value)``
        pairs.  Where the code decodes on byte regions the bytes XOR
        ``_sums``; else ``_run_minus`` takes the dense word's
        ``_power_sums``, which count their products."""
        if not self._by_region:
            word = [0] * self.n
            for i, v in symbols:
                word[i] = v
            return _run_minus(self.field, synd, self._power_sums(word))
        sums = self._sums(symbols)
        return (int.from_bytes(synd, "little") ^ sums).to_bytes(len(synd), "little")

    def _kind_lines(self) -> list[str]:
        lines = [
            f"kind: reed-solomon over {self.field.spec_string()}",
            f"length {self.n}, dimension {self.k}, distance {self.distance}",
        ]
        if self.is_shortened:
            lines.append(f"shortened from {self.field.order - 1}")
        return lines

    def _bound_lines(self) -> list[str]:
        return [f"random symbol errors: <= {self.t}"]

    def spec_string(self) -> str:
        return f"rs({self.n},{self.k};{self.field.spec_string()})"


class BchCode(_CyclicCode):
    """Narrow-sense primitive BCH code of length p^m - 1 over F_p.

    Its 2*design_t syndrome roots alpha^1 .. alpha^(2*design_t) lie in
    F_{p^m}; their cyclotomic cosets fix the redundancy.  Decoding reuses
    the shared syndrome decoder with base-field magnitudes.  One rule for
    both p gives the coset table, ``_by_cosets``: p^r <= ``_COSET_CAP``.
    Only a concatenation's inner decode, ``_message_error``, reads it;
    ``decode_packed`` and a code above the cap decode algebraically.  The
    reference twin (``_load_twin``) leaves the region path, and over odd
    p the coset table too.
    """

    def __init__(self, p: int, m: int, design_t: int):
        ext = ExtField(p, m)
        n = ext.order - 1
        if design_t < 1 or 2 * design_t >= n:
            raise CapacityTooLargeError(f"need 1 <= 2t < {n}, got t={design_t}")
        super().__init__(ext, p, n, 2 * design_t, f"gf({p})")
        self.p = p
        self.design_t = design_t
        self._width = (n + 7) // 8  # bytes of a packed word
        # the coset table, else the algebraic decode
        self._by_cosets = p**self.redundancy <= _COSET_CAP
        self._cosets = None  # the coset table, set on first use

    encode = _CyclicCode._encode
    decode_syndrome = _CyclicCode._decode_syndrome

    def remainder(self, word) -> tuple[int, ...]:
        """word(x) mod g(x): the compact n-k symbol form of the syndrome."""
        _check_symbols(word, self.n, self.p, self._symbols)
        return tuple(self._remainder(word))

    def _remainder(self, word):
        """``remainder`` unchecked; over F_2 from the packed kernel, which
        counts no multiplication."""
        if self.p != 2:  # called directly: this is the odd-p residual's hot path
            return _poly_remainder(self.field, word, self.generator)
        kernel = self._tables or self._load_kernel()
        rem = kernel.remainder(_pack_bits(word).to_bytes(self._width, "big"))
        return _unpack_bits([rem], self.redundancy)

    def syndrome(self, word) -> tuple:
        """The power sums of the remainder, which are the word's: g
        vanishes at every root."""
        return self.power_sums(self.remainder(word))

    def power_sums(self, remainder) -> tuple:
        """Evaluate a mod-g remainder at the syndrome roots."""
        _check_symbols(remainder, self.redundancy, self.p, self._symbols)
        if self.p != 2:
            return tuple(_sparse_syndrome(self.field, list(remainder), self.count))
        kernel = self._tables or self._load_kernel()
        width = "B" if self.field.m <= 8 else "H"
        return struct.unpack(f">{self.count}{width}", kernel.power_sums(_pack_bits(remainder)))

    def decode_packed(self, remainder: int) -> int:
        """The pattern of weight <= design_t with this remainder, both
        packed into ints (digit i at bit i), or DecodeFailure; over F_2
        only.  The algebraic decode alone: ``_errors`` of the kernel's
        power sums of the packed remainder.  The coset table has one
        reader, ``_message_error``."""
        sums = (self._tables or self._load_kernel()).power_sums(remainder)
        return sum([1 << i for i in self._errors(sums)])

    def _load_twin(self):
        """The reference twin: off the region path, and over odd p off the
        coset table; a binary coset table stays as it is."""
        self._twin = _twin(self, _by_region=False, _by_cosets=self._by_cosets and self.p == 2)
        return self._twin

    def _load_cosets(self):
        """The coset table, remainder to message digits: over F_2 the
        remainder of every pattern of ``_coset_table`` to the pattern
        shifted down by r; over odd p every remainder, a tuple of its
        digits, to its ``_scalar_message_error``.  The inner codes a
        concatenation admits have at most 2401 remainders, built in under
        0.1 s."""
        r = self.redundancy
        if self.p == 2:
            patterns = _coset_table(self._tables or self._load_kernel(), self.n, self.design_t)
            self._cosets = {rem: err >> r for rem, err in patterns.items()}
        else:
            self._cosets = _uncounted(lambda: {
                key: self._scalar_message_error(key) for key in product(range(self.p), repeat=r)})
        return self._cosets

    def _message_error(self, remainder):
        """The message digits (positions r .. n-1) of the pattern of
        weight <= design_t with this remainder as one int, or None where
        no such pattern exists, with no exception raised or caught on the
        table paths.  It is the coset table's one reader, and one rule
        gives both p the table: ``_by_cosets``, p^r <= ``_COSET_CAP``.
        Over F_2 the remainder and the message are packed ints (digit i
        at bit i); over odd p the remainder is the tuple of its r digits.
        With cosets one lookup in the table, which over F_2 misses a
        remainder no such pattern has; without, the scalar decode
        (``_scalar_message_error``)."""
        if not self._by_cosets:
            return self._scalar_message_error(remainder)
        return (self._cosets or self._load_cosets()).get(remainder)

    def _scalar_message_error(self, remainder):
        """``_message_error`` without cosets: ``_errors`` of the template
        bytes of the remainder's power sums, which go to the decoder
        unchecked: they are in range.  Over F_2 the kernel's, over odd p
        ``_sparse_syndrome``'s packed."""
        if self.p == 2:
            sums = (self._tables or self._load_kernel()).power_sums(remainder)
        else:
            sums = _pack_run(_sparse_syndrome(self.field, remainder, self.count), self.field.order)
        try:
            errors = self._errors(sums)
        except DecodeFailure:
            return None
        return _from_digits([errors.get(i, 0) for i in range(self.redundancy, self.n)], self.p)

    def spec_string(self) -> str:
        return f"bch({self.n},{self.design_t};gf({self.p}))"
