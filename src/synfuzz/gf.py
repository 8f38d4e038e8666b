"""Arithmetic in the finite fields F_{p^m}.

One class, ExtField, serves every field; the prime field F_p is
ExtField(p, 1), whose elements are the ints 0..p-1.

Field elements are plain ints.  An element of F_{p^m} is encoded as the
integer whose base-p digits are the coefficients of its polynomial
representation, digit i holding the coefficient of x^i.  Over F_2 this is
the familiar bit packing: in F_8 built on x^3 + x + 1 the element 3 is
0b011 = 1 + x.

Besides the integer encoding, two base-field views of an extension element
are provided: the coefficient vector of length m, and the m x m
companion-matrix image, which realises F_{p^m} as the matrix algebra
F_p[P].  The image of a is the matrix of multiplication by a, so its
column c is the coefficient vector of a x^c, read from the exp table.

Every table comes from one walk over the powers of x modulo the modulus,
so x must be primitive: a modulus that leaves x short of order p^m - 1
raises NonPrimitiveAlphaError.  That walk is the only test of a modulus.
A modulus that makes x primitive is irreducible (Lidl and Niederreiter,
Finite Fields, Thm. 3.16), so a reducible one fails the walk too.  The
walk gives exp directly and log by inversion.  For odd p it also gives
the Zech logarithms (1 + x^i = x^zech(i)), so addition, subtraction and
negation (-a = a x^((p^m-1)/2)) run on the same tables.  Over
characteristic 2 a field's ``add`` and ``sub`` are ``operator.xor``
itself, bound once when the field is built, so callers use them directly
and none tests p to add.  Every field multiplication bumps a thread-local
counter so decoder costs can be measured.

A field F_{2^m}, m <= 8, also has multiply rows for the decoders' region
arithmetic, built on first use (``_load_rows``): row c is a 256-byte
``bytes.translate`` table holding c*a at byte a, so one translate
multiplies a whole byte string by c (the "region multiply" of Plank,
Greenan and Miller, FAST 2013).
"""

import _thread
from functools import lru_cache
from operator import xor

from .errors import NoDefaultModulusError, NonPrimitiveAlphaError, NotPrimeError

# Primitive polynomials for F_{2^m}, coefficient tuples (c0, ..., cm) with
# digit i holding the coefficient of x^i.  m=8 is x^8+x^4+x^3+x^2+1.
_BINARY_DEFAULT_MODULI = {
    1: (1, 1),
    2: (1, 1, 1),
    3: (1, 1, 0, 1),
    4: (1, 1, 0, 0, 1),
    5: (1, 0, 1, 0, 0, 1),
    6: (1, 1, 0, 0, 0, 0, 1),
    7: (1, 0, 0, 1, 0, 0, 0, 1),
    8: (1, 0, 1, 1, 1, 0, 0, 0, 1),
    9: (1, 0, 0, 0, 1, 0, 0, 0, 0, 1),
    10: (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    11: (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    12: (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1),
    13: (1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    14: (1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1),
    15: (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    16: (1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1),
}

# Fields larger than this get no searched default.
_MAX_DEFAULT_ORDER = 1 << 16


class MulCounter(_thread._local):
    """Thread-local running total of extension-field multiplications
    (``_thread._local`` is ``threading.local``, without importing
    ``threading``)."""

    n = 0

    @property
    def count(self) -> int:
        return self.n

    def add(self, k: int = 1) -> None:
        self.n += k


MUL_COUNTER = MulCounter()


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def _to_digits(value: int, p: int, m: int) -> list[int]:
    out = []
    for _ in range(m):
        value, d = divmod(value, p)
        out.append(d)
    return out


def _from_digits(digits, p: int) -> int:
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def _x_powers(p: int, m: int, modulus) -> list[int]:
    """The powers 1, x, x^2, ... modulo the monic modulus, encoded, up to the
    first return to 1.

    Its length is the multiplicative order of x, which is p^m - 1 exactly
    when x is primitive.  Over F_2 a step is a shift and an XOR; otherwise
    the digits shift up one place and the top one folds back into the
    digits where the modulus has nonzero coefficients.  The walk stops
    after p^m - 1 steps even if it has not returned, as when the modulus
    is a multiple of x.
    """
    q = p**m
    out = [1]
    if p == 2:
        red = _from_digits(modulus, 2)
        v = 1
        for _ in range(q - 1):
            v <<= 1
            if v & q:
                v ^= red
            if v == 1:
                break
            out.append(v)
        return out
    # x^m = -(c0 + c1 x + ... + c_{m-1} x^{m-1}): the digit shifted out of
    # the top adds top * (-c_i) to digit i, for each nonzero c_i
    terms = [(p**i, (-c) % p) for i, c in enumerate(modulus[:-1]) if c]
    shift = p ** (m - 1)
    v = 1
    for _ in range(q - 1):
        top, rest = divmod(v, shift)
        v = rest * p
        if top:
            for weight, c in terms:
                d = v // weight % p
                v += ((d + top * c) % p - d) * weight
        if v == 1:
            break
        out.append(v)
    return out


@lru_cache(maxsize=None)
def default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Built-in modulus polynomial for F_{p^m} with a primitive x.

    Binary fields up to degree 16 come from a fixed table; other small
    fields use the lexicographically smallest primitive polynomial, and
    prime fields x - g for the smallest primitive root g.
    """
    if not _is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if p == 2 and m in _BINARY_DEFAULT_MODULI:
        return _BINARY_DEFAULT_MODULI[m]
    if m == 1:
        candidates = (((-g) % p, 1) for g in range(2, p))
    elif p**m > _MAX_DEFAULT_ORDER:
        raise NoDefaultModulusError(f"no built-in modulus for gf({p}^{m})")
    else:
        candidates = (tuple(_to_digits(low, p, m)) + (1,) for low in range(p**m))
    for coeffs in candidates:
        # a root a in F_p means x - a divides it (a = 0: x divides it), so
        # it is reducible for m > 1; p evaluations refuse it before the walk
        if coeffs[0] == 0 or m > 1 and any(_from_digits(coeffs, a) % p == 0 for a in range(1, p)):
            continue
        if len(_x_powers(p, m, coeffs)) == p**m - 1:
            return coeffs
    raise NoDefaultModulusError(f"no primitive modulus found for gf({p}^{m})")  # pragma: no cover


class ExtField:
    """The field F_{p^m} on an explicit modulus polynomial; m = 1 is F_p.

    Elements are ints in [0, p^m) under the digit encoding described in the
    module docstring.  The base field embeds as the values 0..p-1.  A given
    modulus must be monic of degree m and make x primitive, which makes it
    irreducible; with none, a built-in default is used (binary fields up to
    degree 16 from a fixed table, other small fields by deterministic
    search).
    """

    def __init__(self, p: int, m: int, modulus=None):
        if not _is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.m = m
        self.order = q = p**m
        if modulus is None:
            mod = default_modulus(p, m)
        else:
            mod = tuple(int(c) % p for c in modulus)
            if len(mod) != m + 1 or mod[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {m}")
        self.modulus = mod
        self.alpha = p % q if m > 1 else (-mod[0]) % p
        powers = _x_powers(p, m, mod)
        if len(powers) != q - 1:
            raise NonPrimitiveAlphaError(
                f"x is not primitive modulo {mod}: "
                f"its powers do not run through the {q - 1} nonzero residues"
            )
        try:
            self.modulus_is_default = modulus is None or mod == default_modulus(p, m)
        except NoDefaultModulusError:
            self.modulus_is_default = False
        log = [0] * q
        for i, v in enumerate(powers):
            log[v] = i
        self._exp = powers + powers
        self._log = log
        self._rows = None  # the multiply rows over F_{2^m}, m <= 8, set on first use
        if p == 2:
            self.add = self.sub = xor
        else:
            # Zech logarithms: 1 + x^i = x^zech[i].  Adding 1 changes only
            # digit 0; x^half = -1 is the one power with 1 + x^i = 0.
            self._half = half = (q - 1) // 2
            self._zech = [log[v + 1 if v % p != p - 1 else v + 1 - p] for v in powers]
            self._zech[half] = None

    def _load_rows(self) -> tuple[bytes, ...]:
        """Over F_{2^m}, m <= 8, row c for every element c: the 256-byte
        ``bytes.translate`` table whose byte a holds c*a (zero past the
        field).  Row x shifts every a and reduces by the modulus, and row
        x^(e+1) is row x^e translated through row x, so the rows take one
        translate each and count no multiplication."""
        q = self.order
        red = _from_digits(self.modulus, 2)
        times_x = bytes([a << 1 ^ red if a & q >> 1 else a << 1 for a in range(q)])
        times_x = times_x.ljust(256, b"\0")
        rows = [bytes(256)] * q
        row = bytes(range(q)).ljust(256, b"\0")
        for e in range(q - 1):
            rows[self._exp[e]] = row
            row = row.translate(times_x)
        self._rows = tuple(rows)
        return self._rows

    @property
    def prime(self) -> "ExtField":
        """The base field F_p as a degree-1 field (itself when m = 1).  Not
        cached: a write to ``__dict__`` after construction slows every later
        attribute read on this object, and its tables are read per symbol."""
        return self if self.m == 1 else ExtField(self.p, 1)

    # ------------------------------------------------------------------
    # element arithmetic
    # ------------------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        # a + b = x^la (1 + x^(lb - la)); a negative index wraps mod q - 1
        la = self._log[a]
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def neg(self, a: int) -> int:
        if self.p == 2 or not a:
            return a
        return self._exp[self._log[a] + self._half]

    def sub(self, a: int, b: int) -> int:
        if not b:
            return a
        return self.add(a, self._exp[self._log[b] + self._half])

    def mul(self, a: int, b: int) -> int:
        MUL_COUNTER.n += 1
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def alpha_pow(self, e: int) -> int:
        """The element x^e (e may be negative)."""
        q1 = self.order - 1
        return self._exp[e % q1]

    # ------------------------------------------------------------------
    # base-field representations
    # ------------------------------------------------------------------

    def to_base_vector(self, a: int) -> list[int]:
        """Coefficient vector [c_0, ..., c_{m-1}] with a = sum c_i x^i."""
        return _to_digits(a, self.p, self.m)

    def _companion_image(self, a: int) -> list[list[int]]:
        """The companion image of a, the matrix of multiplication by a, as
        its list of columns: column c is the coefficient vector of a x^c."""
        m = self.m
        if not a:
            return [[0] * m for _ in range(m)]
        la = self._log[a]
        return [self.to_base_vector(self._exp[la + c]) for c in range(m)]

    def to_companion_matrix(self, a: int) -> list[list[int]]:
        """The m x m matrix sum c_i P^i representing a in F_p[P]."""
        return [list(row) for row in zip(*self._companion_image(a))]

    # ------------------------------------------------------------------

    def spec_string(self) -> str:
        """The field's name in a code spec: ``gf(p^m)`` on the default
        modulus, else ``canonical_spec()``."""
        if self.m > 1 and self.modulus_is_default:
            return f"gf({self.p}^{self.m})"
        return self.canonical_spec()

    def canonical_spec(self) -> str:
        """Unambiguous field identifier used in hashed serializations."""
        if self.m == 1:
            return f"gf({self.p})"
        return (
            f"gf({self.p}^{self.m};modulus="
            + ",".join(str(c) for c in self.modulus)
            + ")"
        )

    def __eq__(self, other):
        return (
            isinstance(other, ExtField)
            and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"ExtField({self.spec_string()})"

