"""Parsing of code specification strings (each code writes its own with
``spec_string()``).

Grammar (whitespace around separators is ignored):

    gf(p) | gf(p^m) | gf(p^m;modulus=c0,c1,...,cm)
    rs(n,k;GF)                      n below p^m - 1 shortens the code
    bch(n,design_t;gf(p))           n must be p^m - 1 for some m
    cI(RS) | cI+parity(RS) | cII(RS;n1,n2) | cIII(RS;n1,n2)
    concat(inner=BCH, outer=RS, layout=flat|iv(a,b)|v(a,b)|vi)

One reader, ``_call``, takes every ``name(args)`` apart: codes, fields
and the iv and v layouts.  It splits the stripped text at its first '('
and checks once that the parentheses balance and close the text.  A code
name is then looked up in one table, ``_CODES``, of parsers of the
argument text; a field's name must be ``gf``, and a layout is one of the
bare names flat and vi or a name in ``_LAYOUTS``.  So every name is
written exactly, in its case and directly before its '(', and nothing
follows the closing ')'.

Spec strings arrive in untrusted template files, so sizes are bounded
before any work: spec text at most 1024 characters (``MAX_SPEC_CHARS``),
integers written as an optional '-' and ASCII digits, p <= 2^16, m <= 16
and p^m <= 2^16, a bch length at most 4095, a redundancy (rs n-k, bch
2*design_t) at most 64, and positive layout and array parameters n1, n2,
a, b.  A custom modulus must make x primitive.  A code of any
construction is refused at more than 2^20 cells (``base_length``), so
the block map it builds on first use stays bounded.

A template stores its code's spec string, so every verify from template
text parses it again.  ``parse_spec`` therefore keeps parsed codes in one
least-recently-used cache keyed by the spec text: a re-parsed spec is the
same code object, with the fields, block map and tables it has built, and
builds nothing.  The cache is bounded by weight, not by count: a code
weighs the bytes of its key text and of every table it can build
(``rs._cost``, its price, worked out from its parameters), in units of
40 bytes.  The bound, 49 MiB, admits any one code, so a stream of
distinct hostile specs evicts entries but retains about one largest
code, never more.  Codes that share a field or a component are each
charged for it.
A construction parses its RS and BCH components through the same cache,
so constructions on the same component spec share its code and tables.
Failed parses are not cached (a refused construction's components that
parsed are).  A cached code is shared between callers and threads:
nothing mutates it after its lazy slots fill, and two threads filling
the same slot at once build equal tables.
"""

import _thread
from collections import OrderedDict
from functools import partial

from .concat import ConcatCode, FlatLayout, IvLayout, ViLayout, VLayout
from .errors import SpecParseError, SynfuzzError
from .expand import ExpandedCode
from .gf import _MAX_DEFAULT_ORDER, ExtField
from .rs import BchCode, RsCode, _cost

# BCH generator building grows about fourfold per doubling of the length.
_MAX_BCH_LENGTH = (1 << 12) - 1
# Key-equation decoding grows about fourfold per doubling of the redundancy.
_MAX_REDUNDANCY = 64
# Every code's cell table (built on first use) has one entry per cell.
MAX_CELLS = 1 << 20
# The longest spec in use has 77 characters, and a gf(2^16) modulus= adds
# about 34.  The cap bounds parse time and the cache's keys.
MAX_SPEC_CHARS = 1024
# In units of 40 bytes.  The heaviest admitted codes weigh up to about
# 1.27 million: 2^20 cells of block order and gather beside a field of
# 2^16 elements.  A code over gf(2^16) alone weighs about 145,000, so the
# bound keeps eight of them.
_CACHE_BOUND = (49 << 20) // 40
_codes: OrderedDict = OrderedDict()  # spec text -> (code, weight)
_codes_lock = _thread.allocate_lock()  # threading.Lock, without importing threading
_codes_weight = 0


def _call(text: str) -> tuple[str, str]:
    """Split ``name(args)`` at its first '(' into the name and the argument
    text, once the parentheses are checked to balance and close at the end."""
    text = text.strip()
    name, paren, args = text.partition("(")
    depth = 0
    for ch in args[:-1]:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                break
    if not paren or depth or not args.endswith(")"):
        raise SpecParseError(f"expected name(...), got {text!r}")
    return name, args[:-1]


def _split_top(text: str, sep: str) -> list[str]:
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur).strip())
    return parts


def _pair(text: str, sep: str, refusal: str) -> list[str]:
    """The two top-level parts of ``text`` split at ``sep``."""
    parts = _split_top(text, sep)
    if len(parts) != 2:
        raise SpecParseError(refusal)
    return parts


def _int(text: str, what: str) -> int:
    """An optional '-' and ASCII digits.  ``int`` alone also takes '+',
    '_' separators and non-ASCII digits: other spellings of one code."""
    text = text.strip()
    try:
        if text.isascii() and text.removeprefix("-").isdigit():
            return int(text)
    except ValueError:  # more digits than int converts
        pass
    raise SpecParseError(f"bad {what}: {text!r}")


def _positive(text: str, what: str) -> int:
    value = _int(text, what)
    if value < 1:
        raise SpecParseError(f"{what} must be positive, got {value}")
    return value


def parse_field(text: str) -> ExtField:
    name, args = _call(text)
    if name != "gf":
        raise SpecParseError(f"expected gf(...), got {text!r}")
    parts = _split_top(args, ";")
    head = parts[0].strip()
    if "^" in head:
        p_txt, m_txt = head.split("^", 1)
        p, m = _int(p_txt, "prime"), _int(m_txt, "degree")
    else:
        p, m = _int(head, "prime"), 1
    modulus = None
    if len(parts) == 2:
        clause = parts[1].strip()
        if not clause.startswith("modulus="):
            raise SpecParseError(f"expected modulus=..., got {clause!r}")
        modulus = [_int(c, "modulus coefficient") for c in clause[8:].split(",")]
    elif len(parts) > 2:
        raise SpecParseError(f"too many clauses in {text!r}")
    if p > _MAX_DEFAULT_ORDER or m > 16 or p**max(m, 1) > _MAX_DEFAULT_ORDER:
        raise SpecParseError(f"gf({head}) has more than {_MAX_DEFAULT_ORDER} elements")
    try:
        return ExtField(p, m, modulus=modulus)
    except SynfuzzError:
        raise
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc


def _parse_rs(args: str, text: str) -> RsCode:
    lengths, field = _pair(args, ";", f"rs takes n,k;gf(...): {text!r}")
    n, k = _pair(lengths, ",", f"rs takes two lengths: {text!r}")
    n, k = _int(n, "length"), _int(k, "dimension")
    if n - k > _MAX_REDUNDANCY:
        raise SpecParseError(f"rs redundancy {n - k} is above {_MAX_REDUNDANCY}")
    field = parse_field(field)
    try:
        return RsCode(field, n, k)
    except ValueError as exc:
        raise SpecParseError(str(exc)) from exc


def _parse_bch(args: str, text: str) -> BchCode:
    lengths, field = _pair(args, ";", f"bch takes n,t;gf(p): {text!r}")
    n, design_t = _pair(lengths, ",", f"bch takes length and capability: {text!r}")
    n, design_t = _int(n, "length"), _int(design_t, "capability")
    if n > _MAX_BCH_LENGTH:
        raise SpecParseError(f"bch length {n} is above {_MAX_BCH_LENGTH}")
    if 2 * design_t > _MAX_REDUNDANCY:
        raise SpecParseError(f"bch redundancy {2 * design_t} is above {_MAX_REDUNDANCY}")
    base = parse_field(field)
    if base.m != 1:
        raise SpecParseError("bch base field must be a prime gf(p)")
    p = base.p
    m, size = 1, p
    while size - 1 < n:
        m += 1
        size *= p
    if size - 1 != n:
        raise SpecParseError(f"bch length {n} is not {p}^m - 1 for any m")
    return BchCode(p, m, design_t)


def _parse_array(name: str, maker, args: str, text: str) -> ExpandedCode:
    """cII or cIII: the RS component is parsed before the array shape."""
    component, shape = _pair(args, ";", f"{name} takes rs(...);n1,n2: {text!r}")
    n1, n2 = _pair(shape, ",", f"{name} array shape takes n1,n2: {text!r}")
    return maker(_component(component, "rs"), _positive(n1, "n1"), _positive(n2, "n2"))


def _parse_concat(args: str, text: str) -> ConcatCode:
    """The clauses are read, each at most once, before any is parsed."""
    clauses = {}
    for part in _split_top(args, ","):
        name, eq, value = part.partition("=")
        if not eq or name not in ("inner", "outer", "layout"):
            raise SpecParseError(f"unknown concat clause {part!r}")
        if name in clauses:
            raise SpecParseError(f"repeated concat clause {name}= in {text!r}")
        clauses[name] = value
    if len(clauses) < 3:
        raise SpecParseError("concat needs inner=, outer= and layout=")
    layout = _parse_layout(clauses["layout"])  # first: a layout is never cached
    inner = _component(clauses["inner"], "bch")
    return ConcatCode(inner, _component(clauses["outer"], "rs"), layout)


# Each construction's name and the parser of its argument text.  A parser
# also takes the whole spec text, which its refusals quote.
_CODES = {
    "rs": _parse_rs,
    "bch": _parse_bch,
    "cI": lambda args, text: ExpandedCode.row_vector(_component(args, "rs")),
    "cI+parity": lambda args, text: ExpandedCode.row_vector_parity(_component(args, "rs")),
    "cII": partial(_parse_array, "cII", ExpandedCode.square_array),
    "cIII": partial(_parse_array, "cIII", ExpandedCode.companion_array),
    "concat": _parse_concat,
}
# Layouts written as a bare name, and layouts written name(a,b).
_BARE_LAYOUTS = {"flat": FlatLayout, "vi": ViLayout}
_LAYOUTS = {"iv": IvLayout, "v": VLayout}


def _parse_layout(text: str):
    text = text.strip()
    if text in _BARE_LAYOUTS:
        return _BARE_LAYOUTS[text]()
    name, args = _call(text)
    if name not in _LAYOUTS:
        raise SpecParseError(f"unknown layout {text!r}")
    a, b = _pair(args, ",", f"layout {name} takes (a,b): {text!r}")
    return _LAYOUTS[name](_positive(a, "a"), _positive(b, "b"))


def parse_spec(text: str):
    """Parse a construction string into a code object, the same object
    for every parse of the same text while it stays in the cache."""
    global _codes_weight
    if len(text) > MAX_SPEC_CHARS:
        raise SpecParseError(f"spec text of {len(text)} characters, above {MAX_SPEC_CHARS}")
    with _codes_lock:
        if text in _codes:
            _codes.move_to_end(text)
            return _codes[text][0]
    spec = text.strip()
    code = _parse_code(spec)
    weight = _weight(spec, code)
    with _codes_lock:
        entry = _codes.setdefault(text, (code, weight))
        if entry[0] is code:  # no other thread cached this text meanwhile
            _codes_weight += weight
            while _codes_weight > _CACHE_BOUND:
                _codes_weight -= _codes.popitem(last=False)[1][1]
    return entry[0]


def _weight(text: str, code) -> int:
    """The cache weight of a code: its price (``rs._cost``) and its key
    text, in units of 40 bytes.  A code of more than ``MAX_CELLS`` cells
    is refused."""
    cells = code.n if isinstance(code, BchCode) else code.base_length
    if cells > MAX_CELLS:
        raise SpecParseError(f"{text} has {cells} cells, above {MAX_CELLS}")
    return -(-(_cost(code) + len(text)) // 40)


def _component(text: str, name: str):
    """The RS or BCH code a construction is built on, parsed through the
    cache, so that constructions on the same component spec share it."""
    text = text.strip()
    if _call(text)[0] != name:
        raise SpecParseError(f"expected {name}(...), got {text!r}")
    return parse_spec(text)


def _parse_code(text: str):
    name, args = _call(text)
    if name not in _CODES:
        raise SpecParseError(f"unrecognized code spec {text!r}")
    return _CODES[name](args, text)
