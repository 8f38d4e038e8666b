"""Authentication of noisy data from a stored (digest, syndrome) pair.

Enrollment hashes a canonical serialization of the data word and stores it
next to the word's syndrome under the chosen code; the word itself is
never stored.  Both come from one read of the word (``code._read``): its
checked canonical body, the cells row-major as bytes, which the code's
digest head prefixes for the hash and ``code._body_syndrome`` takes the
syndrome of, as the template's bytes (the form rule of the ``rs``
module docstring), stored as they are (``syndrome_to_bytes``).  This
module tests no syndrome's form: the code range-checks and subtracts.
Verification makes one pass: it reads the presented word once the same
way, has the code range-check the stored syndrome bytes once while
subtracting the presented syndrome's from them (``code._stored_minus``),
decodes the difference with the code's internal ``_decode`` to a sparse
map from row-major cell offset to error value, changes those few cells
of a copy of the body and accepts only when the digest of the result
matches the stored digest; only then is the recovered word built as a
list (``apply_pattern``).
The difference is in range by construction, so the decode runs without
the public ``decode``'s syndrome check.  The hash comparison is the
final gate: a decoder miscorrection can never produce a false accept.

This module is itself imported on first use: by the package's
``__getattr__`` (``synfuzz.enroll`` and the other names defined here) and
by the CLI's ``enroll``, ``verify`` and ``simulate``, so a parse, or
``synfuzz info``, loads only the codes and their parser.  ``hashlib``
and ``hmac`` are imported on the first hash (``_modules``), since they
load OpenSSL, which a parse never needs; ``_HASHES`` gives each
algorithm id its constructor name and digest size, so a template's
digest length is checked without building a hasher.

The difference is decoded as stored-minus-presented, so the recovered
pattern v satisfies original = presented + v.  Over a binary base the
orientation is invisible; over odd characteristics it matters and is
pinned by tests.

Every code exposes the same protocol (``rs.LinearCode``): the shape and
alphabet of its data word, ``_read``, ``_body_syndrome`` (with
``syndrome``, the tuple syndrome of a word), ``_decode`` (with
``decode``, its dense wrapper), ``_template`` and ``_stored`` (between
template bytes and the tuple), ``_stored_minus``, ``syndrome_sub`` and
``segments``, the syndrome's layout as consecutive ``(count, field)``
runs.  Nothing here depends on which construction the code is.  A word
is checked by the code that reads it, once: ``code._read`` refuses
every word that is not the code's shape of ints in its alphabet with a
ShapeMismatchError, and this module runs no check of its own over the
cells.

Template files are line-oriented text:

    sfh1
    code=<construction spec string>
    hash=<algorithm id>
    digest=<hex>
    syndrome=<hex of the canonical syndrome serialization>

The syndrome serialization walks ``code.segments`` in order and writes
every symbol as a big-endian integer of the minimal byte width for its
run's field order.  ``Template.from_text`` reads exactly this form, the
final newline optional, and at most ``MAX_TEMPLATE_CHARS`` characters.
``Template`` and ``VerifyResult`` are namedtuples: two enrollments of one
word give equal templates.
"""

from collections import namedtuple
from functools import cache

from . import codespec
from .errors import (
    DecodeFailure,
    TemplateFormatError,
    UnsupportedHashError,
)
from .gf import MUL_COUNTER
from .rs import _decoder, enrollable

# Each algorithm id's ``hashlib`` constructor name and digest size.
_HASHES = {
    "sha-256": ("sha256", 32),
    "sha-384": ("sha384", 48),
    "sha-512": ("sha512", 64),
    "sha3-256": ("sha3_256", 32),
}

_MAGIC = "sfh1"
# A syndrome has fewer symbols than its code has cells, each at most 2
# bytes (p^m <= 2^16) or 4 hex characters; the spec is capped; the magic,
# the keys, a hash id and a digest (128 hex for sha-512) take under 256.
MAX_TEMPLATE_CHARS = 256 + codespec.MAX_SPEC_CHARS + 4 * codespec.MAX_CELLS


@cache
def _modules():
    """``hashlib`` and ``hmac``, imported on the first hash: they load
    OpenSSL, which a caller that only parses specs never needs."""
    import hashlib
    import hmac

    return hashlib, hmac


@cache
def _hasher(alg: str):
    """The ``hashlib`` constructor of an algorithm id, looked up on its
    first hash and kept."""
    try:
        name = _HASHES[alg][0]
    except KeyError:
        raise UnsupportedHashError(f"unknown hash algorithm {alg!r}") from None
    return getattr(_modules()[0], name)


def hash_digest(alg: str, payload: bytes) -> bytes:
    return _hasher(alg)(payload).digest()


def canonical_bytes(code, data) -> bytes:
    """Deterministic serialization hashed at enrollment: the code's digest
    head ``canonical_spec()|shape|`` (the field spec and the shape), then
    the body of the word's one read, every symbol row-major as minimal
    big-endian bytes.  A word the code does not take is a
    ShapeMismatchError."""
    body = code._read(data)  # the first read of a code builds its head
    return code._head + body


def apply_pattern(code, data, errors: dict):
    """A fresh copy of the data word (a list, or a list of row lists) with
    each error of the sparse map, by row-major flat offset, added to its
    cell in the data alphabet: its ``add``, which over characteristic 2 is
    XOR.  The other cells are copied as they are."""
    add = code.alphabet.add
    if len(code.shape) == 1:
        out = list(data)
        for at, v in errors.items():
            out[at] = add(out[at], v)
        return out
    cols = code.shape[1]
    out = [list(row) for row in data]
    for at, v in errors.items():
        row = out[at // cols]
        row[at % cols] = add(row[at % cols], v)
    return out


def _patched(code, body, errors: dict) -> bytearray:
    """A copy of a body ``code._read`` returned with each error of the
    sparse map added to its cell in the data alphabet; the other cells are
    copied as they are."""
    add, out = code.alphabet.add, bytearray(body)
    width = len(out) // code.base_length
    if width == 1:
        for at, v in errors.items():
            out[at] = add(out[at], v)
        return out
    for at, v in errors.items():
        at *= width
        cell = int.from_bytes(out[at : at + width], "big")
        out[at : at + width] = add(cell, v).to_bytes(width, "big")
    return out


def syndrome_to_bytes(code, synd) -> bytes:
    """The template serialization of a syndrome, a tuple or already its
    template bytes (``code._body_syndrome``): every symbol big-endian in
    its run's width."""
    return code._template(synd)


def syndrome_from_bytes(code, raw: bytes) -> tuple:
    """Inverse of syndrome_to_bytes; every symbol must lie in its run's field."""
    return code._stored(raw)


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------


class Template(namedtuple("Template", "code_spec hash_alg digest syndrome")):
    """The stored representation of an enrolled word: never the word
    itself, only its digest and its syndrome."""

    __slots__ = ()

    def to_text(self) -> str:
        return (
            f"{_MAGIC}\n"
            f"code={self.code_spec}\n"
            f"hash={self.hash_alg}\n"
            f"digest={self.digest.hex()}\n"
            f"syndrome={self.syndrome.hex()}\n"
        )

    @classmethod
    def from_text(cls, text: str) -> "Template":
        """Parse exactly what ``to_text`` writes, the final newline
        optional; any other spelling is a TemplateFormatError."""
        if len(text) > MAX_TEMPLATE_CHARS:
            raise TemplateFormatError(f"template text above {MAX_TEMPLATE_CHARS} characters")
        lines = text.split("\n")
        if len(lines) < 5 or lines[0] != _MAGIC:
            raise TemplateFormatError(f"expected 5 lines starting with {_MAGIC}")
        spec, alg, digest, syndrome = (line.partition("=")[2] for line in lines[1:5])
        try:
            digest, syndrome = bytes.fromhex(digest), bytes.fromhex(syndrome)
        except ValueError:
            raise TemplateFormatError("digest/syndrome must be hex") from None
        if alg not in _HASHES:
            raise UnsupportedHashError(f"unknown hash algorithm {alg!r}")
        if len(digest) != _HASHES[alg][1]:
            raise TemplateFormatError("digest length does not match the hash")
        template = cls(spec, alg, digest, syndrome)
        canonical = template.to_text()
        if text != canonical and text != canonical[:-1]:
            raise TemplateFormatError("template is not in the form to_text writes")
        return template


# ``recovered`` is the accepted word, else None; ``reason`` is None on
# accept, else "DecodeFailure" or "HashMismatch"; ``decode_mults`` is None
# unless verify is asked to count.
VerifyResult = namedtuple("VerifyResult", "accepted recovered reason decode_mults")


def enroll(data, code, hash_alg: str = "sha-256") -> Template:
    """Build the stored template for a data word under a construction."""
    if hash_alg not in _HASHES:
        raise UnsupportedHashError(f"unknown hash algorithm {hash_alg!r}")
    body = enrollable(code)._read(data)  # and the code's _spec and _head
    # the fields in order: code_spec, hash_alg, digest, syndrome
    return Template(code._spec, hash_alg, hash_digest(hash_alg, code._head + body),
                    syndrome_to_bytes(code, code._body_syndrome(body)))


def verify(data, template: Template, code=None, count: bool = False) -> VerifyResult:
    """Authenticate a presented word against a template.

    Accepts only when the decoded difference leads back to a word whose
    digest matches the template; otherwise reports DecodeFailure or
    HashMismatch.

    ``decode_mults`` is None unless ``count``: then the code's reference
    twin (``rs._decoder``, the ``rs`` module docstring) reads the word,
    subtracts, decodes and hashes in the code's place, and reports the
    multiplications its one decode counts.  Its outcome is the code's.
    """
    if code is None:
        code = codespec.parse_spec(template.code_spec)
    code = _decoder(enrollable(code), count)
    body = code._read(data)
    diff = code._stored_minus(template.syndrome, code._body_syndrome(body))
    counted = MUL_COUNTER.n if count else None
    try:
        errors = code._decode(diff)[0]
    except DecodeFailure:
        errors = None
    mults = None if counted is None else MUL_COUNTER.n - counted
    if errors is None:
        return VerifyResult(False, None, "DecodeFailure", mults)
    candidate = _patched(code, body, errors)
    digest = hash_digest(template.hash_alg, code._head + candidate)
    if _modules()[1].compare_digest(digest, template.digest):
        return VerifyResult(True, apply_pattern(code, data, errors), None, mults)
    return VerifyResult(False, None, "HashMismatch", mults)
