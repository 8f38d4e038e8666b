"""Verify and the public decode on the three golden codes that once
carried a tuple syndrome inside verify, pinned to recorded values.

``cI(rs(20,12;gf(2^10)))`` and the flat ``bch(63,11)`` / ``rs(20,12;gf(2^16))``
concatenation have outer symbols of more than eight bits, and
``rs(8,4;gf(3^2))`` is a plain RS code over odd p.  The values in
tests/golden/tuple_codes.json were recorded while the first two still
subtracted and decoded their syndromes as tuples, so the byte path is
checked against the results of the tuple path, not against itself.

For each code, from one seeded word and its template: reads with 0, t/2
and t damaged blocks (t the outer capability), four of each, and four
impostors, each with a SHA-256 prefix of its own template's syndrome and
verify's accepted, reason and decode_mults (verify asked to count); then 200 seeded stored
syndromes, half drawn whole at random and half the word's own syndrome
with a few symbols redrawn, each with verify's outcome against the word
and the public ``decode`` of the stored-minus-presented tuple: its
error (class and message) or a SHA-256 prefix of its dense pattern, and the
multiplications it counts when asked to.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from synfuzz.codespec import parse_spec
from synfuzz.errors import SynfuzzError
from synfuzz.fuzzy import enroll, syndrome_from_bytes, syndrome_to_bytes, verify
from synfuzz.gf import MUL_COUNTER

from test_golden import GOLDEN, WIDE_GOLDEN, golden_word
from test_verify_path import damaged

PINS = Path(__file__).parent / "golden" / "tuple_codes.json"
TUPLE_STEMS = ("cI-20-12-gf1024", "concat-bch63", "rs-8-4-gf9")
TUPLE_CODES = [g for g in GOLDEN + WIDE_GOLDEN if g[0] in TUPLE_STEMS]


def sha(data) -> str:
    """The first 16 hex digits of the SHA-256 of the bytes."""
    return hashlib.sha256(bytes(data)).hexdigest()[:16]


def random_syndrome(code, rng, base):
    """A stored syndrome in range for the code: every symbol drawn anew,
    or ``base`` (a tuple) with one to eight symbols redrawn, at most half
    of them."""
    fields = [field for count, field in code.segments for _ in range(count)]
    if rng.random() < 0.5:
        synd = [rng.randrange(field.order) for field in fields]
    else:
        synd = list(base)
        for at in rng.sample(range(len(fields)), rng.randint(1, min(8, len(fields) // 2))):
            synd[at] = rng.randrange(fields[at].order)
    return tuple(synd)


def public_decode(code, synd):
    """The public decode's outcome, which the decode asked to count
    repeats, and the multiplications that one counted."""
    def outcome(**count):
        try:
            return sha(str(code.decode(synd, **count)).encode())
        except SynfuzzError as e:
            return f"{type(e).__name__}: {e}"

    got = outcome()
    before = MUL_COUNTER.count
    assert outcome(count=True) == got
    return got, MUL_COUNTER.count - before


def record(spec, shape, q, seed) -> dict:
    code = parse_spec(spec)
    t = code.outer.t if hasattr(code, "outer") else code.t
    rng = random.Random(seed)
    word = golden_word(shape, q, seed)
    template = enroll(word, code)
    reads = [damaged(code, word, blocks, rng) for blocks in (0, t // 2, t) for _ in range(4)]
    reads += [golden_word(shape, q, seed + 2000 + k) for k in range(4)]
    out = {"template": template.syndrome.hex(), "reads": [], "stored": []}
    for read in reads:
        got = verify(read, template, code=code, count=True)
        out["reads"].append([sha(enroll(read, code).syndrome), *got[0:1], *got[2:]])
    own = syndrome_from_bytes(code, template.syndrome)
    for _ in range(200):
        synd = random_syndrome(code, rng, own)
        got = verify(word, template._replace(syndrome=syndrome_to_bytes(code, synd)), code=code,
                     count=True)
        diff = code.syndrome_sub(synd, code.syndrome(word))
        out["stored"].append([got.accepted, got.reason, got.decode_mults,
                              *public_decode(code, diff)])
    return out


def write_pins() -> None:
    """Record every code's values into the pin file, one list a line."""
    lines = []
    for stem, *args in TUPLE_CODES:
        pins = record(*args)
        rows = ",\n".join(json.dumps(row) for row in pins["reads"] + pins["stored"])
        lines.append(f'"{stem}": {{"template": "{pins["template"]}", "reads": {len(pins["reads"])},'
                     f' "rows": [\n{rows}]}}')
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.mark.parametrize("stem,spec,shape,q,seed", TUPLE_CODES, ids=TUPLE_STEMS)
def test_the_former_tuple_codes_keep_their_recorded_outcomes(stem, spec, shape, q, seed):
    pinned = json.loads(PINS.read_text())[stem]
    got = json.loads(json.dumps(record(spec, shape, q, seed)))  # lists, as stored
    assert got["template"] == pinned["template"]
    reads = pinned["reads"]
    assert got["reads"] == pinned["rows"][:reads]
    assert got["stored"] == pinned["rows"][reads:]
