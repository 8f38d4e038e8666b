"""The LinearCode protocol over every golden construction.

A base-field code states its block order once; LinearCode gathers words
through it and scatters patterns back.  Every decode first checks the
syndrome against the code's ``segments``.
"""

import random

import pytest

from synfuzz.codespec import parse_spec
from synfuzz.errors import AlphabetMismatchError, ShapeMismatchError
from synfuzz.rs import Syndrome

from test_golden import GOLDEN

SPECS = [g[1] for g in GOLDEN]
IDS = [g[0] for g in GOLDEN]
# Codes whose blocks already lie in row-major order.
ROW_MAJOR = (
    "concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)",
    "cI(rs(255,223;gf(2^8)))",
    "cI+parity(rs(15,7;gf(2^4)))",
)


def seeded_word(code, seed):
    rng = random.Random(seed)
    q = code.alphabet.order
    return code._shaped([rng.randrange(q) for _ in range(code.base_length)])


def one_cell_word(code, seed):
    """A word with one nonzero cell: noise every code corrects."""
    rng = random.Random(seed)
    flat = [0] * code.base_length
    flat[rng.randrange(code.base_length)] = rng.randrange(1, code.alphabet.order)
    return code._shaped(flat)


@pytest.mark.parametrize("stem,spec,shape,q,seed", GOLDEN, ids=IDS)
def test_scatter_inverts_gather(stem, spec, shape, q, seed):
    code = parse_spec(spec)
    order = code._block_order()
    assert order is None or sorted(order) == list(range(code.base_length))
    word = seeded_word(code, seed)
    assert code._scatter(code._gather(word)) == word


@pytest.mark.parametrize("spec", ROW_MAJOR)
def test_row_major_codes_build_no_block_order(spec):
    code = parse_spec(spec)
    word = one_cell_word(code, 7)
    assert code.decode(code.syndrome(word)) == word
    assert code._block_order() is None
    assert vars(code)["_order"] is None


def test_block_order_is_built_once():
    code = parse_spec("cIII(rs(15,5;gf(2^4));3,5)")
    code.syndrome(code.zero_word())
    order = vars(code)["_order"]
    code.decode(code.syndrome(one_cell_word(code, 3)))
    assert vars(code)["_order"] is order


def malformed(code, kind, seed):
    values = list(code.syndrome(one_cell_word(code, seed)).values)
    if kind == "short":
        return values[:-1]
    if kind == "long":
        return values + [0]
    if kind == "first-run":
        values[0] = code.segments[0][1].order
    else:
        values[-1] = code.segments[-1][1].order
    return values


@pytest.mark.parametrize("kind", ["short", "long", "first-run", "last-run"])
@pytest.mark.parametrize("stem,spec,shape,q,seed", GOLDEN, ids=IDS)
def test_decode_refuses_a_syndrome_that_does_not_fit_the_segments(
    stem, spec, shape, q, seed, kind
):
    """A wrong length is a ShapeMismatchError and a symbol outside its
    run's field an AlphabetMismatchError; no pattern is returned."""
    code = parse_spec(spec)
    error = ShapeMismatchError if kind in ("short", "long") else AlphabetMismatchError
    with pytest.raises(error):
        code.decode(Syndrome(tuple(malformed(code, kind, seed))))
