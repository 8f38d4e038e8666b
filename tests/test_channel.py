import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synfuzz.channel import Rng, gen_burst_1d, gen_burst_2d, gen_mixed
from synfuzz.errors import OutOfRangeError, PlacementFailedError
from synfuzz.gf import ExtField

F2 = ExtField(2, 1)
F5 = ExtField(5, 1)
F16 = ExtField(2, 4)


def nonzero(pat):
    """The nonzero cells of a pattern's dense form by position; 2D
    positions are (r, c)."""
    cells = pat.dense()
    if pat.is_2d:
        return {(r, c): v for r, row in enumerate(cells) for c, v in enumerate(row) if v}
    return {i: v for i, v in enumerate(cells) if v}


def test_rng_is_deterministic():
    a = [Rng(42).next_u64() for _ in range(5)]
    b = [Rng(42).next_u64() for _ in range(5)]
    assert a == b
    assert Rng(42).next_u64() != Rng(43).next_u64()


def test_rng_split_streams_differ():
    root = Rng(7)
    s1, s2 = root.split(0), root.split(1)
    first = [s1.next_u64() for _ in range(3)]
    assert first != [s2.next_u64() for _ in range(3)]
    # splitting again gives the same stream
    again = Rng(7).split(0)
    assert [again.next_u64() for _ in range(3)] == first


def test_below_bounds():
    rng = Rng(1)
    for n in (1, 2, 3, 7, 100):
        for _ in range(200):
            assert 0 <= rng.below(n) < n


def test_burst_1d_endpoints_nonzero():
    rng = Rng(2)
    for length in range(1, 6):
        for _ in range(100):
            pat = gen_burst_1d(rng, F5, 12, length, 3)
            cells = pat.dense()
            assert cells[3] != 0
            assert cells[3 + length - 1] != 0
            assert all(v == 0 for v in cells[:3])
            assert all(v == 0 for v in cells[3 + length:])


def test_burst_1d_length_one():
    rng = Rng(3)
    pat = gen_burst_1d(rng, F2, 8, 1, 0)
    assert len(nonzero(pat)) == 1


def test_burst_out_of_range():
    rng = Rng(4)
    with pytest.raises(OutOfRangeError):
        gen_burst_1d(rng, F2, 8, 4, 6)
    with pytest.raises(OutOfRangeError):
        gen_burst_2d(rng, F2, (4, 4), 5, 1, (0, 0))
    for shape, bursts in (((8,), [0]), ((8,), [-2]), ((4, 4), [(0, 2)]), ((4, 4), [(2, -1)])):
        with pytest.raises(OutOfRangeError):
            gen_mixed(rng, F2, shape, bursts)


def test_burst_2d_border_rows_and_columns_hit():
    rng = Rng(5)
    for _ in range(300):
        pat = gen_burst_2d(rng, F2, (8, 8), 3, 3, (2, 4))
        cells = pat.dense()
        sub = [row[4:7] for row in cells[2:5]]
        assert any(sub[0]) and any(sub[2])
        assert any(row[0] for row in sub) and any(row[2] for row in sub)


def test_burst_2d_one_by_one():
    rng = Rng(6)
    pat = gen_burst_2d(rng, F5, (4, 4), 1, 1, (1, 2))
    assert list(nonzero(pat)) == [(1, 2)]


def test_seeded_generation_reproducible():
    a = gen_burst_2d(Rng(9), F5, (6, 6), 3, 3, (1, 1))
    b = gen_burst_2d(Rng(9), F5, (6, 6), 3, 3, (1, 1))
    assert a == b


def test_mixed_empty_pattern():
    pat = gen_mixed(Rng(10), F2, (10,), [], random_errors=0)
    assert nonzero(pat) == {} and (pat.bursts, pat.random_errors) == ((), 0)


def test_mixed_burst_bookkeeping():
    pat = gen_mixed(Rng(11), F2, (40,), [4, 4], random_errors=3)
    assert len(pat.bursts) == 2
    assert pat.random_errors == 3


def burst_cells(pat):
    """The cell set of each burst box; 2D cells are (r, c)."""
    if pat.is_2d:
        return [{(r, c) for r in range(r0, r0 + h) for c in range(c0, c0 + w)}
                for (r0, c0), (h, w) in pat.bursts]
    return [set(range(pos, pos + ln)) for pos, ln in pat.bursts]


@pytest.mark.parametrize("shape, bursts", [((30,), [3, 3, 3]), ((12, 10), [(3, 3), (2, 4)])],
                         ids=["1d", "2d"])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_mixed_bursts_disjoint(shape, bursts, seed):
    rng = Rng(seed)
    pat = gen_mixed(rng, F2, shape, bursts, random_errors=2)
    spans = burst_cells(pat)
    assert len(spans) == len(bursts)
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            assert not (spans[i] & spans[j])
    # random errors land off every burst
    in_burst = set().union(*spans)
    loose = [at for at in nonzero(pat) if at not in in_burst]
    assert len(loose) == 2


# Outputs of the seeded generator, fixed so that a rewrite keeps its stream.
PINNED = [
    ((2024, F5, (20,), [3, 2], 2),
     (0, 0, 0, 0, 0, 2, 0, 2, 4, 4, 0, 0, 0, 4, 3, 2, 0, 0, 0, 0),
     ((13, 3), (8, 2))),
    ((2025, F16, (6, 5), [(2, 2), (1, 3)], 3),
     ((0, 0, 1, 3, 0), (15, 0, 9, 2, 0), (0, 4, 15, 4, 0), (0, 0, 0, 0, 0),
      (0, 0, 12, 0, 0), (0, 0, 0, 0, 6)),
     (((0, 2), (2, 2)), ((2, 1), (1, 3)))),
    ((7, F2, (12,), [4], 3),
     (1, 0, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0), ((3, 4),)),
]


@pytest.mark.parametrize("args, cells, bursts", PINNED, ids=["1d-gf5", "2d-gf16", "1d-gf2"])
def test_mixed_stream_is_pinned(args, cells, bursts):
    seed, field, shape, dims, randoms = args
    pat = gen_mixed(Rng(seed), field, shape, dims, random_errors=randoms)
    assert pat.cells == cells
    assert pat.bursts == bursts
    assert pat.random_errors == randoms


@pytest.mark.parametrize("args, error, message", [
    ((1, (4, 4), [(2, 2), (5, 1)], 0), OutOfRangeError, "burst (5, 1) does not fit in (4, 4)"),
    ((12, (10,), [6, 6], 0), PlacementFailedError, "could not place burst 6 disjointly"),
    ((3, (3, 3), [(2, 2)], 6), PlacementFailedError, "more random errors than free cells"),
], ids=["does-not-fit", "unplaceable", "too-few-free-cells"])
def test_mixed_refusals_are_pinned(args, error, message):
    seed, shape, dims, randoms = args
    with pytest.raises(error) as caught:
        gen_mixed(Rng(seed), F2, shape, dims, random_errors=randoms)
    assert str(caught.value) == message


def test_apply_to_adds_in_the_field():
    pat = gen_burst_1d(Rng(13), F5, 6, 3, 1)
    data = [1, 2, 3, 4, 0, 1]
    out = pat.apply_to(data)
    dense = pat.dense()
    assert out == [(a + b) % 5 for a, b in zip(data, dense)]
