import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synfuzz.channel import Rng, gen_burst_1d, gen_burst_2d, gen_mixed
from synfuzz.errors import OutOfRangeError, PlacementFailedError
from synfuzz.gf import ExtField

F2 = ExtField(2, 1)
F5 = ExtField(5, 1)


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
    assert pat.weight == 1


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
    assert pat.weight == 1 and pat.dense()[1][2] != 0


def test_seeded_generation_reproducible():
    a = gen_burst_2d(Rng(9), F5, (6, 6), 3, 3, (1, 1))
    b = gen_burst_2d(Rng(9), F5, (6, 6), 3, 3, (1, 1))
    assert a == b


def test_mixed_empty_pattern():
    pat = gen_mixed(Rng(10), F2, (10,), [], random_errors=0)
    assert pat.weight == 0 and pat.descriptor() == "clean"


def test_mixed_descriptor_bookkeeping():
    pat = gen_mixed(Rng(11), F2, (40,), [4, 4], random_errors=3)
    assert len(pat.bursts) == 2
    assert pat.random_errors == 3
    assert "random:3" in pat.descriptor()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_mixed_bursts_disjoint(seed):
    rng = Rng(seed)
    pat = gen_mixed(rng, F2, (30,), [3, 3, 3], random_errors=2)
    spans = [set(range(pos, pos + ln)) for pos, ln in pat.bursts]
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            assert not (spans[i] & spans[j])
    # random errors land off every burst
    burst_cells = set().union(*spans)
    dense = pat.dense()
    loose = [i for i, v in enumerate(dense) if v and i not in burst_cells]
    assert len(loose) == 2


def test_mixed_placement_failure():
    with pytest.raises(PlacementFailedError):
        gen_mixed(Rng(12), F2, (10,), [6, 6])


def test_apply_to_adds_in_the_field():
    pat = gen_burst_1d(Rng(13), F5, 6, 3, 1)
    data = [1, 2, 3, 4, 0, 1]
    out = pat.apply_to(data)
    dense = pat.dense()
    assert out == [(a + b) % 5 for a, b in zip(data, dense)]
