import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synfuzz.errors import NoDefaultModulusError, NonPrimitiveAlphaError, NotPrimeError
from synfuzz.codespec import parse_field
from synfuzz.gf import MUL_COUNTER, ExtField, default_modulus

import oracle


@pytest.fixture(scope="module")
def f8():
    return ExtField(2, 3)


@pytest.fixture(scope="module")
def f16():
    return ExtField(2, 4)


def test_prime_field_rejects_composites():
    with pytest.raises(NotPrimeError):
        ExtField(6, 1)
    with pytest.raises(NotPrimeError):
        ExtField(4, 2)


def assert_alpha_primitive(fld):
    """alpha_pow(0..q-2) hits every nonzero element exactly once."""
    powers = [fld.alpha_pow(e) for e in range(fld.order - 1)]
    assert sorted(powers) == list(range(1, fld.order))


def test_f8_construction(f8):
    # x^3 + x + 1 has no roots over gf(2) and x has order 7
    assert f8.order == 8
    assert f8.modulus == (1, 1, 0, 1)
    assert_alpha_primitive(f8)


def test_degree_one_extension_is_the_prime_field():
    f2 = ExtField(2, 1)
    assert f2.order == 2
    assert f2.mul(1, 1) == 1
    assert f2.add(1, 1) == 0
    assert f2.to_base_vector(1) == [1]


def test_reducible_modulus_rejected():
    # x^3 + 1 = (x + 1)(x^2 + x + 1): x cannot be primitive on it
    with pytest.raises(NonPrimitiveAlphaError):
        ExtField(2, 3, modulus=[1, 0, 0, 1])


# (p, top m): every monic modulus of degree 1..top over F_p is tried
EVERY_MODULUS_FIELDS = [(2, 8), (3, 5), (5, 3), (7, 2), (13, 2)]


@pytest.mark.parametrize(
    "p,m", [(p, m) for p, top in EVERY_MODULUS_FIELDS for m in range(1, top + 1)]
)
def test_a_modulus_is_accepted_exactly_when_it_is_primitive(p, m):
    """Of the p^m monic polynomials of degree m, ExtField accepts as many
    as there are primitive ones, phi(p^m - 1)/m, and refuses every other,
    reducible or not, with NonPrimitiveAlphaError.  On each accepted one
    its powers of x, taken by schoolbook multiplication, are its exp table
    and reach every nonzero element."""
    q = p**m
    accepted = 0
    for low in range(q):
        modulus = oracle.to_digits(low, p, m) + [1]
        try:
            fld = ExtField(p, m, modulus)
        except NonPrimitiveAlphaError:
            continue
        accepted += 1
        x = oracle.from_digits(oracle.poly_mod(p, [0, 1], modulus), p)
        v = 1
        for e in range(q - 1):
            assert fld.alpha_pow(e) == v
            v = oracle.elem_mul(p, m, modulus, v, x)
        assert v == 1
        assert_alpha_primitive(fld)
    totient = sum(math.gcd(k, q - 1) == 1 for k in range(1, q))
    assert accepted * m == totient


@pytest.mark.parametrize(
    "text",
    [
        "gf(3^2;modulus=2,0,1)",  # x^2 + 2 = (x + 1)(x + 2)
        "gf(3^2;modulus=1,0,1)",  # irreducible, but x has order 4
        "gf(5^2;modulus=0,1,1)",  # x (x + 1)
        "gf(2^4;modulus=1,1,1,1,1)",  # irreducible, but x has order 5
        "gf(2^4;modulus=1,0,1,0,1)",  # (x^2 + x + 1)^2
        "gf(7;modulus=6,1)",  # x - 1
    ],
)
def test_parse_field_refuses_a_non_primitive_modulus(text):
    with pytest.raises(NonPrimitiveAlphaError):
        parse_field(text)


def test_parse_field_accepts_a_primitive_modulus():
    assert parse_field("gf(3^2;modulus=2,1,1)").modulus_is_default
    custom = parse_field("gf(3^2;modulus=2,2,1)")  # x^2 + 2x + 2
    assert custom.spec_string() == "gf(3^2;modulus=2,2,1)"
    assert_alpha_primitive(custom)


# default_modulus(p, m) of every odd field of at most 2^12 elements with
# m >= 2; template bytes name the field by its modulus.
ODD_DEFAULT_MODULI = {
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (1, 2, 1, 0, 0, 0, 0, 1),
    (5, 2): (2, 1, 1),
    (5, 3): (2, 3, 0, 1),
    (5, 4): (2, 2, 1, 0, 1),
    (5, 5): (2, 4, 0, 0, 0, 1),
    (7, 2): (3, 1, 1),
    (7, 3): (2, 3, 0, 1),
    (7, 4): (5, 3, 1, 0, 1),
    (11, 2): (7, 1, 1),
    (11, 3): (4, 1, 0, 1),
    (13, 2): (2, 1, 1),
    (13, 3): (6, 1, 0, 1),
    (17, 2): (3, 1, 1),
    (19, 2): (2, 1, 1),
    (23, 2): (7, 1, 1),
    (29, 2): (3, 1, 1),
    (31, 2): (12, 1, 1),
    (37, 2): (5, 1, 1),
    (41, 2): (12, 1, 1),
    (43, 2): (3, 1, 1),
    (47, 2): (13, 1, 1),
    (53, 2): (5, 1, 1),
    (59, 2): (2, 1, 1),
    (61, 2): (2, 1, 1),
}


def test_odd_default_moduli_are_pinned():
    fields = [(p, m) for p, m in _prime_powers(1 << 12) if p > 2 and m > 1]
    assert sorted(ODD_DEFAULT_MODULI) == sorted(fields)
    for (p, m), modulus in ODD_DEFAULT_MODULI.items():
        assert default_modulus(p, m) == modulus


def test_no_default_modulus_for_large_fields():
    with pytest.raises(NoDefaultModulusError):
        default_modulus(2, 17)


def test_non_primitive_modulus_flagged():
    # x^2 + 1 is irreducible over gf(3) but x has order 4, not 8
    with pytest.raises(NonPrimitiveAlphaError):
        ExtField(3, 2, modulus=[1, 0, 1])


def test_all_binary_defaults_are_primitive():
    for m in range(1, 17):
        assert_alpha_primitive(ExtField(2, m))


def test_f8_spot_products(f8):
    # alpha * alpha^2 = alpha + 1 and (alpha+1)^2 = alpha^2 + 1
    assert f8.mul(2, 4) == 3
    assert f8.mul(3, 3) == 5


def test_f8_multiplication_matches_polynomial_oracle(f8):
    for a in range(8):
        for b in range(8):
            assert f8.mul(a, b) == oracle.elem_mul(2, 3, f8.modulus, a, b)


def test_f8_inverses(f8):
    """Every nonzero element has exactly one inverse under mul, and 0 has
    none."""
    assert f8.mul(2, 5) == 1
    assert f8.mul(1, 1) == 1
    assert [b for b in range(8) if f8.mul(0, b) == 1] == []
    for a in range(1, 8):
        assert len([b for b in range(8) if f8.mul(a, b) == 1]) == 1


def test_mul_identity_for_all_elements(f8):
    for a in range(8):
        assert f8.mul(a, 1) == a


def test_field_axioms_exhaustive_f8(f8):
    add, mul = f8.add, f8.mul
    for a in range(8):
        for b in range(8):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            for c in range(8):
                assert mul(a, mul(b, c)) == mul(mul(a, b), c)
                assert add(a, add(b, c)) == add(add(a, b), c)
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_field_axioms_sampled_f16(a, b, c):
    fld = ExtField(2, 4)
    assert fld.mul(a, fld.mul(b, c)) == fld.mul(fld.mul(a, b), c)
    assert fld.mul(a, fld.add(b, c)) == fld.add(fld.mul(a, b), fld.mul(a, c))
    if a:
        assert any(fld.mul(a, b) == 1 for b in range(1, 16))


def test_base_vector_round_trip(f8):
    assert f8.to_base_vector(3) == [1, 1, 0]
    assert f8.to_base_vector(0) == [0, 0, 0]
    for a in range(8):
        assert oracle.from_digits(f8.to_base_vector(a), 2) == a


def test_base_vector_addition_is_componentwise(f8):
    for a in range(8):
        for b in range(8):
            va = f8.to_base_vector(a)
            vb = f8.to_base_vector(b)
            assert f8.to_base_vector(f8.add(a, b)) == [(x + y) % 2 for x, y in zip(va, vb)]


def test_companion_matrix_f4():
    f4 = ExtField(2, 2)
    assert f4.to_companion_matrix(2) == [[0, 1], [1, 1]]  # alpha -> P
    assert f4.to_companion_matrix(3) == [[1, 1], [1, 0]]  # alpha^2 = alpha + 1 -> P^2
    assert f4.to_companion_matrix(1) == [[1, 0], [0, 1]]
    # P^2 really is P + I
    p_mat = f4.to_companion_matrix(2)
    psq = [
        [sum(p_mat[r][k] * p_mat[k][c] for k in range(2)) % 2 for c in range(2)]
        for r in range(2)
    ]
    assert psq == f4.to_companion_matrix(3)


def test_companion_representation_is_multiplicative(f8):
    m = f8.m
    for a in range(8):
        for b in range(8):
            ma = f8.to_companion_matrix(a)
            mb = f8.to_companion_matrix(b)
            prod = [
                [sum(ma[r][k] * mb[k][c] for k in range(m)) % 2 for c in range(m)]
                for r in range(m)
            ]
            assert prod == f8.to_companion_matrix(f8.mul(a, b))


def _companion_reference(fld, a):
    """sum a_i P^i over F_p, P the companion matrix of the modulus: P sends
    x^c to x^(c+1), and x^(m-1) to -(c_0 + ... + c_{m-1} x^(m-1))."""
    p, m = fld.p, fld.m
    ident = [[int(r == c) for c in range(m)] for r in range(m)]
    comp = [[int(r == c + 1) for c in range(m)] for r in range(m)]
    for r in range(m):
        comp[r][m - 1] = (-fld.modulus[r]) % p
    out = [[0] * m for _ in range(m)]
    power = ident
    for digit in oracle.to_digits(a, p, m):
        for r in range(m):
            for c in range(m):
                out[r][c] = (out[r][c] + digit * power[r][c]) % p
        power = [
            [sum(power[r][k] * comp[k][c] for k in range(m)) % p for c in range(m)]
            for r in range(m)
        ]
    return out


def test_companion_image_is_the_sum_of_powers_of_P():
    """The image of a is the matrix of multiplication by a, so its first
    column, where it sends 1, is a's coefficient vector."""
    for p, m in ((2, 3), (2, 4), (3, 2), (5, 2), (3, 3)):
        fld = ExtField(p, m)
        for a in range(fld.order):
            image = fld.to_companion_matrix(a)
            assert image == _companion_reference(fld, a), (fld, a)
            assert oracle.from_digits([row[0] for row in image], p) == a


def check_odd_field_pair(fld, a, b):
    p, m = fld.p, fld.m
    neg_b = oracle.from_digits([(-d) % p for d in oracle.to_digits(b, p, m)], p)
    assert fld.mul(a, b) == oracle.elem_mul(p, m, fld.modulus, a, b)
    assert fld.add(a, b) == oracle.elem_add(p, m, a, b)
    assert fld.neg(b) == neg_b
    assert fld.sub(a, b) == oracle.elem_add(p, m, a, neg_b)


def test_nonbinary_field_arithmetic():
    for p, m in ((3, 2), (5, 2), (7, 1)):
        fld = ExtField(p, m)
        assert_alpha_primitive(fld)
        for a in range(fld.order):
            for b in range(fld.order):
                check_odd_field_pair(fld, a, b)
            assert fld.add(a, fld.neg(a)) == 0
    # sampled pairs in a field of 2187 elements
    f2187 = ExtField(3, 7)
    rng = random.Random(37)
    for _ in range(2000):
        check_odd_field_pair(f2187, rng.randrange(2187), rng.randrange(2187))


def test_alpha_pow_matches_repeated_multiplication(f16):
    cur = 1
    for e in range(30):
        assert f16.alpha_pow(e) == cur
        cur = f16.mul(cur, f16.alpha)


def _prime_powers(limit):
    """(p, m) for every prime power p^m <= limit."""
    primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]
    return [(p, m) for p in primes for m in range(1, limit.bit_length()) if p**m <= limit]


@pytest.mark.parametrize(
    "p,m,modulus",
    [(p, m, None) for p, m in _prime_powers(1 << 10)]
    + [
        (2, 8, (1, 1, 0, 1, 0, 1, 0, 0, 1)),  # x^8 + x^5 + x^3 + x + 1
        (2, 4, (1, 0, 0, 1, 1)),  # x^4 + x^3 + 1
        (3, 2, (2, 2, 1)),  # x^2 + 2x + 2
        (5, 1, (2, 1)),  # x - 3
        (7, 1, (2, 1)),  # x - 5
    ],
)
def test_x_is_the_first_power_of_alpha(p, m, modulus):
    """The exp table walks the powers of x, which is alpha: exponents of
    alpha are exponents in the table, with no log(alpha) factor."""
    fld = ExtField(p, m, modulus)
    assert fld._exp[1] == fld.alpha
    assert fld.alpha_pow(1) == fld.alpha


def test_mul_counter_counts_every_multiplication(f8):
    before = MUL_COUNTER.count
    f8.mul(3, 6)
    assert MUL_COUNTER.count == before + 1
    f8.mul(7, 0)
    assert MUL_COUNTER.count == before + 2


def test_binary_fields_add_and_subtract_by_xor():
    """Over characteristic 2 the field's add and sub are XOR itself, so
    callers need not test p to add."""
    for m in range(1, 17):
        fld = ExtField(2, m)
        assert fld.add is operator.xor and fld.sub is operator.xor
    assert ExtField(3, 2).add is not operator.xor


def test_spec_strings():
    assert ExtField(2, 3).spec_string() == "gf(2^3)"
    assert ExtField(5, 1).spec_string() == "gf(5)"
    custom = ExtField(2, 3, modulus=[1, 1, 0, 1])
    assert custom.spec_string() == "gf(2^3)"  # matches the default table
    other = ExtField(2, 3, modulus=[1, 0, 1, 1])
    assert other.spec_string() == other.canonical_spec() == "gf(2^3;modulus=1,0,1,1)"
    f9 = ExtField(3, 2)
    assert "modulus=" in f9.canonical_spec()


def test_default_modulus_search_is_deterministic():
    assert default_modulus(3, 2) == default_modulus(3, 2)
    fld = ExtField(5, 2)
    assert_alpha_primitive(fld)
    assert fld.order == 25
