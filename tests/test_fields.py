"""Field arithmetic, canonical moduli, and F_q linear algebra."""

import itertools
import random
from fractions import Fraction

import pytest

from rankfuzz import fields
from rankfuzz.errors import (
    DegreeOutOfRange,
    DivisionByZero,
    LengthMismatch,
    MismatchedField,
    NonPrimeQ,
)
from rankfuzz.fields import (
    ExtField,
    FqSpan,
    _is_irreducible,
    _is_irreducible_gf2,
    canonical_modulus,
    element_rank,
    ext_field,
    find_normal_element,
    fq_combination,
    is_independent,
    is_prime,
    kernel_ext,
    kernel_fq,
    modulus_string,
    rank_distance,
    rank_fq,
    solve_ext,
    _rref_ext,
)

from oracles import random_element_by_digits


# ---------------------------------------------------------------------------
# Oracles.


def naive_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, n))


def poly_mul_mod_q(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % q
    while out and out[-1] == 0:
        out.pop()
    return out


def all_monic_polys(q, deg):
    for low in itertools.product(range(q), repeat=deg):
        yield list(low) + [1]


def poly_rem(a, g, q):
    rem = list(a)
    d = len(g) - 1
    while len(rem) - 1 >= d and any(rem):
        shift = len(rem) - 1 - d
        c = rem[-1]
        for i, gi in enumerate(g):
            rem[shift + i] = (rem[shift + i] - c * gi) % q
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def naive_is_irreducible(poly, q):
    """Trial division by every lower-degree monic polynomial."""
    deg = len(poly) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for g in all_monic_polys(q, d):
            if not poly_rem(poly, g, q):
                return False
    return True


def naive_rank(mat, q):
    """Largest r with a nonzero r x r minor, determinants over Fractions."""
    rows, cols = len(mat), len(mat[0])
    best = 0
    for r in range(1, min(rows, cols) + 1):
        for rs in itertools.combinations(range(rows), r):
            for cs in itertools.combinations(range(cols), r):
                sub = [[Fraction(mat[i][j]) for j in cs] for i in rs]
                if int(_det(sub)) % q != 0:
                    best = max(best, r)
                    break
            if best == r:
                break
    return best


def matvec(A, x, q):
    return [sum(a * b for a, b in zip(row, x)) % q for row in A]


def _det(m):
    """Exact determinant over the rationals, by elimination with row swaps
    (the minors above reach 8 x 8, too large for cofactor expansion)."""
    m = [list(row) for row in m]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


# ---------------------------------------------------------------------------
# Primality and moduli.


def test_is_prime_matches_trial_division():
    for n in range(260):
        assert is_prime(n) == naive_is_prime(n), n


def test_canonical_modulus_known_small_cases():
    assert list(canonical_modulus(2, 2)) == [1, 1, 1]  # x^2 + x + 1
    assert list(canonical_modulus(2, 3)) == [1, 1, 0, 1]  # x^3 + x + 1
    assert list(canonical_modulus(2, 1)) == [0, 1]  # x
    assert list(canonical_modulus(3, 1)) == [0, 1]


def test_canonical_modulus_is_first_irreducible_in_scan_order():
    # integer-ascending low coefficients, verified against trial division
    for q, m in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]:
        expect = None
        for value in range(q**m):
            low = []
            v = value
            for _ in range(m):
                v, r = divmod(v, q)
                low.append(r)
            cand = low + [1]
            if naive_is_irreducible(cand, q):
                expect = cand
                break
        assert list(canonical_modulus(q, m)) == expect, (q, m)


def test_binary_modulus_search_matches_list_rabin_test():
    # q = 2 searches with Rabin's test on bit patterns; the list form of
    # the same test must reject every earlier candidate and accept its pick
    for m in range(1, 65):
        poly = canonical_modulus(2, m)
        pick = sum(c << i for i, c in enumerate(poly[:m]))
        for low in range(pick + 1):
            cand = [low >> i & 1 for i in range(m)] + [1]
            assert _is_irreducible(cand, 2) == (low == pick), (m, low)
            assert _is_irreducible_gf2(1 << m | low) == (low == pick), (m, low)


def test_modulus_is_irreducible_at_larger_degrees():
    for q, m in [(2, 8), (2, 11), (3, 5), (5, 4), (13, 3)]:
        poly = canonical_modulus(q, m)
        assert len(poly) == m + 1 and poly[-1] == 1
        # irreducible => no roots in F_q (necessary check, cheap at any m)
        for x in range(q):
            acc = 0
            for c in reversed(poly):
                acc = (acc * x + c) % q
            assert acc != 0, (q, m, x)


def test_modulus_string_readable():
    assert modulus_string(ext_field(2, 2)) == "x^2 + x + 1"
    assert modulus_string(ext_field(2, 1)) == "x"


def test_parameter_validation():
    with pytest.raises(NonPrimeQ):
        ext_field(4, 2)
    with pytest.raises(NonPrimeQ):
        ext_field(257, 1)  # prime but above the supported bound
    with pytest.raises(NonPrimeQ):
        ext_field(2**61 - 1, 2)  # rejected by the bound, before slow trial division
    with pytest.raises(DegreeOutOfRange):
        ext_field(2, 0)
    with pytest.raises(DegreeOutOfRange):
        ext_field(2, 65)


def test_factory_caches_instances():
    assert ext_field(2, 8) is ext_field(2, 8)


# ---------------------------------------------------------------------------
# Arithmetic axioms.

AXIOM_FIELDS = [(2, 1), (2, 8), (3, 3), (5, 2), (7, 1), (251, 1), (2, 17), (3, 11)]


@pytest.mark.parametrize("q,m", AXIOM_FIELDS)
def test_field_axioms_random(q, m):
    F = ext_field(q, m)
    rng = random.Random(1000 * q + m)
    one = 1 % F.order
    for _ in range(300):
        a, b, c = (F.random_element(rng) for _ in range(3))
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, b) == F.add(a, F.neg(b))
        if F.order > 1:
            assert F.mul(a, one) == a
        if a:
            assert F.mul(a, F.inv(a)) == one


# exhaustive up to 251^2 pairs; (3, 10) and (251, 2) are the largest odd-q
# table fields and are sampled
ADD_FIELDS = [(3, 1), (5, 1), (251, 1), (3, 2), (3, 4), (3, 5), (5, 3), (7, 2), (3, 10), (251, 2)]
ADD_SAMPLED = {(3, 10), (251, 2)}


@pytest.mark.parametrize(
    "q,m", ADD_FIELDS, ids=[str(q) if m == 1 else f"{q}-{m}" for q, m in ADD_FIELDS]
)
def test_prime_field_add_sub_neg_match_digit_loop(q, m):
    # odd q table fields add, subtract and negate by Zech logarithm
    # lookups; the digit loops, which serve larger odd-q fields, are the
    # reference
    F = ext_field(q, m)
    assert {"add", "sub", "neg"} <= vars(F).keys()
    if (q, m) in ADD_SAMPLED:
        rng = random.Random(7 * q + m)
        elems = [F.random_element(rng) for _ in range(200)]
        pairs = [(F.random_element(rng), F.random_element(rng)) for _ in range(20_000)]
        pairs += [(a, b) for a in elems[:100] for b in (0, a, ExtField._neg_digits(F, a))]
        pairs += [(0, b) for b in elems]
        pairs += [(0, 0), (1, F.order - 1), (F.order - 1, 1)]
        singles = elems + [0, 1, F.order - 1]
    else:
        pairs = itertools.product(F.elements(), repeat=2)
        singles = F.elements()
    for a in singles:
        assert F.neg(a) == ExtField._neg_digits(F, a), a
    for a, b in pairs:
        assert F.add(a, b) == ExtField._add_digits(F, a, b), (a, b)
        assert F.sub(a, b) == ExtField._sub_digits(F, a, b), (a, b)


def test_inverse_of_zero_rejected():
    with pytest.raises(DivisionByZero):
        ext_field(2, 4).inv(0)  # table lookup
    with pytest.raises(DivisionByZero):
        ext_field(2, 32).inv(0)  # above the table limit: extended Euclid
    with pytest.raises(DivisionByZero):
        ext_field(3, 12).inv(0)  # above the table limit: Fermat power


def test_table_mul_agrees_with_convolution():
    for q, m in [(2, 8), (3, 4), (5, 3), (2, 16)]:
        F = ext_field(q, m)
        rng = random.Random(q * m)
        for _ in range(400):
            a, b = F.random_element(rng), F.random_element(rng)
            assert F.mul(a, b) == F._mul_basic(a, b)


def unit_primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and naive_is_prime(p)]


# both parities; at odd q, (13, 4) and (251, 2) make the most copies per
# digit in the image-table doubling
WALK_FIELDS = [(2, 1), (2, 8), (2, 12), (2, 16), (3, 5), (3, 10), (13, 4), (251, 2)]


@pytest.mark.parametrize("q,m", WALK_FIELDS, ids=[f"{q}-{m}" for q, m in WALK_FIELDS])
def test_tables_match_the_multiply_walk(q, m):
    # the reference multiplies by the smallest primitive element g once
    # per element, through the polynomial-basis product
    F = ext_field(q, m)
    exp, log, n, _ = F._logs
    primes = unit_primes(n)
    g = next((c for c in range(2, F.order) if all(F.pow_(c, n // p) != 1 for p in primes)), 1)
    walk = [1] * n
    for i in range(1, n):
        walk[i] = F._mul_poly(walk[i - 1], g)
    assert exp == walk
    assert log[0] == -1 and all(log[v] == i for i, v in enumerate(walk))
    if q > 2:  # the Zech logarithms, read through 1 + g^d = g^zech[d]
        assert [F.add(1, v) for v in walk] == [ExtField._add_digits(F, 1, v) for v in walk]


@pytest.mark.parametrize("q,m", [(2, 12), (3, 6)])
def test_table_build_multiplies_once_per_basis_element_not_per_element(q, m, monkeypatch):
    # counts the product the build calls: the closure fields._gf2_mul
    # makes at q = 2, ExtField._mul_basic at odd q
    calls = []

    def counted(product):
        def count(*args):
            calls.append(args[-2:])
            return product(*args)

        return count

    make = fields._gf2_mul
    monkeypatch.setattr(fields, "_gf2_mul", lambda m, poly: counted(make(m, poly)))
    monkeypatch.setattr(ExtField, "_mul_basic", counted(ExtField._mul_basic))
    F = ExtField(q, m)
    assert calls  # a count of a product the build never calls proves nothing
    n = F.order - 1
    g = F._logs[0][1]
    # each candidate below g takes at most one power per prime factor of
    # n, each of at most 2 * bit_length(n) products; then g * x^i
    assert len(calls) <= (g - 1) * len(unit_primes(n)) * 2 * n.bit_length() + m
    assert 8 * len(calls) < F.order


OPERATIONS = {"add", "sub", "neg", "mul", "inv", "frobenius", "twist_mul"}
BINDING_FIELDS = [(2, 1), (3, 1), (2, 8), (3, 4), (2, 32), (3, 11)]


@pytest.mark.parametrize("q,m", BINDING_FIELDS, ids=[f"{q}-{m}" for q, m in BINDING_FIELDS])
def test_constructor_binds_every_operation(q, m):
    # the class defines none of the seven, so no call falls back to it
    assert not OPERATIONS & vars(ExtField).keys()
    F = ExtField(q, m)
    assert OPERATIONS <= vars(F).keys()
    if F.order <= 1 << 16:
        assert type(F._logs) is tuple and len(F._logs) == 4
    else:
        assert F._logs is None
    rng = random.Random(q * m)
    for _ in range(20):
        a, b = F.random_element(rng), F.random_element(rng) or 1
        assert F.mul(F.add(a, b), b) == F.add(F._mul_poly(a, b), F._mul_poly(b, b))
        assert F.add(F.sub(a, b), b) == a and F.add(F.neg(a), a) == 0
        assert F._mul_poly(F.inv(b), b) == 1
        assert F.frobenius(a) == F.pow_(a, q) and F.frobenius(a, m) == a
        for c, x in [(a, b), (0, b), (a, 0), (b, a)]:
            e = rng.randrange(-m, 2 * m)
            assert F.twist_mul(c, x, e) == F.mul(c, F.frobenius(x, e))


@pytest.mark.parametrize("q,m", [(2, 4), (3, 2), (5, 2)])
def test_twist_mul_matches_mul_of_frobenius_everywhere(q, m):
    F = ExtField(q, m)
    for e in range(-1, m + 1):
        want = [F._mul_poly(c, F.pow_(x, q**(e % m))) for c in F.elements() for x in F.elements()]
        assert [F.twist_mul(c, x, e) for c in F.elements() for x in F.elements()] == want, e


@pytest.mark.parametrize("m", [17, 20, 32, 64])
def test_binary_mul_and_inverse_agree_with_convolution(m):
    # above the table limit: carry-less multiply and extended Euclid inverse
    F = ext_field(2, m)
    rng = random.Random(m)
    for a, b in [(0, 5), (F.order - 1, F.order - 1)]:
        assert F.mul(a, b) == F._mul_basic(a, b)
    for _ in range(200):
        a, b = F.random_element(rng), F.random_element(rng)
        assert F.mul(a, b) == F._mul_basic(a, b)
        if a:
            assert F._mul_basic(a, F.inv(a)) == 1


@pytest.mark.parametrize("m", [*range(17, 34), 48, 60, 64])
def test_binary_product_matches_convolution_above_the_table_limit(m):
    # every fold table width, both sides of m = 33 (four tables read
    # unrolled) and of m = 60 (past it the interleaved multiply takes b
    # in halves); x^(m-1) times all-ones has every bit of the high part
    # set, so every fold byte reads its last entry
    F = ext_field(2, m)
    ones, top = F.order - 1, 1 << (m - 1)
    assert sum(top << i for i in range(m)) >> m == (1 << (m - 1)) - 1
    rng = random.Random(m)
    pairs = [(ones, ones), (top, ones), (top, top), (ones, 1), (0, ones)]
    pairs += [(rng.getrandbits(m) | top, rng.getrandbits(m)) for _ in range(30)]
    for a, b in pairs:
        assert F.mul(a, b) == F.mul(b, a) == F._mul_basic(a, b), (a, b)


def test_binary_product_exhaustive_small_fields():
    # the q = 2 product the table build multiplies with, on every pair
    for m in range(1, 7):
        F = ExtField(2, m)
        for a, b in itertools.product(F.elements(), repeat=2):
            assert F._mul_poly(a, b) == F._mul_basic(a, b), (m, a, b)


def test_euclid_inverse_exhaustive_small_fields():
    for m in range(1, 11):
        F = ExtField(2, m)
        for a in range(1, F.order):
            inv = F._inv_gf2(a)
            assert 0 < inv < F.order and F._mul_basic(a, inv) == 1, (m, a)


def test_pow_matches_repeated_multiplication():
    F = ext_field(3, 3)
    rng = random.Random(7)
    for _ in range(100):
        a = F.random_element(rng)
        acc = 1
        for e in range(9):
            assert F.pow_(a, e) == acc
            if a:
                assert F.pow_(a, -e) == F.pow_(F.inv(a), e)
            acc = F.mul(acc, a)


def test_fermat_exponent_identity():
    # a^(order) = a in every finite field
    for q, m in [(2, 4), (3, 2), (5, 2)]:
        F = ext_field(q, m)
        for a in range(F.order):
            assert F.pow_(a, F.order) == a


# ---------------------------------------------------------------------------
# Frobenius.


def test_frobenius_is_qth_power():
    for q, m in [(2, 6), (3, 4), (2, 17)]:
        F = ext_field(q, m)
        rng = random.Random(17)
        for _ in range(150):
            a = F.random_element(rng)
            assert F.frobenius(a) == F.pow_(a, q)
            i = rng.randrange(0, 2 * m)
            assert F.frobenius(a, i) == F.pow_(a, q ** (i % m))


@pytest.mark.parametrize("q,m", [(2, 32), (2, 33), (2, 64), (3, 12), (2, 16), (3, 4)])
def test_frobenius_matches_repeated_convolution_powers(q, m):
    # a^(q^i) for every i in 0..2m, by repeated q-th powers of _mul_basic
    F = ext_field(q, m)
    rng = random.Random(q * m)
    for a in [q, F.order - 1] + [F.random_element(rng) for _ in range(3)]:
        power = a
        for i in range(2 * m + 1):
            assert F.frobenius(a, i) == power, (a, i)
            nxt = 1
            for _ in range(q):
                nxt = F._mul_basic(nxt, power)
            power = nxt


def test_frobenius_field_homomorphism():
    F = ext_field(3, 4)
    rng = random.Random(23)
    for _ in range(500):
        a, b = F.random_element(rng), F.random_element(rng)
        i = rng.randrange(0, 4)
        assert F.frobenius(F.add(a, b), i) == F.add(F.frobenius(a, i), F.frobenius(b, i))
        assert F.frobenius(F.mul(a, b), i) == F.mul(F.frobenius(a, i), F.frobenius(b, i))


def test_frobenius_order_m_is_identity():
    for q, m in [(2, 5), (3, 3), (5, 2)]:
        F = ext_field(q, m)
        for a in range(min(F.order, 200)):
            assert F.frobenius(a, m) == a


def test_frobenius_fixes_exactly_base_field():
    F = ext_field(2, 4)
    fixed = [a for a in range(16) if F.frobenius(a) == a]
    assert fixed == [0, 1]


# ---------------------------------------------------------------------------
# Encodings.


def test_digit_roundtrip_and_value_identity():
    F = ext_field(5, 3)
    for a in range(F.order):
        ds = F.digits(a)
        assert len(ds) == 3
        assert F.vec_from_hex([bytes(ds).hex()]) == (a,)
        assert sum(d * 5**i for i, d in enumerate(ds)) == a


def test_bytes_and_hex_roundtrip():
    for q, m in [(2, 8), (3, 5), (251, 2)]:
        F = ext_field(q, m)
        rng = random.Random(q + m)
        for _ in range(200):
            a = F.random_element(rng)
            bs = F.vec_to_bytes((a,))
            assert len(bs) == m
            assert all(b < q for b in bs)
            assert F.vec_from_hex([bs.hex()]) == (a,)
            h = F.to_hex(a)
            assert len(h) == 2 * m
            assert F.vec_from_hex([h]) == (a,)


@pytest.mark.parametrize(
    "q, m, count",
    [(2, 8, None), (3, 5, None), (5, 4, None), (31, 2, None), (37, 2, None),
     (2, 32, 200), (2, 64, 200), (251, 2, 200)],
)
def test_hex_codec_matches_digits(q, m, count):
    # every element of the small fields, random ones of the large; q = 31
    # and q = 37 sit on either side of the largest base int() parses
    F = ext_field(q, m)
    rng = random.Random(q * m)
    elems = F.elements() if count is None else (F.random_element(rng) for _ in range(count))
    elems = list(elems)
    for a in elems:
        h = F.to_hex(a)
        assert h == bytes(F.digits(a)).hex()
        assert F.vec_from_hex([h]) == (a,)
    names = F.vec_to_hex(elems)
    assert names == [F.to_hex(a) for a in elems]
    assert F.vec_from_hex(names) == tuple(elems)
    assert F.vec_to_hex(()) == []


@pytest.mark.parametrize(
    "q, m, text, exc",
    [
        (2, 8, "02" + "00" * 7, MismatchedField),  # digit >= q
        (2, 8, "00" * 7 + "02", MismatchedField),
        (3, 5, "00000003" + "00", MismatchedField),
        (251, 2, "00fb", MismatchedField),
        (2, 8, "00" * 7, LengthMismatch),
        (2, 8, "00" * 9, LengthMismatch),
        (2, 8, "zz" * 8, MismatchedField),  # not hex
        (2, 8, "0" * 15, MismatchedField),  # odd length
        (2, 8, 0, MismatchedField),  # not a string
        (2, 8, b"00" * 8, MismatchedField),
    ],
)
def test_from_hex_rejects_bad_text(q, m, text, exc):
    with pytest.raises(exc):
        ext_field(q, m).vec_from_hex([text])


def test_vector_bytes_concatenation():
    F = ext_field(2, 4)
    vec = (3, 0, 15)
    bs = F.vec_to_bytes(vec)
    assert bs == bytes(F.digits(3)) + bytes(F.digits(0)) + bytes(F.digits(15))
    assert F.vec_from_hex([F.to_hex(a) for a in vec]) == vec


@pytest.mark.parametrize("m", [1, 8, 16, 32, 64])
def test_binary_vector_bytes_match_digit_loop(m):
    # at q = 2 the digit bytes come from the binary string, low bit first
    F = ext_field(2, m)
    rng = random.Random(m)
    vec = (0, F.order - 1, 1, F.order >> 1) + tuple(rng.randrange(F.order) for _ in range(40))
    assert F.vec_to_bytes(vec) == b"".join(bytes(F.digits(a)) for a in vec)
    assert F.vec_to_bytes(()) == b""


def test_element_out_of_range_rejected():
    F = ext_field(2, 3)
    for bad in (-1, 8, 2**40):
        with pytest.raises(MismatchedField):
            F.check(bad)


# ---------------------------------------------------------------------------
# Sampling.

# each q on both sides of the table limit
DRAW_FIELDS = [(2, 8), (3, 5), (5, 3), (7, 3), (13, 2), (251, 2)]
DRAW_FIELDS += [(2, 32), (3, 11), (5, 7), (7, 6), (13, 5), (251, 3)]


@pytest.mark.parametrize("q,m", DRAW_FIELDS, ids=[f"{q}-{m}" for q, m in DRAW_FIELDS])
def test_draws_match_one_randrange_per_digit(q, m):
    # seeded files stay byte-identical only while every draw takes the
    # values and leaves the generator state of randrange(q) per digit
    F = ext_field(q, m)
    for n in range(1, 9):
        got, want = random.Random(n), random.Random(n)
        assert F.random_element(got) == random_element_by_digits(F, want)
        assert got.getstate() == want.getstate()
        vec = F.random_vector(n, got)
        assert vec == tuple(random_element_by_digits(F, want) for _ in range(n))
        assert got.getstate() == want.getstate()
        assert all(0 <= a < F.order for a in vec)


# ---------------------------------------------------------------------------
# F_q linear algebra.


def test_rank_matches_minor_oracle_exhaustive_2x2():
    for q in (2, 3):
        for flat in itertools.product(range(q), repeat=4):
            mat = [list(flat[:2]), list(flat[2:])]
            assert rank_fq(mat, q) == naive_rank(mat, q), (q, mat)


def test_rank_matches_minor_oracle_3x3():
    for flat in itertools.product(range(2), repeat=9):
        mat = [list(flat[i : i + 3]) for i in (0, 3, 6)]
        assert rank_fq(mat, 2) == naive_rank(mat, 2)
    rng = random.Random(5)
    for _ in range(300):
        mat = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        assert rank_fq(mat, 3) == naive_rank(mat, 3)


def test_rank_rectangular_and_known_values():
    assert rank_fq([[0] * 4 for _ in range(3)], 2) == 0
    assert rank_fq([[int(i == j) for j in range(3)] for i in range(3)], 5) == 3
    assert rank_fq([[1, 2], [2, 4], [0, 0]], 5) == 1  # row2 = 2*row1
    assert rank_fq([[1, 2], [2, 4]], 3) == 1  # 4 = 2*2 mod 3 as well


@pytest.mark.parametrize("q", [5, 7, 251])
def test_rank_matches_minor_oracle_larger_q(q):
    rng = random.Random(q)
    for trial in range(200):
        rows, cols = rng.randrange(1, 5), rng.randrange(1, 6)
        if trial % 2:
            mat = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
        else:
            # rows x r times r x cols, rank at most r, entries not reduced
            r = rng.randrange(min(rows, cols) + 1)
            A = [[rng.randrange(q) for _ in range(r)] for _ in range(rows)]
            B = [[rng.randrange(q) for _ in range(cols)] for _ in range(r)]
            mat = [[sum(A[i][k] * B[k][j] for k in range(r)) for j in range(cols)]
                   for i in range(rows)]
        assert rank_fq(mat, q) == naive_rank(mat, q), (q, mat)


@pytest.mark.parametrize("q,m", [(5, 1), (2, 1), (3, 2), (2, 4)])
def test_rref_leaves_caller_rows_unchanged(q, m):
    F = ext_field(q, m)
    rng = random.Random(q + m)
    for _ in range(50):
        rows = [[F.random_element(rng) for _ in range(4)] for _ in range(3)]
        for mat in (rows, [tuple(row) for row in rows]):
            before = [tuple(row) for row in mat]
            row_ids = [id(row) for row in mat]
            _rref_ext(F, mat)
            assert [tuple(row) for row in mat] == before
            assert [id(row) for row in mat] == row_ids


def test_solve_consistent_systems():
    rng = random.Random(11)
    for q in (2, 3, 5):
        for _ in range(150):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            A = [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)]
            x = [rng.randrange(q) for _ in range(cols)]
            b = matvec(A, x, q)
            sol = solve_ext(ext_field(q, 1), A, b)
            assert sol is not None
            assert matvec(A, sol, q) == b
            kernel = kernel_fq(A, q)
            for kv in kernel:
                assert not any(matvec(A, kv, q))
            # kernel dimension complements the rank
            assert len(kernel) == cols - rank_fq(A, q)


def test_solve_detects_inconsistency():
    rng = random.Random(12)
    found = 0
    for _ in range(400):
        rows, cols = rng.randrange(2, 6), rng.randrange(1, 5)
        A = [[rng.randrange(2) for _ in range(cols)] for _ in range(rows)]
        b = [rng.randrange(2) for _ in range(rows)]
        aug = [row + [bi] for row, bi in zip(A, b)]
        consistent = rank_fq(A, 2) == rank_fq(aug, 2)
        sol = solve_ext(ext_field(2, 1), A, b)
        assert (sol is not None) == consistent
        found += not consistent
    assert found > 20  # the sample actually exercised the branch


def test_kernel_spans_the_null_space():
    ker = kernel_fq([[1, 1, 0], [0, 0, 1]], 2)
    assert ker == [(1, 1, 0)]
    assert kernel_ext(ext_field(2, 4), []) == []


def test_element_rank_both_paths_agree():
    for q, m in [(2, 8), (3, 4)]:
        F = ext_field(q, m)
        rng = random.Random(q)
        for _ in range(300):
            elems = [F.random_element(rng) for _ in range(rng.randrange(0, m + 3))]
            # the m x n digit matrix, one column per element, against the
            # minor oracle
            expect = naive_rank(list(zip(*(F.digits(e) for e in elems))), q) if elems else 0
            assert element_rank(F, elems) == expect


@pytest.mark.parametrize("q,width", [(2, 5), (3, 3), (5, 3), (251, 2)])
def test_span_against_minor_oracle(q, width):
    # the ints 0..q**width-1 are the elements of F_{q^width}; an
    # F_q-combination of them does not depend on the modulus
    F = ext_field(q, width)
    digits = lambda x: [x // q**i % q for i in range(width)]
    rng = random.Random(q)
    for trial in range(40):
        elems = [F.random_element(rng) for _ in range(rng.randrange(width + 2))]
        if trial % 2 and elems:
            # zero, a repeat, and a combination of earlier inputs
            elems += [0, elems[0], fq_combination(F, [1, q - 1], elems[-2:])]
            rng.shuffle(elems)
        rows = [digits(x) for x in elems]
        ranks = [naive_rank(rows[:i], q) if i else 0 for i in range(len(elems) + 1)]
        span, grown = FqSpan(q, width), []
        for i, x in enumerate(elems):
            added = span.add(x)
            assert added == (ranks[i + 1] > ranks[i]), (elems, i)
            assert span.rank == ranks[i + 1]
            if added:
                grown.append(x)
        assert FqSpan(q, width, elems).rank == span.rank
        inside = [fq_combination(F, [rng.randrange(q) for _ in elems], elems) for _ in range(5)]
        spanned = [digits(g) for g in grown]
        for x in inside + [F.random_element(rng) for _ in range(5)] + [0] + elems:
            residue = span.reduce(x)
            # membership by the dense elimination, which the rank tests
            # above check against the minor oracle
            assert (residue == 0) == (rank_fq(rows + [digits(x)], q) == span.rank), (elems, x)
            # x - residue lies in the span of the inputs that grew the rank,
            # and the residue is already reduced
            assert rank_fq(spanned + [digits(F.sub(x, residue))], q) == span.rank, (elems, x)
            assert span.reduce(residue) == residue


def test_independence_predicate():
    F = ext_field(2, 4)
    assert is_independent(F, [1, 2, 4, 8])
    assert not is_independent(F, [1, 2, 3])  # 3 = 1 + 2
    assert not is_independent(F, [0])
    assert is_independent(F, [])


def test_rank_distance_metric_properties():
    F = ext_field(2, 6)
    rng = random.Random(3)
    for _ in range(200):
        a = F.random_vector(5, rng)
        b = F.random_vector(5, rng)
        c = F.random_vector(5, rng)
        dab = rank_distance(F, a, b)
        assert dab == rank_distance(F, b, a)
        assert dab >= 0
        assert (dab == 0) == (a == b)
        assert dab <= rank_distance(F, a, c) + rank_distance(F, c, b)


def test_rank_distance_known_values():
    F = ext_field(2, 4)
    assert rank_distance(F, (1, 2), (1, 2)) == 0
    assert rank_distance(F, (1, 0), (0, 0)) == 1
    # difference (1, 2) has two independent coordinates
    assert rank_distance(F, (1, 2), (0, 0)) == 2
    # difference (1, 1) repeats one column: rank 1
    assert rank_distance(F, (1, 1), (0, 0)) == 1


# ---------------------------------------------------------------------------
# Normal elements.


def test_normal_element_small_fields():
    assert find_normal_element(ext_field(2, 1)) == 1
    assert find_normal_element(ext_field(2, 2)) == 2
    assert find_normal_element(ext_field(2, 3)) == 3


def test_normal_element_orbit_spans():
    for q, m in [(2, 6), (3, 4), (5, 3), (2, 11)]:
        F = ext_field(q, m)
        alpha = find_normal_element(F)
        orbit = [F.frobenius(alpha, i) for i in range(m)]
        assert element_rank(F, orbit) == m


def test_normal_element_is_smallest():
    # every smaller element must fail the orbit-rank test
    F = ext_field(2, 4)
    alpha = find_normal_element(F)
    for a in range(alpha):
        orbit = [F.frobenius(a, i) for i in range(4)]
        assert element_rank(F, orbit) < 4


def test_random_element_uniform_coverage():
    F = ext_field(2, 3)
    rng = random.Random(0)
    seen = {F.random_element(rng) for _ in range(400)}
    assert seen == set(range(8))
