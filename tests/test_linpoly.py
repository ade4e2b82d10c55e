"""Twisted linearized polynomials: evaluation, the raw skew-ring ledgers
the decoder composes and divides, interpolation, and induced-map ranks."""

import random

import pytest

from rankfuzz.analysis import restricted_rank
from rankfuzz.errors import (
    BadTwist,
    DependentPoints,
    DependentRestriction,
    DivisionByZeroPoly,
    LengthMismatch,
    MismatchedField,
    TooLarge,
    TwistMismatch,
)
from rankfuzz.fields import element_rank, ext_field, image_lanes, linear_images, solve_ext
from rankfuzz.linpoly import (
    LinearizedPoly,
    _compose_raw,
    _divmod,
    _newton,
    _zip_raw,
    interpolate,
)

from oracles import moore_matrix

F4 = ext_field(2, 2)
F16 = ext_field(2, 4)
F27 = ext_field(3, 3)
F243 = ext_field(3, 5)
OMEGA = 2  # generator digit x in F_4; OMEGA^2 = OMEGA + 1


def rand_poly(field, s, max_deg, rng, nonzero=False):
    while True:
        deg = rng.randrange(0, max_deg + 1)
        coeffs = [field.random_element(rng) for _ in range(deg + 1)]
        p = LinearizedPoly(field, s, coeffs)
        if not nonzero or not p.is_zero:
            return p


# ---------------------------------------------------------------------------
# Construction.


def test_trailing_zero_trim_and_degree():
    p = LinearizedPoly(F16, 1, [3, 0, 0])
    assert p.degree == 0
    assert LinearizedPoly(F16, 1, []).is_zero
    assert LinearizedPoly(F16, 1, [0, 0]).degree == -1
    assert LinearizedPoly(F16, 1, [0, 0, 1]).degree == 2
    assert LinearizedPoly(F16, 1, [1])(7) == 7


def test_twist_validation():
    with pytest.raises(BadTwist):
        LinearizedPoly(F16, 2, [1])  # gcd(2, 4) = 2
    with pytest.raises(BadTwist):
        LinearizedPoly(F16, 0, [1])
    with pytest.raises(BadTwist):
        LinearizedPoly(F16, 4, [1])
    LinearizedPoly(F16, 3, [1])  # gcd(3, 4) = 1: fine


def test_mixed_operand_rejection():
    p = LinearizedPoly(F16, 1, [1])
    q3 = LinearizedPoly(F16, 3, [1])
    other = LinearizedPoly(F4, 1, [1])
    with pytest.raises(TwistMismatch):
        p.divmod_left(q3)
    with pytest.raises(MismatchedField):
        p.divmod_left(other)


def test_immutability():
    p = LinearizedPoly(F16, 1, [1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (0,)


def test_repr_and_hash():
    p = LinearizedPoly(F16, 1, [3, 0, 5])
    assert repr(p) == "LinearizedPoly(s=1, [(0, 01010000), (2, 01000100)])"
    assert repr(LinearizedPoly(F16, 3, [0])) == "LinearizedPoly(s=3, 0)"
    trimmed = LinearizedPoly(F16, 1, [3, 0, 5, 0])
    assert trimmed == p and hash(trimmed) == hash(p)


# ---------------------------------------------------------------------------
# Evaluation.


def test_monomial_evaluation_is_iterated_frobenius():
    rng = random.Random(2)
    for field, s in [(F16, 1), (F16, 3), (F27, 1), (F27, 2)]:
        for _ in range(100):
            a = field.random_element(rng)
            i = rng.randrange(0, 4)
            mono = LinearizedPoly(field, s, [0] * i + [1])
            assert mono(a) == field.frobenius(a, s * i)


def test_evaluation_is_additive_and_scalar_linear():
    rng = random.Random(3)
    for field, s in [(F16, 1), (F27, 2), (F243, 3)]:
        for _ in range(200):
            p = rand_poly(field, s, 3, rng)
            a, b = field.random_element(rng), field.random_element(rng)
            assert p(field.add(a, b)) == field.add(p(a), p(b))
            c = rng.randrange(field.q)  # base-field scalar embeds as a digit
            assert p(field.mul(c, a)) == field.mul(c, p(a))


def test_evaluate_all_matches_pointwise():
    rng = random.Random(4)
    # odd q below and above 2^16 elements: (251,2) and (3,11)
    for field, s in [(F16, 1), (F16, 3), (F27, 1), (F27, 2), (ext_field(5, 2), 1),
                     (ext_field(2, 16), 1), (ext_field(3, 5), 2), (ext_field(251, 2), 1),
                     (ext_field(3, 11), 2)]:
        big = field.order > 1 << 16
        points = rng.sample(range(field.order), 3000) if big else range(field.order)
        for _ in range(20 if field.order < 256 else 3):
            p = rand_poly(field, s, 3, rng)
            table = p.evaluate_all()
            assert len(table) == field.order
            for a in points:
                assert table[a] == p(a)


# both parities, and at odd q both table-backed fields and, past 2^16
# elements, one sampled at 0, 1, the last element and 3,000 more points
IMAGE_FIELDS = [(2, 1), (2, 5), (2, 11), (3, 1), (3, 4), (5, 3), (13, 2), (251, 2), (3, 11)]


@pytest.mark.parametrize("q,m", IMAGE_FIELDS, ids=[f"{q}-{m}" for q, m in IMAGE_FIELDS])
def test_linear_images_match_pointwise(q, m):
    field = ext_field(q, m)
    rng = random.Random(q * 100 + m)
    p = rand_poly(field, 1, min(m, 3) - 1, rng)
    images = linear_images(field, [p(x) for x in field._qpow_m])
    assert type(images) is tuple and len(images) == field.order
    order = field.order
    for a in range(order) if order <= 1 << 16 else [0, 1, order - 1, *rng.sample(range(order), 3000)]:
        assert images[a] == p(a), a
    lanes = image_lanes(field, [p(x) for x in field._qpow_m])
    assert lanes.to_bytes(4 * order, "little") == b"".join(y.to_bytes(4, "little") for y in images)


@pytest.mark.parametrize("q,m", [(2, 21), (3, 13)])
def test_evaluate_all_refuses_fields_past_the_enumeration_limit(q, m):
    with pytest.raises(TooLarge):
        LinearizedPoly(ext_field(q, m), 1, [1]).evaluate_all()


def test_zero_polynomial_evaluates_to_zero():
    z = LinearizedPoly(F16, 1, [])
    assert z(0) == 0 and z(11) == 0
    assert all(v == 0 for v in z.evaluate_all())


# ---------------------------------------------------------------------------
# Ring operations, on the raw ledgers the decoder's Euclid loop runs on.


def compose(p, q):
    """p o q as a polynomial, from the raw ledger _compose_raw gives."""
    return LinearizedPoly(p.field, p.s, _compose_raw(p.field, p.s, p.coeffs, q.coeffs))


def plus(p, q):
    return LinearizedPoly(p.field, p.s, _zip_raw(p.field.add, p.coeffs, q.coeffs))


def basis_images(p):
    """The induced map, as the images of the power basis."""
    return [p(b) for b in p.field._qpow_m]


def test_addition_matches_evaluation():
    rng = random.Random(5)
    for _ in range(200):
        p = rand_poly(F27, 1, 3, rng)
        q = rand_poly(F27, 1, 3, rng)
        a = F27.random_element(rng)
        difference = LinearizedPoly(F27, 1, _zip_raw(F27.sub, p.coeffs, q.coeffs))
        negation = LinearizedPoly(F27, 1, _zip_raw(F27.sub, (), p.coeffs))
        assert plus(p, q)(a) == F27.add(p(a), q(a))
        assert difference(a) == F27.sub(p(a), q(a))
        assert negation(a) == F27.neg(p(a))


def test_compose_agrees_with_chained_evaluation():
    rng = random.Random(6)
    for field, s in [(F16, 1), (F16, 3), (F27, 2), (F243, 2)]:
        for _ in range(150):
            p = rand_poly(field, s, 3, rng)
            q = rand_poly(field, s, 3, rng)
            pq = compose(p, q)
            assert pq == ref_compose(field, s, p.coeffs, q.coeffs)
            for _ in range(5):
                a = field.random_element(rng)
                assert pq(a) == p(q(a))


def test_compose_small_known_cases():
    # scaling by the generator before/after one twist differ by a conjugate
    w_x = LinearizedPoly(F4, 1, [OMEGA])  # a -> w * a
    x_q = LinearizedPoly(F4, 1, [0, 1])  # a -> a^2
    left = compose(w_x, x_q)  # a -> w * a^2
    assert left.coeffs == (0, OMEGA)
    right = compose(x_q, w_x)  # a -> (w a)^2 = w^2 a^2
    w_sq = F4.mul(OMEGA, OMEGA)
    assert right.coeffs == (0, w_sq)
    assert w_sq == OMEGA ^ 1  # w^2 = w + 1 in this representation


def test_compose_raw_degrees_add():
    rng = random.Random(7)
    for _ in range(100):
        p = rand_poly(F16, 1, 4, rng, nonzero=True)
        q = rand_poly(F16, 1, 4, rng, nonzero=True)
        raw = _compose_raw(F16, 1, p.coeffs, q.coeffs)
        assert len(raw) - 1 == p.degree + q.degree and raw[-1]


def test_compose_associative():
    # exact on the raw ledgers, so the induced maps agree too
    rng = random.Random(8)
    for _ in range(80):
        p = rand_poly(F27, 1, 3, rng)
        q = rand_poly(F27, 1, 3, rng)
        r = rand_poly(F27, 1, 3, rng)
        assert compose(p, compose(q, r)) == compose(compose(p, q), r)


def test_compose_distributes_over_addition():
    rng = random.Random(9)
    for _ in range(80):
        p = rand_poly(F16, 3, 3, rng)
        q = rand_poly(F16, 3, 3, rng)
        r = rand_poly(F16, 3, 3, rng)
        assert compose(p, plus(q, r)) == plus(compose(p, q), compose(p, r))
        assert compose(plus(p, q), r) == plus(compose(p, r), compose(q, r))


def test_reduced_preserves_the_induced_map():
    """Folding a raw ledger mod m, as a^(q^m) = a allows, keeps the map:
    evaluation reduces every exponent past m itself."""
    rng = random.Random(10)
    m = F16.m
    for _ in range(60):
        p = rand_poly(F16, 1, 3, rng)
        q = rand_poly(F16, 1, 3, rng)
        raw = compose(p, q)
        folded = [0] * m
        for i, c in enumerate(raw.coeffs):
            folded[i % m] = F16.add(folded[i % m], c)
        assert basis_images(raw) == basis_images(LinearizedPoly(F16, 1, folded))


# ---------------------------------------------------------------------------
# Division: right division by the raw _divmod the Euclid loop calls, left
# division by divmod_left, the decoder's final step.


@pytest.mark.parametrize("field,s", [(F16, 1), (F16, 3), (F27, 1), (F27, 2), (F243, 4)])
def test_right_division_reconstructs(field, s):
    rng = random.Random(100)
    for _ in range(200):
        f = rand_poly(field, s, 5, rng)
        g = rand_poly(field, s, 3, rng, nonzero=True)
        q, r = _divmod(field, s, f.coeffs, g.coeffs, False)
        assert len(r) < len(g.coeffs)
        assert _zip_raw(field.add, _compose_raw(field, s, q, g.coeffs), r) == list(f.coeffs)


@pytest.mark.parametrize("field,s", [(F16, 1), (F16, 3), (F27, 1), (F27, 2), (F243, 4)])
def test_left_division_reconstructs(field, s):
    rng = random.Random(101)
    for _ in range(200):
        f = rand_poly(field, s, 5, rng)
        g = rand_poly(field, s, 3, rng, nonzero=True)
        q, r = f.divmod_left(g)
        assert r.degree < g.degree or r.is_zero
        assert plus(compose(g, q), r) == f


def test_division_by_zero_poly_rejected():
    f = LinearizedPoly(F16, 1, [1, 1])
    z = LinearizedPoly(F16, 1, [])
    with pytest.raises(DivisionByZeroPoly):
        f.divmod_left(z)


def test_division_small_degree_cases():
    rng = random.Random(102)
    for _ in range(50):
        f = rand_poly(F27, 1, 1, rng)
        g = rand_poly(F27, 1, 2, rng, nonzero=True)
        for left in (False, True):
            q, r = _divmod(F27, 1, f.coeffs, g.coeffs, left)
            if g.degree > f.degree:
                assert q == [] and r == list(f.coeffs)


def test_exact_division_roundtrip():
    rng = random.Random(103)
    for _ in range(100):
        g = rand_poly(F16, 1, 3, rng, nonzero=True)
        q = rand_poly(F16, 1, 3, rng, nonzero=True)
        f = compose(q, g)
        assert _divmod(F16, 1, f.coeffs, g.coeffs, False) == (list(q.coeffs), [])
        q3, r3 = compose(g, q).divmod_left(g)
        assert r3.is_zero and q3 == q


# ---------------------------------------------------------------------------
# Moore matrices and interpolation.


def test_moore_matrix_small_case():
    # points 1 and the generator, one twist: second row squares
    mat = moore_matrix(F4, 1, 2, [1, OMEGA])
    assert mat == [[1, OMEGA], [1, F4.mul(OMEGA, OMEGA)]]
    assert mat[1][1] == 3


def test_moore_matrix_entries_are_iterated_frobenius():
    rng = random.Random(11)
    pts = [F243.random_element(rng) for _ in range(4)]
    for s in (1, 2, 3, 4):
        mat = moore_matrix(F243, s, 3, pts)
        for i in range(3):
            for j in range(4):
                assert mat[i][j] == F243.frobenius(pts[j], s * i)


def test_interpolation_recovers_known_maps():
    # scaling map through two independent points
    target = LinearizedPoly(F4, 1, [OMEGA])
    got = interpolate(F4, 1, [1, OMEGA], [target(1), target(OMEGA)])
    assert got == target
    # pure twist map
    target = LinearizedPoly(F4, 1, [0, 1])
    got = interpolate(F4, 1, [1, OMEGA], [target(1), target(OMEGA)])
    assert got == target


def test_interpolation_roundtrip_random():
    rng = random.Random(12)
    for field, s in [(F16, 1), (F16, 3), (F27, 2), (F243, 3)]:
        for _ in range(100):
            n = rng.randrange(1, field.m + 1)
            while True:
                pts = [field.random_element(rng) for _ in range(n)]
                if element_rank(field, pts) == n:
                    break
            p = rand_poly(field, s, n - 1, rng)
            got = interpolate(field, s, pts, [p(x) for x in pts])
            for x in pts:
                assert got(x) == p(x)
            assert got.degree < n or got.is_zero
            # agreement on the whole span, not only the nodes
            for _ in range(3):
                coeffs = [rng.randrange(field.q) for _ in range(n)]
                span_pt = 0
                for c, x in zip(coeffs, pts):
                    span_pt = field.add(span_pt, field.mul(c, x))
                assert got(span_pt) == p(span_pt)


def test_interpolation_unique_at_full_degree():
    rng = random.Random(13)
    for _ in range(50):
        pts = []
        while element_rank(F16, pts) != 4:
            pts = [F16.random_element(rng) for _ in range(4)]
        p = rand_poly(F16, 1, 3, rng)
        assert interpolate(F16, 1, pts, [p(x) for x in pts]) == p


def test_interpolation_rejects_dependent_points():
    with pytest.raises(DependentPoints):
        interpolate(F16, 1, [1, 2, 3], [1, 2, 3])  # 3 = 1 + 2
    with pytest.raises(DependentPoints):
        interpolate(F16, 1, [0], [0])
    with pytest.raises(LengthMismatch):
        interpolate(F16, 1, [1, 2], [1])


def moore_interpolate(field, s, xs, ys):
    """Interpolation oracle: solve the n x n Moore system
    sum_j f_j * x_i^(q^(s*j)) = y_i."""
    rows = [list(r) for r in zip(*moore_matrix(field, s, len(xs), xs))]
    return LinearizedPoly(field, s, solve_ext(field, rows, ys))


# every twist coprime to m, at q = 2, 3 and 5
NEWTON_CASES = [
    (field, s)
    for field, twists in [
        (ext_field(2, 8), (1, 3, 5, 7)),
        (F243, (1, 2, 3, 4)),
        (ext_field(5, 4), (1, 3)),
    ]
    for s in twists
]


@pytest.mark.parametrize("field,s", NEWTON_CASES)
def test_newton_interpolation_matches_moore_solve(field, s):
    """For every n up to n = m, the Newton interpolant is the
    Moore-matrix solution, and the subspace polynomial is monic of
    degree n and vanishes on the points."""
    rng = random.Random(14 + 10 * field.q + s)
    for n in range(1, field.m + 1):
        for _ in range(6):
            while True:
                xs = [field.random_element(rng) for _ in range(n)]
                if element_rank(field, xs) == n:
                    break
            ys = [field.random_element(rng) for _ in range(n)]
            got = interpolate(field, s, xs, ys)
            assert got == moore_interpolate(field, s, xs, ys)
            assert got.degree < n
            _, subspace = _newton(field, s, xs, ys)
            sub = LinearizedPoly(field, s, subspace)
            assert sub.degree == n and sub.coeffs[-1] == 1
            assert all(sub(x) == 0 for x in xs)


@pytest.mark.parametrize("field,s", NEWTON_CASES)
def test_newton_interpolation_rejects_dependent_points(field, s):
    rng = random.Random(15 + 10 * field.q + s)
    while True:
        a, b, c = field.random_vector(3, rng)
        if element_rank(field, [a, b, c]) == 3:
            break
    dependent = [
        [a, 0, b],  # a zero point
        [a, b, c, field.add(a, b)],  # the sum of two earlier points
        [b, a, field.mul(field.q - 1, a)],  # an F_q multiple of an earlier point
        list(field._qpow_m) + [c],  # m + 1 points
    ]
    for xs in dependent:
        with pytest.raises(DependentPoints):
            interpolate(field, s, xs, field.random_vector(len(xs), rng))


# ---------------------------------------------------------------------------
# Evaluation, composition, division and Newton interpolation against
# references written from the definitions, with pointwise field.mul and
# field.frobenius.  Table-backed fields run twist_mul's lookup and
# Newton's log form; (2,17) and (3,11) lie above the table limit, where
# twist_mul and Newton call mul and frobenius.

LOG_FORM_CASES = [
    pytest.param(ext_field(q, m), s, id=f"q{q}-m{m}-s{s}")
    for q, m, twists in [
        (2, 1, (1,)),
        (2, 4, (1, 3)),
        (2, 8, (1, 3, 5, 7)),
        (2, 16, (1, 3)),
        (3, 4, (1, 3)),
        (3, 5, (2,)),
        (5, 4, (1,)),
        (7, 3, (1,)),
        (2, 17, (1, 3)),
        (3, 11, (2,)),
    ]
    for s in twists
]


def ref_eval(field, s, coeffs, a):
    acc = 0
    for i, c in enumerate(coeffs):
        acc = field.add(acc, field.mul(c, field.frobenius(a, s * i)))
    return acc


def ref_compose(field, s, f, g):
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] = field.add(out[i + j], field.mul(fi, field.frobenius(gj, s * i)))
    return LinearizedPoly(field, s, out)


def sparse_ledger(field, length, rng):
    """A ledger of the given length, about a third of it zeros."""
    return [field.random_element(rng) if rng.randrange(3) else 0 for _ in range(length)]


@pytest.mark.parametrize("field,s", LOG_FORM_CASES)
def test_log_form_matches_pointwise_reference(field, s):
    rng = random.Random(f"log-form:{field.q}:{field.m}:{s}")
    m = field.m
    for _ in range(12):
        f = LinearizedPoly(field, s, sparse_ledger(field, rng.randrange(2 * m + 3), rng))
        g = LinearizedPoly(field, s, sparse_ledger(field, rng.randrange(1, m + 3), rng))
        for a in [0, 1, *field.random_vector(3, rng)]:
            assert f(a) == ref_eval(field, s, f.coeffs, a)
        assert compose(f, g) == ref_compose(field, s, f.coeffs, g.coeffs)
        if g.is_zero:
            continue
        raw = _divmod(field, s, f.coeffs, g.coeffs, False)
        quotient, remainder = (LinearizedPoly(field, s, c) for c in raw)
        assert remainder.degree < g.degree
        assert plus(ref_compose(field, s, quotient.coeffs, g.coeffs), remainder) == f
        quotient, remainder = f.divmod_left(g)
        assert remainder.degree < g.degree
        assert plus(ref_compose(field, s, g.coeffs, quotient.coeffs), remainder) == f


@pytest.mark.parametrize("field,s", LOG_FORM_CASES)
def test_newton_log_form_matches_pointwise_reference(field, s):
    """P of degree < n through n independent points, and the monic M of
    degree n vanishing on them, are unique, so the defining equations
    pin both outputs of _newton.  Values from a ledger shorter than n
    make the Newton step add zero at the later points."""
    rng = random.Random(f"newton-log-form:{field.q}:{field.m}:{s}")
    for n in range(1, field.m + 1):
        while True:
            xs = field.random_vector(n, rng)
            if element_rank(field, xs) == n:
                break
        short = sparse_ledger(field, rng.randrange(n + 1), rng)
        for ys in (sparse_ledger(field, n, rng), [ref_eval(field, s, short, x) for x in xs]):
            p, mm = _newton(field, s, xs, ys)
            assert len(p) == n and len(mm) == n + 1 and mm[-1] == 1
            assert [ref_eval(field, s, p, x) for x in xs] == list(ys)
            assert [ref_eval(field, s, mm, x) for x in xs] == [0] * n
    # a zero point, and a point in the span of the earlier ones
    a, b = xs[0], xs[-1]
    for dependent in ([0], [a, 0], [a, b, field.add(a, b)][: field.m + 1]):
        with pytest.raises(DependentPoints):
            _newton(field, s, dependent, [1] * len(dependent))


# ---------------------------------------------------------------------------
# Induced-map rank.


def test_map_rank_matches_image_dimension():
    rng = random.Random(14)
    for field, s in [(F16, 1), (F27, 1), (F27, 2)]:
        basis = [field.q**i for i in range(field.m)]
        for _ in range(100):
            p = rand_poly(field, s, field.m - 1, rng)
            images = [p(b) for b in basis]
            assert p.map_rank() == element_rank(field, images)


def test_map_rank_kernel_size_consistency():
    rng = random.Random(15)
    for _ in range(40):
        p = rand_poly(F16, 1, 3, rng)
        r = p.map_rank()
        zeros = sum(1 for v in p.evaluate_all() if v == 0)
        assert zeros == 2 ** (4 - r)


def test_map_rank_with_restriction():
    rng = random.Random(16)
    p = LinearizedPoly(F16, 1, [F16.neg(1), 1])
    # kernel of a - a^2 is the base field, so rank is m - 1
    assert p.map_rank() == 3
    # restricted to a basis containing 1, one direction collapses
    assert restricted_rank(F16, p, [1, 2]) == 1
    with pytest.raises(DependentRestriction):
        restricted_rank(F16, p, [1, 2, 3])


def test_trace_map_has_rank_one():
    # sum of all conjugates lands in the base field
    trace = LinearizedPoly(F16, 1, [1, 1, 1, 1])
    assert trace.map_rank() == 1
    for a in range(16):
        assert trace(a) in (0, 1)
