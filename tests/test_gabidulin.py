"""Evaluation codes in the rank metric: bounds, encoding, decoding."""

import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from rankfuzz.analysis import sample_feature_set, trial_rng
from rankfuzz.errors import (
    BadDimensions,
    BadRange,
    DecodingFailure,
    DependentPoints,
    LengthMismatch,
)
from rankfuzz.fields import element_rank, ext_field, kernel_ext, rank_distance
from rankfuzz.gabidulin import GabidulinCode, random_rank_error
from rankfuzz.linpoly import LinearizedPoly

from oracles import min_distance_exhaustive, moore_matrix, rank_r_words, singleton_bound

F16 = ext_field(2, 4)
F256 = ext_field(2, 8)
F243 = ext_field(3, 5)


def basis_points(field, n):
    return tuple(field.q**i for i in range(n))


def all_codewords(code):
    coords = itertools.product(range(code.field.order), repeat=code.k)
    for msg in coords:
        yield code.encode(msg)


# ---------------------------------------------------------------------------
# Construction and bounds.


def test_parameter_validation():
    with pytest.raises(BadDimensions):
        GabidulinCode(F16, 5, 2, 1, (1, 2, 4, 8, 3))  # n > m
    with pytest.raises(BadDimensions):
        GabidulinCode(F16, 3, 0, 1, basis_points(F16, 3))
    with pytest.raises(BadDimensions):
        GabidulinCode(F16, 3, 4, 1, basis_points(F16, 3))  # k > n
    with pytest.raises(LengthMismatch):
        GabidulinCode(F16, 3, 1, 1, basis_points(F16, 4))
    with pytest.raises(DependentPoints):
        GabidulinCode(F16, 3, 1, 1, (1, 2, 3))


def test_tolerated_rank():
    assert GabidulinCode(F256, 8, 4, 1, basis_points(F256, 8)).t == 2
    assert GabidulinCode(F16, 4, 1, 1, basis_points(F16, 4)).t == 1
    assert GabidulinCode(F16, 4, 4, 1, basis_points(F16, 4)).t == 0


def test_singleton_bound_values():
    # short side dominates one way, tall side the other
    assert singleton_bound(2, 4, 4, 3) == 2**8
    assert singleton_bound(2, 4, 4, 1) == 2**16
    assert singleton_bound(2, 6, 3, 2) == min(2 ** (6 * 2), 2 ** (3 * 5))
    # wide matrix shapes are fine: the bound is transpose symmetric
    assert singleton_bound(2, 3, 4, 1) == singleton_bound(2, 4, 3, 1)


def test_generator_matrix_rows_are_twisted_powers():
    # encode is the message times the Moore matrix of the points, whose
    # entries test_linpoly checks against iterated Frobenius
    rng = random.Random(0)
    pts = basis_points(F243, 4)
    code = GabidulinCode(F243, 4, 3, 2, pts)
    G = moore_matrix(F243, 2, 3, pts)
    for _ in range(20):
        msg = F243.random_vector(3, rng)
        want = [0] * 4
        for c, row in zip(msg, G):
            want = [F243.add(w, F243.mul(c, x)) for w, x in zip(want, row)]
        assert code.encode(msg) == tuple(want)


def test_encode_small_case():
    # one-coefficient message scales the evaluation points
    w = 2
    code = GabidulinCode(ext_field(2, 2), 2, 1, 1, (1, w))
    cw = code.encode((w,))
    F4 = ext_field(2, 2)
    assert cw == (w, F4.mul(w, w))
    assert cw == (2, 3)


def test_encode_is_linear():
    rng = random.Random(1)
    code = GabidulinCode(F256, 6, 3, 1, basis_points(F256, 6))
    for _ in range(100):
        m1 = F256.random_vector(3, rng)
        m2 = F256.random_vector(3, rng)
        sum_msg = tuple(F256.add(a, b) for a, b in zip(m1, m2))
        summed = tuple(
            F256.add(a, b) for a, b in zip(code.encode(m1), code.encode(m2))
        )
        assert code.encode(sum_msg) == summed


def test_codeword_is_polynomial_evaluation():
    rng = random.Random(2)
    code = GabidulinCode(F243, 5, 2, 3, basis_points(F243, 5))
    for _ in range(50):
        msg = F243.random_vector(2, rng)
        p = LinearizedPoly(F243, 3, msg)
        assert code.encode(msg) == tuple(p(x) for x in code.points)


# ---------------------------------------------------------------------------
# Distance properties (exhaustive at toy scale).


@pytest.mark.parametrize("k", [1, 2, 3])
def test_minimum_distance_meets_design(k):
    code = GabidulinCode(F16, 4, k, 1, basis_points(F16, 4))
    assert min_distance_exhaustive(code) == 4 - k + 1


def test_cardinality_meets_singleton_with_equality():
    for k in (1, 2, 3):
        d = 4 - k + 1
        assert 2 ** (4 * k) == singleton_bound(2, 4, 4, d)


def test_nonzero_codewords_have_min_rank():
    code = GabidulinCode(F16, 4, 2, 3, basis_points(F16, 4))
    seen = set()
    for cw in all_codewords(code):
        r = element_rank(F16, list(cw))
        seen.add(r)
        assert cw == (0, 0, 0, 0) or r >= 3
    assert 3 in seen and 4 in seen


# ---------------------------------------------------------------------------
# Error sampling.


def test_random_rank_error_exact_rank():
    rng = random.Random(3)
    for field, n in [(F256, 8), (F243, 5), (F16, 3)]:
        for target in range(0, min(field.m, n) + 1):
            for _ in range(20):
                e = random_rank_error(field, n, target, rng)
                assert len(e) == n
                assert element_rank(field, list(e)) == target


def test_random_rank_error_bad_rank():
    rng = random.Random(4)
    with pytest.raises(BadRange):
        random_rank_error(F16, 3, 4, rng)  # rank > n
    with pytest.raises(BadRange):
        random_rank_error(F16, 4, -1, rng)
    with pytest.raises(BadRange):
        random_rank_error(ext_field(2, 2), 2, 3, rng)  # rank > m


# ---------------------------------------------------------------------------
# Decoding.


def add_vec(field, a, b):
    return tuple(field.add(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize(
    "q,m,n,k,s",
    [
        (2, 8, 8, 4, 1),
        (2, 8, 8, 4, 3),
        (2, 6, 5, 1, 1),
        (3, 5, 5, 1, 2),
        (3, 5, 4, 2, 1),
        (5, 4, 4, 2, 3),
    ],
)
def test_decode_roundtrip_within_radius(q, m, n, k, s):
    field = ext_field(q, m)
    rng = random.Random(1000 * q + 10 * n + k)
    for trial in range(60):
        while True:
            pts = field.random_vector(n, rng)
            if element_rank(field, list(pts)) == n:
                break
        code = GabidulinCode(field, n, k, s, pts)
        msg = field.random_vector(k, rng)
        e = rng.randrange(code.t + 1)
        err = random_rank_error(field, n, e, rng)
        got, got_rank, _ = code.decode(add_vec(field, code.encode(msg), err))
        assert got == msg
        assert got_rank == e


def test_decode_clean_word_any_shape():
    rng = random.Random(5)
    for n, k in [(1, 1), (2, 1), (3, 3), (8, 7)]:
        code = GabidulinCode(F256, n, k, 1, basis_points(F256, n))
        msg = F256.random_vector(k, rng)
        got, r, _ = code.decode(code.encode(msg))
        assert got == msg and r == 0


def test_decode_failure_when_no_codeword_close():
    """Exhaustive oracle: any word at rank distance > t from every
    codeword must raise instead of returning something."""
    code = GabidulinCode(F16, 4, 2, 1, basis_points(F16, 4))  # t = 1
    rng = random.Random(6)
    words = list(all_codewords(code))
    tried = 0
    while tried < 25:
        w = F16.random_vector(4, rng)
        nearest = min(rank_distance(F16, w, cw) for cw in words)
        if nearest <= code.t:
            continue
        tried += 1
        with pytest.raises(DecodingFailure):
            code.decode(w)


def test_decode_never_returns_wrong_message_within_radius():
    # whenever decode succeeds the output codeword is within t of input
    code = GabidulinCode(F16, 4, 2, 1, basis_points(F16, 4))
    rng = random.Random(7)
    successes = 0
    for _ in range(300):
        w = F16.random_vector(4, rng)
        try:
            msg, r, cw = code.decode(w)
        except DecodingFailure:
            continue
        successes += 1
        assert cw == code.encode(msg)
        assert rank_distance(F16, w, cw) == r
        assert r <= code.t
    assert successes > 10


def test_decode_validates_length():
    code = GabidulinCode(F16, 4, 2, 1, basis_points(F16, 4))
    with pytest.raises(LengthMismatch):
        code.decode((0, 0, 0))


def test_decode_all_twists_agree_on_clean_words():
    rng = random.Random(8)
    for s in (1, 2, 3, 4):
        code = GabidulinCode(F243, 5, 3, s, basis_points(F243, 5))
        msg = F243.random_vector(3, rng)
        got, r, _ = code.decode(code.encode(msg))
        assert got == msg and r == 0


def kernel_decode(code, received):
    """Dense reconstruction decoder, the oracle for decode: a kernel
    vector (L, V) with deg L <= t, deg V <= t + k - 1 and
    L(received_i) = V(points_i), then the exact left division V = L o f.
    Returns (message, rank, codeword), or None where it refuses."""
    field, t, k, s = code.field, code.t, code.k, code.s
    lam = moore_matrix(field, s, t + 1, received)
    val = moore_matrix(field, s, t + k, code.points)
    rows = [[r[i] for r in lam] + [field.neg(r[i]) for r in val] for i in range(code.n)]
    kernel = kernel_ext(field, rows)
    if not kernel:
        return None
    locator = LinearizedPoly(field, s, kernel[0][: t + 1])
    values = LinearizedPoly(field, s, kernel[0][t + 1 :])
    if locator.is_zero:
        return None
    quotient, remainder = values.divmod_left(locator)
    if not remainder.is_zero or quotient.degree >= k:
        return None
    message = quotient.coeffs + (0,) * (k - len(quotient.coeffs))
    codeword = code.encode(message)
    err = rank_distance(field, received, codeword)
    return None if err > t else (message, err, codeword)


@pytest.mark.parametrize(
    "q,m,n,k,s",
    [
        (2, 8, 8, 4, 1),
        (2, 8, 8, 3, 5),
        (2, 8, 6, 2, 3),
        (2, 7, 7, 3, 2),
        (3, 5, 5, 1, 2),
        (3, 5, 5, 2, 4),
        (3, 4, 3, 1, 3),
        (5, 4, 4, 2, 3),
    ],
)
def test_decode_matches_kernel_decoder(q, m, n, k, s):
    """Same (message, rank) as the dense decoder, or a refusal from both,
    on words at random ranks up to min(n, m) and on uniform words."""
    field = ext_field(q, m)
    rng = random.Random(2000 * q + 10 * n + k)
    for trial in range(40):
        while True:
            pts = field.random_vector(n, rng)
            if element_rank(field, list(pts)) == n:
                break
        code = GabidulinCode(field, n, k, s, pts)
        if trial % 5 == 0:
            word = field.random_vector(n, rng)
        else:
            err = random_rank_error(field, n, rng.randrange(min(n, m) + 1), rng)
            word = add_vec(field, code.encode(field.random_vector(k, rng)), err)
        try:
            got = code.decode(word)
        except DecodingFailure:
            got = None
        assert got == kernel_decode(code, word)


def test_decoding_failure_names_its_check():
    code = GabidulinCode(F256, 8, 4, 1, basis_points(F256, 8))
    rng = random.Random(9)
    failures = 0
    for _ in range(200):
        err = random_rank_error(F256, 8, rng.randrange(code.t + 1, 9), rng)
        word = add_vec(F256, code.encode(F256.random_vector(4, rng)), err)
        try:
            code.decode(word)
        except DecodingFailure as exc:
            failures += 1
            assert exc.check in {"remainder", "quotient_degree", "rank"}
            assert exc.stop_degree < (code.n + code.k + 1) // 2
            if exc.check == "quotient_degree":
                assert exc.quotient_degree >= code.k
            if exc.check == "rank":
                assert exc.rank > exc.t == code.t
    assert failures > 150


# (q, m, n, k) -> refusals by check: (remainder, quotient_degree)
BALL_REFUSALS = {(2, 3, 3, 1): (56, 56), (2, 4, 3, 1): (2160, 240), (3, 3, 3, 1): (9828, 702)}


@pytest.mark.parametrize("shape", sorted(BALL_REFUSALS), ids=lambda s: "-".join(map(str, s)))
def test_decoder_ball_is_exact_on_every_word(shape):
    # a bounded-distance decoder decodes exactly the q^(mk) * N_r words at
    # each error rank r <= t, at the right rank, and refuses all others,
    # none of them by the rank check
    q, m, n, k = shape
    F = ext_field(q, m)
    code = GabidulinCode(F, n, k, 1, sample_feature_set(F, n, trial_rng(1, 0)).elems)
    decoded, refused = Counter(), Counter()
    for word in itertools.product(range(F.order), repeat=n):
        try:
            message, rank, _ = code.decode(word)
        except DecodingFailure as exc:
            refused[exc.check] += 1
            continue
        assert rank == rank_distance(F, word, code.encode(message)), word
        decoded[rank] += 1
    assert decoded == {r: F.order**k * rank_r_words(q, m, n, r) for r in range(code.t + 1)}
    assert refused == dict(zip(("remainder", "quotient_degree"), BALL_REFUSALS[shape]))


# (q, m, n, k, s) -> SHA-256 of the decode outcomes on seeded words at
# ranks 0..t+2, pinned from the dense-call decoder so that a change to
# the arithmetic kernels cannot move any outcome unnoticed
GOLDEN_DECODES = {
    (2, 8, 7, 2, 1): (
        "43c5ecc3992b54ca0736f02871484add"
        "87fe65f267633aba810bc419896e99c6"
    ),
    (2, 16, 16, 6, 3): (
        "3f475eb0ecfd6c13d965d0a5b1996172"
        "3fde48e67f507215f195f5690dc47f41"
    ),
    (3, 5, 5, 1, 2): (
        "cd95970e8fa79899521fbad156e60fa8"
        "fc396b015de2065c96d4df0efdba7632"
    ),
    (5, 4, 4, 2, 1): (
        "9d5f047e6f9f8883809b33bd7a8da897"
        "5faa89bc541f1c22ce862e79202182ef"
    ),
}


def decode_outcomes_digest(q, m, n, k, s, words_per_rank=25):
    field = ext_field(q, m)
    rng = random.Random(f"golden-decode:{q}:{m}:{n}:{k}:{s}")
    while True:
        pts = field.random_vector(n, rng)
        if element_rank(field, list(pts)) == n:
            break
    code = GabidulinCode(field, n, k, s, pts)
    outcomes = []
    for rank in range(code.t + 3):
        for _ in range(words_per_rank):
            err = random_rank_error(field, n, rank, rng)
            word = add_vec(field, code.encode(field.random_vector(k, rng)), err)
            try:
                message, got, _ = code.decode(word)
            except DecodingFailure as exc:
                outcomes.append([exc.check, exc.stop_degree, exc.quotient_degree, exc.rank, exc.t])
            else:
                outcomes.append(["ok", list(message), got])
    return hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()


@pytest.mark.parametrize("shape", sorted(GOLDEN_DECODES))
def test_decode_outcomes_match_golden_digest(shape):
    assert decode_outcomes_digest(*shape) == GOLDEN_DECODES[shape]
