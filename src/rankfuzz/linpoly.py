"""Twisted linearized polynomials over F_{q^m}.

A polynomial here is a coefficient list (f_0, f_1, ..., f_d) standing for
the map a |-> sum_i f_i * a^(q^(s*i)), where the twist s satisfies
gcd(s, m) = 1.  These maps are F_q-linear, and under composition they
form a non-commutative ring.

Coefficient lists may be longer than m: the decoder's compositions and
divisions run on the raw ledgers of the skew ring and never fold a
ledger back below degree m.  Evaluation reduces exponents (a^(q^m) = a
for every field element), so a raw ledger and its fold mod m induce the
same map.

Every term is a coefficient times a Frobenius power, c * x^(q^(s*i)),
and composition and division compute it with the field's twist_mul: one
exp/log lookup in a table-backed field (q^m <= 2^16), a multiply and a
Frobenius above.  Batch evaluation (encode, the vault's images,
evaluate_all, map_rank) goes through _eval_raw, which reads each
coefficient's log once per call in a table-backed field and calls mul
and frobenius with no twist_mul frame above the limit; the one-point
__call__ keeps twist_mul.  Newton interpolation keeps two bodies: in a
table-backed field it reads the log tables (field._logs) itself,
reusing one log per point over all its terms, and above the limit it
reuses each point's Frobenius powers over both its sums and keeps M's
ledger below its implicit leading 1, so no product is by 0 or 1.  The
decoder's Euclid loop uses the raw-ledger functions below directly,
with no LinearizedPoly per step.  evaluate_all takes the image of every
element from fields.linear_images, given the images of the basis.
"""

from __future__ import annotations

from functools import reduce
from itertools import repeat, starmap, zip_longest
from math import gcd

from .errors import (
    BadTwist,
    DependentPoints,
    DivisionByZeroPoly,
    LengthMismatch,
    MismatchedField,
    TooLarge,
    TwistMismatch,
)
from .fields import ExtField, _trim, element_rank, linear_images

_EVAL_ALL_LIMIT = 1 << 20


def _check_twist(m: int, s: int) -> int:
    if m == 1:
        if type(s) is not int or s != 1:
            raise BadTwist(f"m = 1 requires s = 1, got {s!r}")
        return s
    if type(s) is not int or s < 1 or s >= m or gcd(s, m) != 1:
        raise BadTwist(f"s must satisfy 1 <= s < {m} and gcd(s, m) = 1, got {s!r}")
    return s


def _zip_raw(op, a, b) -> list[int]:
    """op coefficient by coefficient on two ledgers, the shorter padded
    with zeros, trailing zeros trimmed."""
    return _trim(list(starmap(op, zip_longest(a, b, fillvalue=0))))


def _compose_raw(field: ExtField, s: int, f, g) -> list[int]:
    """Raw ledger of f o g: coefficient k is the sum over i + j = k of
    f_i * g_j^(q^(s*i))."""
    if not f or not g:
        return []
    add, tm = field.add, field.twist_mul
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            terms = map(tm, repeat(fi), g, repeat(s * i))
            out[i : i + len(g)] = map(add, out[i : i + len(g)], terms)
    return out


def _eval_raw(field: ExtField, s: int, coeffs, xs) -> list[int]:
    """Values at each x of xs of the ledger coeffs: the sum over nonzero
    c_i of c_i * x^(q^(s*i)), and 0 at x = 0.  A table-backed field reads
    each coefficient's log once per call; above the limit each term is
    mul(c_i, frobenius(x, s*i)), read from the field at call time."""
    add = field.add
    logs = field._logs
    if logs:
        exp, log, n, fe = logs
        m = field.m
        terms = [(log[c], fe[s * i % m]) for i, c in enumerate(coeffs) if c]
        out = []
        for x in xs:
            lx = log[x]
            out.append(reduce(add, [exp[(lc + lx * t) % n] for lc, t in terms], 0) if x else 0)
        return out
    mul, frob = field.mul, field.frobenius
    terms = [(c, s * i) for i, c in enumerate(coeffs) if c]
    return [reduce(add, [mul(c, frob(x, e)) for c, e in terms], 0) if x else 0 for x in xs]


def _divmod(field: ExtField, s: int, f, g, left: bool) -> tuple[list[int], list[int]]:
    """Trimmed raw ledgers (quotient, remainder) of f by the nonzero g,
    with f = quotient o g + remainder (left=False) or f = g o quotient +
    remainder (left=True), and remainder of lower degree than g.  Each
    step cancels the leading coefficient of the remainder exactly and
    pops it."""
    sub, tm = field.sub, field.twist_mul
    dg = len(g) - 1
    r = list(f)
    qq = [0] * max(len(r) - dg, 0)
    ig = field.inv(g[-1])
    back = field.frobenius(ig, -s * dg)  # (1 / g_dg)^(q^(-s*dg))
    # the leading term cancels exactly, so only g_0..g_(dg-1) are applied
    low = g[:dg]
    while len(r) > dg:
        top = r.pop()
        if not top:
            continue
        c = len(r) - dg
        if left:
            # leading term of g o (qc x^[s c]) is g_dg * qc^(q^(s*dg))
            qc = tm(back, top, -s * dg)
            terms = map(tm, low, repeat(qc), range(0, s * dg, s))
        else:
            # leading term of (qc x^[s c]) o g is qc * g_dg^(q^(s*c))
            qc = tm(top, ig, s * c)
            terms = map(tm, repeat(qc), low, repeat(s * c))
        r[c:] = map(sub, r[c:], terms)
        qq[c] = qc
    return _trim(qq), _trim(r)


class LinearizedPoly:
    """Immutable twisted linearized polynomial."""

    __slots__ = ("field", "s", "coeffs")

    def __init__(self, field: ExtField, s: int, coeffs=()):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "s", _check_twist(field.m, s))
        object.__setattr__(self, "coeffs", tuple(_trim([field.check(c) for c in coeffs])))

    def __setattr__(self, name, value):
        raise AttributeError("LinearizedPoly is immutable")

    # -- basics -------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Index of the last nonzero coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, LinearizedPoly)
            and self.field is other.field
            and self.s == other.s
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.field), self.s, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return f"LinearizedPoly(s={self.s}, 0)"
        names = self.field.vec_to_hex(self.coeffs)
        terms = ", ".join(f"({i}, {h})" for i, (c, h) in enumerate(zip(self.coeffs, names)) if c)
        return f"LinearizedPoly(s={self.s}, [{terms}])"

    def _check_pair(self, other: "LinearizedPoly"):
        if not isinstance(other, LinearizedPoly) or other.field is not self.field:
            raise MismatchedField("polynomials belong to different fields")
        if other.s != self.s:
            raise TwistMismatch(f"twists differ: {self.s} vs {other.s}")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, a: int) -> int:
        field, s = self.field, self.s
        cs = self.coeffs
        return reduce(field.add, map(field.twist_mul, cs, repeat(a), range(0, s * len(cs), s)), 0)

    def evaluate_all(self) -> list[int]:
        """Images of every field element, indexed by element, computed
        through F_q-linearity from the images of the polynomial basis by
        fields.linear_images."""
        field = self.field
        if field.order > _EVAL_ALL_LIMIT:
            raise TooLarge(f"field too large to enumerate ({field.order} elements)")
        return linear_images(field, _eval_raw(field, self.s, self.coeffs, field._qpow_m)).tolist()

    # -- division -----------------------------------------------------------

    def divmod_left(self, g: "LinearizedPoly"):
        """(quotient, remainder) with self = g o quotient + remainder and
        remainder of lower degree than g, on raw ledgers."""
        self._check_pair(g)
        if g.is_zero:
            raise DivisionByZeroPoly("division by the zero polynomial")
        field, s = self.field, self.s
        quotient, remainder = _divmod(field, s, self.coeffs, g.coeffs, True)
        return LinearizedPoly(field, s, quotient), LinearizedPoly(field, s, remainder)

    # -- rank ---------------------------------------------------------------

    def map_rank(self) -> int:
        """Rank over F_q of the induced linear map."""
        field = self.field
        return element_rank(field, _eval_raw(field, self.s, self.coeffs, field._qpow_m))


def _newton(field: ExtField, s: int, xs, ys) -> tuple[list[int], list[int]]:
    """Newton interpolation: coefficient lists of P, of degree < len(xs)
    with P(x_i) = y_i, and of M, the monic subspace polynomial of degree
    len(xs) vanishing on the span of the xs, as a raw ledger.

    After point i, P matches the points so far and M vanishes on them;
    the next point adds (y - P(x)) / M(x) times M to P and composes
    x^[s] - M(x)^(q^s - 1) x onto M.  A point in the span of the earlier
    ones is a root of M, so M(x) = 0 is exactly a dependent point."""
    add, sub = field.add, field.sub
    sm = s % field.m
    p: list[int] = []
    mm = [1]
    logs = field._logs
    if logs:
        exp, log, n, fe = logs
        fs = fe[sm]
        # tw[j] = q^(s*j) mod n: x^(q^(s*j)) = exp[log[x] * tw[j] % n]
        tw = [fe[sm * j % field.m] for j in range(len(xs) + 1)]
        for x, y in zip(xs, ys):
            lx = log[x]
            c = reduce(add, [exp[(log[mj] + lx * t) % n] for mj, t in zip(mm, tw) if mj], 0)
            if c == 0 or x == 0:  # zero has no log, so c means nothing there
                raise DependentPoints("interpolation points are dependent over F_q")
            px = reduce(add, [exp[(log[pj] + lx * t) % n] for pj, t in zip(p, tw) if pj], 0)
            lc = log[c]
            d = sub(y, px)
            if d:
                ld = log[d] - lc
                p = [add(pj, exp[(ld + log[mj]) % n]) if mj else pj for pj, mj in zip(p + [0], mm)]
            else:
                p.append(0)
            la = lc * (fs - 1)  # c^(q^s - 1)
            mm = [
                sub(exp[log[u] * fs % n] if u else 0, exp[(la + log[v]) % n] if v else 0)
                for u, v in zip([0] + mm, mm + [0])
            ]
        return p, mm
    # above the limit M is kept as low, its ledger below the implicit
    # leading 1, so point i costs 4i + 2 products, 2i + 1 Frobenius maps
    # and one inverse
    mul, inv, frob = field.mul, field.inv, field.frobenius
    low: list[int] = []
    for x, y in zip(xs, ys):
        powers = [x]
        for _ in p:
            powers.append(frob(powers[-1], sm))
        c = reduce(add, map(mul, low, powers), powers[-1])
        if c == 0:
            raise DependentPoints("interpolation points are dependent over F_q")
        px = reduce(add, map(mul, p, powers), 0)
        ic = inv(c)
        d = mul(sub(y, px), ic)
        p = [*map(add, p, map(mul, repeat(d), low)), d]
        a = mul(frob(c, sm), ic)  # c^(q^s - 1)
        # (x^[s] - a x) o M: coefficient k is M_(k-1)^(q^s) - a M_k
        low = list(map(sub, [0, *[frob(v, sm) for v in low]], [*map(mul, repeat(a), low), a]))
    return p, low + [1]


def interpolate(field: ExtField, s: int, xs, ys) -> LinearizedPoly:
    """Unique linearized polynomial of degree < len(xs) through the given
    (x, y) pairs, by Newton interpolation; requires the x's to be
    independent over F_q."""
    _check_twist(field.m, s)
    xs = list(field.check_vector(xs))
    ys = list(field.check_sized(ys, len(xs), "values"))
    if not xs:
        raise LengthMismatch("need at least one point")
    return LinearizedPoly(field, s, _newton(field, s, xs, ys)[0])
