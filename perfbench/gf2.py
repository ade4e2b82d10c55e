"""Arithmetic over F_2 and F_{2^m} for the benchmark's inputs and oracles.

An element of F_{2^m} is an int whose bit i is the coefficient of x^i,
the encoding the library uses for q = 2.  Nothing here calls the
library, so an oracle built on these helpers shares no code with what
it checks.  The reduction polynomial is passed in as an int with bit m
set; it is the field's definition, not an implementation detail.
"""

from __future__ import annotations

import hashlib


class XorBasis:
    """Incremental F_2 span of ints, one pivot per leading bit."""

    def __init__(self):
        self._pivots: dict[int, int] = {}

    def __len__(self):
        return len(self._pivots)

    def reduce(self, v: int) -> int:
        while v:
            top = v.bit_length() - 1
            pivot = self._pivots.get(top)
            if pivot is None:
                return v
            v ^= pivot
        return 0

    def add(self, v: int) -> bool:
        """Insert v; False (and no change) if v is already in the span."""
        v = self.reduce(v)
        if not v:
            return False
        self._pivots[v.bit_length() - 1] = v
        return True


def xor_rank(values) -> int:
    """Rank over F_2 of the bit columns of the given ints."""
    basis = XorBasis()
    for v in values:
        basis.add(v)
    return len(basis)


def poly_int(modulus) -> int:
    """Reduction polynomial (c_0, ..., c_m) over F_2 as an int."""
    return sum(c << i for i, c in enumerate(modulus))


def gf_mul(a: int, b: int, m: int, poly: int) -> int:
    """Product in F_{2^m}: carry-less multiply and reduce bit by bit."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> m & 1:
            a ^= poly
    return r


def linpoly_eval(coeffs, x: int, m: int, poly: int) -> int:
    """sum_i coeffs[i] * x^(2^i), the twist-1 linearized polynomial."""
    acc = 0
    power = x
    for i, c in enumerate(coeffs):
        if i:
            power = gf_mul(power, power, m, poly)
        acc ^= gf_mul(c, power, m, poly)
    return acc


def linear_map(coeffs, m: int, poly: int):
    """The F_2-linear map x -> linpoly_eval(coeffs, x), from basis images."""
    images = [linpoly_eval(coeffs, 1 << i, m, poly) for i in range(m)]

    def apply(x: int) -> int:
        acc = 0
        i = 0
        while x:
            if x & 1:
                acc ^= images[i]
            x >>= 1
            i += 1
        return acc

    return apply


def independent_elements(n: int, m: int, rng, avoid=frozenset(), start=()) -> list[int]:
    """start plus fresh random elements until n, all independent over F_2.

    Fresh elements also avoid the given set.
    """
    basis = XorBasis()
    out = list(start)
    for v in out:
        if not basis.add(v):
            raise ValueError("start elements are dependent")
    while len(out) < n:
        x = rng.getrandbits(m)
        if x not in avoid and basis.add(x):
            out.append(x)
    return out


def rank_error(n: int, m: int, rank: int, rng) -> tuple[int, ...]:
    """Length-n vector over F_{2^m} whose m x n bit matrix has exactly the
    given rank: sum_j a_j * row_j with independent a_j in F_2^m and
    independent row_j in F_2^n."""
    scalars = independent_elements(rank, m, rng)
    rows = independent_elements(rank, n, rng)
    out = []
    for i in range(n):
        acc = 0
        for a, row in zip(scalars, rows):
            if row >> i & 1:
                acc ^= a
        out.append(acc)
    return tuple(out)


def to_hex(a: int, m: int) -> str:
    """Canonical hex of an element: one byte per base-2 digit, low first."""
    return "".join("01" if a >> i & 1 else "00" for i in range(m))


def from_hex(text: str, m: int) -> int:
    data = bytes.fromhex(text)
    if len(data) != m or any(d > 1 for d in data):
        raise ValueError(f"not an element of F_2^{m}: {text!r}")
    return sum(d << i for i, d in enumerate(data))


def digest(vec, m: int) -> bytes:
    """SHA-256 of the canonical digit bytes of a vector."""
    return hashlib.sha256(
        b"".join(bytes(a >> i & 1 for i in range(m)) for a in vec)
    ).digest()
