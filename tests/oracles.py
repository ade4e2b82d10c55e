"""Oracles several test modules share, written from the definitions.

No library code runs these: the Moore matrix of a point set, a code's
minimum rank distance by enumerating every codeword, the rank-metric
Singleton bound, the count of vectors of each rank, a field element
drawn one randrange per digit, and the record of a vault, which
save_vault writes as canonical JSON.
"""

import itertools

from rankfuzz.fields import element_rank


def moore_matrix(field, s, k, points) -> list:
    """k x n matrix with entry (i, j) = points_j^(q^(s*i))."""
    return [[field.frobenius(x, s * i) for x in points] for i in range(k)]


def min_distance_exhaustive(code) -> int:
    """Minimum rank weight over all nonzero codewords, by enumeration."""
    messages = itertools.product(range(code.field.order), repeat=code.k)
    return min(element_rank(code.field, code.encode(msg)) for msg in messages if any(msg))


def singleton_bound(q: int, m: int, n: int, d: int) -> int:
    """Largest possible cardinality of a length-n code over F_{q^m} with
    minimum rank distance d."""
    return min(q ** (m * (n - d + 1)), q ** (n * (m - d + 1)))


def rank_r_words(q: int, m: int, n: int, r: int) -> int:
    """Vectors of F_{q^m}^n of rank r: one of the [n choose r]_q
    r-dimensional subspaces of F_q^n as row space, times the
    prod_{i<r} (q^m - q^i) m x r matrices of rank r over a basis of it."""
    count = 1
    for i in range(r):
        count = count * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    for i in range(r):
        count *= q**m - q**i
    return count


def random_element_by_digits(field, rng) -> int:
    """Uniform element, one rng.randrange(q) per base-q digit, low first."""
    return sum(rng.randrange(field.q) * field.q**i for i in range(field.m))


def vault_to_dict(vault) -> dict:
    """A vault's record: its parameters, one [x, y] row of to_hex names
    per element x, y = table[x], sorted by x name, and its key digest."""
    p, fld = vault.params, vault.params.field
    rows = sorted([fld.to_hex(x), fld.to_hex(vault.table[x])] for x in range(fld.order))
    return {
        "q": p.q,
        "m": p.m,
        "n": p.n,
        "ell": p.ell,
        "s": p.s,
        "points": rows,
        "key_digest": vault.key_digest.hex(),
    }
