"""Oracles several test modules share, written from the definitions.

No library code runs these: the Moore matrix of a point set, a code's
minimum rank distance by enumerating every codeword, and the rank-metric
Singleton bound.
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
