"""Arithmetic for small prime fields F_q and their extensions F_{q^m}.

An element of F_{q^m} is a plain Python int: the element with coordinates
(c_0, ..., c_{m-1}) in the polynomial basis {1, x, ..., x^{m-1}} is the
integer c_0 + c_1*q + ... + c_{m-1}*q**(m-1).  The zero int is the zero
element and the ints 0..q-1 are the embedded base-field scalars.  All
operations take and return such ints, in the style of classic finite
field libraries that keep elements unboxed.

The reduction modulus is never a caller choice: for each (q, m) the field
uses the monic irreducible polynomial of degree m whose coefficient
vector (c_0, ..., c_{m-1}), read as the integer sum c_i * q**i, is
smallest.  Two fields with equal (q, m) are therefore interchangeable,
and the ext_field() factory returns a shared instance.

The constructor picks the code behind each of add, sub, neg, mul, inv,
frobenius and twist_mul once, and binds it on the instance; the class
defines none of them.  twist_mul(c, x, e) is c * x^(q^e), the term every
linearized-polynomial operation is a sum of.  Fields of at most 2**16
elements build discrete log tables in the constructor, and multiply,
invert, apply Frobenius and twist-multiply by lookup, with no call from
one to another; for odd q they also add, subtract and negate by lookup,
through the Zech logarithm zech[d] = log(1 + g^d).  The build is paid
even by a field that does no arithmetic, but past the search for g it
multiplies only m times: the exp walk reads the image table of
a -> a * g, which image_lanes makes from the images of the basis as 32-bit
lanes at every q, and linear_images unpacks.  It takes about 0.05 s at
q^m = 3^10, 0.03 s at 251^2 and 0.02 s at 2^16 on a 2-core Xeon.  Newton
interpolation and batch evaluation in linpoly alone read the tables
directly (ExtField._logs, None above the limit).  At q = 2, add and sub are
operator.xor.
Larger fields (up to the supported m <= 64) have no tables, whose size
and build time grow with q^m, and compute in the polynomial basis: for
odd q digit by digit with a Fermat inverse, for q = 2 with an extended
Euclid inverse and a multiply that _gf2_mul binds once per field, which
the table build below the limit uses too.  It takes the carry-less
product by the 4-way interleaved integer multiply of BearSSL's GHASH
(16 int products of masked operands, taken in four multiplies), and
folds the bits at x^m and above back through one table per byte.
There the Frobenius a -> a^(q^i) is applied as the F_q-linear map it
is, built per exponent from the images of the basis on first use, at
q = 2 as byte tables read by a closure too, and twist_mul is
mul(c, frobenius(x, e)).
Sampling draws base-q digits from rng.getrandbits, exactly as one
rng.randrange(q) per digit would (random_int), so seeded draws keep
their values.
Arithmetic methods assume canonical ints and do not re-validate their
inputs on every call; use check() / check_vector() at API boundaries, and
check_sized() where a vector must have a fixed number of elements.
"""

from __future__ import annotations

import functools
import operator
import sys
from array import array

from .errors import (
    DegreeOutOfRange,
    DimensionMismatch,
    DivisionByZero,
    LengthMismatch,
    MismatchedField,
    NonPrimeQ,
)

_TABLE_LIMIT = 1 << 16
_LANE = "I"  # array typecode of an unsigned 32-bit lane

# byte d -> the character int() reads as the digit d, for bases up to 36
_BASE36 = bytes.maketrans(bytes(range(36)), b"0123456789abcdefghijklmnopqrstuvwxyz")
_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digit characters -> digit bytes

# Degree cap keeps q**m comfortably inside exact int range for the
# exhaustive guards used elsewhere.
_MAX_DEGREE = 64
_MAX_PRIME = 251


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_divisors(n) == [n]


def field_order(q: int, m: int) -> int:
    """q^m, after the checks of q and m that ExtField makes, so that a
    formula in q^m refuses what ext_field(q, m) refuses without building
    the field."""
    # bound before primality, whose trial division is slow for huge q
    if type(q) is not int or q > _MAX_PRIME or not is_prime(q):
        raise NonPrimeQ(f"q must be a prime <= {_MAX_PRIME}, got {q!r}")
    if type(m) is not int or m < 1 or m > _MAX_DEGREE:
        raise DegreeOutOfRange(f"m must be in 1..{_MAX_DEGREE}, got {m!r}")
    return q**m


# ---------------------------------------------------------------------------
# Dense polynomials over F_q, little-endian coefficient lists.  Only what
# the modulus search needs lives here.


def _trim(c: list[int]) -> list[int]:
    """Drop trailing zeros in place; linpoly trims its ledgers here too."""
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: list[int], b: list[int], q: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % q
    return _trim(out)


def _pmod(a: list[int], mod: list[int], q: int) -> list[int]:
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    while len(a) > dm:
        lead = a[-1]
        if lead:
            off = len(a) - 1 - dm
            for j in range(dm):
                a[off + j] = (a[off + j] - lead * mod[j]) % q
        a.pop()
    return _trim(a)


def _pgcd(a: list[int], b: list[int], q: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        inv = pow(b[-1], -1, q)
        monic = [(c * inv) % q for c in b]
        a, b = b, _pmod(a, monic, q)
    return a


def _ppowmod(base: list[int], e: int, mod: list[int], q: int) -> list[int]:
    result = [1]
    acc = _pmod(base, mod, q)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, acc, q), mod, q)
        acc = _pmod(_pmul(acc, acc, q), mod, q)
        e >>= 1
    return result


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(poly: list[int], q: int) -> bool:
    """Rabin's test for a monic polynomial of degree >= 1 over F_q.

    Walks t = x^(q^i) mod poly one Frobenius step at a time so the
    subfield gcd checks reuse the intermediate powers.
    """
    m = len(poly) - 1
    if m == 1:
        return True
    checkpoints = {m // r for r in _prime_divisors(m)}
    t = _pmod([0, 1], poly, q)
    for i in range(1, m + 1):
        t = _ppowmod(t, q, poly, q)
        if i in checkpoints:
            diff = list(t) + [0] * max(0, 2 - len(t))
            diff[1] = (diff[1] - 1) % q
            if len(_pgcd(poly, _trim(diff), q)) - 1 > 0:
                return False
    return t == _pmod([0, 1], poly, q)


# The same test for q = 2 on polynomials held as bit patterns, the
# coefficient of x^i in bit i.  It serves the modulus search at q = 2;
# the list form above stays its reference.


def _gf2_pmod(a: int, mod: int) -> int:
    dm = mod.bit_length()
    while (da := a.bit_length()) >= dm:
        a ^= mod << (da - dm)
    return a


def _is_irreducible_gf2(poly: int) -> bool:
    """_is_irreducible for q = 2: x^(2^i) by carry-less squaring, which
    spreads bit i to bit 2i, and the gcd by the bit-pattern Euclid."""
    m = poly.bit_length() - 1
    if m == 1:
        return True
    checkpoints = {m // r for r in _prime_divisors(m)}
    t = 2  # x
    for i in range(1, m + 1):
        t = _gf2_pmod(int(format(t, "b"), 4), poly)
        if i in checkpoints:
            a, b = poly, t ^ 2
            while b:
                a, b = b, _gf2_pmod(a, b)
            if a.bit_length() > 1:
                return False
    return t == 2


def canonical_modulus(q: int, m: int) -> tuple[int, ...]:
    """Monic irreducible of degree m with the smallest low-coefficient
    vector, ordered by the integer value sum c_i * q**i."""
    if q == 2:
        low = next(low for low in range(1 << m) if _is_irreducible_gf2(1 << m | low))
        return tuple(low >> i & 1 for i in range(m)) + (1,)
    for low in range(q**m):
        digits = []
        v = low
        for _ in range(m):
            v, r = divmod(v, q)
            digits.append(r)
        cand = digits + [1]
        if _is_irreducible(cand, q):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# q = 2 arithmetic on bit patterns: the product for the table build and
# above the table limit, and the Frobenius above it.  Each factory returns
# a closure with its constants in default arguments, built once per field.


def _byte_tables(images) -> list[list[int]]:
    """The F_2-linear map taking bit j to images[j], as one table per byte
    of its input: table k holds the image of every byte value at bits
    8k .. 8k+7, built by doubling over them.  There are at least four
    tables, those past the images just [0], so a reader of inputs below
    2^32 reads four, unrolled."""
    out = []
    for k in range(0, max(len(images), 32), 8):
        table = [0]
        for b in images[k : k + 8]:
            table += [t ^ b for t in table]
        out.append(table)
    return out


def _clmul4(m: int):
    """Carry-less product of two ints below 2^m, by the 4-way interleaved
    integer multiply of BearSSL's constant-time GHASH.  Each operand
    splits into four parts, a_j its bits at positions j mod 4.  The
    integer product a_j * b_l holds, at each position of the residue class
    j + l, the count of the carry-less terms landing there.  That count is
    at most the 15 bits a part holds, so no carry reaches the next
    position of the class, and its low bit is the count mod 2.  The 16
    products, xored by class and masked to it, give the product.

    They are taken in four multiplies, on slots of w = 2m bits, one
    product wide: d holds b_(s mod 4) in slot s for s < 8, so a_j times d
    shifted down by 4 - j slots holds a_j * b_(c - j mod 4), a product of
    class c, in slot c for every c < 4.  Past m = 60 a part of b may hold
    16 bits, so b is taken in two 32-bit halves, whose parts hold 8."""
    w = 2 * m
    p0, p1, p2, p3 = parts = [sum(1 << i for i in range(j, w, 4)) for j in range(4)]
    copies = sum(1 << w * s for s in range(8))  # b * copies is b in every slot
    spread = sum(parts[s % 4] << w * s for s in range(8))
    keep = sum(parts[c] << w * c for c in range(4))

    def clmul(a, b, p0=p0, p1=p1, p2=p2, p3=p3, copies=copies, spread=spread,
              keep=keep, w=w, w2=2 * w, w3=3 * w, slot=(1 << w) - 1):
        d = b * copies & spread
        x = (a & p0) * d ^ (a & p1) * (d >> w3) ^ (a & p2) * (d >> w2) ^ (a & p3) * (d >> w)
        x &= keep
        x ^= x >> w2
        return (x ^ x >> w) & slot

    if m <= 60:
        return clmul
    return lambda a, b: clmul(a, b & 0xFFFFFFFF) ^ clmul(a, b >> 32) << 32


def _gf2_mul(m: int, poly: int):
    """The product of F_{2^m}, poly the modulus as a bit pattern with its
    x^m term: the carry-less product, then its bits at x^m and above folded
    back through the _byte_tables of the reductions of x^m .. x^(2m-2).
    Up to m = 33 those are four tables, read unrolled."""
    images, r = [], poly ^ 1 << m
    for _ in range(m - 1):
        images.append(r)
        r <<= 1
        if r >> m:
            r ^= poly
    t0, t1, t2, t3, *wide = tables = _byte_tables(images)
    low, clmul = (1 << m) - 1, _clmul4(m)
    if not wide:

        def mul(a, b, m=m, low=low, t0=t0, t1=t1, t2=t2, t3=t3, clmul=clmul):
            r = clmul(a, b)
            h = r >> m
            return r & low ^ t0[h & 255] ^ t1[h >> 8 & 255] ^ t2[h >> 16 & 255] ^ t3[h >> 24]

        return mul

    def wide_mul(a, b, m=m, low=low, tables=tables, clmul=clmul):
        r = clmul(a, b)
        h, r = r >> m, r & low
        for table in tables:
            r ^= table[h & 255]
            h >>= 8
        return r

    return wide_mul


def _gf2_frobenius(m: int, maps: list, build):
    """a -> a^(2^i) above the table limit: the _byte_tables of the map for
    exponent i, maps[i], or build(i) on first use.  Up to m = 32 they are
    four tables, read unrolled."""
    if m <= 32:

        def frobenius(a, i=1, maps=maps, build=build, m=m):
            i %= m
            if not i:
                return a
            t0, t1, t2, t3 = maps[i] or build(i)
            return t0[a & 255] ^ t1[a >> 8 & 255] ^ t2[a >> 16 & 255] ^ t3[a >> 24]

        return frobenius

    def wide_frobenius(a, i=1, maps=maps, build=build, m=m):
        i %= m
        if not i:
            return a
        r = 0
        for table in maps[i] or build(i):
            r ^= table[a & 255]
            a >>= 8
        return r

    return wide_frobenius


# ---------------------------------------------------------------------------


class ExtField:
    """Context for F_{q^m} with elements represented as ints.

    Do not call the constructor directly in normal use; go through
    ext_field(q, m) so equal parameters share one instance.
    """

    def __init__(self, q: int, m: int):
        self.order = field_order(q, m)
        self.q = q
        self.m = m
        self.modulus = canonical_modulus(q, m)
        self._qpow_m = [q**i for i in range(m)]
        # random_int: a top byte t of a word is the try t >> (8 - k)
        k = q.bit_length()
        tops = bytes(t >> (8 - k) for t in range(256))
        self._tries = (tops, bytes(t for t in range(256) if tops[t] >= q))
        # reductions of x^(m+j) for j = 0..m-2, as digit lists
        self._red = []
        rem = [(-c) % q for c in self.modulus[:m]]  # x^m = -(low part)
        self._red.append(list(rem))
        for _ in range(m - 2):
            # shift up by one, then fold the new x^m term back down
            rem = [0] + rem
            carry = rem.pop()
            if carry:
                base = self._red[0]
                rem = [(rem[i] + carry * base[i]) % q for i in range(m)]
            self._red.append(list(rem))
        if q == 2:
            self.add = self.sub = operator.xor
            self.neg = lambda a: a
            # the modulus as a bit pattern, its x^m term included
            self._poly = sum(1 << i for i, c in enumerate(self.modulus) if c)
            self._mul_poly = _gf2_mul(m, self._poly)
        else:
            self._mul_poly = self._mul_basic
        self._normal = None
        if self.order <= _TABLE_LIMIT:
            self._build_tables()  # mul, inv, frobenius, twist_mul; add, sub, neg at odd q
            return
        self._logs = None
        self._frob_maps = [None] * m  # built per exponent on first use
        self.mul, self.twist_mul = self._mul_poly, self._twist_mul_calls
        if q == 2:
            self.inv = self._inv_gf2
            self.frobenius = _gf2_frobenius(m, self._frob_maps, self._frob_map)
        else:
            self.add, self.sub, self.neg = self._add_digits, self._sub_digits, self._neg_digits
            self.inv, self.frobenius = self._inv_fermat, self._frobenius_fq

    def __repr__(self):
        return f"ExtField(q={self.q}, m={self.m})"

    # -- representation -----------------------------------------------------

    def check(self, a: int) -> int:
        if type(a) is not int or a < 0 or a >= self.order:
            raise MismatchedField(f"{a!r} is not an element of {self!r}")
        return a

    def check_vector(self, vec) -> tuple[int, ...]:
        return tuple(self.check(a) for a in vec)

    def check_sized(self, vec, n: int, what: str) -> tuple[int, ...]:
        """check_vector of exactly n elements; what names the vector."""
        out = self.check_vector(vec)
        if len(out) != n:
            raise LengthMismatch(f"{what}: {len(out)} elements, expected {n}")
        return out

    def digits(self, a: int) -> tuple[int, ...]:
        q = self.q
        out = []
        for _ in range(self.m):
            a, r = divmod(a, q)
            out.append(r)
        return tuple(out)

    def to_hex(self, a: int) -> str:
        return self.vec_to_hex((a,))[0]

    def vec_to_hex(self, vec) -> list[str]:
        """The names of the elements: the hex of each one's m digit bytes,
        low digit first, from one hex pass over vec_to_bytes."""
        text, width = self.vec_to_bytes(vec).hex(), 2 * self.m
        return [text[i : i + width] for i in range(0, len(text), width)]

    def vec_to_bytes(self, vec) -> bytes:
        """The digit bytes of the elements, m per element, low digit first."""
        if self.q == 2:  # the digits are the bits, low first
            return "".join([f"{a:0{self.m}b}"[::-1] for a in vec]).encode().translate(_BITS)
        return b"".join(bytes(self.digits(a)) for a in vec)

    def _values(self, data: bytes) -> tuple[int, ...]:
        q, m = self.q, self.m
        if q > 36:  # int() parses bases up to 36
            pows = self._qpow_m
            return tuple(
                sum(map(operator.mul, data[i : i + m], pows)) for i in range(0, len(data), m)
            )
        # reversed, each element's digits run highest first, as int() reads them
        rev = data.translate(_BASE36)[::-1]
        vals = [int(rev[i : i + m], q) for i in range(0, len(rev), m)]
        vals.reverse()
        return tuple(vals)

    def digits_from_hex(self, texts: list[str]) -> bytes:
        """The digit bytes of element names, m per name, low digit first.
        Each name must be exactly 2m hex digits of either case, with every
        digit below q; the check is one pass over the concatenation."""
        m = self.m
        try:
            data = bytes.fromhex("".join(texts))
        except TypeError:
            bad = next(t for t in texts if not isinstance(t, str))
            raise MismatchedField(f"element must be a hex string, got {bad!r}") from None
        except ValueError as exc:
            raise MismatchedField("element names must be hex") from exc
        # fromhex skips whitespace, so a padded name still parses
        if len(data) != m * len(texts) or set(map(len, texts)) - {2 * m}:
            raise LengthMismatch(f"element names must be exactly {2 * m} hex digits")
        if data.translate(None, bytes(range(self.q))):
            raise MismatchedField(f"digit {max(data)!r} out of range for q={self.q}")
        return data

    def vec_from_hex(self, texts: list[str]) -> tuple[int, ...]:
        """Elements from their names, checked as digits_from_hex checks them."""
        return self._values(self.digits_from_hex(texts))

    def elements(self):
        return range(self.order)

    # -- arithmetic ---------------------------------------------------------

    # __init__ binds add, sub, neg, mul, inv, frobenius and twist_mul on
    # the instance, to the methods below or to the table lookups of
    # _build_tables.  The digit loops serve odd q above the table limit.
    def _add_digits(self, a: int, b: int) -> int:
        q = self.q
        v = 0
        for p in self._qpow_m:
            v += ((a + b) % q) * p
            a //= q
            b //= q
        return v

    def _sub_digits(self, a: int, b: int) -> int:
        q = self.q
        v = 0
        for p in self._qpow_m:
            v += ((a - b) % q) * p
            a //= q
            b //= q
        return v

    def _neg_digits(self, a: int) -> int:
        q = self.q
        v = 0
        for p in self._qpow_m:
            v += ((-a) % q) * p
            a //= q
        return v

    def _mul_basic(self, a: int, b: int) -> int:
        """Digit-by-digit product: the multiply for odd q above the table
        limit, and the reference the faster paths are tested against."""
        if a == 0 or b == 0:
            return 0
        q, m = self.q, self.m
        da, db = self.digits(a), self.digits(b)
        conv = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] += x * y
        low = [c % q for c in conv[:m]]
        for j in range(m - 1):
            c = conv[m + j] % q
            if c:
                red = self._red[j]
                for i in range(m):
                    low[i] = (low[i] + c * red[i]) % q
        return sum(map(operator.mul, low, self._qpow_m))

    def _inv_gf2(self, a: int) -> int:
        """Inverse for q = 2 by binary extended Euclid against the full
        modulus; u = g1 * a and v = g2 * a hold modulo it throughout."""
        if a == 0:
            raise DivisionByZero("zero has no inverse")
        u, v, g1, g2 = a, self._poly, 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def _inv_fermat(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no inverse")
        return self.pow_(a, self.order - 2)

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(a), -e)
        if a == 0:
            return 0 if e else 1
        result = 1
        acc = a
        mul = self._mul_poly  # the table build relies on this not needing tables
        while e:
            if e & 1:
                result = mul(result, acc)
            acc = mul(acc, acc)
            e >>= 1
        return result

    def _frob_map(self, i: int):
        """The F_q-linear map a -> a^(q^i), built from the images of the
        power basis, which are the powers of x^(q^i).  For q = 2 it is
        stored as _byte_tables of those images; for odd q as the rows of
        its m x m matrix."""
        mul, m = self._mul_poly, self.m
        images = [1]
        step = self.pow_(self.q, self.q**i)  # the element x is the int q
        for _ in range(m - 1):
            images.append(mul(images[-1], step))
        if self.q == 2:
            out = _byte_tables(images)
        else:
            out = tuple(zip(*(self.digits(b) for b in images)))
        self._frob_maps[i] = out
        return out

    def _frobenius_fq(self, a: int, i: int = 1) -> int:
        i %= self.m
        if not i:
            return a
        rows = self._frob_maps[i] or self._frob_map(i)
        q, ds = self.q, self.digits(a)
        return sum(
            (sum(map(operator.mul, row, ds)) % q) * p for row, p in zip(rows, self._qpow_m)
        )

    def _twist_mul_calls(self, c: int, x: int, e: int) -> int:
        """c * x^(q^e) above the table limit.  It reads mul and frobenius
        at each call, so that a wrapper set on either one sees it."""
        return self.mul(c, self.frobenius(x, e)) if c and x else 0

    def _build_tables(self):
        """Set _logs = (exp, log, n, frob_exp) and bind the lookups.  With
        n = q^m - 1, a nonzero a is exp[log[a]], log[0] = -1, and a^(q^i)
        is exp[log[a] * frob_exp[i] % n].

        The build multiplies only through _mul_poly and pow_, so it runs
        before mul exists, and only in the search for g and for the m
        basis images g * x^i: exp[i] = exp[i - 1] * g is read off the
        image table of the F_q-linear map a -> a * g, which linear_images
        unpacks from image_lanes of those m images, so the walk is one
        index per element."""
        n = self.order - 1
        primes = _prime_divisors(n)
        # the smallest primitive element; when order == 2 the only unit is
        # 1.  For m > 1 no scalar below q is one, as its order divides
        # q - 1 < n, so the search starts at x, the int q.
        start = self.q if self.m > 1 else 2
        is_primitive = lambda c: all(self.pow_(c, n // p) != 1 for p in primes)
        g = next((c for c in range(start, self.order) if is_primitive(c)), 1)
        times = linear_images(self, [self._mul_poly(g, x) for x in self._qpow_m])
        v = 1
        exp = [1] + [v := times[v] for _ in range(n - 1)]
        del times  # freed before the log list is made, to keep the peak low
        log = [-1] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        frob_exp = [pow(self.q, i, n) for i in range(self.m)]
        self._logs = (exp, log, n, frob_exp)

        def mul(a, b, exp=exp, log=log, n=n):
            if a == 0 or b == 0:
                return 0
            return exp[(log[a] + log[b]) % n]

        def inv(a, exp=exp, log=log, n=n):
            if a == 0:
                raise DivisionByZero("zero has no inverse")
            return exp[(n - log[a]) % n]

        def frobenius(a, i=1, exp=exp, log=log, n=n, fe=frob_exp, m=self.m):
            # a = g^j maps to g^(j * q^i)
            return exp[log[a] * fe[i % m] % n] if a else 0

        def twist_mul(c, x, e, exp=exp, log=log, n=n, fe=frob_exp, m=self.m):
            return exp[(log[c] + log[x] * fe[e % m]) % n] if c and x else 0

        self.mul, self.inv, self.frobenius, self.twist_mul = mul, inv, frobenius, twist_mul
        if self.q == 2:
            return
        # Zech logarithms: 1 + g^d = g^zech[d], or zech[d] = -1 where the
        # sum is 0.  Adding 1 changes only the lowest base-q digit, so
        # log_plus_1[v] = log[v + 1], but log[v + 1 - q] where that digit
        # of v is q - 1.  As q is odd, n is even and -1 = g^(n/2).
        q, half = self.q, n // 2
        log_plus_1 = log[1:] + [0]  # the last v ends in q - 1, so is patched
        log_plus_1[q - 1 :: q] = log[::q]
        zech = list(map(log_plus_1.__getitem__, exp))

        def add(a, b, exp=exp, log=log, zech=zech, n=n):
            if a == 0:
                return b
            if b == 0:
                return a
            la = log[a]
            z = zech[(log[b] - la) % n]
            return 0 if z < 0 else exp[(la + z) % n]

        def sub(a, b, exp=exp, log=log, zech=zech, n=n, half=half):
            if b == 0:
                return a
            lb = log[b] + half
            if a == 0:
                return exp[lb % n]
            la = log[a]
            z = zech[(lb - la) % n]
            return 0 if z < 0 else exp[(la + z) % n]

        def neg(a, exp=exp, log=log, n=n, half=half):
            return exp[(log[a] + half) % n] if a else 0

        self.add, self.sub, self.neg = add, sub, neg

    # -- sampling -----------------------------------------------------------

    def random_int(self, count: int, rng) -> int:
        """Uniform int below q^count, its base-q digits drawn low first, each
        as rng.randrange(q) draws it: a try is the top k = q.bit_length()
        bits of the next 32-bit word of a random.Random, and a try of q or
        more is dropped.  At q <= 36, while 16 or more digits are missing,
        one rng.getrandbits(32 * c), c the digits missing, gives the next c
        words, and one translate of their top bytes reads every try and
        drops the rejected ones.  After that each try is one
        rng.getrandbits(k).  No word is taken past the last one randrange
        would take, so the digits and the generator state left are those
        of count randrange(q) calls."""
        q, (tops, rejected), block = self.q, self._tries, b""
        while q <= 36 and (c := count - len(block)) >= 16:
            words = rng.getrandbits(32 * c).to_bytes(4 * c, "little")
            block += words[3::4].translate(tops, rejected)
        v = int(block.translate(_BASE36)[::-1], q) if block else 0
        draw, k, p = rng.getrandbits, q.bit_length(), q ** len(block)
        for _ in range(count - len(block)):
            while (r := draw(k)) >= q:
                pass
            v += r * p
            p *= q
        return v

    def random_element(self, rng) -> int:
        """Uniform element, the random_int of its m digits."""
        return self.random_int(self.m, rng)

    def random_vector(self, n: int, rng) -> tuple[int, ...]:
        """n uniform elements, read low first off one random_int of n * m
        digits: the values and the generator state of n random_element
        calls."""
        v, out = self.random_int(n * self.m, rng), []
        for _ in range(n):
            v, a = divmod(v, self.order)
            out.append(a)
        return tuple(out)


@functools.lru_cache(maxsize=None, typed=True)
def ext_field(q: int, m: int) -> ExtField:
    """Shared field instance for (q, m).  The cache is typed, so a bool
    is refused, not served the field cached for the equal int."""
    return ExtField(q, m)


# ---------------------------------------------------------------------------
# Every image of an F_q-linear map of F_{q^m}, from the images of the
# power basis, by doubling over the digits: once the images of all
# elements below q^j are known, those of d * q^j + v for d = 1..q-1 are
# the same images plus d times the image of x^j.  The images stay packed
# in bytes or in one integer, so the doubling makes no object per
# element.


def image_lanes(field: ExtField, images) -> int:
    """The image of every element under the F_q-linear map taking x^j
    (the int q^j) to images[j], as one integer of 32-bit little-endian
    lanes, lane x the image of x.  Needs q^m <= 2^32.

    At q = 2 the images of the elements below 2^j fill the low 2^j
    lanes, and one xor with images[j] copied into every lane, shifted up
    by 2^j lanes, adds the images of the next 2^j elements.  At odd q the
    doubling runs on m digit planes, plane i a byte string holding digit
    i of each image so far.  Adding d times digit i of images[j] to every
    byte is one bytes.translate, so each copy is reduced mod q as it is
    made.  The planes are then spread into the lanes and summed with
    weights q^i, which leaves the value of each image in its lane."""
    q, order = field.q, field.order
    if q == 2:
        out, ones, width = 0, 1, 32
        for b in images:
            out |= (out ^ b * ones) << width
            ones |= ones << width
            width *= 2
        return out
    ring = bytes(range(q)) * 2
    add = [ring[c : c + q] + bytes(256 - q) for c in range(q)]  # add[c][v] = (v + c) % q
    planes = [b"\0"] * field.m
    for b in images:
        planes = [
            b"".join([p.translate(add[d * c % q]) for d in range(q)])
            for p, c in zip(planes, field.digits(b))
        ]
    out = 0
    for p, weight in zip(planes, field._qpow_m):
        lanes = bytearray(4 * order)
        lanes[::4] = p
        out += weight * int.from_bytes(lanes, "little")
    return out


def _lanes(value: int, count: int) -> array:
    """The count 32-bit little-endian lanes of value, as a lane array."""
    out = array(_LANE, value.to_bytes(4 * count, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out


def linear_images(field: ExtField, images) -> array:
    """image_lanes as a lane array, indexed by element."""
    return _lanes(image_lanes(field, images), field.order)


# ---------------------------------------------------------------------------
# The F_q-span of ints read as digit vectors: every rank, membership,
# intersection and map on a subspace of field elements, and every rank of
# F_q rows encoded as base-q ints.


class FqSpan:
    """Echelon rows of the F_q-span of ints in [0, q**width), each read as
    its width base-q digits.  A row is stored under its pivot, its highest
    nonzero digit, and carries nothing but its digits.  At q = 2 a row is
    the int itself, filed under its bit length, and a step is one xor; at
    odd q it is the list of its digits, low first, up to its pivot, scaled
    so the pivot digit is 1.  Inputs are not checked."""

    __slots__ = ("q", "width", "rank", "_rows")

    def __init__(self, q: int, width: int, elems=()):
        self.q, self.width, self.rank = q, width, 0
        self._rows = [0] * (width + 1) if q == 2 else [None] * width
        self.extend(elems)

    def extend(self, elems) -> int:
        """Add the elements in turn; return how many grew the rank."""
        rows, q, start = self._rows, self.q, self.rank
        rank = start
        if q == 2:
            for v in elems:
                while v and (row := rows[v.bit_length()]):
                    v ^= row
                if v:
                    rows[v.bit_length()] = v
                    rank += 1
        else:
            for x in elems:
                d, p = self._eliminate(x)
                if p is not None:
                    inv = pow(d[p], -1, q)
                    rows[p] = [a * inv % q for a in d[: p + 1]]
                    rank += 1
        self.rank = rank
        return rank - start

    def add(self, x: int) -> bool:
        """Add x; True when it grew the rank."""
        return self.extend((x,)) == 1

    def reduce(self, x: int) -> int:
        """The residue of x: x minus an element of the span, reduced from
        the top down to its first nonzero digit without a row.  It is 0
        exactly when x lies in the span, and reducing it again leaves it
        as it is."""
        rows = self._rows
        if self.q == 2:
            while x and (row := rows[x.bit_length()]):
                x ^= row
            return x
        return self._value(self._eliminate(x)[0])

    def basis(self) -> list[int]:
        """The rows, each as an int."""
        if self.q == 2:
            return [v for v in self._rows if v]
        return [self._value(d) for d in self._rows if d]

    def _eliminate(self, x: int):
        """(d, p) at odd q: the digits of x reduced against the rows down
        to the first nonzero digit p without a row, or to zero, where p is
        None.  A row ends at its pivot, so a step updates only that long a
        prefix.  Entries are reduced mod q only where read, and before d
        is stored."""
        q, rows = self.q, self._rows
        d = [0] * self.width
        for i in range(self.width):
            x, d[i] = divmod(x, q)
        for p in range(self.width - 1, -1, -1):
            c = d[p] % q
            if c:
                row = rows[p]
                if row is None:
                    return d, p
                d[: p + 1] = [a - c * b for a, b in zip(d, row)]
        return d, None

    def _value(self, d) -> int:
        q, v = self.q, 0
        for c in reversed(d):
            v = v * q + c % q
        return v


# ---------------------------------------------------------------------------
# Dense linear algebra over F_{q^m}, on lists of element ints.  No library
# code eliminates with it: FqSpan answers every F_q question.  kernel_ext,
# solve_ext and the F_q wrappers rank_fq and kernel_fq (F_q is F_{q^1},
# whose elements are the ints 0..q-1) remain as the tests' oracles.


def _rref_ext(field: ExtField, mat):
    """Reduced row echelon form and pivot columns.  Rows are replaced,
    never mutated, so the caller's rows (lists or tuples) stay as they
    were, and a row the elimination never touched is returned as given."""
    mat = list(mat)
    if not mat:
        return mat, []
    rows, cols = len(mat), len(mat[0])
    mul, sub, inv = field.mul, field.sub, field.inv
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hit = None
        for i in range(r, rows):
            if mat[i][c]:
                hit = i
                break
        if hit is None:
            continue
        if hit != r:
            mat[r], mat[hit] = mat[hit], mat[r]
        scale = inv(mat[r][c])
        row_r = mat[r] = [mul(scale, x) for x in mat[r]]
        for i in range(rows):
            row_i = mat[i]
            f = row_i[c]
            if f and i != r:
                mat[i] = [sub(a, mul(f, b)) for a, b in zip(row_i, row_r)]
        pivots.append(c)
        r += 1
    return mat, pivots


def kernel_ext(field: ExtField, mat) -> list[tuple[int, ...]]:
    """Kernel basis of a matrix over F_{q^m}, free columns ascending."""
    if not mat:
        return []
    cols = len(mat[0])
    rref, pivots = _rref_ext(field, mat)
    free = [c for c in range(cols) if c not in pivots]
    out = []
    neg = field.neg
    for f in free:
        vec = [0] * cols
        vec[f] = 1
        for r_idx, c in enumerate(pivots):
            vec[c] = neg(rref[r_idx][f])
        out.append(tuple(vec))
    return out


def solve_ext(field: ExtField, mat, rhs):
    """One solution of a square-or-rectangular system over F_{q^m}, or None.

    No library code calls it: it is the Moore-matrix interpolation
    oracle for the tests, and the benchmark's tracer wraps it by name."""
    mat = [list(row) for row in mat]
    rows = len(mat)
    if rows != len(rhs):
        raise DimensionMismatch("right-hand side length does not match")
    cols = len(mat[0]) if rows else 0
    aug = [mat[i] + [rhs[i]] for i in range(rows)]
    rref, pivots = _rref_ext(field, aug)
    if any(c == cols for c in pivots):
        return None
    solution = [0] * cols
    for r_idx, c in enumerate(pivots):
        solution[c] = rref[r_idx][cols]
    return tuple(solution)


def rank_fq(mat, q: int) -> int:
    """Rank over F_q of an integer matrix, entries reduced mod q."""
    return len(_rref_ext(ext_field(q, 1), [[x % q for x in row] for row in mat])[1])


def kernel_fq(mat, q: int) -> list[tuple[int, ...]]:
    """Kernel basis over F_q of an integer matrix, entries reduced mod q,
    free columns ascending."""
    return kernel_ext(ext_field(q, 1), [[x % q for x in row] for row in mat])


# ---------------------------------------------------------------------------
# Rank-metric helpers.


def element_rank(field: ExtField, elems) -> int:
    """Dimension of the F_q-span of the given field elements.

    The elements must be canonical ints of the field.  They are not
    checked here, since every rank decision passes through this function;
    check_vector them where they enter from outside.
    """
    return FqSpan(field.q, field.m, elems).rank


def fq_combination(field: ExtField, coeffs, elems) -> int:
    """Sum of coeff_i * elems_i with coefficients taken mod q."""
    acc = 0
    for c, e in zip(coeffs, elems):
        c = int(c) % field.q
        if c:
            acc = field.add(acc, e if c == 1 else field.mul(c, e))
    return acc


def is_independent(field: ExtField, elems) -> bool:
    elems = list(elems)
    return element_rank(field, elems) == len(elems)


def rank_distance(field: ExtField, x, y) -> int:
    """Rank over F_q of the coordinate matrix of x - y."""
    x, y = list(x), list(y)
    if len(x) != len(y):
        raise LengthMismatch("vectors differ in length")
    diff = [field.sub(a, b) for a, b in zip(x, y)]
    return element_rank(field, diff)


def find_normal_element(field: ExtField) -> int:
    """Smallest element whose Frobenius orbit is a basis of F_{q^m}."""
    if field._normal is None:
        for a in field.elements():
            # once a conjugate falls in the span of the earlier ones, so
            # do all later ones, as Frobenius is F_q-linear
            span, b = FqSpan(field.q, field.m), a
            while span.add(b):
                b = field.frobenius(b)
            if span.rank == field.m:
                field._normal = a
                break
    return field._normal


def modulus_string(field: ExtField) -> str:
    """Human-readable form of the reduction modulus, highest degree first."""
    terms = []
    for i in range(field.m, -1, -1):
        c = field.modulus[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}*x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}*x^{i}")
    return " + ".join(terms) if terms else "0"
