"""Linearized-polynomial fuzzy vault.

The secret key is the coefficient vector of a linearized polynomial
kappa of degree below ell.  Locking against a feature set A stores a
total table over F_{q^m}: authentic entries (x, kappa(x)) for x in A,
and for every other x a chaff value drawn uniformly from everything
except kappa(x).  The table alone does not single out A: by construction
every point deviates from at most one low-degree polynomial pattern.

The chaff is drawn in bulk from 32-bit words of rng.getrandbits, exactly
as rng.randrange(q^m - 1) would consume them one value at a time in
ascending order of x, so a seeded random.Random gives the same table
and is left in the same state.  The table is built in packed 32-bit
little-endian lanes, lane x for element x: a few big-integer and bytes
passes over the draws and kappa's image of every element, which
fields.image_lanes packs into the same lanes at every q, stand in for
any loop over elements (SIMD within a register), and Vault.table is a
read-only view of the lanes.  Rejected tries are marked with a
0xFFFFFFFF sentinel lane and dropped by one bytes.replace, exact as
accepted tries stay below _TABLE_GUARD <= 2^24 (see _randbelow_many).
The JSON file names every element once, by doubling over the base-q
digits, and writes the points array in canonical order, _ROWS rows per
join.  Reading it back parses each column of names into 32-bit lanes by
Horner's rule over its digit columns, a few bytes and big-integer
passes per digit, as the table is built.

Unlocking with a witness set W reads the table at W and decodes the
values as a Gabidulin code on the points W.  Entries shared with A are
exact evaluations of kappa; the others are chaff, so the error rank is
at most |W \\ A|.  Whenever the set difference |A ^ W| is at most
2 * floor((n - ell) / 2) the decoder recovers kappa and the key digest
confirms it.
"""

from __future__ import annotations

import hmac
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from operator import itemgetter

from .commitment import codeword_digest, digest_from_hex
from .errors import (
    BadDimensions,
    DecodingFailure,
    DependentFeatures,
    DuplicateFeatures,
    LengthMismatch,
    MalformedRecord,
    ParamMismatch,
    TooLarge,
    canonical_json,
    check_record,
    load_json,
)
from .fields import ExtField, ext_field, image_lanes, is_independent
from .gabidulin import GabidulinCode
from .linpoly import LinearizedPoly, _check_twist

_TABLE_GUARD = 1 << 20
_BLOCK_WORDS = 1 << 16  # 32-bit words per chaff draw
_LANE = "I"  # array typecode of an unsigned 32-bit lane
_ROWS = 4096  # points rows per write in save_vault


@dataclass(frozen=True)
class VaultParams:
    q: int
    m: int
    n: int
    ell: int
    s: int = 1

    def __post_init__(self):
        fld = ext_field(self.q, self.m)  # validates q, m
        _check_twist(fld, self.s)
        if {type(self.n), type(self.ell)} != {int} or not 1 <= self.ell < self.n <= self.m:
            raise BadDimensions(
                f"need 1 <= ell < n <= m, got ell={self.ell}, n={self.n}, m={self.m}"
            )
        if fld.order > _TABLE_GUARD:
            raise TooLarge(f"total table needs q^m <= {_TABLE_GUARD}, got {fld.order}")

    @property
    def field(self) -> ExtField:
        return ext_field(self.q, self.m)

    @property
    def t(self) -> int:
        """Decoding radius of the unlock step."""
        return (self.n - self.ell) // 2


class FeatureSet:
    """Ordered collection of distinct, F_q-independent field elements."""

    __slots__ = ("field", "elems")

    def __init__(self, field: ExtField, elems):
        elems = field.check_vector(elems)
        if len(set(elems)) != len(elems):
            raise DuplicateFeatures(
                "feature elements must be distinct", reason="duplicate_features"
            )
        if not is_independent(field, elems):
            raise DependentFeatures(
                "feature elements must be independent over F_q", reason="dependent_features"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "elems", elems)

    def __setattr__(self, name, value):
        raise AttributeError("FeatureSet is immutable")

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, x):
        return x in self.elems

    def __repr__(self):
        shown = ", ".join(self.field.to_hex(x) for x in self.elems)
        return f"FeatureSet([{shown}])"

    def as_set(self) -> frozenset:
        return frozenset(self.elems)


@dataclass(frozen=True)
class Vault:
    params: VaultParams
    # entry of element x at index x; a read-only view of 32-bit lanes with
    # index, len, iteration, == and tolist(), but no hash() or pickle
    table: memoryview = dc_field(repr=False)
    key_digest: bytes


@dataclass(frozen=True)
class UnlockResult:
    key: tuple[int, ...] | None
    reason: str | None

    def __bool__(self):
        return self.key is not None


def _as_feature_set(params: VaultParams, elems, what: str) -> FeatureSet:
    """elems as a FeatureSet of params.field with exactly params.n
    elements; what names the set in the refusal."""
    fld = params.field
    fs = elems if isinstance(elems, FeatureSet) else FeatureSet(fld, elems)
    if fs.field is not fld:
        raise ParamMismatch(f"{what}: feature set belongs to a different field")
    if len(fs.elems) != params.n:
        raise ParamMismatch(f"{what}: {len(fs.elems)} elements, expected {params.n}")
    return fs


def _lanes(value: int, count: int) -> array:
    """The count 32-bit little-endian lanes of value, as a lane array."""
    out = array(_LANE, value.to_bytes(4 * count, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out


@lru_cache(maxsize=16)
def _lane_ones(count: int, bit: int = 0) -> int:
    """count 32-bit lanes, each with only the given bit set."""
    return int.from_bytes(b"\1\0\0\0" * count, "little") << bit


def _randbelow_many(rng, bound: int, count: int) -> bytes:
    """[rng.randrange(bound) for _ in range(count)] for 1 <= bound <=
    _TABLE_GUARD, as little-endian 32-bit lanes with no object per value,
    drawn in blocks and leaving a random.Random in the same state.

    randrange(bound) takes k = bound.bit_length() bits per try, and each
    try is the top k bits of the next 32-bit Mersenne word; a try of
    bound or more is dropped.  getrandbits(32 * c) returns the next c
    words, the first in the lowest bits, so shifting it right by 32 - k
    and masking gives every try at once.  Each block asks for no more
    words than values are still missing, so none is drawn past the last
    one randrange would have used.

    Bit k of a lane of tries + (2^k - bound) is set exactly when the try
    is bound or more (_lane_ones caches the lane constants); such a lane
    is the sentinel 0xFFFFFFFF, and one bytes.replace drops them all.
    That is exact because an accepted try is below _TABLE_GUARD <= 2^24,
    so its top byte is 0: no run of four 0xFF bytes starts or ends inside
    an accepted lane, and the leftmost match is always a whole sentinel.
    """
    k = bound.bit_length()
    blocks: list[bytes] = []
    have = c = 0
    while have < count:
        c, last = min(count - have, _BLOCK_WORDS), c
        # blocks never grow: a later one takes the low lanes of the last
        ones = ones >> 32 * (last - c) if have else _lane_ones(c)
        tries = rng.getrandbits(32 * c) >> (32 - k) & ones * ((1 << k) - 1)
        rejected = (tries + ones * ((1 << k) - bound)) >> k & ones
        lanes = (tries | rejected * 0xFFFFFFFF).to_bytes(4 * c, "little")
        blocks.append(lanes.replace(b"\xff" * 4, b""))
        have += len(blocks[-1]) // 4
    return b"".join(blocks)


def lock(params: VaultParams, features, key, rng) -> Vault:
    """Build the vault table for the given features and key coefficients.

    The table is computed as one packed integer of 32-bit lanes, lane x
    for element x: the chaff draws with a zero lane spliced in at each
    feature, and kappa's image of every element from image_lanes."""
    fld = params.field
    fs = _as_feature_set(params, features, "features")
    key = fld.check_sized(key, params.ell, "key")
    order = fld.order
    authentic = sorted(fs.elems)
    kappa = LinearizedPoly(fld, params.s, key)
    images = image_lanes(fld, list(map(kappa, fld._qpow_m)))
    # chaff r for x is uniform over everything except kappa(x): the draws
    # go to the other elements in ascending order, and r >= kappa(x) moves
    # up by one, which is bit k of r + 2^k - kappa(x), as r, kappa(x) < 2^k
    draws = _randbelow_many(rng, order - 1, order - len(authentic))
    cuts = [4 * (x - i) for i, x in enumerate(authentic)]
    pieces = [draws[a:b] for a, b in zip([0, *cuts], [*cuts, len(draws)])]
    d = int.from_bytes(bytes(4).join(pieces), "little")
    k = (order - 1).bit_length()
    chaff = d + ((d + _lane_ones(order, k) - images) >> k & _lane_ones(order))
    table = _lanes(chaff, order)
    # the placeholder lanes at the features take kappa(x)
    for x in authentic:
        table[x] = kappa(x)
    return Vault(params, memoryview(table).toreadonly(), codeword_digest(fld, key))


def unlock(vault: Vault, witness) -> UnlockResult:
    """Try to recover the key with a witness feature set."""
    params = vault.params
    fld = params.field
    ws = _as_feature_set(params, witness, "witness")
    code = GabidulinCode(fld, params.n, params.ell, params.s, ws.elems)
    received = tuple(vault.table[x] for x in ws.elems)
    try:
        message, _ = code.decode(received)
    except DecodingFailure:
        return UnlockResult(None, "decoding_failure")
    if not hmac.compare_digest(codeword_digest(fld, message), vault.key_digest):
        return UnlockResult(None, "digest_mismatch")
    return UnlockResult(message, None)


# ---------------------------------------------------------------------------
# JSON form


def _names_and_order(fld: ExtField) -> tuple[list[str], list[int]]:
    """The name of every element, indexed by element, and the elements
    in the byte order of their names.

    names[x] == fld.to_hex(x), the hex of the base-q digits lowest first,
    made by doubling over the digits.  The fixed-width tokens sort as the
    digits do, so in name order digit 0 varies slowest and digit m-1
    fastest, which is how the order is built."""
    digits = [f"{d:02x}" for d in range(fld.q)]
    names = [""]
    for _ in range(fld.m):
        names = [h + d for d in digits for h in names]
    order = [0]
    for i in reversed(range(fld.m)):
        step = fld.q**i
        order = [s + x for s in range(0, fld.q * step, step) for x in order]
    return names, order


def _record(vault: Vault, points: list) -> dict:
    return {
        "q": vault.params.q,
        "m": vault.params.m,
        "n": vault.params.n,
        "ell": vault.params.ell,
        "s": vault.params.s,
        "points": points,
        "key_digest": vault.key_digest.hex(),
    }


def vault_to_dict(vault: Vault) -> dict:
    names, order = _names_and_order(vault.params.field)
    table = vault.table
    return _record(vault, [[names[x], names[table[x]]] for x in order])


_SCHEMA = {
    "q": int,
    "m": int,
    "n": int,
    "ell": int,
    "s": int,
    "points": list,
    "key_digest": str,
}


def _column(fld: ExtField, texts: list[str]) -> array:
    """fld.vec_from_hex(texts) as a lane array, with the same checks.

    The value is built by Horner's rule over the digit columns, highest
    digit first: one strided copy spreads digit j of every name into the
    low byte of its lane, and one big-integer pass multiplies the lanes
    so far by q and adds the digits.  No lane carries into the next, as
    every value is below q^m <= _TABLE_GUARD."""
    data = fld.digits_from_hex(texts)
    q, m = fld.q, fld.m
    digits = bytearray(4 * len(texts))
    value = 0
    for j in reversed(range(m)):
        digits[::4] = data[j::m]
        value = value * q + int.from_bytes(digits, "little")
    return _lanes(value, len(texts))


def vault_from_dict(data: dict) -> Vault:
    check_record(data, "vault", _SCHEMA)
    params = VaultParams(
        q=data["q"], m=data["m"], n=data["n"], ell=data["ell"], s=data["s"]
    )
    fld = params.field
    entries = data["points"]
    if len(entries) != fld.order:
        raise LengthMismatch(f"table must cover all {fld.order} elements")
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        bad = next(e for e in entries if type(e) is not list or len(e) != 2)
        raise MalformedRecord(f"vault entry must be an [x, y] pair, got {bad!r}")
    xs = _column(fld, list(map(itemgetter(0), entries)))
    if len(set(xs)) != fld.order:
        x = next(x for x, c in Counter(xs).items() if c > 1)
        raise DuplicateFeatures(f"table lists {fld.to_hex(x)} twice")
    table = array(_LANE, bytes(4 * fld.order))
    for x, y in zip(xs, _column(fld, list(map(itemgetter(1), entries)))):
        table[x] = y
    table = memoryview(table).toreadonly()
    return Vault(params, table, digest_from_hex(data["key_digest"], "key digest"))


def save_vault(vault: Vault, path):
    """Write the bytes save_json(vault_to_dict(vault), path) would, with
    the points array written _ROWS rows at a time rather than built as
    objects.  A chunk's x and y names are gathered by itemgetter and
    slotted between the fixed separators of a row template, and the
    chunk goes out as one join."""
    names, order = _names_and_order(vault.params.field)
    table = vault.table
    head, tail = canonical_json(_record(vault, [])).split('"points": []')
    # row i of a chunk is rows[4i : 4i + 4]: the text before its x name,
    # the x name, the text between the names and the y name
    between = '"\n    ],\n    [\n      "'  # closes a row, opens the next
    rows = [between, "", '",\n      "', ""] * _ROWS
    rows[0] = head + '"points": [\n    [\n      "'
    with open(path, "w", encoding="ascii") as fh:
        for i in range(0, len(order), _ROWS):
            # itemgetter of one index returns the item, not a tuple, but no
            # table leaves a chunk of one row (test_no_table_leaves_a_one_row_chunk)
            xs = order[i : i + _ROWS]
            del rows[4 * len(xs) :]
            rows[1::4] = itemgetter(*xs)(names)
            rows[3::4] = itemgetter(*itemgetter(*xs)(table))(names)
            fh.write("".join(rows))
            rows[0] = between
        fh.write('"\n    ]\n  ]' + tail + "\n")


def load_vault(path) -> Vault:
    return vault_from_dict(load_json(path))
