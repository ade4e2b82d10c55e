"""Fuzzy commitment in the rank metric.

Committing to a witness vector b draws a uniform codeword c_b of a
Gabidulin code and stores the pair (b - c_b, H(c_b)).  A later witness
b' opens the commitment when b' - (b - c_b) decodes back to a codeword
whose digest matches: exactly the witnesses within rank distance t of b.
The offset alone reveals b only up to an unknown codeword, and the
digest binds the commitment to the particular c_b that was drawn.

The digest is SHA-256 over the canonical byte serialization of the
codeword (m digit bytes per coordinate, in coordinate order).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from .errors import (
    DecodingFailure,
    LengthMismatch,
    MalformedRecord,
    ParamMismatch,
    check_record,
    load_json,
    save_json,
)
from .fields import ExtField, ext_field
from .gabidulin import GabidulinCode

DIGEST_BYTES = 32


def codeword_digest(field: ExtField, codeword) -> bytes:
    return hashlib.sha256(field.vec_to_bytes(codeword)).digest()


def digest_from_hex(text: str, what: str) -> bytes:
    """A digest from exactly 64 hex digits of either case.  bytes.fromhex
    skips whitespace, so the length of the text is checked as well."""
    try:
        digest = bytes.fromhex(text)
    except ValueError as exc:
        raise MalformedRecord(f"bad {what} hex {text!r}") from exc
    if len(text) != 2 * DIGEST_BYTES or len(digest) != DIGEST_BYTES:
        raise LengthMismatch(f"{what} must be exactly {2 * DIGEST_BYTES} hex digits")
    return digest


@dataclass(frozen=True)
class Commitment:
    """Opening-independent public data: code identification, offset vector,
    and the digest of the hidden codeword."""

    q: int
    m: int
    n: int
    k: int
    s: int
    points: tuple[int, ...]
    offset: tuple[int, ...]
    digest: bytes


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: str | None
    codeword: tuple[int, ...] | None

    def __bool__(self):
        return self.accepted


def commit(code: GabidulinCode, witness, rng) -> Commitment:
    """Commit to a witness vector of n field elements."""
    field = code.field
    b = field.check_sized(witness, code.n, "witness")
    message = field.random_vector(code.k, rng)
    c_b = code.encode(message)
    sub = field.sub
    offset = tuple(sub(x, y) for x, y in zip(b, c_b))
    return Commitment(
        q=field.q,
        m=field.m,
        n=code.n,
        k=code.k,
        s=code.s,
        points=code.points,
        offset=offset,
        digest=codeword_digest(field, c_b),
    )


def code_from_commitment(com: Commitment) -> GabidulinCode:
    field = ext_field(com.q, com.m)
    return GabidulinCode(field, com.n, com.k, com.s, com.points)


def verify(code: GabidulinCode, witness, com: Commitment) -> VerifyResult:
    """Open the commitment with a candidate witness.

    Accepts iff shifting the witness by the stored offset decodes and the
    recovered codeword hashes to the stored digest; the codeword is
    returned on acceptance.
    """
    field = code.field
    if (
        com.q != field.q
        or com.m != field.m
        or com.n != code.n
        or com.k != code.k
        or com.s != code.s
        or tuple(com.points) != code.points
    ):
        raise ParamMismatch("commitment was made under a different code")
    b2 = field.check_sized(witness, code.n, "witness")
    sub = field.sub
    shifted = tuple(sub(x, y) for x, y in zip(b2, com.offset))
    try:
        _, _, recovered = code.decode(shifted)
    except DecodingFailure:
        return VerifyResult(False, "decoding_failure", None)
    if not hmac.compare_digest(codeword_digest(field, recovered), com.digest):
        return VerifyResult(False, "digest_mismatch", None)
    return VerifyResult(True, None, recovered)


# ---------------------------------------------------------------------------
# JSON form


def commitment_to_dict(com: Commitment) -> dict:
    field = ext_field(com.q, com.m)
    return {
        "q": com.q,
        "m": com.m,
        "n": com.n,
        "k": com.k,
        "s": com.s,
        "points": field.vec_to_hex(com.points),
        "offset": field.vec_to_hex(com.offset),
        "digest": com.digest.hex(),
    }


_SCHEMA = {
    "q": int,
    "m": int,
    "n": int,
    "k": int,
    "s": int,
    "points": list,
    "offset": list,
    "digest": str,
}


def commitment_from_dict(data: dict) -> Commitment:
    check_record(data, "commitment", _SCHEMA)
    field = ext_field(data["q"], data["m"])
    n = data["n"]
    return Commitment(
        q=field.q,
        m=field.m,
        n=n,
        k=data["k"],
        s=data["s"],
        points=field.vec_from_hex(data["points"]),
        offset=field.check_sized(field.vec_from_hex(data["offset"]), n, "offset"),
        digest=digest_from_hex(data["digest"], "digest"),
    )


def save_commitment(com: Commitment, path):
    save_json(commitment_to_dict(com), path)


def load_commitment(path) -> Commitment:
    return commitment_from_dict(load_json(path))
