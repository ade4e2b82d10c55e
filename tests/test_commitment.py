"""Noise-tolerant commitments: bind, verify, serialize."""

import gc
import hashlib
import json
import random

import pytest

from rankfuzz.commitment import (
    DIGEST_BYTES,
    Commitment,
    VerifyResult,
    code_from_commitment,
    codeword_digest,
    commit,
    commitment_from_dict,
    commitment_to_dict,
    load_commitment,
    save_commitment,
    verify,
)
from rankfuzz.errors import LengthMismatch, MalformedRecord, ParamMismatch, load_json
from rankfuzz.fields import ext_field
from rankfuzz.gabidulin import GabidulinCode, random_rank_error

F256 = ext_field(2, 8)
F243 = ext_field(3, 5)


BASIS8 = tuple(1 << i for i in range(8))


def make_code(field=F256, n=8, k=4, s=1):
    return GabidulinCode(field, n, k, s, tuple(field.q**i for i in range(n)))


def add_vec(field, a, b):
    return tuple(field.add(x, y) for x, y in zip(a, b))


def test_roundtrip_exact_witness():
    rng = random.Random(1)
    code = make_code()
    for _ in range(20):
        w = F256.random_vector(8, rng)
        com = commit(code, w, rng)
        res = verify(code, w, com)
        assert res and res.reason is None
        assert res.codeword is not None


def test_accepts_within_radius_rejects_random():
    rng = random.Random(2)
    code = make_code()  # t = 2
    w = F256.random_vector(8, rng)
    com = commit(code, w, rng)
    for e in (0, 1, 2):
        for _ in range(30):
            w2 = add_vec(F256, w, random_rank_error(F256, 8, e, rng))
            assert verify(code, w2, com)
    rejects = 0
    for _ in range(200):
        w2 = F256.random_vector(8, rng)
        rejects += not verify(code, w2, com)
    assert rejects >= 198  # random witnesses land far away


def test_offset_hides_witness_but_recovers_codeword():
    rng = random.Random(3)
    code = make_code()
    w = F256.random_vector(8, rng)
    com = commit(code, w, rng)
    res = verify(code, w, com)
    # offset + codeword reproduces the witness exactly
    rebuilt = add_vec(F256, com.offset, res.codeword)
    assert rebuilt == tuple(w)


def test_reject_reasons():
    rng = random.Random(4)
    code = make_code()
    w = F256.random_vector(8, rng)
    com = commit(code, w, rng)
    # rank-3 perturbation at t=2: decoding fails or digest differs
    w2 = add_vec(F256, w, random_rank_error(F256, 8, 3, rng))
    res = verify(code, w2, com)
    if not res:
        assert res.reason in ("decoding_failure", "digest_mismatch")
    # tampered digest: decoding still works, digest cannot
    bad = Commitment(
        q=com.q, m=com.m, n=com.n, k=com.k, s=com.s, points=com.points,
        offset=com.offset, digest=bytes(DIGEST_BYTES),
    )
    res = verify(code, w, bad)
    assert not res and res.reason == "digest_mismatch"


def test_param_mismatch_between_code_and_commitment():
    rng = random.Random(5)
    code = make_code()
    w = F256.random_vector(8, rng)
    com = commit(code, w, rng)
    other = make_code(k=3)
    with pytest.raises(ParamMismatch):
        verify(other, w, com)


def test_codeword_digest_is_plain_sha256_of_bytes():
    cw = (0,) * 8
    assert codeword_digest(F256, cw) == hashlib.sha256(b"\x00" * 64).digest()
    rng = random.Random(6)
    vec = F243.random_vector(5, rng)
    assert codeword_digest(F243, vec) == hashlib.sha256(F243.vec_to_bytes(vec)).digest()


def test_commit_determinism_given_seeded_rng():
    code = make_code()
    w = ext_field(2, 8).random_vector(8, random.Random(7))
    c1 = commit(code, w, random.Random(123))
    c2 = commit(code, w, random.Random(123))
    assert c1 == c2
    c3 = commit(code, w, random.Random(124))
    assert c1 != c3  # different codeword almost surely


def test_dict_roundtrip_and_hex_fields():
    rng = random.Random(8)
    code = make_code(F243, 5, 2, 2)
    w = F243.random_vector(5, rng)
    com = commit(code, w, rng)
    d = commitment_to_dict(com)
    assert set(d) >= {"q", "m", "n", "k", "s", "points", "offset", "digest"}
    assert all(isinstance(h, str) for h in d["points"])
    assert len(d["digest"]) == 2 * DIGEST_BYTES
    back = commitment_from_dict(d)
    assert back == com


@pytest.mark.parametrize(
    "mutate,error",
    [
        (lambda d: {k: v for k, v in d.items() if k != "digest"}, MalformedRecord),
        (lambda d: dict(d, extra=1), MalformedRecord),
        (lambda d: [d], MalformedRecord),
        (lambda d: dict(d, q=2.5), MalformedRecord),
        (lambda d: dict(d, m=True), MalformedRecord),
        (lambda d: dict(d, digest="zz"), MalformedRecord),
        (lambda d: dict(d, digest=" ".join(d["digest"][i : i + 2] for i in range(0, 64, 2))),
         LengthMismatch),
        (lambda d: dict(d, offset=d["offset"][:2]), LengthMismatch),
    ],
    ids=["missing_key", "extra_key", "list", "float_q", "bool_m", "bad_digest", "spaced_digest",
         "short_offset"],
)
def test_from_dict_rejects_malformed_records(mutate, error):
    com = commit(make_code(), BASIS8, random.Random(12))
    with pytest.raises(error):
        commitment_from_dict(mutate(commitment_to_dict(com)))


def test_file_roundtrip_is_byte_stable(tmp_path):
    rng = random.Random(9)
    code = make_code()
    w = F256.random_vector(8, rng)
    com = commit(code, w, rng)
    p1 = tmp_path / "c1.json"
    p2 = tmp_path / "c2.json"
    save_commitment(com, p1)
    save_commitment(load_commitment(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["q"] == 2 and data["n"] == 8
    # canonical layout: sorted keys, trailing newline
    assert p1.read_text().endswith("\n")
    assert list(data) == sorted(data)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
def test_load_json_restores_collector_state(tmp_path, enabled):
    # load_json leaves the cyclic collector as it found it, on success
    # and on each error
    good, bad, wide = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "wide.json"
    good.write_text('{"a": [1, 2]}\n')
    bad.write_text('{"a": [1,\n')
    wide.write_bytes('{"a": "\u00e9"}\n'.encode())
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert load_json(good) == {"a": [1, 2]}
        assert gc.isenabled() is enabled
        with pytest.raises(json.JSONDecodeError):
            load_json(bad)
        assert gc.isenabled() is enabled
        with pytest.raises(UnicodeDecodeError):
            load_json(wide)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_code_from_commitment_reconstructs():
    rng = random.Random(10)
    code = make_code(F243, 4, 2, 3)
    w = F243.random_vector(4, rng)
    com = commit(code, w, rng)
    rebuilt = code_from_commitment(com)
    assert rebuilt.field is code.field
    assert rebuilt.points == code.points
    assert rebuilt.k == code.k and rebuilt.s == code.s
    assert verify(rebuilt, w, com)


def test_verify_result_truthiness():
    ok = VerifyResult(True, None, (0,))
    bad = VerifyResult(False, "digest_mismatch", None)
    assert ok and not bad
