"""The outcome oracle on hand-built genuine and impostor inputs."""

import random
from fractions import Fraction

import pytest

import gf2
import rankfuzz
from rankfuzz import TrialReport, UnlockResult, VerifyResult
from workloads import AuthTable, Campaign, attempt_rank

M = 16


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    return AuthTable(seed=1, workdir=tmp_path_factory.mktemp("work"))


def hand_vault(bench, key, chaff_error):
    """Vault over the power basis whose non-feature entries are off by chaff_error(x)."""
    kappa = gf2.linear_map(key, M, bench.poly)
    features = [1 << i for i in range(M)]
    table = [kappa(x) ^ chaff_error(x) for x in range(1 << M)]
    for x in features:
        table[x] = kappa(x)
    return features, rankfuzz.Vault(bench.params, tuple(table), gf2.digest(key, M))


@pytest.mark.parametrize("rank", [0, 6, 7])
def test_vault_oracle_matches_unlock_when_rank_follows_overlap(bench, rank):
    key = (3, 0, 7, 1)
    features, vault = hand_vault(bench, key, lambda x: x)  # error rank = |W \ A|
    rng = random.Random(4)
    witness, accept = bench.vault_witness(vault.table, features, key, rng, rank)
    assert accept is (rank <= bench.vault_t)
    res = rankfuzz.unlock(vault, witness)
    assert bench.unlock_ok(res, key, accept)
    assert not bench.unlock_ok(res, key, not accept)


def test_vault_oracle_follows_rank_not_overlap(bench):
    # every chaff entry is off by the same element: rank-1 error, so even a
    # witness sharing no feature must unlock
    key = (9, 1, 0, 5)
    features, vault = hand_vault(bench, key, lambda x: 1)
    witness, accept = bench.vault_witness(vault.table, features, key, random.Random(2), 7)
    assert len(set(witness) & set(features)) <= 4
    assert accept
    assert bench.unlock_ok(rankfuzz.unlock(vault, witness), key, accept)


def test_unlock_oracle_rejects_wrong_outcomes(bench):
    key = (1, 2, 3, 4)
    assert not bench.unlock_ok(UnlockResult(None, "decoding_failure"), key, True)
    assert not bench.unlock_ok(UnlockResult((1, 2, 3, 5), None), key, True)
    assert not bench.unlock_ok(UnlockResult(key, None), key, False)
    assert bench.unlock_ok(UnlockResult(None, "digest_mismatch"), key, False)


def test_lock_oracle(bench):
    features = gf2.independent_elements(16, M, random.Random(1))
    key = (5, 6, 7, 8)
    vault = rankfuzz.lock(bench.params, features, key, random.Random(2))
    assert bench.lock_ok(vault, features, key)
    kappa = gf2.linear_map(key, M, bench.poly)
    wrong_feature = list(vault.table)
    wrong_feature[features[0]] ^= 1
    chaff_on_kappa = list(vault.table)
    chaff_on_kappa[1021] = kappa(1021)
    for table in (wrong_feature, chaff_on_kappa):
        tampered = rankfuzz.Vault(bench.params, tuple(table), vault.key_digest)
        assert not bench.lock_ok(tampered, features, key)


@pytest.mark.parametrize("rank", [0, 1, 4, 5])
def test_rank_error_has_exact_rank(bench, rank):
    err = gf2.rank_error(16, M, rank, random.Random(rank))
    assert gf2.xor_rank(err) == rank == rankfuzz.element_rank(bench.field, err)


def test_commitment_oracle_on_genuine_and_impostor_readings(bench):
    rng = random.Random(8)
    code = rankfuzz.GabidulinCode(bench.field, 16, 8, 1, [1 << i for i in range(M)])
    witness = tuple(rng.getrandbits(M) for _ in range(16))
    com = rankfuzz.commit(code, witness, random.Random(3))
    assert bench.commitment_ok(com, witness)
    tampered = rankfuzz.Commitment(**{**vars(com), "digest": bytes(32)})
    assert not bench.commitment_ok(tampered, witness)
    codeword = tuple(w ^ o for w, o in zip(witness, com.offset))
    for rank, accept in ((bench.t, True), (bench.t + 1, False)):
        reading = gf2.rank_error(16, M, rank, rng)
        reading = tuple(w ^ e for w, e in zip(witness, reading))
        res = rankfuzz.verify(code, reading, com)
        assert bench.verify_ok(res, codeword, accept)
        assert not bench.verify_ok(res, codeword, not accept)
    wrong = (codeword[0] ^ 1,) + codeword[1:]
    assert not bench.verify_ok(VerifyResult(True, None, wrong), codeword, True)


def test_campaign_trial_oracle():
    ok = Campaign.trial_ok
    assert ok("roundtrip", TrialReport("roundtrip", {}, 1, 1, Fraction(1)))
    assert not ok("roundtrip", TrialReport("roundtrip", {}, 1, 0, Fraction(1)))
    assert ok("prop2", TrialReport("prop2", {}, 1, 0, Fraction(9, 10)))


def test_attempt_mix():
    ranks = [attempt_rank(i, 2) for i in range(9)]
    assert ranks == [0, 1, 3, 2, 0, 3, 1, 2, 3]
