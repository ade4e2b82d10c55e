"""End-to-end acceptance checks, one test per guarantee.

Each test states its parameters inline and runs at full strength, so the
whole module takes a few minutes.  Statistical checks use fixed seeds
and 3-sigma bands around the exact product formulas; structural checks
(decoder completeness, vault recovery, per-trial inequalities) demand
zero failures outright.
"""

import hashlib
import time
from fractions import Fraction

from rankfuzz.analysis import (
    mc_independence,
    mc_overlap_tightness,
    mc_subspace_tightness,
    overlap_tightness_probability,
    sample_feature_set,
    sample_witness_overlap,
    subspace_tightness_probability,
    sweep_basic_tightness,
    sweep_generalized_tightness,
    trial_rng,
)
from rankfuzz.cli import main
from rankfuzz.commitment import commit, verify
from rankfuzz.fields import ext_field
from rankfuzz.gabidulin import GabidulinCode, random_rank_error
from rankfuzz.linpoly import LinearizedPoly, _compose_raw, _divmod, _zip_raw, interpolate
from rankfuzz.vault import VaultParams, lock, unlock

from oracles import min_distance_exhaustive, singleton_bound


def _pool():
    return [ext_field(2, 4), ext_field(2, 8), ext_field(3, 3), ext_field(5, 2)]


def _rand_poly(fld, s, length, rng, nonzero=False):
    while True:
        p = LinearizedPoly(fld, s, fld.random_vector(length, rng))
        if not (nonzero and p.is_zero):
            return p


def _cop(a, b):
    while b:
        a, b = b, a % b
    return a == 1


def test_criterion_01_mrd_min_distance_meets_bound():
    t0 = time.monotonic()
    fld = ext_field(2, 4)
    pts = (1, 2, 4, 8)
    for k in (1, 2, 3):
        code = GabidulinCode(fld, 4, k, 1, pts)
        d = min_distance_exhaustive(code)
        assert d == 4 - k + 1, f"k={k}: min distance {d}"
        size = fld.order**k
        assert size == 2 ** (4 * k)
        assert size == singleton_bound(2, 4, 4, d)
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_decoder_recovers_every_error_within_radius():
    t0 = time.monotonic()
    cases = [(2, 8, 8, 4, (1,)), (3, 5, 5, 1, (1, 2, 3, 4))]
    for q, m, n, k, twists in cases:
        fld = ext_field(q, m)
        t = (n - k) // 2
        assert t == 2
        for s in twists:
            for e in range(t + 1):
                for i in range(1000):
                    rng = trial_rng(2_000_000 + 1000 * s + e, i)
                    pts = sample_feature_set(fld, n, rng)
                    code = GabidulinCode(fld, n, k, s, pts.elems)
                    msg = fld.random_vector(k, rng)
                    err = random_rank_error(fld, n, e, rng)
                    word = tuple(
                        fld.add(a, b) for a, b in zip(code.encode(msg), err)
                    )
                    got, got_rank = code.decode(word)
                    assert got == msg and got_rank == e, (q, s, e, i)
    assert time.monotonic() - t0 < 60.0


def test_criterion_03_commitment_completeness_and_rejection():
    fld = ext_field(2, 8)
    pts = tuple(2**i for i in range(8))
    code = GabidulinCode(fld, 8, 4, 1, pts)
    assert code.t == 2
    for i in range(1000):
        rng = trial_rng(3_000_001, i)
        witness = fld.random_vector(8, rng)
        com = commit(code, witness, rng)
        e = rng.randrange(code.t + 1)
        err = random_rank_error(fld, 8, e, rng)
        near = tuple(fld.add(a, b) for a, b in zip(witness, err))
        res = verify(code, near, com)
        assert res and res.reason is None, f"rank-{e} witness rejected at trial {i}"
    rejected = 0
    for i in range(1000):
        rng = trial_rng(3_000_002, i)
        witness = fld.random_vector(8, rng)
        com = commit(code, witness, rng)
        stranger = fld.random_vector(8, rng)
        rejected += not verify(code, stranger, com)
    assert rejected >= 990, f"only {rejected}/1000 random witnesses rejected"


def test_criterion_04_vault_unlocks_every_witness_within_distance():
    for params in (
        VaultParams(q=2, m=8, n=8, ell=2),
        VaultParams(q=2, m=10, n=8, ell=2),
    ):
        fld = params.field
        assert 2 * params.t == 6
        for i in range(1000):
            rng = trial_rng(4_000_000 + params.m, i)
            feats = sample_feature_set(fld, 8, rng)
            key = fld.random_vector(2, rng)
            vault = lock(params, feats, key, rng)
            u = 5 + i % 4  # set difference 2(8 - u) runs over {6, 4, 2, 0}
            wit = sample_witness_overlap(fld, feats, u, rng)
            res = unlock(vault, wit)
            assert res and res.key == key, f"m={params.m} u={u} trial {i}"


def test_criterion_05_exhaustive_independence_rates():
    r = mc_independence(2, 2, 2)
    assert r.mode == "exhaustive"
    assert r.exact_estimate == r.formula == Fraction(1, 2)
    assert r.verdict == "exact_match"
    r = mc_independence(2, 3, 2)
    assert r.mode == "exhaustive"
    assert r.exact_estimate == r.formula == Fraction(3, 4)
    assert r.verdict == "exact_match"


def test_criterion_06_overlap_tightness_all_u_within_3_sigma():
    for u in range(9):
        # the campaign asserts 2*d_r <= d_delta on every single trial
        r = mc_overlap_tightness(2, 8, u, ell=2, s=1, trials=10**4, seed=42)
        assert r.formula == overlap_tightness_probability(2, 8, u)
        assert r.verdict == "within_3sigma", (
            f"u={u}: {r.successes}/{r.trials} vs {float(r.formula):.6f}"
        )


def test_criterion_07_subspace_tightness_all_uv_within_3_sigma():
    feasible = [(u, v) for v in (2, 3, 4) for u in range(v + 1)]
    assert len(feasible) == 12
    for u, v in feasible:
        # the campaign asserts the full distance chain on every trial
        r = mc_subspace_tightness(2, 6, 4, u, v, ell=1, trials=10**4, seed=42)
        assert r.formula == subspace_tightness_probability(2, 6, 4, u, v)
        assert r.verdict == "within_3sigma", (
            f"(u,v)=({u},{v}): {r.successes}/{r.trials} vs {float(r.formula):.6f}"
        )


def test_criterion_08_failure_rate_trends():
    sw = sweep_basic_tightness([2, 3, 5], 4, 1, trials=10**4, seed=42)
    rates = [1.0 - p.estimate for p in sw.points]
    assert sw.verdict == "within_3sigma", f"failure rates over q: {rates}"
    sg = sweep_generalized_tightness(2, [4, 5, 6], 4, 1, trials=10**4, seed=42)
    rates = [1.0 - p.estimate for p in sg.points]
    assert sg.verdict == "within_3sigma", f"failure rates over m: {rates}"


def test_criterion_09_algebra_suite_zero_failures():
    pool = _pool()
    # linearity of evaluation
    for i in range(1000):
        rng = trial_rng(9_000_001, i)
        fld = pool[i % len(pool)]
        f = _rand_poly(fld, 1, rng.randrange(1, 4), rng)
        x, y = fld.random_element(rng), fld.random_element(rng)
        assert f(fld.add(x, y)) == fld.add(f(x), f(y))
        c = rng.randrange(fld.q)
        assert f(fld.mul(c, x)) == fld.mul(c, f(x))
    # composition versus evaluation
    for i in range(1000):
        rng = trial_rng(9_000_002, i)
        fld = pool[i % len(pool)]
        s = rng.choice([v for v in range(1, fld.m) if _cop(v, fld.m)])
        f = _rand_poly(fld, s, rng.randrange(1, 4), rng)
        g = _rand_poly(fld, s, rng.randrange(1, 4), rng)
        x = fld.random_element(rng)
        assert LinearizedPoly(fld, s, _compose_raw(fld, s, f.coeffs, g.coeffs))(x) == f(g(x))
    # division reconstruction, both sides
    for i in range(1000):
        rng = trial_rng(9_000_003, i)
        fld = pool[i % len(pool)]
        f = _rand_poly(fld, 1, rng.randrange(1, 6), rng)
        g = _rand_poly(fld, 1, rng.randrange(1, 4), rng, nonzero=True)
        quo, rem = _divmod(fld, 1, f.coeffs, g.coeffs, False)
        assert _zip_raw(fld.add, _compose_raw(fld, 1, quo, g.coeffs), rem) == list(f.coeffs)
        quo, rem = f.divmod_left(g)
        g_quo = _compose_raw(fld, 1, g.coeffs, quo.coeffs)
        assert _zip_raw(fld.add, g_quo, rem.coeffs) == list(f.coeffs)
    # interpolation round trip
    for i in range(1000):
        rng = trial_rng(9_000_004, i)
        fld = pool[i % len(pool)]
        n = rng.randrange(1, fld.m + 1)
        pts = sample_feature_set(fld, n, rng)
        vals = fld.random_vector(n, rng)
        p = interpolate(fld, 1, pts.elems, vals)
        assert all(p(x) == v for x, v in zip(pts.elems, vals))
    # Frobenius respects the field operations
    for i in range(1000):
        rng = trial_rng(9_000_005, i)
        fld = pool[i % len(pool)]
        x, y = fld.random_element(rng), fld.random_element(rng)
        k = rng.randrange(2 * fld.m)
        fx, fy = fld.frobenius(x, k), fld.frobenius(y, k)
        assert fld.frobenius(fld.add(x, y), k) == fld.add(fx, fy)
        assert fld.frobenius(fld.mul(x, y), k) == fld.mul(fx, fy)


_SIMULATE_RUNS = [
    ["simulate", "lemma2", "--q", "2", "--m", "8", "--n", "4", "--trials", "300"],
    ["simulate", "prop2", "--q", "2", "--n", "4", "--u", "2", "--ell", "1",
     "--trials", "200"],
    ["simulate", "prop4", "--q", "2", "--m", "6", "--n", "3", "--u", "1",
     "--v", "2", "--ell", "1", "--trials", "150"],
    ["simulate", "thm3", "--n", "3", "--ell", "1", "--q-sweep", "2,3",
     "--trials", "150"],
    ["simulate", "thm5", "--q", "2", "--m-sweep", "4,5", "--n", "3",
     "--ell", "1", "--trials", "150"],
    ["simulate", "roundtrip", "--q", "2", "--m", "6", "--n", "6", "--k", "2",
     "--trials", "100"],
]


def test_criterion_10_simulate_reports_are_byte_identical(tmp_path):
    for idx, args in enumerate(_SIMULATE_RUNS):
        a = tmp_path / f"{idx}a.json"
        b = tmp_path / f"{idx}b.json"
        rc1 = main(args + ["--seed", "17", "--out", str(a)])
        rc2 = main(args + ["--seed", "17", "--out", str(b)])
        assert rc1 == rc2
        assert a.read_bytes() == b.read_bytes(), f"run {args} not reproducible"


# SHA-256 of each criterion 10 report at seed 17, as first written; a
# change to any sampler, campaign or report encoding shows up here.
_SIMULATE_DIGESTS = {
    "lemma2": "9cb352cc0873b91834b5c796057d8d07f921878f32e804763eca55622396dba1",
    "prop2": "3380313476c940f0a1478edd2a4dbf8aa54ce09f50dad12e6c0e641e5d8729c3",
    "prop4": "59ece9b8bb0248fe24fc805209670ea968c931873ef75fd3a6dd6fc328ade5da",
    "thm3": "8a56c5c0b2e29651e581db0a99b9c656c5065fa08b296a72130f57d9769ce0bd",
    "thm5": "f8165c0858ccd573cbf298d4bb80c78076678f995f5a9eeec83854e2a11e819b",
    "roundtrip": "26828b8e8fb5d3de08d56bd6ca9bc8a414dff1dc3f7b3a2d8b5d0fdfb0ab0f0f",
}


def test_simulate_reports_match_their_pinned_digests(tmp_path):
    for args in _SIMULATE_RUNS:
        out = tmp_path / f"{args[1]}.json"
        main(args + ["--seed", "17", "--out", str(out)])
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == _SIMULATE_DIGESTS[args[1]], f"run {args} changed its report"


# Seeded runs at seed 23 that the runs above leave out: odd q for every
# campaign and uniform_w witnesses. Each run's exit code and the SHA-256
# of its report, as first written; the uniform_w thm3 sweep over q = 2,
# 3, 5 fails its trend check at 60 trials and so exits 1.
_MORE_SIMULATE_RUNS = [
    (["simulate", "thm3", "--n", "3", "--ell", "1", "--q-sweep", "2,3,5",
      "--distribution", "uniform_w", "--trials", "60"], 1,
     "2ff295d1dd4f332004f0ffeef8dc0f18cb06d7917d2d5881e048f6a7dc3310ab"),
    (["simulate", "thm3", "--n", "3", "--ell", "1", "--q-sweep", "3,5", "--trials", "60"], 0,
     "bb1e2351132d05f5db90b4b4dfe0a27505384ac777721f09b4f1987bca7a1770"),
    (["simulate", "thm5", "--q", "3", "--m-sweep", "3,4", "--n", "3", "--ell", "1",
      "--trials", "60"], 0,
     "ee42e8db766987eab73b17c3e28cbae5932b2eb104a322ee86ed61d9f6db63ef"),
    (["simulate", "thm5", "--q", "2", "--m-sweep", "4,5", "--n", "3", "--ell", "1",
      "--distribution", "uniform_w", "--trials", "60"], 0,
     "f1deda9d9181c68b115dba501639aba0c868f57e67feffa7513fe016ad0837a2"),
    (["simulate", "prop2", "--q", "3", "--n", "4", "--u", "2", "--ell", "1",
      "--trials", "60"], 0,
     "65d8275ffd67f2c145ccd9e0b11f2e4ac7db485ee998ae1eccdb259bda228d02"),
    (["simulate", "prop4", "--q", "3", "--m", "5", "--n", "3", "--u", "1", "--v", "2",
      "--ell", "1", "--trials", "60"], 0,
     "be777d9b3cef981d680b7da12029d340946633f760a3caeaff292e1fc7267081"),
    (["simulate", "roundtrip", "--q", "3", "--m", "5", "--n", "5", "--k", "1",
      "--trials", "60"], 0,
     "500f64302396b047dfaf683bcf05d273169e11a49a83253c8334409a535c22c2"),
    (["simulate", "lemma2", "--q", "3", "--m", "8", "--n", "4", "--trials", "100"], 0,
     "8767d99d74d89e16fcfee0950bdeb5e67c4c3249beeba44edf96f2fae4c5d548"),
]


def test_odd_q_and_uniform_w_reports_match_their_pinned_digests(tmp_path, capsys):
    for args, code, digest in _MORE_SIMULATE_RUNS:
        out = tmp_path / f"{args[1]}.json"
        assert main(args + ["--seed", "23", "--out", str(out)]) == code, args
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, f"run {args} changed"
