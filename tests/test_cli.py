"""Command line behavior: exit codes, file outputs, reproducibility."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rankfuzz
from rankfuzz import analysis, cli
from rankfuzz.analysis import load_report
from rankfuzz.cli import _verdict_exit, build_parser, main
from rankfuzz.fields import ext_field

F256 = ext_field(2, 8)

BASIS = [1, 2, 4, 8, 16, 32, 64, 128]
OFFBASIS = [3, 5, 9, 17, 33, 65, 129, 7]  # independent, disjoint from BASIS


def write_vec(field, path, vec):
    path.write_text("".join(field.to_hex(v) + "\n" for v in vec), encoding="ascii")


# ---------------------------------------------------------------------------
# field-info.


def test_field_info_text(capsys):
    assert main(["field-info", "--q", "2", "--m", "8"]) == 0
    out = capsys.readouterr().out
    assert "q = 2" in out and "m = 8" in out and "order = 256" in out
    assert "modulus" in out


def test_field_info_json(capsys):
    assert main(["field-info", "--q", "3", "--m", "2", "--format", "json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["order"] == 9
    assert len(info["modulus_coeffs"]) == 3


def test_field_info_rejects_composite_base(capsys):
    assert main(["field-info", "--q", "4", "--m", "2"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# commit / verify.


@pytest.fixture
def committed(tmp_path, capsys):
    wit = tmp_path / "w.hex"
    com = tmp_path / "c.json"
    write_vec(F256, wit, BASIS)
    rc = main([
        "commit", "--q", "2", "--m", "8", "--n", "8", "--k", "4",
        "--witness", str(wit), "--out", str(com), "--seed", "5",
    ])
    assert rc == 0
    capsys.readouterr()
    return wit, com


def test_commit_writes_file_and_summary(tmp_path, capsys):
    wit = tmp_path / "w.hex"
    com = tmp_path / "c.json"
    write_vec(F256, wit, BASIS)
    rc = main([
        "commit", "--q", "2", "--m", "8", "--n", "8", "--k", "4",
        "--witness", str(wit), "--out", str(com), "--format", "json",
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["tolerated_rank"] == 2
    assert json.loads(com.read_text())["n"] == 8


def test_commit_is_seed_deterministic(tmp_path, capsys):
    wit = tmp_path / "w.hex"
    write_vec(F256, wit, BASIS)
    args = ["commit", "--q", "2", "--m", "8", "--n", "8", "--k", "4", "--witness", str(wit)]
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    assert main(args + ["--out", str(a), "--seed", "9"]) == 0
    assert main(args + ["--out", str(b), "--seed", "9"]) == 0
    assert main(args + ["--out", str(c), "--seed", "10"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_verify_accepts_exact_witness(committed, capsys):
    wit, com = committed
    rc = main(["verify", "--commitment", str(com), "--witness", str(wit)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("accepted")


def test_verify_accepts_low_rank_perturbation(committed, tmp_path, capsys):
    wit, com = committed
    # rank-1 disturbance: the same nonzero offset on two positions
    vec = [F256.add(v, 33) if i < 2 else v for i, v in enumerate(BASIS)]
    near = tmp_path / "near.hex"
    write_vec(F256, near, vec)
    rc = main(["verify", "--commitment", str(com), "--witness", str(near), "--format", "json"])
    assert rc == 0
    outcome = json.loads(capsys.readouterr().out)
    assert outcome["accepted"] is True and outcome["reason"] is None


def test_verify_rejects_far_witness(committed, tmp_path, capsys):
    _, com = committed
    far = tmp_path / "far.hex"
    write_vec(F256, far, OFFBASIS)
    outpath = tmp_path / "outcome.json"
    rc = main([
        "verify", "--commitment", str(com), "--witness", str(far), "--out", str(outpath),
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert "rejected" in captured.out
    assert captured.err.startswith("reason:")
    assert json.loads(outpath.read_text())["accepted"] is False


def test_verify_bad_witness_file(committed, tmp_path, capsys):
    _, com = committed
    short = tmp_path / "short.hex"
    write_vec(F256, short, BASIS[:3])
    assert main(["verify", "--commitment", str(com), "--witness", str(short)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["verify", "--commitment", str(com), "--witness", str(tmp_path / "no.hex")]) == 2


def test_commit_longer_than_m_names_the_dimensions(tmp_path, capsys):
    # n > m is the fault, not the evaluation point x^m past the field
    wit, com = tmp_path / "w.hex", tmp_path / "c.json"
    write_vec(ext_field(2, 4), wit, [1, 2, 4, 8, 3])
    argv = ["commit", "--q", "2", "--m", "4", "--n", "5", "--k", "2",
            "--witness", str(wit), "--out", str(com)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: need 1 <= k <= n <= m, got k=2, n=5, m=4\n"
    assert not com.exists()


MALFORMED_COMMITMENTS = {
    "missing_digest": lambda d: {k: v for k, v in d.items() if k != "digest"},
    "top_level_list": lambda d: [d],
    "float_q": lambda d: dict(d, q=2.5),
    "int_points": lambda d: dict(d, points=[1] * len(d["points"])),
    "spaced_digest": lambda d: dict(
        d, digest=" ".join(d["digest"][i : i + 2] for i in range(0, 64, 2))
    ),
}


@pytest.mark.parametrize("mutate", MALFORMED_COMMITMENTS.values(), ids=MALFORMED_COMMITMENTS)
def test_verify_rejects_malformed_commitment(committed, tmp_path, mutate):
    wit, com = committed
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(json.loads(com.read_text()))))
    env = dict(os.environ, PYTHONPATH=str(Path(rankfuzz.__file__).parents[1]))
    argv = ["verify", "--commitment", str(bad), "--witness", str(wit)]
    proc = subprocess.run(
        [sys.executable, "-m", "rankfuzz", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# vault lock / unlock.


@pytest.fixture
def locked(tmp_path, capsys):
    feats = tmp_path / "f.hex"
    key = tmp_path / "k.hex"
    vault = tmp_path / "v.json"
    write_vec(F256, feats, BASIS)
    write_vec(F256, key, [171, 205])
    rc = main([
        "vault", "lock", "--q", "2", "--m", "8", "--n", "8", "--ell", "2",
        "--features", str(feats), "--key", str(key), "--out", str(vault), "--seed", "3",
    ])
    assert rc == 0
    capsys.readouterr()
    return feats, key, vault


def test_vault_unlock_recovers_key(locked, tmp_path, capsys):
    feats, key, vault = locked
    key_out = tmp_path / "rec.hex"
    rc = main([
        "vault", "unlock", "--vault", str(vault), "--witness", str(feats),
        "--key-out", str(key_out),
    ])
    assert rc == 0
    assert key_out.read_bytes() == key.read_bytes()


def test_vault_unlock_failure_reason(locked, tmp_path, capsys):
    _, _, vault = locked
    far = tmp_path / "far.hex"
    write_vec(F256, far, OFFBASIS)
    rc = main([
        "vault", "unlock", "--vault", str(vault), "--witness", str(far),
        "--key-out", str(tmp_path / "rec.hex"), "--format", "json",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["reason"] == "unlock_failure"
    assert "reason: unlock_failure" in captured.err


def test_vault_unlock_rejects_bad_witness_sets(locked, tmp_path, capsys):
    _, _, vault = locked
    dup = tmp_path / "dup.hex"
    write_vec(F256, dup, [1, 1, 2, 4, 8, 16, 32, 64])
    rc = main([
        "vault", "unlock", "--vault", str(vault), "--witness", str(dup),
        "--key-out", str(tmp_path / "r.hex"),
    ])
    assert rc == 2
    assert "duplicate_features" in capsys.readouterr().err
    dep = tmp_path / "dep.hex"
    write_vec(F256, dep, [1, 2, 3, 8, 16, 32, 64, 128])
    rc = main([
        "vault", "unlock", "--vault", str(vault), "--witness", str(dep),
        "--key-out", str(tmp_path / "r.hex"),
    ])
    assert rc == 2
    assert "dependent_features" in capsys.readouterr().err


def test_vault_lock_rejects_bad_features(tmp_path, capsys):
    key = tmp_path / "k.hex"
    write_vec(F256, key, [7, 9])
    out = tmp_path / "v.json"
    base = [
        "vault", "lock", "--q", "2", "--m", "8", "--n", "8", "--ell", "2",
        "--key", str(key), "--out", str(out),
    ]
    dup = tmp_path / "dup.hex"
    write_vec(F256, dup, [1, 1, 2, 4, 8, 16, 32, 64])
    assert main(base + ["--features", str(dup)]) == 2
    assert "duplicate_features" in capsys.readouterr().err
    dep = tmp_path / "dep.hex"
    write_vec(F256, dep, [1, 2, 3, 8, 16, 32, 64, 128])
    assert main(base + ["--features", str(dep)]) == 2
    assert "dependent_features" in capsys.readouterr().err
    assert not out.exists()


def test_vault_feature_refusals_print_one_reason_line(locked, tmp_path, capsys):
    """A duplicate or dependent feature set prints only its reason line
    and exits 2, at lock and at unlock; a vault file that lists an
    element twice is malformed input and prints an error: line."""
    _, key, vault = locked
    refusals = {
        "duplicate_features": [1, 1, 2, 4, 8, 16, 32, 64],
        "dependent_features": [1, 2, 3, 8, 16, 32, 64, 128],
    }
    for reason, feats in refusals.items():
        path = tmp_path / f"{reason}.hex"
        write_vec(F256, path, feats)
        out = tmp_path / "v2.json"
        rc = main([
            "vault", "lock", "--q", "2", "--m", "8", "--n", "8", "--ell", "2",
            "--features", str(path), "--key", str(key), "--out", str(out),
        ])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr() == ("", f"reason: {reason}\n")
        rc = main([
            "vault", "unlock", "--vault", str(vault), "--witness", str(path),
            "--key-out", str(tmp_path / "r.hex"),
        ])
        assert rc == 2
        assert capsys.readouterr() == ("", f"reason: {reason}\n")
    record = json.loads(vault.read_text(encoding="ascii"))
    record["points"][5] = [record["points"][4][0], "00" * 8]
    repeated = tmp_path / "repeated.json"
    repeated.write_text(json.dumps(record), encoding="ascii")
    rc = main([
        "vault", "unlock", "--vault", str(repeated), "--witness", str(tmp_path / "r.hex"),
        "--key-out", str(tmp_path / "r2.hex"),
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: table lists {record['points'][4][0]} twice\n"


def test_vault_lock_is_seed_deterministic(tmp_path, capsys):
    feats = tmp_path / "f.hex"
    key = tmp_path / "k.hex"
    write_vec(F256, feats, BASIS)
    write_vec(F256, key, [17, 34])
    base = [
        "vault", "lock", "--q", "2", "--m", "8", "--n", "8", "--ell", "2",
        "--features", str(feats), "--key", str(key), "--seed", "8",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# The SHA-256 of seeded vault files as the per-element chaff loop wrote
# them; any change to the chaff draw, the table or the file form shows here.
@pytest.mark.parametrize(
    "q, m, n, feats, key, seed, digest",
    [
        (2, 8, 8, [1 << i for i in range(8)], [17, 34], 8,
         "b28f53c85bbfb7a28f03c35c6f47eeafbbf6b5d0fe4db626af40d1928d99da3d"),
        (2, 16, 8, [1 << i for i in range(8)], [0x1234, 0xBEEF], 16,
         "7e073bdaa9def11bc029eac15a60eabe6ec51de1af569deb076c6fd72d1322f9"),
        (3, 5, 4, [1, 3, 9, 27], [5, 100], 35,
         "14ae3f3180f3d9094ba3de58369599476441fcbec409480770b7ace56ea27b26"),
    ],
    ids=["2-8", "2-16", "3-5"],
)
def test_vault_lock_golden_file(tmp_path, capsys, q, m, n, feats, key, seed, digest):
    fld = ext_field(q, m)
    write_vec(fld, tmp_path / "f.hex", feats)
    write_vec(fld, tmp_path / "k.hex", key)
    out = tmp_path / "v.json"
    rc = main([
        "vault", "lock", "--q", str(q), "--m", str(m), "--n", str(n), "--ell", "2",
        "--features", str(tmp_path / "f.hex"), "--key", str(tmp_path / "k.hex"),
        "--out", str(out), "--seed", str(seed),
    ])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_vault_lock_and_unlock_at_benchmark_shape(tmp_path, capsys):
    """The auth-table benchmark's shape, (2,16) with n = 16 and ell = 4:
    the seeded file's SHA-256, then an unlock that recovers the key from
    a witness sharing 10 of the 16 features, which is within t = 6."""
    fld = ext_field(2, 16)
    key = [0x1234, 0xBEEF, 0x0F0F, 0x8001]
    write_vec(fld, tmp_path / "f.hex", [1 << i for i in range(16)])
    write_vec(fld, tmp_path / "k.hex", key)
    witness = [1 << i for i in range(10)] + [1 << i | 1 for i in range(10, 16)]
    write_vec(fld, tmp_path / "w.hex", witness)
    vault, out = tmp_path / "v.json", tmp_path / "rec.hex"
    assert main([
        "vault", "lock", "--q", "2", "--m", "16", "--n", "16", "--ell", "4",
        "--features", str(tmp_path / "f.hex"), "--key", str(tmp_path / "k.hex"),
        "--out", str(vault), "--seed", "2016",
    ]) == 0
    assert hashlib.sha256(vault.read_bytes()).hexdigest() == (
        "4ad01576879ba275bd6a3e3f0f14b24088dd9772e28ad9b4d815d1898b46c10f"
    )
    assert main([
        "vault", "unlock", "--vault", str(vault), "--witness", str(tmp_path / "w.hex"),
        "--key-out", str(out),
    ]) == 0
    assert out.read_text(encoding="ascii").split() == [fld.to_hex(k) for k in key]
    assert capsys.readouterr().out.splitlines()[-1] == f"key recovered to {out}"


# ---------------------------------------------------------------------------
# simulate.


def test_simulate_lemma2_exhaustive(tmp_path, capsys):
    rep = tmp_path / "r.json"
    rc = main([
        "simulate", "lemma2", "--q", "2", "--m", "2", "--n", "2", "--out", str(rep),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lemma2" in out and "verdict: exact_match" in out
    loaded = load_report(rep)
    assert loaded.mode == "exhaustive" and loaded.successes == 3


def test_simulate_json_output(capsys):
    rc = main([
        "simulate", "lemma2", "--q", "2", "--m", "3", "--n", "2", "--format", "json",
    ])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d["claim"] == "lemma2" and d["verdict"] == "exact_match"
    assert d["formula"] == {"numerator": 3, "denominator": 4}


def test_simulate_prop2_report_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "simulate", "prop2", "--q", "2", "--n", "4", "--u", "4", "--ell", "2",
        "--trials", "30", "--seed", "6",
    ]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert load_report(a).successes == 30  # full overlap is always tight


def test_simulate_sweep_smoke(tmp_path, capsys):
    rep = tmp_path / "sweep.json"
    rc = main([
        "simulate", "thm3", "--n", "4", "--ell", "1", "--q-sweep", "2,3",
        "--trials", "400", "--seed", "42", "--out", str(rep),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "failure rates:" in out
    loaded = load_report(rep)
    assert loaded.verdict == "within_3sigma" and len(loaded.points) == 2


def test_simulate_roundtrip_defaults_to_fewer_trials():
    args = build_parser().parse_args(
        ["simulate", "roundtrip", "--q", "2", "--m", "4", "--n", "4", "--k", "2"]
    )
    assert args.trials == 10**3
    args2 = build_parser().parse_args(
        ["simulate", "lemma2", "--q", "2", "--m", "4", "--n", "4"]
    )
    assert args2.trials == 10**4


def test_simulate_roundtrip_runs(capsys):
    rc = main([
        "simulate", "roundtrip", "--q", "2", "--m", "6", "--n", "6", "--k", "2",
        "--trials", "40", "--seed", "2",
    ])
    assert rc == 0
    assert "verdict: within_3sigma" in capsys.readouterr().out


def test_simulate_calls_the_campaign_the_module_holds_now(monkeypatch, capsys):
    # the claim table names each campaign, so a wrapper installed on the
    # analysis module after the parser was built, as the benchmark's
    # tracer installs its spans, is the one a simulate command calls
    cli._parser()
    calls = []
    campaign = analysis.mc_decode_roundtrip

    def counted(**kwargs):
        calls.append(kwargs)
        return campaign(**kwargs)

    monkeypatch.setattr(analysis, "mc_decode_roundtrip", counted)
    assert main("simulate roundtrip --q 2 --m 4 --n 4 --k 2 --trials 5".split()) == 0
    assert calls == [{"q": 2, "m": 4, "n": 4, "k": 2, "s": 1, "trials": 5, "seed": 0}]


def test_runs_without_numpy():
    # a None entry in sys.modules makes every import of numpy fail
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from rankfuzz.cli import main\n"
        "sys.exit(main(['simulate', 'roundtrip', '--q', '3', '--m', '5', '--n', '5',"
        " '--k', '1', '--trials', '20']))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(rankfuzz.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


INVALID_SIMULATIONS = {
    "n-zero": "lemma2 --q 2 --m 4 --n 0",
    "trials-zero": "lemma2 --q 2 --m 4 --n 2 --trials 0",
    "trials-negative": "prop2 --q 2 --n 4 --u 2 --ell 1 --trials -3",
    "k-zero": "roundtrip --q 2 --m 4 --n 4 --k 0",
    "n-above-m": "lemma2 --q 2 --m 4 --n 5",
    "bad-s": "prop4 --q 2 --m 6 --n 3 --u 1 --v 2 --ell 1 --s 3",
    "u-above-n": "prop2 --q 2 --n 4 --u 5 --ell 1",
    "ell-not-below-n": "prop2 --q 2 --n 4 --u 2 --ell 4",
    "v-below-u": "prop4 --q 2 --m 6 --n 3 --u 2 --v 1 --ell 1",
    "span-above-m": "prop4 --q 2 --m 5 --n 3 --u 0 --v 0 --ell 1",
    "m-sweep-past-table-guard": "thm5 --q 2 --n 3 --ell 1 --m-sweep 4,21",
    "prop2-u0-in-F4": "prop2 --q 2 --n 2 --u 0 --ell 1",
    "thm3-uniform-u-in-F4": "thm3 --n 2 --ell 1 --q-sweep 2,3",
    "thm5-uniform-u-in-F4": "thm5 --q 2 --n 2 --ell 1 --m-sweep 2,3",
    "q-sweep-decreasing": "thm3 --n 3 --ell 1 --q-sweep 5,3,2",
    "q-sweep-repeated": "thm3 --n 3 --ell 1 --q-sweep 3,3",
}


@pytest.mark.parametrize("argv", INVALID_SIMULATIONS.values(), ids=INVALID_SIMULATIONS.keys())
def test_simulate_invalid_params_exit_2(argv, capsys):
    rc = main(["simulate", *argv.split()])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "Traceback" not in captured.err


def test_simulate_prop4_names_an_unreachable_witness_shape(capsys):
    # over F_2 the span of two features has no basis avoiding both
    argv = "prop4 --q 2 --m 4 --n 2 --u 0 --v 2 --ell 1"
    assert main(["simulate", *argv.split()]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: at q = 2") and "u = 0 and v = n cannot be met" in line


@pytest.mark.parametrize(
    "argv",
    ["roundtrip --q 2 --m 64 --n 4 --k 2", "lemma2 --q 251 --m 8 --n 3"],
    ids=["roundtrip-2-64", "lemma2-251-8"],
)
def test_simulate_past_sys_maxsize_exits_0(argv, capsys):
    # q^m above sys.maxsize, where a range is too long for random.sample
    assert main(["simulate", *argv.split(), "--trials", "5", "--seed", "3"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("sweep", ["2", "2,3,4"])
def test_simulate_sweep_refuses_a_bad_point_before_any_campaign(sweep, monkeypatch, capsys):
    def no_campaign(*args, **kwargs):
        raise AssertionError("a campaign ran before the sweep was checked")

    monkeypatch.setattr(analysis, "mc_scheme_tightness", no_campaign)
    rc = main([
        "simulate", "thm3", "--n", "3", "--ell", "1", "--q-sweep", sweep, "--trials", "3000",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    if sweep == "2":
        assert err == "error: a sweep needs at least two points\n"
    else:
        assert err.startswith("error: q must be a prime") and err.count("\n") == 1


def test_simulate_claim_violation_exits_1_with_one_reason_line(monkeypatch, capsys):
    monkeypatch.setattr(analysis, "subspace_intersection", lambda field, a, b: ())
    rc = main([
        "simulate", "prop4", "--q", "2", "--m", "6", "--n", "3", "--u", "1", "--v", "2",
        "--ell", "1", "--trials", "5",
    ])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("reason: claim_violation (")


def test_verdict_exit_mapping():
    assert _verdict_exit("exact_match", False) == 0
    assert _verdict_exit("within_3sigma", True) == 0
    assert _verdict_exit("flagged", False) == 0
    assert _verdict_exit("flagged", True) == 1
    assert _verdict_exit("failed", False) == 1
    assert _verdict_exit("failed", True) == 1


def test_missing_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["commit"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# The flag contract: every option of every command path.

HELP = ("flag", False, argparse.SUPPRESS, None)
NUMBER = ("int", True, None, None)
FILE = ("str", True, None, None)
OPTIONAL_FILE = ("str", False, None, None)
TWIST = ("int", False, 1, None)
SEED = ("int", False, 0, None)
FORMAT = ("str", False, "text", ("text", "json"))
DISTRIBUTION = ("str", False, "uniform_u", ("uniform_u", "uniform_w"))
SIMULATE = {
    "--trials": ("int", False, 10**4, None),
    "--out": OPTIONAL_FILE,
    "--strict": ("flag", False, False, None),
    "--seed": SEED,
    "--format": FORMAT,
}

# (kind, required, default, choices) per option string; kind is "flag"
# for an option that takes no value, else the name of its type.  Every
# path also takes -h and --help; "<command>" stands for a subcommand.
FLAG_CONTRACT = {
    (): {"<command>": ("command", True, None, ("field-info", "commit", "verify", "vault", "simulate"))},
    ("field-info",): {"--q": NUMBER, "--m": NUMBER, "--format": FORMAT},
    ("commit",): {
        "--q": NUMBER, "--m": NUMBER, "--n": NUMBER, "--k": NUMBER, "--s": TWIST,
        "--witness": FILE, "--out": FILE, "--seed": SEED, "--format": FORMAT,
    },
    ("verify",): {
        "--commitment": FILE, "--witness": FILE, "--out": OPTIONAL_FILE, "--format": FORMAT,
    },
    ("vault",): {"<command>": ("command", True, None, ("lock", "unlock"))},
    ("vault", "lock"): {
        "--q": NUMBER, "--m": NUMBER, "--n": NUMBER, "--ell": NUMBER, "--s": TWIST,
        "--features": FILE, "--key": FILE, "--out": FILE, "--seed": SEED, "--format": FORMAT,
    },
    ("vault", "unlock"): {
        "--vault": FILE, "--witness": FILE, "--key-out": FILE, "--format": FORMAT,
    },
    ("simulate",): {
        "<command>": (
            "command", True, None, ("lemma2", "prop2", "prop4", "thm3", "thm5", "roundtrip")
        ),
    },
    ("simulate", "lemma2"): {**SIMULATE, "--q": NUMBER, "--m": NUMBER, "--n": NUMBER},
    ("simulate", "prop2"): {
        **SIMULATE, "--q": NUMBER, "--n": NUMBER, "--u": NUMBER, "--ell": NUMBER, "--s": TWIST,
    },
    ("simulate", "prop4"): {
        **SIMULATE, "--q": NUMBER, "--m": NUMBER, "--n": NUMBER, "--u": NUMBER, "--v": NUMBER,
        "--ell": NUMBER, "--s": TWIST,
    },
    ("simulate", "thm3"): {
        **SIMULATE, "--n": NUMBER, "--ell": NUMBER, "--s": TWIST,
        "--q-sweep": ("_int_list", False, [2, 3, 5], None), "--distribution": DISTRIBUTION,
    },
    ("simulate", "thm5"): {
        **SIMULATE, "--q": NUMBER, "--n": NUMBER, "--ell": NUMBER, "--s": TWIST,
        "--m-sweep": ("_int_list", False, [4, 5, 6], None), "--distribution": DISTRIBUTION,
    },
    ("simulate", "roundtrip"): {
        **SIMULATE, "--trials": ("int", False, 10**3, None),
        "--q": NUMBER, "--m": NUMBER, "--n": NUMBER, "--k": NUMBER, "--s": TWIST,
    },
}


def _flag_contract(parser, path=()):
    """{command path: {option string: (kind, required, default, choices)}}."""
    table, options = {}, {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            options["<command>"] = ("command", action.required, None, tuple(action.choices))
            for name, child in action.choices.items():
                table.update(_flag_contract(child, path + (name,)))
            continue
        kind = "flag" if action.nargs == 0 else getattr(action.type, "__name__", "str")
        choices = tuple(action.choices) if action.choices else None
        for option in action.option_strings:
            options[option] = (kind, action.required, parser.get_default(action.dest), choices)
    table[path] = options
    return table


def test_every_command_path_keeps_its_flag_contract():
    expected = {
        path: {"-h": HELP, "--help": HELP, **options} for path, options in FLAG_CONTRACT.items()
    }
    assert _flag_contract(build_parser()) == expected


# ---------------------------------------------------------------------------
# One parser per process: main builds it on its first call and keeps it,
# so repeated calls must parse as independently as fresh processes do.


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []

    def counting_build():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    for _ in range(5):
        assert main(["field-info", "--q", "2", "--m", "4"]) == 0
    with pytest.raises(SystemExit):
        main(["field-info", "--q", "2"])
    assert main(["field-info", "--q", "4", "--m", "2"]) == 2
    assert len(built) == 1


def _enrolments(tmp_path):
    """(argv, output file) per command that writes a seeded file."""
    wit, feats, key = tmp_path / "w.hex", tmp_path / "f.hex", tmp_path / "k.hex"
    write_vec(F256, wit, BASIS)
    write_vec(F256, feats, OFFBASIS)
    write_vec(F256, key, [171, 205])
    com, vault, rep = tmp_path / "c.json", tmp_path / "v.json", tmp_path / "r.json"
    return {
        "commit": ([
            "commit", "--q", "2", "--m", "8", "--n", "8", "--k", "4",
            "--witness", str(wit), "--out", str(com), "--seed", "4",
        ], com),
        "lock": ([
            "vault", "lock", "--q", "2", "--m", "8", "--n", "8", "--ell", "2",
            "--features", str(feats), "--key", str(key), "--out", str(vault), "--seed", "4",
        ], vault),
        "prop2": ([
            "simulate", "prop2", "--q", "3", "--n", "3", "--u", "1", "--ell", "1",
            "--trials", "60", "--seed", "4", "--out", str(rep),
        ], rep),
    }


@pytest.mark.parametrize("command", ["commit", "lock", "prop2"])
def test_same_argv_gives_the_same_run_after_failed_calls(command, tmp_path, capsys):
    argv, out = _enrolments(tmp_path)[command]
    short = tmp_path / "short.hex"
    write_vec(F256, short, BASIS[:3])
    runs = []
    for _ in range(2):
        rc = main(argv)
        runs.append((rc, out.read_bytes(), capsys.readouterr()))
        out.unlink()
        # a usage error part way through the same command's flags, then an
        # input error that exits 2 from inside the command
        with pytest.raises(SystemExit) as exc:
            main(argv[:-2] + ["--seed", "x"])
        assert exc.value.code == 2
        bad = ["commit", "--q", "2", "--m", "8", "--n", "8", "--k", "4",
               "--witness", str(short), "--out", str(tmp_path / "bad.json")]
        assert main(bad) == 2
        assert "error: " in capsys.readouterr().err
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


@pytest.mark.parametrize(
    "argv, dest, default",
    [
        ("simulate thm3 --n 3 --ell 1 --trials 20", "q_values", [2, 3, 5]),
        ("simulate thm5 --q 2 --n 3 --ell 1 --trials 20", "m_values", [4, 5, 6]),
    ],
)
def test_sweeps_leave_the_shared_sweep_defaults_alone(argv, dest, default, capsys):
    # the default list is one object, shared by every call's namespace
    assert main(argv.split()) in (0, 1)
    assert getattr(cli._parser().parse_args(argv.split()), dest) == default


def _subparser(parser, path):
    for name in path:
        action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = action.choices[name]
    return parser


@pytest.mark.parametrize("path", [(), ("vault", "lock"), ("simulate", "thm5")])
def test_help_through_main_is_a_fresh_parsers_help(path, capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main([*path, "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == _subparser(build_parser(), path).format_help()


# Every command path's -h text, hashed into one digest at 80 columns:
# FLAG_CONTRACT pins the options but not their help lines.
HELP_DIGEST = "629a846ed66951ca071f61537cc4ac3bb210c0dc4b43e33964cd7c549af28d79"


def test_every_command_paths_help_text_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digest = hashlib.sha256()
    for path in FLAG_CONTRACT:
        digest.update(repr((path, _subparser(build_parser(), path).format_help())).encode())
    assert digest.hexdigest() == HELP_DIGEST


# argparse accepts any unique prefix of a long option, so these
# abbreviations are part of the command line: a new flag that shares one
# would turn an accepted command into an "ambiguous option" exit 2.
PREFIXES = {
    "q-sweep": ("simulate thm3 --n 3 --ell 1 --q 2,3", "q_values", [2, 3]),
    "m-sweep": ("simulate thm5 --q 2 --n 3 --ell 1 --m 4,5", "m_values", [4, 5]),
    "trials": ("simulate lemma2 --q 2 --m 4 --n 2 --tr 7", "trials", 7),
    "strict": ("simulate lemma2 --q 2 --m 4 --n 2 --st", "strict", True),
    "seed": ("simulate lemma2 --q 2 --m 4 --n 2 --se 9", "seed", 9),
}


@pytest.mark.parametrize("argv, dest, value", PREFIXES.values(), ids=PREFIXES.keys())
def test_unique_prefix_parses_as_its_flag(argv, dest, value):
    assert getattr(build_parser().parse_args(argv.split()), dest) == value


def test_ambiguous_prefix_exits_2(capsys):
    argv = "vault lock --q 2 --m 4 --n 2 --ell 1 --key k --out o --f json"
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "ambiguous option: --f could match --features, --format" in capsys.readouterr().err


def test_sweep_of_non_integers_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main("simulate thm3 --n 3 --ell 1 --q-sweep a,b".split())
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --q-sweep: not a comma-separated integer list: 'a,b'\n")


# every refusal argparse makes: one error: line, no usage block
ARGPARSE_REFUSALS = {
    "bad-int": "field-info --q x --m 3",
    "missing-flag": "field-info --q 2",
    "no-command": "",
    "bad-choice": "field-info --q 2 --m 3 --format xml",
    "unknown-claim": "simulate nope",
    "extra-argument": "field-info --q 2 --m 3 extra",
    "bad-sweep": "simulate thm3 --n 3 --ell 1 --q-sweep a,b",
    "no-vault-command": "vault",
    "unknown-vault-command": "vault open",
    "no-claim": "simulate",
}


@pytest.mark.parametrize("argv", ARGPARSE_REFUSALS.values(), ids=ARGPARSE_REFUSALS.keys())
def test_argparse_refusal_is_one_error_line(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    # it names what the user types, never the parser's internal names
    assert not re.search(r"\b(command|vault_command|claim)\b", err), err


def test_import_rankfuzz_loads_no_command_line():
    # the parser is built on the first main() call, never at import, so
    # neither argparse nor the cli module counts towards import time
    code = "import sys, rankfuzz; print(sorted({'argparse', 'rankfuzz.cli'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(rankfuzz.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# Console output, pinned: every command path in both --format styles, with
# its exit code and the files it writes, hashed into one digest.  Files
# are named relative to the working directory so no temporary path shows.

CONSOLE_RUNS = [
    "field-info --q 3 --m 2",
    "commit --q 2 --m 8 --n 8 --k 4 --witness w.hex --out c.json --seed 5",
    "verify --commitment c.json --witness w.hex --out ok.json",
    "verify --commitment c.json --witness far.hex --out no.json",
    "vault lock --q 2 --m 8 --n 8 --ell 2 --features w.hex --key k.hex --out v.json --seed 3",
    "vault unlock --vault v.json --witness w.hex --key-out rec.hex",
    "vault unlock --vault v.json --witness far.hex --key-out none.hex",
    "simulate prop2 --q 2 --n 4 --u 3 --ell 2 --trials 20 --seed 6 --out p.json",
    "simulate thm3 --n 4 --ell 1 --q-sweep 2,3 --trials 20 --seed 42 --out t.json",
]
CONSOLE_DIGEST = "fd68122b3d333be6f804ff2cfd2d6d8d6141cd952b42b68b5028f3c009b1f6ac"


def test_console_output_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_vec(F256, tmp_path / "w.hex", BASIS)
    write_vec(F256, tmp_path / "far.hex", OFFBASIS)
    write_vec(F256, tmp_path / "k.hex", [171, 205])
    digest = hashlib.sha256()
    for fmt in ("text", "json"):
        for argv in CONSOLE_RUNS:
            rc = main(argv.split() + ["--format", fmt])
            captured = capsys.readouterr()
            digest.update(repr((argv, fmt, rc, captured.out, captured.err)).encode())
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.json", "far.hex", "k.hex", "no.json", "ok.json", "p.json", "rec.hex", "t.json",
        "v.json", "w.hex",
    ]
    assert digest.hexdigest() == CONSOLE_DIGEST
