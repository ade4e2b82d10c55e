"""Input boundaries: every fixed-size element vector and feature set is
refused with a message naming the short input, every other refusal keeps
its type and message, every integer a record stores and every field
element refuses a bool, and every file the library writes loads back."""

import functools
import json
import random
import tempfile
from pathlib import Path

import pytest

from rankfuzz import (
    BadDimensions,
    BadRange,
    BadTwist,
    DegreeOutOfRange,
    DimensionMismatch,
    FeatureSet,
    GabidulinCode,
    LengthMismatch,
    LinearizedPoly,
    MalformedRecord,
    MismatchedField,
    NonPrimeQ,
    ParamMismatch,
    SweepReport,
    TrialReport,
    VaultParams,
    commit,
    ext_field,
    independence_probability,
    interpolate,
    load_commitment,
    load_report,
    load_vault,
    lock,
    rank_distance,
    save_commitment,
    save_vault,
    unlock,
    verify,
)
from rankfuzz.analysis import (
    mc_decode_roundtrip,
    mc_independence,
    mc_overlap_tightness,
    mc_subspace_tightness,
    save_report,
    sweep_basic_tightness,
    sweep_generalized_tightness,
    witness_map,
    witness_map_completed,
)
from rankfuzz.cli import main
from rankfuzz.commitment import commitment_from_dict, commitment_to_dict
from rankfuzz.errors import load_json, save_json
from rankfuzz.fields import solve_ext
from rankfuzz.linpoly import _check_twist
from rankfuzz.vault import _as_feature_set

F16 = ext_field(2, 4)
BASIS = (1, 2, 4, 8)
SHORT = (1, 2, 4)
KEY = (3, 5)
CODE = GabidulinCode(F16, 4, 2, 1, BASIS)
PARAMS = VaultParams(q=2, m=4, n=4, ell=2)


def _commitment():
    return commit(CODE, BASIS, random.Random(0))


def _vault():
    return lock(PARAMS, BASIS, KEY, random.Random(1))


def _completed(witness, features):
    kappa = LinearizedPoly(F16, 1, KEY)
    return witness_map_completed(_vault(), witness, features, kappa)


def _short_offset():
    record = commitment_to_dict(_commitment())
    return commitment_from_dict(dict(record, offset=record["offset"][:3]))


# Each sized boundary: the call, the exception it must raise and its message.
SIZED = {
    "commit-witness": (
        lambda: commit(CODE, SHORT, random.Random(0)),
        LengthMismatch, "witness: 3 elements, expected 4",
    ),
    "verify-witness": (
        lambda: verify(CODE, SHORT, _commitment()),
        LengthMismatch, "witness: 3 elements, expected 4",
    ),
    "code-points": (
        lambda: GabidulinCode(F16, 4, 2, 1, SHORT),
        LengthMismatch, "evaluation points: 3 elements, expected 4",
    ),
    "message": (lambda: CODE.encode((1,)), LengthMismatch, "message: 1 elements, expected 2"),
    "decode-received": (
        lambda: CODE.decode(SHORT), LengthMismatch, "received: 3 elements, expected 4",
    ),
    "lock-key": (
        lambda: lock(PARAMS, BASIS, (3,), random.Random(1)),
        LengthMismatch, "key: 1 elements, expected 2",
    ),
    "interpolate-values": (
        lambda: interpolate(F16, 1, BASIS, SHORT),
        LengthMismatch, "values: 3 elements, expected 4",
    ),
    "commitment-offset": (_short_offset, LengthMismatch, "offset: 3 elements, expected 4"),
    "lock-features": (
        lambda: lock(PARAMS, SHORT, KEY, random.Random(1)),
        ParamMismatch, "features: 3 elements, expected 4",
    ),
    "unlock-witness": (
        lambda: unlock(_vault(), SHORT), ParamMismatch, "witness: 3 elements, expected 4",
    ),
    "witness-map-witness": (
        lambda: witness_map(_vault(), SHORT), ParamMismatch, "witness: 3 elements, expected 4",
    ),
    "completed-witness": (
        lambda: _completed(SHORT, BASIS), ParamMismatch, "witness: 3 elements, expected 4",
    ),
    "completed-features": (
        lambda: _completed(BASIS, SHORT), ParamMismatch, "features: 3 elements, expected 4",
    ),
    "rank-distance": (
        lambda: rank_distance(F16, BASIS, SHORT), LengthMismatch, "vectors differ in length",
    ),
    "interpolate-points": (
        lambda: interpolate(F16, 1, (), ()), LengthMismatch, "need at least one point",
    ),
    "solve-rhs": (
        lambda: solve_ext(F16, [[1, 2], [3, 4]], [1]),
        DimensionMismatch, "right-hand side length does not match",
    ),
}


@pytest.mark.parametrize("call, exc, message", SIZED.values(), ids=SIZED.keys())
def test_sized_boundary_names_the_short_input(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message


@functools.cache
def _prop2():
    return mc_overlap_tightness(q=2, n=4, u=2, ell=1, trials=20, seed=6).to_dict()


@functools.cache
def _decodes():
    return mc_decode_roundtrip(q=2, m=4, n=4, k=2, trials=5, seed=6).to_dict()


@functools.cache
def _thm3():
    return sweep_basic_tightness(q_values=[2, 3], n=3, ell=1, trials=5, seed=6).to_dict()


def _load_edited(record, **edits):
    """load_report of a report file whose record has the given top-level
    values, params and points replaced wholesale."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "r.json"
        save_json(dict(record, **edits), path)
        return load_report(path)


def _prop2_params(**edits):
    return _load_edited(_prop2(), params=dict(_prop2()["params"], **edits))


def _thm3_point(i, **edits):
    points = [dict(p) for p in _thm3()["points"]]
    points[i].update(edits)
    return _load_edited(_thm3(), points=points)


def _thm3_at(q_values, **edits):
    """The thm3 report at the given q values, each point at its own, with
    the edits made to the params and to every point's params."""
    params = dict(_thm3()["params"], q_values=q_values, **edits)
    points = [
        dict(p, params=dict(p["params"], q=q, **edits)) for p, q in zip(_thm3()["points"], q_values)
    ]
    return _load_edited(_thm3(), params=params, points=points)


# Each other refusal at a library boundary, as SIZED.
REFUSALS = {
    "independence-n": (
        lambda: independence_probability(2, 2, 5), BadRange, "need 0 <= n <= q^m, got n=5",
    ),
    "feature-set-field": (
        lambda: _as_feature_set(PARAMS, FeatureSet(ext_field(2, 8), BASIS), "witness"),
        ParamMismatch, "witness: feature set belongs to a different field",
    ),
    "feature-set-elems": (
        lambda: setattr(FeatureSet(F16, BASIS), "elems", SHORT),
        AttributeError, "FeatureSet is immutable",
    ),
    "report-formula-float": (
        lambda: TrialReport("c", {}, 2, 1, 0.5),
        BadRange, "formula must lie in [0, 1] as a Fraction, or be None; got 0.5",
    ),
    "report-formula-str": (
        lambda: TrialReport("c", {}, 2, 1, "1/2"),
        BadRange, "formula must lie in [0, 1] as a Fraction, or be None; got '1/2'",
    ),
    "report-formula-int": (
        lambda: TrialReport("c", {}, 2, 1, 1),
        BadRange, "formula must lie in [0, 1] as a Fraction, or be None; got 1",
    ),
    "sweep-points": (
        lambda: SweepReport("c", {}, (TrialReport("c", {}, 2, 1), {"trials": 2})),
        ParamMismatch, "sweep points must be TrialReports",
    ),
    # load_report refuses a report its claim's campaign would not write
    "report-q-31": (
        lambda: _load_edited(
            _prop2(), params=dict(_prop2()["params"], q=31),
            formula={"numerator": _prop2()["successes"], "denominator": _prop2()["trials"]},
        ),
        MalformedRecord, "report: formula 1 is not prop2's rate 30783/30784",
    ),
    # 97^4 is past the vault's table guard, so no campaign writes this
    "report-q-97": (
        lambda: _load_edited(
            _prop2(), params=dict(_prop2()["params"], q=97),
            formula={"numerator": _prop2()["successes"], "denominator": _prop2()["trials"]},
        ),
        MalformedRecord,
        "report: prop2 params have no rate: total table needs q^m <= 1048576, got 88529281",
    ),
    # each param the campaign checks, not only those its rate reads
    "report-ell-s": (
        lambda: _prop2_params(ell=-5, s=0),
        MalformedRecord,
        "report: prop2 params have no rate: s must satisfy 1 <= s < 4 and gcd(s, m) = 1, got 0",
    ),
    "report-ell": (
        lambda: _prop2_params(ell=-5),
        MalformedRecord,
        "report: prop2 params have no rate: need 1 <= ell < n <= m, got ell=-5, n=4, m=4",
    ),
    "report-roundtrip-q-k": (
        lambda: _load_edited(_decodes(), params=dict(_decodes()["params"], q=4, k=9)),
        MalformedRecord, "report: roundtrip params have no rate: q must be a prime <= 251, got 4",
    ),
    "report-roundtrip-k": (
        lambda: _load_edited(_decodes(), params=dict(_decodes()["params"], k=9)),
        MalformedRecord,
        "report: roundtrip params have no rate: need 1 <= k <= n <= m, got k=9, n=4, m=4",
    ),
    "report-sweep-q-distribution": (
        lambda: _thm3_at([4, 6], distribution="bogus"),
        MalformedRecord, "report: thm3 params have no points: unknown distribution 'bogus'",
    ),
    "report-sweep-q": (
        lambda: _thm3_at([2, 4]),
        MalformedRecord, "report: thm3 params have no points: q must be a prime <= 251, got 4",
    ),
    "report-bogus-claim": (
        lambda: _load_edited(_prop2(), claim="bogus", params={"zzz": 1}),
        MalformedRecord, "report: unknown claim 'bogus'",
    ),
    "report-param-keys": (
        lambda: _load_edited(_prop2(), params={"zzz": 1}),
        MalformedRecord, "report: prop2 params: missing keys ['ell', 'n', 'q', 's', 'u']",
    ),
    "report-param-bool": (
        lambda: _prop2_params(u=True),
        MalformedRecord, "report: prop2 params: u must be int, got True",
    ),
    "report-param-str": (
        lambda: _prop2_params(q="2"),
        MalformedRecord, "report: prop2 params: q must be int, got '2'",
    ),
    "report-no-rate": (
        lambda: _prop2_params(q=4),
        MalformedRecord, "report: prop2 params have no rate: q must be a prime <= 251, got 4",
    ),
    "report-no-formula": (
        lambda: _load_edited(_prop2(), formula=None),
        MalformedRecord, "report: formula None is not prop2's rate 14/15",
    ),
    "report-trial-thm3": (
        lambda: _load_edited(_prop2(), claim="thm3"),
        MalformedRecord, "report: a thm3 report is a sweep",
    ),
    "report-sweep-prop2": (
        lambda: _load_edited(_thm3(), claim="prop2"),
        MalformedRecord, "report: a prop2 report is not a sweep",
    ),
    "report-sweep-bool-value": (
        lambda: _load_edited(_thm3(), params=dict(_thm3()["params"], q_values=[2, True])),
        MalformedRecord, "report: thm3 params: q_values must be a list of ints, got [2, True]",
    ),
    "report-sweep-values": (
        lambda: _load_edited(_thm3(), params=dict(_thm3()["params"], q_values=[2, 3, 5])),
        MalformedRecord, "sweep report: 2 points for 3 values",
    ),
    "report-point-claim": (
        lambda: _thm3_point(1, claim="thm5"),
        MalformedRecord, "sweep report: point 1 has claim 'thm5', not 'thm3'",
    ),
    "report-point-param": (
        lambda: _thm3_point(0, params=dict(_thm3()["points"][0]["params"], q=5)),
        MalformedRecord, "sweep report: point 0 is not the thm3 point at q=2 m=3",
    ),
    "report-point-bool": (
        lambda: _thm3_point(0, params=dict(_thm3()["points"][0]["params"], ell=True)),
        MalformedRecord, "sweep report: point 0 params: ell must be int, got True",
    ),
}


@pytest.mark.parametrize("call, exc, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_keeps_its_type_and_message(call, exc, message):
    test_sized_boundary_names_the_short_input(call, exc, message)


def _write(path, vec):
    path.write_text("".join(F16.to_hex(v) + "\n" for v in vec), encoding="ascii")


# Each sized command-line input: the argv, whose file holds the wrong
# number of names, and the one line it prints.
CLI_SIZED = {
    "commit-witness": (
        "commit --q 2 --m 4 --n 4 --k 2 --witness short.hex --out c.json",
        "error: short.hex: 3 elements, expected 4\n",
    ),
    "verify-witness": (
        "verify --commitment c.json --witness short.hex",
        "error: short.hex: 3 elements, expected 4\n",
    ),
    "lock-features": (
        "vault lock --q 2 --m 4 --n 4 --ell 2 --features short.hex --key k.hex --out v.json",
        "error: short.hex: 3 elements, expected 4\n",
    ),
    "lock-key": (
        "vault lock --q 2 --m 4 --n 4 --ell 2 --features w.hex --key one.hex --out v.json",
        "error: one.hex: 1 elements, expected 2\n",
    ),
    "unlock-witness": (
        "vault unlock --vault v.json --witness short.hex --key-out r.hex",
        "error: short.hex: 3 elements, expected 4\n",
    ),
}


@pytest.mark.parametrize("argv, err", CLI_SIZED.values(), ids=CLI_SIZED.keys())
def test_cli_sized_input_exits_2_with_one_error_line(argv, err, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "w.hex", BASIS)
    _write(tmp_path / "k.hex", KEY)
    _write(tmp_path / "short.hex", SHORT)
    _write(tmp_path / "one.hex", KEY[:1])
    save_commitment(_commitment(), tmp_path / "c.json")
    save_vault(_vault(), tmp_path / "v.json")
    assert main(argv.split()) == 2
    assert capsys.readouterr() == ("", err)


def test_cli_short_offset_exits_2_with_one_error_line(tmp_path, capsys):
    record = commitment_to_dict(_commitment())
    com = tmp_path / "c.json"
    com.write_text(json.dumps(dict(record, offset=record["offset"][:3])), encoding="ascii")
    wit = tmp_path / "w.hex"
    _write(wit, BASIS)
    assert main(["verify", "--commitment", str(com), "--witness", str(wit)]) == 2
    assert capsys.readouterr().err == "error: offset: 3 elements, expected 4\n"


# ---------------------------------------------------------------------------
# A bool is an int to Python but not to a record or a field element: each
# is refused where it would be stored.

_REPORT = TrialReport("c", {}, 2, 1)

BOOLS = {
    "field-q": (lambda: ext_field(True, 4), NonPrimeQ),
    "field-m": (lambda: ext_field(2, True), DegreeOutOfRange),
    "twist": (lambda: _check_twist(16, True), BadTwist),
    "twist-m1": (lambda: _check_twist(1, True), BadTwist),
    "code-n": (lambda: GabidulinCode(F16, True, 1, 1, BASIS[:1]), BadDimensions),
    "code-k": (lambda: GabidulinCode(F16, 4, True, 1, BASIS), BadDimensions),
    "code-s": (lambda: GabidulinCode(F16, 4, 2, True, BASIS), BadTwist),
    "vault-q": (lambda: VaultParams(q=True, m=4, n=4, ell=2), NonPrimeQ),
    "vault-m": (lambda: VaultParams(q=2, m=True, n=4, ell=2), DegreeOutOfRange),
    "vault-n": (lambda: VaultParams(q=2, m=4, n=True, ell=2), BadDimensions),
    "vault-ell": (lambda: VaultParams(q=2, m=4, n=4, ell=True), BadDimensions),
    "vault-s": (lambda: VaultParams(q=2, m=4, n=4, ell=2, s=True), BadTwist),
    "report-trials": (lambda: TrialReport("c", {}, True, 0), BadRange),
    "report-successes": (lambda: TrialReport("c", {}, 2, True), BadRange),
    "report-start": (lambda: TrialReport("c", {}, 2, 1, start=True), BadRange),
    "report-seed": (lambda: TrialReport("c", {}, 2, 1, seed=False), BadRange),
    "report-formula": (lambda: TrialReport("c", {}, 2, 1, True), BadRange),
    "sweep-seed": (lambda: SweepReport("c", {}, (_REPORT, _REPORT), seed=True), BadRange),
    "element": (lambda: F16.check(True), MismatchedField),
    "feature-set": (lambda: FeatureSet(F16, (True, 2, 4, 8)), MismatchedField),
    "code-point": (lambda: GabidulinCode(F16, 4, 2, 1, (True, 2, 4, 8)), MismatchedField),
    "poly-coeff": (lambda: LinearizedPoly(F16, 1, [True]), MismatchedField),
    "commit-witness": (lambda: commit(CODE, (True, 2, 4, 8), random.Random(0)), MismatchedField),
}


@pytest.mark.parametrize("call, exc", BOOLS.values(), ids=BOOLS.keys())
def test_bool_in_place_of_an_int_is_refused(call, exc):
    # cached first: an untyped cache would hand m = True the m = 1 field
    ext_field(2, 1)
    with pytest.raises(exc):
        call()


def test_report_keeps_a_negative_start_and_no_seed():
    report = TrialReport("c", {}, 16, 3, start=-16)
    assert report.start == -16 and report.seed is None


def test_field_info_after_a_refused_bool_degree_prints_an_int(capsys):
    with pytest.raises(DegreeOutOfRange):
        ext_field(2, True)
    assert main(["field-info", "--q", "2", "--m", "1", "--format", "json"]) == 0
    assert type(json.loads(capsys.readouterr().out)["m"]) is int


# ---------------------------------------------------------------------------
# Every file the library writes loads back, and writes the same bytes again.


def _roundtrip(tmp_path, obj, save, load):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save(obj, first)
    again = load(first)
    save(again, second)
    assert second.read_bytes() == first.read_bytes()
    return again


@pytest.mark.parametrize("q, m, s", [(2, 4, 1), (3, 5, 2)])
def test_commitment_file_loads_back(tmp_path, q, m, s):
    fld = ext_field(q, m)
    code = GabidulinCode(fld, 4, 2, s, [q**i for i in range(4)])
    com = commit(code, fld.random_vector(4, random.Random(2)), random.Random(3))
    assert _roundtrip(tmp_path, com, save_commitment, load_commitment) == com


@pytest.mark.parametrize("q, m, s", [(2, 4, 1), (3, 5, 2)])
def test_vault_file_loads_back(tmp_path, q, m, s):
    params = VaultParams(q=q, m=m, n=4, ell=2, s=s)
    vault = lock(params, [q**i for i in range(4)], KEY, random.Random(4))
    assert _roundtrip(tmp_path, vault, save_vault, load_vault) == vault


@pytest.mark.parametrize("seed", [None, 4])
def test_report_files_load_back(tmp_path, seed):
    trial = mc_overlap_tightness(q=2, n=4, u=3, ell=2, trials=5, seed=seed, start=7)
    sweep = sweep_basic_tightness(q_values=[2, 3], n=4, ell=1, trials=5, seed=seed)
    # one report of every other claim, lemma2 both enumerated and sampled
    others = (
        mc_independence(q=2, m=3, n=2, seed=seed),
        mc_independence(q=2, m=8, n=4, trials=5, seed=seed, start=3),
        mc_subspace_tightness(q=2, m=6, n=3, u=1, v=2, ell=1, trials=5, seed=seed),
        sweep_generalized_tightness(
            q=2, m_values=[3, 4], n=3, ell=1, trials=5, seed=seed, distribution="uniform_w"
        ),
        mc_decode_roundtrip(q=3, m=4, n=4, k=2, s=3, trials=5, seed=seed),
    )
    assert [r.mode for r in others[:2]] == ["exhaustive", "sampled"]
    for report in (trial, sweep, *others):
        again = _roundtrip(tmp_path, report, save_report, load_report)
        assert again.to_dict() == report.to_dict()


def test_verify_outcome_file_loads_back(tmp_path, capsys):
    com, wit, out = tmp_path / "c.json", tmp_path / "w.hex", tmp_path / "o.json"
    save_commitment(_commitment(), com)
    _write(wit, BASIS)
    argv = ["verify", "--commitment", str(com), "--witness", str(wit), "--out", str(out)]
    assert main(argv) == 0
    outcome = load_json(out)
    assert outcome["accepted"] is True
    assert _roundtrip(tmp_path, outcome, save_json, load_json) == outcome
