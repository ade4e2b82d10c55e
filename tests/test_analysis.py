"""Distances, reconstructed maps, exact formulas, and the trial harness."""

import hashlib
import inspect
import json
import math
import random
import sys
from fractions import Fraction
from itertools import combinations, product

import pytest

from rankfuzz import analysis, gabidulin
from rankfuzz.analysis import (
    CLAIMS,
    SubspaceMap,
    SweepReport,
    TrialReport,
    fq_combination,
    independence_probability,
    load_report,
    mc_decode_roundtrip,
    mc_independence,
    mc_overlap_tightness,
    mc_scheme_tightness,
    mc_subspace_tightness,
    merge_reports,
    overlap_tightness_probability,
    report_from_dict,
    restricted_rank,
    sample_feature_set,
    sample_witness_overlap,
    sample_witness_shaped,
    save_report,
    set_difference,
    subspace_distance,
    subspace_intersection,
    subspace_tightness_probability,
    sweep_basic_tightness,
    sweep_generalized_tightness,
    trend_holds,
    trial_rng,
    witness_map,
    witness_map_completed,
)
from rankfuzz.errors import (
    BadDimensions,
    BadRange,
    ClaimViolation,
    DecodingFailure,
    DegreeOutOfRange,
    DependentRestriction,
    DimensionMismatch,
    InfeasibleShape,
    MalformedRecord,
    MismatchedField,
    NonPrimeQ,
    ParamMismatch,
    TwistMismatch,
)
from rankfuzz.fields import ExtField, element_rank, ext_field, find_normal_element
from rankfuzz.gabidulin import GabidulinCode, random_rank_error
from rankfuzz.linpoly import LinearizedPoly
from rankfuzz.vault import FeatureSet, VaultParams, lock

F4 = ext_field(2, 2)
F16 = ext_field(2, 4)
F256 = ext_field(2, 8)
F27 = ext_field(3, 3)
F125 = ext_field(5, 3)


def naive_span(field, elems):
    """All F_q-combinations of the given elements."""
    out = set()
    for coeffs in product(range(field.q), repeat=len(elems)):
        out.add(fq_combination(field, coeffs, elems))
    return out


# ---------------------------------------------------------------------------
# Distances.


def test_set_difference():
    assert set_difference([1, 2, 3], [3, 4]) == 3
    assert set_difference([1, 2], [1, 2]) == 0
    assert set_difference([], [5]) == 1
    fs = FeatureSet(F16, (1, 2, 4))
    assert set_difference(fs, [4, 8]) == 3


def test_subspace_distance_known_cases():
    # identical spans
    assert subspace_distance(F16, [1, 2], [3, 1]) == 0  # 3 = 1 + 2
    # disjoint spans add their dimensions
    assert subspace_distance(F16, [1], [2]) == 2
    # overlap in one dimension: <1,2> vs <1,4>
    assert subspace_distance(F16, [1, 2], [1, 4]) == 2
    assert subspace_distance(F16, [], [1, 2]) == 2


def test_subspace_distance_matches_span_oracle():
    rng = random.Random(0)
    for fld in (F16, F27, F125):
        for _ in range(40):
            a = [fld.random_element(rng) for _ in range(rng.randrange(1, 4))]
            b = [fld.random_element(rng) for _ in range(rng.randrange(1, 4))]
            sa, sb = naive_span(fld, a), naive_span(fld, b)
            da = round(math.log(len(sa), fld.q))
            db = round(math.log(len(sb), fld.q))
            di = round(math.log(len(sa & sb), fld.q))
            assert subspace_distance(fld, a, b) == da + db - 2 * di


def test_subspace_intersection_against_span_oracle():
    rng = random.Random(1)
    for fld in (F16, F27, F125):
        for _ in range(40):
            a = [fld.random_element(rng) for _ in range(rng.randrange(1, 4))]
            b = [fld.random_element(rng) for _ in range(rng.randrange(1, 4))]
            basis = subspace_intersection(fld, a, b)
            assert element_rank(fld, list(basis)) == len(basis)
            assert naive_span(fld, list(basis)) == naive_span(fld, a) & naive_span(fld, b)
    assert subspace_intersection(F16, [], [1]) == ()


@pytest.mark.parametrize(
    "call",
    [
        lambda: subspace_intersection(F16, [16], [16]),
        lambda: subspace_distance(F16, [-1], [1]),
        lambda: restricted_rank(F16, lambda x: x, [16]),
    ],
    ids=["intersection", "distance", "restricted_rank"],
)
def test_distance_helpers_refuse_elements_outside_the_field(call):
    with pytest.raises(MismatchedField):
        call()


def test_fq_combination():
    assert fq_combination(F16, [1, 0, 1], [1, 2, 4]) == 5
    assert fq_combination(F27, [2, 1], [1, 3]) == F27.add(F27.mul(2, 1), 3)
    assert fq_combination(F16, [], []) == 0
    assert fq_combination(F16, [5, 4], [1, 2]) == 1  # coefficients reduce mod q


def test_restricted_rank():
    ident = lambda x: x
    assert restricted_rank(F16, ident, [1, 2, 4]) == 3
    assert restricted_rank(F16, lambda x: 0, [1, 2, 4]) == 0
    assert restricted_rank(F16, ident, []) == 0
    with pytest.raises(DependentRestriction):
        restricted_rank(F16, ident, [1, 2, 3])


# ---------------------------------------------------------------------------
# SubspaceMap.


def test_subspace_map_basics():
    sm = SubspaceMap(F16, (1, 2), (5, 7))
    assert sm.dim == 2
    assert sm(1) == 5 and sm(2) == 7
    assert sm(3) == F16.add(5, 7)
    assert 3 in sm and 0 in sm
    assert 4 not in sm
    with pytest.raises(BadRange):
        sm(4)
    assert repr(sm) == "SubspaceMap(dim=2 in F_2^4)"
    assert repr(SubspaceMap(F16, (), ())) == "SubspaceMap(dim=0 in F_2^4)"


def test_subspace_map_is_linear_on_domain():
    rng = random.Random(2)
    # (2, 40) and (3, 12) lie past the table limit, with graph rows 2m
    # digits wide
    for fld in (F256, F27, ext_field(2, 40), ext_field(3, 12)):
        basis = sample_feature_set(fld, 3, rng).elems
        images = fld.random_vector(3, rng)
        sm = SubspaceMap(fld, basis, images)
        for _ in range(30):
            cx = [rng.randrange(fld.q) for _ in basis]
            cy = [rng.randrange(fld.q) for _ in basis]
            x = fq_combination(fld, cx, basis)
            y = fq_combination(fld, cy, basis)
            assert sm(fld.add(x, y)) == fld.add(sm(x), sm(y))
            c = rng.randrange(fld.q)
            assert sm(fq_combination(fld, [c], [x])) == fq_combination(fld, [c], [sm(x)])


def test_subspace_map_odd_q_against_span_oracle():
    # every element, inside and outside the domain, at two odd-q fields
    rng = random.Random(9)
    for fld in (F27, ext_field(5, 3)):
        for dim in (1, 2):
            basis = sample_feature_set(fld, dim, rng).elems
            images = fld.random_vector(dim, rng)
            sm = SubspaceMap(fld, basis, images)
            span = naive_span(fld, basis)
            for x in fld.elements():
                assert (x in sm) == (x in span), (fld, basis, x)
                if x not in span:
                    with pytest.raises(BadRange):
                        sm(x)
            for coords in product(range(fld.q), repeat=dim):
                x = fq_combination(fld, coords, basis)
                assert sm(x) == fq_combination(fld, coords, images), (fld, basis, coords)


def test_subspace_map_full_basis_covers_field():
    sm = SubspaceMap(F16, (1, 2, 4, 8), (1, 2, 4, 8))
    for x in range(16):
        assert x in sm and sm(x) == x


def test_subspace_map_validation():
    with pytest.raises(DependentRestriction):
        SubspaceMap(F16, (1, 2, 3), (1, 2, 4))
    with pytest.raises(DimensionMismatch):
        SubspaceMap(F16, (1, 2), (1,))
    with pytest.raises(AttributeError):
        sm = SubspaceMap(F16, (1,), (2,))
        sm.images = (3,)


@pytest.mark.parametrize("field", [F16, F27], ids=["2-4", "3-3"])
def test_subspace_map_refuses_exactly_the_dependent_bases(field):
    # the graph span decides independence: full rank with every echelon
    # row q^m or more.  A dependent basis can still give a full-rank
    # graph, as (1, 2, 3) -> (1, 2, 4) does; element_rank is the oracle
    rng = random.Random(field.order)
    bases = [(1, 2, 3), (0,), (0, 1), (1, 1), (2, 2 * field.q)]
    bases += [tuple(field.random_element(rng) for _ in range(rng.randrange(1, 4))) for _ in range(300)]
    for basis in bases:
        for images in [basis, tuple(field.random_element(rng) for _ in basis)]:
            if element_rank(field, basis) == len(basis):
                sm = SubspaceMap(field, basis, images)
                assert [sm(b) for b in basis] == list(images)
            else:
                with pytest.raises(DependentRestriction):
                    SubspaceMap(field, basis, images)


# ---------------------------------------------------------------------------
# Witness maps.


def test_witness_map_matches_table_and_key():
    rng = random.Random(3)
    params = VaultParams(q=2, m=8, n=8, ell=2)
    feats = sample_feature_set(F256, 8, rng)
    key = F256.random_vector(2, rng)
    vault = lock(params, feats, key, rng)
    wit = sample_witness_overlap(F256, feats, 5, rng)
    wm = witness_map(vault, wit)
    for x in wit.elems:
        assert wm(x) == vault.table[x]
    # a witness equal to the features interpolates the key polynomial itself
    assert witness_map(vault, feats) == LinearizedPoly(F256, 1, key)


def test_witness_map_requires_square_shape():
    rng = random.Random(4)
    params = VaultParams(q=2, m=10, n=8, ell=2)
    feats = sample_feature_set(params.field, 8, rng)
    vault = lock(params, feats, params.field.random_vector(2, rng), rng)
    with pytest.raises(DimensionMismatch):
        witness_map(vault, feats)
    sq = VaultParams(q=2, m=8, n=8, ell=2)
    feats8 = sample_feature_set(F256, 8, rng)
    v8 = lock(sq, feats8, F256.random_vector(2, rng), rng)
    with pytest.raises(ParamMismatch):
        witness_map(v8, feats8.elems[:5])


def test_witness_map_completed_extends_over_feature_span():
    rng = random.Random(5)
    params = VaultParams(q=2, m=10, n=4, ell=2)
    fld = params.field
    feats = sample_feature_set(fld, 4, rng)
    key = fld.random_vector(2, rng)
    vault = lock(params, feats, key, rng)
    wit = sample_witness_shaped(fld, feats, 1, 2, rng)
    kappa = LinearizedPoly(fld, 1, key)
    lz = witness_map_completed(vault, wit, feats, kappa)
    for x in wit.elems:
        assert x in lz and lz(x) == vault.table[x]
    for g in feats.elems:
        assert g in lz
    # the i-th feature (1-based) that enlarges the span is shifted by the
    # i-th conjugate of the field's smallest normal element
    alpha = find_normal_element(fld)
    grown = 0
    for i, g in enumerate(feats.elems, start=1):
        before = list(wit.elems) + list(feats.elems[: i - 1])
        if element_rank(fld, before + [g]) > element_rank(fld, before):
            grown += 1
            assert lz(g) == fld.add(kappa(g), fld.frobenius(alpha, i))
    assert grown == lz.dim - 4 > 0
    # witness equal to the features leaves nothing to complete
    same = witness_map_completed(vault, feats, feats, kappa)
    assert same.dim == 4
    assert restricted_rank(fld, lambda x: fld.sub(kappa(x), same(x)), feats.elems) == 0


def test_witness_map_completed_validation():
    rng = random.Random(6)
    params = VaultParams(q=2, m=5, n=3, ell=1)
    fld = params.field
    feats = sample_feature_set(fld, 3, rng)
    key = fld.random_vector(1, rng)
    vault = lock(params, feats, key, rng)
    kappa = LinearizedPoly(fld, 1, key)
    with pytest.raises(ParamMismatch):
        witness_map_completed(vault, feats.elems[:2], feats, kappa)
    with pytest.raises(TypeError):
        witness_map_completed(vault, feats, feats, "nope")
    with pytest.raises(MismatchedField):
        witness_map_completed(vault, feats, feats, LinearizedPoly(F16, 1, (1,)))
    with pytest.raises(TwistMismatch):
        witness_map_completed(vault, feats, feats, LinearizedPoly(fld, 2, key))


# ---------------------------------------------------------------------------
# Exact formulas.


def test_independence_probability_hand_values():
    assert independence_probability(2, 2, 2) == Fraction(1, 2)
    assert independence_probability(2, 3, 2) == Fraction(3, 4)
    assert independence_probability(2, 3, 0) == 1
    assert independence_probability(3, 2, 1) == Fraction(8, 9)


def test_independence_probability_matches_enumeration():
    for q, m, n in [(2, 2, 2), (2, 3, 2), (2, 3, 3), (3, 2, 2)]:
        fld = ext_field(q, m)
        total = succ = 0
        for subset in combinations(range(fld.order), n):
            total += 1
            succ += element_rank(fld, subset) == n
        assert independence_probability(q, m, n) == Fraction(succ, total)


def test_overlap_tightness_probability_values():
    assert overlap_tightness_probability(2, 2, 2) == 1  # empty product
    assert overlap_tightness_probability(2, 2, 0) == Fraction(2, 3)
    assert overlap_tightness_probability(2, 3, 1) == Fraction(6, 7)
    with pytest.raises(BadRange):
        overlap_tightness_probability(2, 3, 4)


def test_subspace_tightness_probability_values():
    assert subspace_tightness_probability(2, 4, 3, 2, 2) == 1
    # v = n and m = n collapses onto the square-case formula
    for q, n, u in [(2, 3, 0), (2, 3, 2), (3, 2, 1)]:
        assert subspace_tightness_probability(q, n, n, u, n) == overlap_tightness_probability(q, n, u)
    # one factor: q=2, m=4, n=3, u=1, v=2 -> i = 1 only
    assert subspace_tightness_probability(2, 4, 3, 1, 2) == Fraction(16 - 2, 15)
    with pytest.raises(BadRange):
        subspace_tightness_probability(2, 4, 3, 2, 1)  # u > v
    with pytest.raises(BadRange):
        subspace_tightness_probability(2, 4, 5, 1, 2)  # n > m


def test_rates_and_report_checks_build_no_field(tmp_path):
    record = mc_overlap_tightness(q=2, n=4, u=2, ell=1, trials=3, seed=1).to_dict()
    record["params"].update(q=241, n=61, u=60)
    before = ext_field.cache_info()
    # first at cached shapes, so a rate that asks for the field fails here
    # rather than stall on (241, 61), which takes minutes to build
    independence_probability(2, 4, 3)
    subspace_tightness_probability(2, 4, 3, 1, 2)
    assert ext_field.cache_info() == before
    assert independence_probability(241, 61, 62) == 0
    assert independence_probability(241, 61, 3) > 0
    assert subspace_tightness_probability(241, 61, 5, 1, 3) > 0
    path = tmp_path / "r.json"
    rate = overlap_tightness_probability(241, 61, 60)
    for formula in (Fraction(1, 2), rate):
        record["formula"] = {"numerator": formula.numerator, "denominator": formula.denominator}
        path.write_text(json.dumps(record), encoding="ascii")
        if formula == rate:
            assert load_report(path).formula == rate
        else:
            with pytest.raises(MalformedRecord, match="is not prop2's rate"):
                load_report(path)
    assert ext_field.cache_info() == before


def test_rates_check_q_and_m_as_the_field_does():
    for q, m in [(4, 2), (True, 2), (2, True), (2, 0), (2, 65), (257, 2), (2.0, 2)]:
        with pytest.raises((NonPrimeQ, DegreeOutOfRange)) as built:
            ExtField(q, m)
        for rate in (
            lambda: independence_probability(q, m, 1),
            lambda: subspace_tightness_probability(q, m, 1, 0, 1),
            lambda: overlap_tightness_probability(q, m, 0),
        ):
            with pytest.raises(type(built.value)) as info:
                rate()
            assert str(info.value) == str(built.value)


def test_claim_rows_name_their_campaigns_parameters():
    # a row's params are its campaign's keywords but the trial range, and
    # its trial count is the campaign's default
    for claim, row in CLAIMS.items():
        signature = inspect.signature(getattr(analysis, row.campaign)).parameters
        assert set(row.params) == signature.keys() - {"trials", "seed", "start"}, claim
        assert row.trials == signature["trials"].default, claim
        assert (row.rate is None) == (row.scheme is not None) == (row.shapes is not None), claim


# ---------------------------------------------------------------------------
# Trial bookkeeping.


def test_trial_rng_is_stable_and_stream_separated():
    a = trial_rng(7, 11).random()
    assert a == trial_rng(7, 11).random()
    assert a != trial_rng(7, 12).random()
    assert a != trial_rng(8, 11).random()
    # derivation: first 8 digest bytes of "seed:index", little endian
    h = hashlib.sha256(b"7:11").digest()
    assert trial_rng(7, 11).random() == random.Random(
        int.from_bytes(h[:8], "little")
    ).random()


def test_trial_report_properties_and_bounds():
    r = TrialReport("lemma2", {"q": 2}, 100, 64, Fraction(1, 2), seed=0)
    assert r.estimate == 0.64
    assert r.exact_estimate == Fraction(16, 25)
    assert r.standard_error == pytest.approx(0.05)
    with pytest.raises(BadRange):
        TrialReport("lemma2", {}, 0, 0)
    with pytest.raises(BadRange):
        TrialReport("lemma2", {}, 10, 11)


def test_trial_report_verdicts():
    mk = lambda succ, **kw: TrialReport("prop2", {}, 100, succ, **kw)
    assert mk(64).verdict is None  # no claimed rate
    p = Fraction(1, 2)
    assert mk(64, formula=p).verdict == "within_3sigma"  # |diff| = 2.8 sigma
    assert mk(68, formula=p).verdict == "flagged"  # 3.6 sigma
    assert mk(75, formula=p).verdict == "failed"  # 5 sigma
    one = Fraction(1)
    assert mk(100, formula=one).verdict == "within_3sigma"
    assert mk(99, formula=one).verdict == "failed"  # no slack at p = 1
    ex = TrialReport("lemma2", {}, 6, 3, p, mode="exhaustive")
    assert ex.verdict == "exact_match"
    ex2 = TrialReport("lemma2", {}, 6, 4, p, mode="exhaustive")
    assert ex2.verdict == "failed"


def test_trial_report_to_dict_roundtrip():
    r = TrialReport("prop4", {"q": 3, "u": 1}, 50, 20, Fraction(2, 5), seed=9)
    d = r.to_dict()
    assert d["formula"] == {"numerator": 2, "denominator": 5}
    assert d["verdict"] == r.verdict and d["mode"] == "sampled"
    assert report_from_dict(d) == r
    r2 = TrialReport("thm3", {}, 10, 5)
    assert report_from_dict(r2.to_dict()) == r2
    # the start index is written only when nonzero
    assert "start" not in d
    r3 = TrialReport("prop4", {"q": 3}, 50, 20, Fraction(2, 5), seed=9, start=-16)
    assert r3.to_dict()["start"] == -16
    assert report_from_dict(r3.to_dict()) == r3


def _sweep_dict():
    return SweepReport("thm3", {"n": 3}, _synthetic_points([0.7, 0.8]), seed=4).to_dict()


def _with_point(d, **changes):
    return dict(d, points=[dict(d["points"][0], **changes)] + d["points"][1:])


@pytest.mark.parametrize(
    "make",
    [
        lambda t, s: {},
        lambda t, s: [t],
        lambda t, s: {k: v for k, v in t.items() if k != "claim"},
        lambda t, s: dict(t, extra=1),
        lambda t, s: dict(t, trials=2.5),
        lambda t, s: dict(t, successes=True),
        lambda t, s: dict(t, seed="9"),
        lambda t, s: dict(t, mode="guessed"),
        lambda t, s: dict(t, formula={"numerator": 2}),
        lambda t, s: dict(t, formula={"numerator": 2, "denominator": 0}),
        lambda t, s: dict(t, params=[]),
        lambda t, s: dict(t, start=1.5),
        lambda t, s: dict(t, start=None),
        lambda t, s: {k: v for k, v in s.items() if k != "points"},
        lambda t, s: dict(s, points="p"),
        lambda t, s: _with_point(s, trials=2.5),
        lambda t, s: dict(s, points=[[]] + s["points"][1:]),
        lambda t, s: dict(s, points=[s, s]),
    ],
    ids=[
        "empty", "list", "missing_claim", "extra_key", "float_trials", "bool_successes",
        "str_seed", "unknown_mode", "formula_keys", "formula_zero_denominator",
        "list_params", "float_start", "null_start", "sweep_missing_points", "sweep_points_str",
        "sweep_point_float_trials", "sweep_point_list", "nested_sweep",
    ],
)
def test_report_dict_rejects_malformed_records(make):
    trial = TrialReport("prop4", {"q": 3}, 50, 20, Fraction(2, 5), seed=9).to_dict()
    with pytest.raises(MalformedRecord):
        report_from_dict(make(trial, _sweep_dict()))


@pytest.mark.parametrize("formula", [Fraction(3, 2), Fraction(-1, 2)])
def test_report_formula_outside_unit_interval_is_refused(tmp_path, formula):
    with pytest.raises(BadRange, match="formula must lie in"):
        TrialReport("prop2", {"u": 1}, 10, 5, formula, seed=0)
    # a chunk whose formula got past the constructor cannot merge either
    chunk = TrialReport("prop2", {"u": 1}, 10, 5, Fraction(1, 2), seed=0)
    object.__setattr__(chunk, "formula", formula)
    with pytest.raises(BadRange, match="formula must lie in"):
        merge_reports(chunk)
    # nor load from a file, which would otherwise crash at .verdict
    data = TrialReport("prop2", {"u": 1}, 10, 5, Fraction(1, 2), seed=0).to_dict()
    data["formula"] = {"numerator": formula.numerator, "denominator": formula.denominator}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(data), encoding="ascii")
    with pytest.raises(BadRange, match="formula must lie in"):
        load_report(path)


def test_merge_reports_equals_single_run():
    # C(256, 4) subsets exceed the enumeration guard, so these are sampled
    whole = mc_independence(2, 8, 4, trials=300, seed=13)
    first = mc_independence(2, 8, 4, trials=180, seed=13)
    rest = mc_independence(2, 8, 4, trials=120, seed=13, start=180)
    merged = merge_reports(first, rest)
    assert merged == whole


def test_merge_reports_contiguous_chunks_in_any_order_equal_single_run():
    whole = mc_independence(2, 8, 4, trials=300, seed=13)
    chunks = [
        mc_independence(2, 8, 4, trials=t, seed=13, start=s)
        for s, t in [(250, 50), (0, 100), (100, 150)]
    ]
    assert merge_reports(*chunks).to_dict() == whole.to_dict()
    # chunks may start below 0, as long as they run on from one another
    early = mc_independence(2, 8, 4, trials=20, seed=13, start=-20)
    assert merge_reports(early, whole).start == -20


def test_merge_reports_refuses_overlaps_and_gaps():
    a = mc_independence(2, 8, 4, trials=100, seed=1)
    with pytest.raises(ParamMismatch, match="overlap"):
        merge_reports(a, a)
    later = mc_independence(2, 8, 4, trials=10, seed=1, start=101)
    with pytest.raises(ParamMismatch, match="gap"):
        merge_reports(a, later)
    inside = mc_independence(2, 8, 4, trials=10, seed=1, start=50)
    with pytest.raises(ParamMismatch, match="overlap"):
        merge_reports(inside, a)


def test_merge_reports_rejects_mismatches():
    a = TrialReport("prop2", {"u": 1}, 10, 5, Fraction(1, 2), seed=0)
    b = TrialReport("prop2", {"u": 2}, 10, 5, Fraction(1, 2), seed=0)
    with pytest.raises(ParamMismatch):
        merge_reports(a, b)
    c = TrialReport("prop2", {"u": 1}, 10, 5, Fraction(1, 2), seed=1)
    with pytest.raises(ParamMismatch):
        merge_reports(a, c)
    ex = TrialReport("lemma2", {}, 6, 3, Fraction(1, 2), mode="exhaustive")
    with pytest.raises(ParamMismatch):
        merge_reports(ex, ex)
    with pytest.raises(BadRange):
        merge_reports()
    assert merge_reports(a) == a


def test_merge_reports_type_checks_every_report_the_first_included():
    sweep = SweepReport("thm3", {"n": 3}, _synthetic_points([0.7, 0.8]), seed=4)
    trial = TrialReport("thm3", {"n": 3}, 10, 5, seed=4)
    for reports in [(sweep,), (sweep, trial), (trial, sweep), ("x",), ("x", trial)]:
        with pytest.raises(ParamMismatch, match="only merge TrialReports"):
            merge_reports(*reports)


def _synthetic_points(estimates, trials=10**4):
    return tuple(
        TrialReport("thm3", {"i": i}, trials, round(e * trials), seed=0)
        for i, e in enumerate(estimates)
    )


def test_trend_holds_cases():
    assert trend_holds(_synthetic_points([0.80, 0.85, 0.90]))
    # one inversion inside the combined error band is forgiven
    assert trend_holds(_synthetic_points([0.80, 0.797, 0.85]))
    # a large inversion is not
    assert not trend_holds(_synthetic_points([0.80, 0.75, 0.85]))
    # two inversions are not, however small
    assert not trend_holds(_synthetic_points([0.80, 0.797, 0.80, 0.797]))


def test_sweep_report_structure():
    pts = _synthetic_points([0.80, 0.85])
    sw = SweepReport("thm3", {"n": 4}, pts, seed=0)
    assert sw.trials == 2 * 10**4
    assert sw.successes == pts[0].successes + pts[1].successes
    assert sw.verdict == "within_3sigma"
    d = sw.to_dict()
    assert d["mode"] == "sweep" and len(d["points"]) == 2
    bad = SweepReport("thm3", {}, _synthetic_points([0.8, 0.7]))
    assert bad.verdict == "failed"
    with pytest.raises(BadRange):
        SweepReport("thm3", {}, pts[:1])


def test_report_file_roundtrip(tmp_path):
    r = mc_independence(2, 2, 2)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_report(r, p1)
    back = load_report(p1)
    assert back == r
    save_report(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    sw = sweep_basic_tightness([2, 3], 3, 1, trials=5, seed=4)
    save_report(sw, p1)
    assert load_report(p1) == sw
    # a sweep no campaign runs is refused at the file boundary
    save_report(SweepReport("thm3", {"n": 3}, _synthetic_points([0.7, 0.8]), seed=4), p1)
    with pytest.raises(MalformedRecord, match="thm3 params: missing keys"):
        load_report(p1)


# ---------------------------------------------------------------------------
# Samplers.


def test_sample_feature_set_postconditions():
    rng = random.Random(7)
    for fld, n in [(F256, 8), (F27, 2), (F16, 4)]:
        fs = sample_feature_set(fld, n, rng)
        assert len(fs) == n
        assert element_rank(fld, fs.elems) == n
    with pytest.raises(BadDimensions):
        sample_feature_set(F16, 5, rng)
    with pytest.raises(BadDimensions):
        sample_feature_set(F16, 0, rng)


OVERSIZED = [(2, 63), (2, 64), (3, 40), (251, 8)]


@pytest.mark.parametrize("q,m", OVERSIZED, ids=[f"{q}-{m}" for q, m in OVERSIZED])
def test_feature_sampling_past_sys_maxsize(q, m):
    # random.sample cannot take the length of range(q^m) here
    fld = ext_field(q, m)
    assert fld.order > sys.maxsize
    fs = sample_feature_set(fld, 4, random.Random(q * m))
    assert len(set(fs.elems)) == 4 and element_rank(fld, fs.elems) == 4
    assert all(0 <= x < fld.order for x in fs.elems)
    r = mc_independence(q, m, 3, trials=5, seed=1)
    assert r.mode == "sampled" and r.trials == 5 and r.successes == 5


def test_distinct_elements_redraws_repeats_past_sys_maxsize():
    class Draws:
        def __init__(self, values):
            self.values = iter(values)

        def randrange(self, stop):
            return next(self.values)

    assert analysis._distinct_elements(ext_field(2, 64), 3, Draws([5, 5, 7, 5, 9])) == [5, 7, 9]


def test_distinct_elements_is_random_sample_up_to_sys_maxsize():
    # seeded feature sets stay those of rng.sample
    for fld in (ext_field(2, 8), ext_field(2, 62), ext_field(3, 39)):
        assert fld.order <= sys.maxsize
        a, b = random.Random(5), random.Random(5)
        assert analysis._distinct_elements(fld, 4, a) == b.sample(range(fld.order), 4)
        assert a.getstate() == b.getstate()


def test_sample_witness_overlap_postconditions():
    rng = random.Random(8)
    feats = sample_feature_set(F256, 6, rng)
    for u in range(7):
        wit = sample_witness_overlap(F256, feats, u, rng)
        assert len(wit) == 6
        assert element_rank(F256, wit.elems) == 6
        assert len(feats.as_set() & wit.as_set()) == u
    with pytest.raises(BadRange):
        sample_witness_overlap(F256, feats, 7, rng)


@pytest.mark.parametrize("n", [1, 2])
def test_witness_shape_refuses_u0_v_n_at_q2_before_drawing(n):
    # over F_2 the span of one or two features has no basis avoiding them
    rng = random.Random(n)
    feats = sample_feature_set(F16, n, rng)
    state = rng.getstate()
    with pytest.raises(InfeasibleShape, match="u = 0 and v = n"):
        sample_witness_shaped(F16, feats, 0, n, rng)
    assert rng.getstate() == state
    # at odd q a scaled feature is another basis of its span
    odd = sample_feature_set(F27, n, rng)
    wit = sample_witness_shaped(F27, odd, 0, n, rng)
    assert not odd.as_set() & wit.as_set()
    assert len(subspace_intersection(F27, odd.elems, wit.elems)) == n


def test_witness_shape_refusals_are_exact_at_q2():
    # every other shape with 2n - v <= m is met
    rng = random.Random(5)
    fld = ext_field(2, 8)
    for n in range(1, 5):
        feats = sample_feature_set(fld, n, rng)
        for u in range(n + 1):
            for v in range(u, n + 1):
                if u == 0 and v == n <= 2:
                    continue
                wit = sample_witness_shaped(fld, feats, u, v, rng)
                assert len(feats.as_set() & wit.as_set()) == u
                assert len(subspace_intersection(fld, feats.elems, wit.elems)) == v


def test_mc_subspace_tightness_refuses_u0_v_n_at_q2_before_any_trial(monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(analysis, "_vault_trial", no_trial)
    with pytest.raises(InfeasibleShape, match="u = 0 and v = n"):
        mc_subspace_tightness(q=2, m=5, n=2, u=0, v=2, ell=1, trials=10**4)


def test_overlap_u0_at_q2_m2_is_refused_before_any_trial(monkeypatch):
    # the only nonzero element of F_4 outside two independent features
    # is their sum, so no witness shares none of them
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(analysis, "_vault_trial", no_trial)
    with pytest.raises(InfeasibleShape, match="u = 0"):
        mc_overlap_tightness(2, 2, 0, 1)
    for scheme in ("basic", "generalized"):
        with pytest.raises(InfeasibleShape, match="u = 0"):
            mc_scheme_tightness(scheme, 2, 2, 2, 1)


def test_sample_witness_shaped_postconditions():
    rng = random.Random(9)
    fld = ext_field(2, 10)
    feats = sample_feature_set(fld, 4, rng)
    for u, v in [(0, 0), (0, 2), (1, 2), (2, 3), (4, 4), (0, 4)]:
        wit = sample_witness_shaped(fld, feats, u, v, rng)
        assert len(wit) == 4 and element_rank(fld, wit.elems) == 4
        assert len(feats.as_set() & wit.as_set()) == u
        assert len(subspace_intersection(fld, feats.elems, wit.elems)) == v
        assert element_rank(fld, list(feats.elems) + list(wit.elems)) == 8 - v
    with pytest.raises(BadRange):
        sample_witness_shaped(fld, feats, 3, 2, rng)
    with pytest.raises(InfeasibleShape):
        sample_witness_shaped(F16, sample_feature_set(F16, 4, rng), 0, 1, rng)


def span_draws_digest() -> str:
    """SHA-256 over seeded draws of every span-growing sampler, each
    followed by the generator state it left: rank errors at every rank on
    both sides of the table limit, and witnesses at several overlaps."""
    h = hashlib.sha256()

    def record(out, rng):
        h.update(repr((out, rng.getstate())).encode())

    for q, m, n in [(2, 8, 8), (3, 5, 5), (5, 4, 4), (2, 32, 8), (3, 11, 6)]:
        fld = ext_field(q, m)
        rng = random.Random(f"rank-error:{q}:{m}:{n}")
        for rank in range(min(n, m) + 1):
            for _ in range(3):
                record(random_rank_error(fld, n, rank, rng), rng)
    for q, m, n in [(2, 8, 4), (3, 6, 3)]:
        fld = ext_field(q, m)
        rng = random.Random(f"witness:{q}:{m}:{n}")
        feats = sample_feature_set(fld, n, rng)
        for u in range(n + 1):
            record(sample_witness_overlap(fld, feats, u, rng).elems, rng)
            for v in range(u, n + 1):
                record(sample_witness_shaped(fld, feats, u, v, rng).elems, rng)
    return h.hexdigest()


def test_span_draws_match_pinned_digest():
    assert span_draws_digest() == (
        "5d812d171fcf1e2fe49f06ce7270560234518d1a94847f94624f0f7b269711e3"
    )


class ScriptedRng:
    """getrandbits returns the scripted words, then 0 forever.  Each digit
    a field draws is one word below q, so the words are the digits."""

    def __init__(self, words):
        self.words = iter(words)

    def getrandbits(self, k):
        return next(self.words, 0)


def test_span_draws_raise_their_message_when_the_budget_runs_out(monkeypatch):
    fld = ext_field(2, 8)
    feats = sample_feature_set(fld, 4, random.Random(3))
    for module in (gabidulin, analysis):
        monkeypatch.setattr(module, "_MAX_TRIES", 0, raising=False)
    rng = random.Random(4)
    with pytest.raises(InfeasibleShape, match="^witness retry budget exhausted$"):
        sample_witness_overlap(fld, feats, 2, rng)
    with pytest.raises(InfeasibleShape, match="^witness retry budget exhausted$"):
        sample_witness_shaped(fld, feats, 1, 3, rng)  # inside the feature span
    with pytest.raises(InfeasibleShape, match="^witness retry budget exhausted$"):
        sample_witness_shaped(fld, feats, 2, 2, rng)  # outside it
    with pytest.raises(InfeasibleShape, match="^could not sample independent multipliers$"):
        random_rank_error(fld, 4, 1, rng)
    # a draw that needs none still succeeds
    assert sample_witness_overlap(fld, feats, 4, rng).as_set() == feats.as_set()
    # the rows are reached once one multiplier is drawn: all its digits
    # are 1, and every row after it is zero
    monkeypatch.setattr(gabidulin, "_MAX_TRIES", 1)
    with pytest.raises(InfeasibleShape, match="^could not sample independent support rows$"):
        random_rank_error(fld, 4, 1, ScriptedRng([1] * fld.m))


class RepeatingRng:
    """sample returns the same draw every time."""

    def __init__(self, draw):
        self.draw = draw

    def sample(self, population, k):
        return list(self.draw)


def test_feature_sampling_raises_when_every_draw_is_dependent():
    budget = "^no independent subset found within the retry budget$"
    with pytest.raises(InfeasibleShape, match=budget):
        sample_feature_set(F16, 3, RepeatingRng([1, 2, 3]))


# ---------------------------------------------------------------------------
# Campaigns (small instances; the acceptance suite runs the big ones).


def test_mc_independence_exhaustive_identities():
    r = mc_independence(2, 2, 2)
    assert r.mode == "exhaustive"
    assert (r.trials, r.successes) == (6, 3)
    assert r.verdict == "exact_match"
    r2 = mc_independence(2, 3, 2)
    assert (r2.trials, r2.successes) == (28, 21)
    assert r2.verdict == "exact_match"


def test_mc_independence_sampled():
    r = mc_independence(2, 8, 3, trials=400, seed=42)  # C(256, 3) > 10^6: sampled
    assert r.mode == "sampled" and r.trials == 400
    assert r.claim == "lemma2"
    assert r.verdict == "within_3sigma"


def test_mc_independence_mode_rule_at_its_thresholds():
    # enumerated only when q^m <= 4096 and C(q^m, n) <= 10^6
    r = mc_independence(2, 12, 1, trials=20)  # 4,096 one-element subsets
    assert r.mode == "exhaustive" and (r.trials, r.successes) == (4096, 4095)
    assert r.verdict == "exact_match"
    for q, m, n in [(2, 12, 2), (2, 13, 1)]:  # 8,386,560 subsets; order 8192
        r = mc_independence(q, m, n, trials=20, seed=3)
        assert r.mode == "sampled" and r.trials == 20, (q, m, n)


def test_mc_overlap_tightness_full_overlap_is_always_tight():
    r = mc_overlap_tightness(2, 4, 4, ell=2, trials=40, seed=1)
    assert r.successes == 40
    assert r.formula == 1
    assert r.verdict == "within_3sigma"


def test_mc_overlap_tightness_smoke():
    r = mc_overlap_tightness(2, 4, 1, ell=1, trials=250, seed=42)
    assert r.claim == "prop2"
    assert r.params == {"q": 2, "n": 4, "u": 1, "ell": 1, "s": 1}
    assert r.verdict == "within_3sigma"


def test_mc_subspace_tightness_smoke():
    r = mc_subspace_tightness(2, 6, 3, 1, 2, ell=1, trials=250, seed=42)
    assert r.claim == "prop4"
    assert r.verdict == "within_3sigma"
    full = mc_subspace_tightness(2, 6, 3, 3, 3, ell=1, trials=30, seed=0)
    assert full.successes == 30 and full.formula == 1
    with pytest.raises(InfeasibleShape):
        mc_subspace_tightness(2, 6, 4, 0, 1, ell=1, trials=10)


def test_mc_scheme_tightness_smoke():
    r = mc_scheme_tightness("basic", 2, 4, 4, 1, trials=60, seed=5)
    assert r.claim == "thm3" and r.formula is None and r.verdict is None
    assert r.params["distribution"] == "uniform_u"
    g = mc_scheme_tightness("generalized", 2, 6, 4, 1, trials=60, seed=5)
    assert g.claim == "thm5"
    w = mc_scheme_tightness("basic", 2, 4, 4, 1, trials=30, seed=5, distribution="uniform_w")
    assert w.params["distribution"] == "uniform_w"
    with pytest.raises(BadRange):
        mc_scheme_tightness("other", 2, 4, 4, 1, trials=10)
    with pytest.raises(BadRange):
        mc_scheme_tightness("basic", 2, 4, 4, 1, trials=10, distribution="gauss")
    with pytest.raises(DimensionMismatch):
        mc_scheme_tightness("basic", 2, 6, 4, 1, trials=10)


def test_square_trials_never_build_the_interpolated_map(monkeypatch):
    # at m = n the trial reads d_r off the residuals on the witness
    runs = lambda: [
        mc_overlap_tightness(2, 4, 1, ell=1, trials=60, seed=11).to_dict(),
        mc_overlap_tightness(3, 3, 0, ell=1, trials=60, seed=11).to_dict(),
        mc_scheme_tightness("basic", 2, 4, 4, 2, s=3, trials=60, seed=11).to_dict(),
        mc_scheme_tightness("basic", 5, 3, 3, 1, trials=60, seed=11).to_dict(),
    ]
    expected = runs()

    def refuse(*args):
        raise AssertionError("the trial rebuilt the interpolated map")

    monkeypatch.setattr(analysis, "witness_map", refuse)
    monkeypatch.setattr(LinearizedPoly, "map_rank", refuse)
    assert runs() == expected


def test_mc_decode_roundtrip_smoke():
    r = mc_decode_roundtrip(2, 6, 6, 2, trials=60, seed=3)
    assert r.claim == "roundtrip"
    assert r.successes == 60
    assert r.formula == 1 and r.verdict == "within_3sigma"


def test_mc_decode_roundtrip_counts_a_decoding_failure_as_a_failed_trial(monkeypatch):
    def refuse(self, received):
        raise DecodingFailure("refused", "remainder", 0, 0)

    monkeypatch.setattr(GabidulinCode, "decode", refuse)
    r = mc_decode_roundtrip(2, 6, 6, 2, trials=20, seed=3)
    assert r.successes == 0 and r.verdict == "failed"


def test_mc_subspace_tightness_wrong_span_overlap_is_a_claim_violation(monkeypatch):
    monkeypatch.setattr(analysis, "subspace_intersection", lambda field, a, b: ())
    with pytest.raises(ClaimViolation) as exc:
        mc_subspace_tightness(2, 6, 3, 1, 2, ell=1, trials=5, seed=8)
    assert "q=2 m=6 n=3 u=1 v=2 seed=8 trial=0" in str(exc.value)


# Each campaign's hard check: the campaign and the refusal it raises once
# set_difference reads 0, so that any trial with d_r > 0 breaks the bound.
BROKEN_BOUNDS = {
    "prop2": (
        lambda: mc_overlap_tightness(2, 4, 1, ell=1, trials=5, seed=8),
        "rank bound broken: 2*3 > 0 (q=2 n=4 u=1 seed=8 trial=0)",
    ),
    "prop4": (
        lambda: mc_subspace_tightness(2, 6, 3, 1, 2, ell=1, trials=5, seed=8),
        "distance chain broken: d_s=2 2d_r=4 d_s+2r=4 d_delta=0 "
        "(q=2 m=6 n=3 u=1 v=2 seed=8 trial=0)",
    ),
}


@pytest.mark.parametrize("campaign, message", BROKEN_BOUNDS.values(), ids=BROKEN_BOUNDS.keys())
def test_broken_bound_is_a_claim_violation_naming_its_trial(campaign, message, monkeypatch):
    monkeypatch.setattr(analysis, "set_difference", lambda a, b: 0)
    with pytest.raises(ClaimViolation) as exc:
        campaign()
    assert str(exc.value) == message


def test_sweeps_check_every_point_before_any_campaign(monkeypatch):
    def no_campaign(*args, **kwargs):
        raise AssertionError("a campaign ran before the sweep was checked")

    monkeypatch.setattr(analysis, "mc_scheme_tightness", no_campaign)
    with pytest.raises(BadRange, match="at least two points"):
        sweep_basic_tightness([2], 3, 1, trials=10)
    with pytest.raises(NonPrimeQ):
        sweep_basic_tightness([2, 3, 4], 3, 1, trials=10)
    with pytest.raises(BadRange, match="at least two points"):
        sweep_generalized_tightness(2, iter([4]), 3, 1, trials=10)
    with pytest.raises(BadDimensions):
        sweep_generalized_tightness(2, [4, 5, 2], 3, 1, trials=10)
    # uniform_u draws u = 0, which F_4 cannot meet; uniform_w can draw there
    with pytest.raises(InfeasibleShape, match="u = 0"):
        sweep_basic_tightness([2, 3], 2, 1, trials=10)
    with pytest.raises(InfeasibleShape, match="u = 0"):
        sweep_generalized_tightness(2, [2, 3], 2, 1, trials=10)
    with pytest.raises(AssertionError, match="a campaign ran"):
        sweep_basic_tightness([2, 3], 2, 1, trials=10, distribution="uniform_w")
    for q_values in ([5, 3, 2], [3, 3]):
        with pytest.raises(BadRange, match="must increase"):
            sweep_basic_tightness(q_values, 3, 1, trials=10)


def test_sweep_basic_tightness_structure():
    sw = sweep_basic_tightness([2, 3], 3, 1, trials=200, seed=42)
    assert sw.claim == "thm3" and len(sw.points) == 2
    assert sw.params["q_values"] == [2, 3]
    assert sw.points[0].params["q"] == 2 and sw.points[1].params["q"] == 3
    assert sw.to_dict()["mode"] == "sweep"


def test_campaigns_are_deterministic():
    a = mc_overlap_tightness(2, 4, 2, ell=1, trials=80, seed=21)
    b = mc_overlap_tightness(2, 4, 2, ell=1, trials=80, seed=21)
    assert a == b and a.to_dict() == b.to_dict()
