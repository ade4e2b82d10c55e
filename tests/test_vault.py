"""Key vaults: locking, chaff structure, unlocking, serialization."""

import dataclasses
import itertools
import json
import math
import random
import struct
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction

import pytest

from rankfuzz.analysis import sample_feature_set, sample_witness_overlap, witness_map
from rankfuzz.commitment import codeword_digest
from rankfuzz.errors import (
    BadDimensions,
    DependentFeatures,
    DuplicateFeatures,
    LengthMismatch,
    MalformedRecord,
    MismatchedField,
    ParamMismatch,
    TooLarge,
    BadTwist,
    load_json,
)
from rankfuzz.fields import _LANE, element_rank, ext_field, is_prime, linear_images
from rankfuzz.linpoly import LinearizedPoly
from rankfuzz.vault import (
    _ROWS,
    _TABLE_GUARD,
    _column,
    _reversal,
    _table_from_rows,
    FeatureSet,
    VaultParams,
    _randbelow_many,
    load_vault,
    lock,
    save_vault,
    unlock,
    vault_from_dict,
)

from oracles import rank_r_words, vault_to_dict

F256 = ext_field(2, 8)
P256 = VaultParams(q=2, m=8, n=8, ell=2)
P1024 = VaultParams(q=2, m=10, n=8, ell=2)


def _is_lane_view(table):
    return type(table) is memoryview and table.readonly and table.format == _LANE


def test_params_validation():
    with pytest.raises(BadDimensions):
        VaultParams(q=2, m=8, n=9, ell=2)  # n > m
    with pytest.raises(BadDimensions):
        VaultParams(q=2, m=8, n=4, ell=4)  # ell = n
    with pytest.raises(BadDimensions):
        VaultParams(q=2, m=8, n=4, ell=0)
    with pytest.raises(BadTwist):
        VaultParams(q=2, m=8, n=4, ell=2, s=2)
    with pytest.raises(TooLarge):
        VaultParams(q=2, m=24, n=8, ell=2)  # table would exceed the guard
    assert P256.t == 3


def test_params_validation_builds_no_field():
    # (241, 61) is a valid field whose build takes minutes; the guard
    # refuses it first, and no check asks ext_field for a field, which
    # a cached shape shows at once, as cache_info counts hits
    before = ext_field.cache_info()
    VaultParams(q=2, m=8, n=4, ell=2)
    assert ext_field.cache_info() == before
    with pytest.raises(TooLarge) as info:
        VaultParams(q=241, m=61, n=2, ell=1)
    assert str(info.value) == f"total table needs q^m <= {_TABLE_GUARD}, got {241**61}"
    with pytest.raises(BadTwist):
        VaultParams(q=241, m=61, n=2, ell=1, s=61)
    assert ext_field.cache_info() == before
    assert P256.field is F256


def test_feature_set_validation():
    with pytest.raises(DuplicateFeatures):
        FeatureSet(F256, (1, 1, 2))
    with pytest.raises(DependentFeatures):
        FeatureSet(F256, (1, 2, 3))
    fs = FeatureSet(F256, (1, 2, 4))
    assert len(fs) == 3 and 2 in fs and 8 not in fs
    assert repr(fs) == "FeatureSet([0100000000000000, 0001000000000000, 0000010000000000])"


def test_lock_table_structure():
    rng = random.Random(1)
    feats = sample_feature_set(F256, 8, rng)
    key = F256.random_vector(2, rng)
    v = lock(P256, feats, key, rng)
    kappa = LinearizedPoly(F256, 1, key)
    values = kappa.evaluate_all()
    assert _is_lane_view(v.table) and len(v.table) == 256
    with pytest.raises(TypeError):
        v.table[3] = 0
    for x in range(256):
        if x in feats.as_set():
            assert v.table[x] == values[x]
        else:
            assert v.table[x] != values[x]
    assert v.key_digest == codeword_digest(F256, key)


def test_lock_validates_counts():
    rng = random.Random(2)
    feats = sample_feature_set(F256, 7, rng)
    key = F256.random_vector(2, rng)
    with pytest.raises(ParamMismatch):
        lock(P256, feats, key, rng)
    feats = sample_feature_set(F256, 8, rng)
    with pytest.raises(LengthMismatch):
        lock(P256, feats, F256.random_vector(3, rng), rng)


def test_unlock_with_exact_features():
    rng = random.Random(3)
    for params in (P256, P1024):
        fld = params.field
        feats = sample_feature_set(fld, 8, rng)
        key = fld.random_vector(2, rng)
        v = lock(params, feats, key, rng)
        res = unlock(v, feats)
        assert res and res.key == key


def test_unlock_tolerates_overlap_at_capacity():
    # d = 2(n - u) <= 2t means u >= n - t = 5
    rng = random.Random(4)
    for params in (P256, P1024):
        fld = params.field
        for u in (5, 6, 7, 8):
            for _ in range(25):
                feats = sample_feature_set(fld, 8, rng)
                key = fld.random_vector(2, rng)
                v = lock(params, feats, key, rng)
                wit = sample_witness_overlap(fld, feats, u, rng)
                res = unlock(v, wit)
                assert res and res.key == key, (params, u)


def test_unlock_order_invariant():
    rng = random.Random(5)
    feats = sample_feature_set(F256, 8, rng)
    key = F256.random_vector(2, rng)
    v = lock(P256, feats, key, rng)
    shuffled = list(feats.elems)
    rng.shuffle(shuffled)
    res = unlock(v, tuple(shuffled))
    assert res and res.key == key


def test_unlock_rejects_disjoint_witness():
    rng = random.Random(6)
    fails = 0
    for _ in range(40):
        feats = sample_feature_set(F256, 8, rng)
        key = F256.random_vector(2, rng)
        v = lock(P256, feats, key, rng)
        wit = sample_witness_overlap(F256, feats, 0, rng)
        res = unlock(v, wit)
        fails += not res
        if not res:
            assert res.reason in ("decoding_failure", "digest_mismatch")
        else:
            assert res.key == key  # lucky chaff alignment must still be honest
    assert fails >= 38


def test_unlock_success_tracks_difference_map_rank():
    """The unlock outcome is decided by the rank of the difference
    between the key polynomial and the witness-table interpolation."""
    rng = random.Random(7)
    agree = 0
    for _ in range(150):
        feats = sample_feature_set(F256, 8, rng)
        key = F256.random_vector(2, rng)
        v = lock(P256, feats, key, rng)
        u = rng.randrange(3, 9)
        wit = sample_witness_overlap(F256, feats, u, rng)
        kappa = LinearizedPoly(F256, 1, key)
        lw = witness_map(v, wit)
        d_r = element_rank(F256, [F256.sub(kappa(b), lw(b)) for b in F256._qpow_m])
        res = unlock(v, wit)
        if d_r <= P256.t:
            assert res and res.key == key
            agree += 1
    assert agree > 30  # the deciding case actually occurred


def _unlock_rate(q, m, n, ell, u):
    """P(unlock) for an independent witness sharing u features: the k =
    n - u chaff residuals, independent and uniform over the nonzero
    elements, have rank <= t, by inclusion-exclusion over the zero ones.
    rank_r_words(q, k, m, r) = [m choose r]_q * prod_{i<r} (q^k - q^i)
    counts the k x m matrices over F_q of rank r."""
    k, t = n - u, (n - ell) // 2
    hits = sum(
        (-1) ** j * math.comb(k, j) * sum(rank_r_words(q, k - j, m, r) for r in range(t + 1))
        for j in range(k + 1)
    )
    return Fraction(hits, (q**m - 1) ** k)


# (q, m, n, ell, u) -> unlocked, decoding_failure and digest_mismatch
# tables among every chaff value at the witness points outside the features
UNLOCK_SPLITS = {
    (2, 3, 3, 1, 0): (7, 70, 266),
    (2, 4, 4, 2, 1): (15, 390, 2970),
    (3, 3, 3, 1, 1): (52, 390, 234),
}


@pytest.mark.parametrize("shape", sorted(UNLOCK_SPLITS), ids=lambda s: "-".join(map(str, s)))
def test_unlock_rate_past_the_radius_is_exact(shape):
    # Past the radius the key digest, not the decoder, refuses most tables:
    # the decoder returns a wrong key within rank t of the received word.
    q, m, n, ell, u = shape
    params = VaultParams(q=q, m=m, n=n, ell=ell)
    fld = params.field
    rng = random.Random(f"unlock-rate:{shape}")
    feats = sample_feature_set(fld, n, rng)
    wit = sample_witness_overlap(fld, feats, u, rng)
    key = fld.random_vector(ell, rng)
    vault = lock(params, feats, key, rng)
    kappa = LinearizedPoly(fld, 1, key)
    chaff_at = [x for x in wit.elems if x not in feats.elems]
    table = array(_LANE, vault.table)
    tried = dataclasses.replace(vault, table=memoryview(table).toreadonly())
    outcomes = Counter()
    chaff = [[y for y in fld.elements() if y != kappa(x)] for x in chaff_at]
    for values in itertools.product(*chaff):
        for x, y in zip(chaff_at, values):
            table[x] = y
        res = unlock(tried, wit)
        assert res.key in (None, key)
        outcomes[res.reason] += 1
    split = outcomes[None], outcomes["decoding_failure"], outcomes["digest_mismatch"]
    assert sum(split) == (fld.order - 1) ** (n - u)
    assert Fraction(split[0], sum(split)) == _unlock_rate(*shape)
    assert split == UNLOCK_SPLITS[shape]


def test_unlock_witness_validation():
    rng = random.Random(8)
    feats = sample_feature_set(F256, 8, rng)
    key = F256.random_vector(2, rng)
    v = lock(P256, feats, key, rng)
    with pytest.raises(ParamMismatch):
        unlock(v, feats.elems[:5])
    with pytest.raises(DuplicateFeatures):
        unlock(v, feats.elems[:7] + (feats.elems[0],))
    dep = list(feats.elems[:7]) + [F256.add(feats.elems[0], feats.elems[1])]
    with pytest.raises(DependentFeatures):
        unlock(v, tuple(dep))


def test_json_roundtrip_and_sorted_points(tmp_path):
    rng = random.Random(9)
    feats = sample_feature_set(F256, 8, rng)
    key = F256.random_vector(2, rng)
    v = lock(P256, feats, key, rng)
    d = vault_to_dict(v)
    xs = [p[0] for p in d["points"]]
    assert xs == sorted(xs)  # canonical order by hex form
    assert len(d["points"]) == 256
    back = vault_from_dict(d)
    assert back == v and _is_lane_view(back.table)
    p1 = tmp_path / "v1.json"
    p2 = tmp_path / "v2.json"
    save_vault(v, p1)
    loaded = load_vault(p1)
    assert loaded == v and _is_lane_view(loaded.table)
    save_vault(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_vault_dict_totality_enforced():
    rng = random.Random(10)
    feats = sample_feature_set(F256, 8, rng)
    key = F256.random_vector(2, rng)
    v = lock(P256, feats, key, rng)
    d = vault_to_dict(v)
    d["points"] = d["points"][:-1]
    with pytest.raises(LengthMismatch):
        vault_from_dict(d)
    d2 = vault_to_dict(v)
    d2["points"][1] = d2["points"][0]
    with pytest.raises(DuplicateFeatures):
        vault_from_dict(d2)


def _spaced(digest):
    # 32 space-separated byte pairs, which bytes.fromhex alone accepts
    return " ".join(digest[i : i + 2] for i in range(0, len(digest), 2))


def _with_entry(d, i, entry):
    points = list(d["points"])
    points[i] = entry
    return dict(d, points=points)


# each refusal with its exception type and its one-line message
@pytest.mark.parametrize(
    "mutate, exc, message",
    [
        (lambda d: {k: v for k, v in d.items() if k != "key_digest"}, MalformedRecord,
         "vault: missing keys ['key_digest']"),
        (lambda d: [d], MalformedRecord, "vault must be a JSON object, got list"),
        (lambda d: dict(d, ell=2.0), MalformedRecord, "vault: ell must be int, got 2.0"),
        (lambda d: dict(d, points=[p[:1] for p in d["points"]]), MalformedRecord,
         "vault entry must be an [x, y] pair, got ['0000000000000000']"),
        (lambda d: dict(d, key_digest="zz"), MalformedRecord, "bad key digest hex 'zz'"),
        (lambda d: dict(d, key_digest=_spaced(d["key_digest"])), LengthMismatch,
         "key digest must be exactly 64 hex digits"),
        (lambda d: _with_entry(d, 5, d["points"][5] + ["00" * 8]), MalformedRecord,
         "vault entry must be an [x, y] pair, got "
         "['0000000000010001', '0001000101000100', '0000000000000000']"),
        (lambda d: _with_entry(d, 5, ["00" * 7, "00" * 8]), LengthMismatch,
         "element names must be exactly 16 hex digits"),
        (lambda d: _with_entry(d, 5, [d["points"][5][0], "02" + "00" * 7]), MismatchedField,
         "digit 2 out of range for q=2"),
        (lambda d: _with_entry(d, 5, ["zz" * 8, "00" * 8]), MismatchedField,
         "element names must be hex"),
        (lambda d: _with_entry(d, 5, [5, "00" * 8]), MismatchedField,
         "element must be a hex string, got 5"),
        (lambda d: _with_entry(d, 5, [d["points"][4][0], "00" * 8]), DuplicateFeatures,
         "table lists 0000000000010000 twice"),
        (lambda d: _with_entry(d, 5, [" " + d["points"][5][0], "00" * 8]), LengthMismatch,
         "element names must be exactly 16 hex digits"),
        (lambda d: _with_entry(d, -1, ["00" * 7 + "02", d["points"][-1][1]]), MismatchedField,
         "digit 2 out of range for q=2"),
        (lambda d: _with_entry(d, -1, [d["points"][-1][0], "00" * 7]), LengthMismatch,
         "element names must be exactly 16 hex digits"),
        (lambda d: _with_entry(d, 5, [d["points"][5][0], "0A" + "00" * 7]), MismatchedField,
         "digit 10 out of range for q=2"),
    ],
    ids=["missing_key", "list", "float_ell", "one_field_entries", "bad_digest",
         "spaced_digest", "three_field_entry", "short_name", "digit_ge_q", "not_hex", "int_name",
         "repeated_x", "padded_name", "last_row_bad_x", "last_row_short_y", "upper_case_bad_y"],
)
def test_vault_dict_rejects_malformed_records(mutate, exc, message):
    rng = random.Random(10)
    v = lock(P256, sample_feature_set(F256, 8, rng), F256.random_vector(2, rng), rng)
    with pytest.raises(exc) as info:
        vault_from_dict(mutate(vault_to_dict(v)))
    assert str(info.value) == message


def test_vault_dict_accepts_any_order_and_upper_case():
    # digits 10..12 of F_13 are hex letters
    fld = ext_field(13, 2)
    rng = random.Random(12)
    v = lock(VaultParams(q=13, m=2, n=2, ell=1), sample_feature_set(fld, 2, rng), [5], rng)
    d = vault_to_dict(v)
    random.Random(13).shuffle(d["points"])
    d["points"] = [[x.upper(), y.upper()] for x, y in d["points"]]
    assert any(x != x.lower() for x, _ in d["points"])
    assert vault_from_dict(d).table == v.table


def _no_json(path):
    raise AssertionError(f"{path} was parsed as JSON")


# save_vault writes the points array in chunks of _ROWS rows; its bytes
# must be those of the canonical JSON dump of the dict form, and
# load_vault reads them back as rows of bytes, in chunks of _ROWS rows,
# without the JSON parser.  (3,8) has 6,561 rows, one full chunk and a
# part; (2,16) has 16 full chunks.  save_vault names elements by their
# low m // 2 digits and the rest: at (2,2) both halves are one digit,
# and at (2,9), (3,7) and (5,3) the two halves differ in length.
@pytest.mark.parametrize(
    "q, m, n",
    [(2, 8, 8), (3, 5, 4), (37, 2, 2), (2, 16, 8), (3, 8, 8), (251, 2, 2),
     (2, 2, 2), (2, 9, 4), (3, 7, 4), (5, 3, 3)],
    ids=["2-8", "3-5", "37-2", "2-16", "3-8", "251-2", "2-2", "2-9", "3-7", "5-3"],
)
def test_save_vault_bytes_match_json_dump(tmp_path, monkeypatch, q, m, n):
    fld = ext_field(q, m)
    rng = random.Random(q * m)
    key = [7 % fld.order]
    v = lock(VaultParams(q=q, m=m, n=n, ell=1), sample_feature_set(fld, n, rng), key, rng)
    path = tmp_path / "v.json"
    save_vault(v, path)
    expected = json.dumps(vault_to_dict(v), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("ascii")
    monkeypatch.setattr("rankfuzz.vault.load_json", _no_json)
    back = load_vault(path)
    assert back == v and _is_lane_view(back.table)


def _edit_record(edit):
    def apply(text, fld):
        d = json.loads(text)
        edit(d, d["points"], fld)
        return (json.dumps(d, indent=2, sort_keys=True) + "\n").encode()
    return apply


def _set_y(points, i, name):
    points[i][1] = name


# Each edit of a canonical vault file, checked against json.loads as the
# reference.  Edits through _edit_record keep the canonical layout, so the
# row reader gets as far as the edited row; the others change the layout.
_FILE_EDITS = {
    "none": lambda text, fld: text,
    "y_not_hex": _edit_record(lambda d, p, fld: _set_y(p, 9, p[9][1][:-1] + "g")),
    "y_digit_q": _edit_record(lambda d, p, fld: _set_y(p, 9, p[9][1][:-2] + f"{fld.q:02x}")),
    "y_digit_255": _edit_record(lambda d, p, fld: _set_y(p, -1, "ff" + p[-1][1][2:])),
    "rows_swapped": _edit_record(lambda d, p, fld: p.insert(3, p.pop(4))),
    "x_repeated": _edit_record(lambda d, p, fld: p[7].__setitem__(0, p[6][0])),
    "upper_case": _edit_record(
        lambda d, p, fld: p.__setitem__(slice(None), [[x.upper(), y.upper()] for x, y in p])
    ),
    "short_digest": _edit_record(lambda d, p, fld: d.update(key_digest=d["key_digest"][2:])),
    "head_spaced": lambda text, fld: text.replace(b'"ell": ', b'"ell":  '),
    "crlf": lambda text, fld: text.replace(b"\n", b"\r\n"),
    "compact": lambda text, fld: json.dumps(json.loads(text)).encode(),
    "space_dropped": lambda text, fld: text.replace(b'\n      "', b'\n     "', 1),
    "comma_dropped": lambda text, fld: text.replace(b'"\n    ],', b'"\n    ]', 1),
    "truncated": lambda text, fld: text[: len(text) // 2],
    "non_ascii_head": lambda text, fld: text.replace(b'"ell"', b'"\xe9ll"'),
}


@pytest.mark.parametrize("edit", list(_FILE_EDITS))
@pytest.mark.parametrize("q, m", [(2, 8), (13, 2)], ids=["2-8", "13-2"])
def test_load_vault_matches_json_reference_on_edited_files(tmp_path, monkeypatch, q, m, edit):
    # load_vault returns what vault_from_dict(json.loads(text)) returns,
    # or raises the same exception type with the same message; only the
    # bytes save_vault writes skip the JSON parser
    fld = ext_field(q, m)
    rng = random.Random(q + m)
    v = lock(VaultParams(q=q, m=m, n=2, ell=1), sample_feature_set(fld, 2, rng), [5], rng)
    path = tmp_path / "v.json"
    save_vault(v, path)
    text = path.read_bytes()
    path.write_bytes(_FILE_EDITS[edit](text, fld))

    def outcome(read):
        try:
            return read()
        except Exception as exc:
            return type(exc), str(exc)

    expected = outcome(lambda: vault_from_dict(json.loads(path.read_bytes().decode("ascii"))))
    parsed = []
    monkeypatch.setattr("rankfuzz.vault.load_json", lambda p: parsed.append(p) or load_json(p))
    assert outcome(lambda: load_vault(path)) == expected
    assert bool(parsed) == (path.read_bytes() != text and edit != "short_digest")
    assert (expected == v) == (edit in ("none", "rows_swapped", "upper_case", "head_spaced",
                                        "crlf", "compact", "space_dropped"))


def test_save_vault_allocates_no_name_per_element(tmp_path):
    # a list of one string, or one row index, per element would take
    # about 9.4 MiB at (2,16); the half-width pieces take about 3.5 MiB
    fld = ext_field(2, 16)
    rng = random.Random(16)
    v = lock(VaultParams(q=2, m=16, n=16, ell=4), sample_feature_set(fld, 16, rng),
             fld.random_vector(4, rng), rng)
    tracemalloc.start()
    try:
        save_vault(v, tmp_path / "v.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20, peak


@pytest.mark.parametrize("q, m", [(2, 16), (2, 9), (3, 7), (37, 2)])
def test_table_from_rows_is_its_own_inverse(q, m):
    # save_vault puts the table in row order with the map load_vault uses
    # to put rows in element order
    fld = ext_field(q, m)
    rows = array(_LANE, random.Random(q + m).sample(range(fld.order), fld.order))
    once = _table_from_rows(fld, rows)
    assert once.tolist() == [rows[r] for r in _reversal(q, m)]
    assert _table_from_rows(fld, once) == rows


def test_no_table_leaves_a_one_row_chunk():
    # itemgetter of a single index returns the item, not a tuple, so
    # save_vault needs every chunk, the last included, to hold two rows
    assert _ROWS >= 2
    for q in filter(is_prime, range(2, 252)):
        for m in range(2, _TABLE_GUARD.bit_length()):
            if q**m <= _TABLE_GUARD:
                assert q**m % _ROWS != 1, (q, m)


@pytest.mark.parametrize("q, m", [(2, 16), (3, 10), (37, 2), (251, 2)])
def test_column_parse_matches_vec_from_bytes(q, m):
    # every element, q^m - 1 included, upper-case names as well
    fld = ext_field(q, m)
    names = [fld.to_hex(x) for x in range(fld.order)]
    expected = list(fld.vec_from_hex(names))
    assert expected == list(range(fld.order))
    col = _column(fld, names)
    assert type(col) is array and col.typecode == _LANE and col.tolist() == expected
    assert _column(fld, [t.upper() for t in reversed(names)]).tolist() == expected[::-1]


def test_lock_is_deterministic_under_seeded_rng():
    feats_rng = random.Random(11)
    feats = sample_feature_set(F256, 8, feats_rng)
    key = F256.random_vector(2, feats_rng)
    v1 = lock(P256, feats, key, random.Random(55))
    v2 = lock(P256, feats, key, random.Random(55))
    assert v1.table == v2.table


# rng.getrandbits(64) right after a seeded lock, as the per-element chaff
# loop left the generator: lock must draw exactly the same randomness.
@pytest.mark.parametrize(
    "q, m, n, feats, key, seed, after",
    [
        (2, 8, 8, [1 << i for i in range(8)], [17, 34], 8, 10712697409437435790),
        (2, 16, 8, [1 << i for i in range(8)], [0x1234, 0xBEEF], 16, 7547604477925566726),
        (3, 5, 4, [1, 3, 9, 27], [5, 100], 35, 10032045550727007161),
    ],
    ids=["2-8", "2-16", "3-5"],
)
def test_lock_leaves_rng_state_unchanged(q, m, n, feats, key, seed, after):
    rng = random.Random(seed)
    lock(VaultParams(q=q, m=m, n=n, ell=2), feats, key, rng)
    assert rng.getrandbits(64) == after


@pytest.mark.parametrize("bits", range(2, 21))
def test_block_draw_matches_randrange(bits):
    # the lowest bound of each bit length and the one above it reject
    # almost half of all tries; count spans more than one block at 20 bits
    count = 70_000 if bits == 20 else 3_000
    for bound in (1 << (bits - 1), (1 << (bits - 1)) + 1, (1 << bits) - 1):
        a, b = random.Random(bound), random.Random(bound)
        lanes = _randbelow_many(a, bound, count)
        assert struct.unpack(f"<{count}I", lanes) == tuple(b.randrange(bound) for _ in range(count))
        assert a.getrandbits(64) == b.getrandbits(64), bound


def test_table_guard_keeps_sentinel_exact():
    # an accepted draw needs a zero top byte to tell it from a 0xFFFFFFFF sentinel
    assert _TABLE_GUARD <= 1 << 24


def test_lane_typecode_is_32_bits():
    # the table is read through native lanes of the packed 32-bit words
    assert array(_LANE).itemsize == 4


def _lock_by_definition(params, features, key, rng):
    """The vault table one element at a time: kappa(x) at a feature and
    elsewhere a chaff value uniform over everything except kappa(x)."""
    fld = params.field
    kappa = LinearizedPoly(fld, params.s, key)
    if fld._logs:
        values = map(kappa, fld.elements())
    else:
        # every element of (3, 11) pointwise takes tens of seconds, so above
        # the table limit kappa's pointwise values at the basis are spread by
        # linear_images, which test_linear_images_match_pointwise checks there
        values = linear_images(fld, list(map(kappa, fld._qpow_m)))
    table = []
    for x, kx in zip(fld.elements(), values):
        if x in features:
            table.append(kx)
        else:
            r = rng.randrange(fld.order - 1)
            table.append(r + (r >= kx))
    return tuple(table)


# the shapes span rejection rates from none (q = 2) to 39% at (5, 4)
# and 33% at (7, 3), single blocks and (2, 16); (2, 17) and (3, 11) lie
# above the table limit, where lock's evaluations call mul and frobenius
@pytest.mark.parametrize(
    "q, m, n",
    [(2, 2, 2), (2, 8, 8), (2, 10, 8), (2, 16, 16), (3, 4, 4), (3, 5, 4), (5, 4, 4),
     (7, 3, 3), (13, 2, 2), (3, 10, 6), (251, 2, 2), (2, 17, 8), (3, 11, 6)],
)
def test_lock_matches_definition(q, m, n):
    fld = ext_field(q, m)
    for seed in range(3):
        params = VaultParams(q=q, m=m, n=n, ell=1 + seed % (n - 1))
        rng = random.Random(f"{q}-{m}-{seed}")
        feats = sample_feature_set(fld, n, rng)
        key = fld.random_vector(params.ell, rng)
        a, b = random.Random(seed), random.Random(seed)
        v = lock(params, feats, key, a)
        assert _is_lane_view(v.table)
        assert tuple(v.table) == _lock_by_definition(params, feats.as_set(), key, b)
        assert a.getrandbits(64) == b.getrandbits(64)
