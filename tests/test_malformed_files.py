"""Property test: mutated commitment, vault and report files never crash
the loaders or the CLI.

Each example starts from a valid file at q = 2, m = 8, applies one to
three mutations (drop or add a key, retype a value, truncate a string,
put a digit >= q into an element name, insert non-ASCII text, swap two
element names so the file stays well formed but opens wrongly) and
checks the boundary contract: `main` returns 0, 1 or 2 and raises
nothing; exit 2 prints exactly one `error:` line; exit 1 prints a
`reason:` line; `load_report` returns a report or raises an error that
`main` reports as exit 2, with a one-line message.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankfuzz.analysis import SweepReport, TrialReport, load_report
from rankfuzz.cli import main
from rankfuzz.errors import ClaimViolation, MalformedRecord, RankfuzzError
from rankfuzz.fields import ext_field

F256 = ext_field(2, 8)
BASIS = [1 << i for i in range(8)]

SETTINGS = settings(
    max_examples=50,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# any JSON value, for added keys and retyped values
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-300, 300)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _paths(obj, prefix=()):
    """Every location inside a JSON value, as a tuple of keys and indices."""
    out = [prefix] if prefix else []
    if isinstance(obj, dict):
        for key, value in obj.items():
            out += _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            out += _paths(value, prefix + (i,))
    return out


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _is_name(value):
    return isinstance(value, str) and len(value) == 2 * F256.m and value.isalnum()


@st.composite
def mutated(draw, record):
    """The file bytes of record after one to three mutations."""
    data = copy.deepcopy(record)
    for _ in range(draw(st.integers(1, 3))):
        paths = _paths(data)
        # swap first: it is the one mutation that reaches exit 1, and
        # Hypothesis leans toward the front of a sampled list
        kind = draw(st.sampled_from(
            ["swap", "drop", "add", "retype", "truncate", "digit", "non_ascii"]
        ))
        if kind == "add":
            dicts = [()] + [p for p in paths if isinstance(_get(data, p), dict)]
            target = _get(data, draw(st.sampled_from(dicts)))
            target[draw(st.text(max_size=8))] = draw(JSON_VALUES)
            continue
        if kind == "drop":
            paths = [p for p in paths if isinstance(_get(data, p[:-1]), dict)]
        elif kind in ("truncate", "non_ascii"):
            paths = [p for p in paths if isinstance(_get(data, p), str)]
        elif kind in ("digit", "swap"):
            paths = [p for p in paths if _is_name(_get(data, p))]
        if kind == "swap":
            if len(paths) > 1:
                a, b = draw(st.lists(st.sampled_from(paths), min_size=2, max_size=2, unique=True))
                pa, pb = _get(data, a[:-1]), _get(data, b[:-1])
                pa[a[-1]], pb[b[-1]] = pb[b[-1]], pa[a[-1]]
            continue
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent, key, value = _get(data, path[:-1]), path[-1], _get(data, path)
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = draw(JSON_VALUES.filter(lambda v, t=type(value): type(v) is not t))
        elif kind == "truncate":
            parent[key] = value[: draw(st.integers(0, max(len(value) - 1, 0)))]
        elif kind == "digit":
            # one base-q digit, two hex characters, set to q..255
            i = 2 * draw(st.integers(0, F256.m - 1))
            digit = draw(st.integers(F256.q, 255))
            parent[key] = value[:i] + f"{digit:02x}" + value[i + 2 :]
        else:
            i = draw(st.integers(0, len(value)))
            extra = draw(st.sampled_from(["\u00e9", "\u00a0", "\u2003", "\U0001f511"]))
            parent[key] = value[:i] + extra + value[i:]
    ascii_only = draw(st.sampled_from([True, True, True, False]))
    text = json.dumps(data, indent=2, sort_keys=True, ensure_ascii=ascii_only)
    raw = text.encode("utf-8")
    if draw(st.sampled_from([False] * 7 + [True])):
        i = draw(st.integers(0, len(raw)))
        raw = raw[:i] + draw(st.sampled_from([b"\x80", b"\xff", "\u00e9".encode()])) + raw[i:]
    return raw


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_contract(code, err):
    assert code in (0, 1, 2), (code, err)
    lines = err.splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    if code == 1:
        assert any(line.startswith("reason:") for line in lines), err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid seeded files and a witness for each, in a shared directory."""
    d = tmp_path_factory.mktemp("files")
    wit = d / "w.hex"
    wit.write_text("".join(F256.to_hex(v) + "\n" for v in BASIS), encoding="ascii")
    key = d / "k.hex"
    key.write_text("".join(F256.to_hex(v) + "\n" for v in (171, 205)), encoding="ascii")
    common = ["--q", "2", "--m", "8", "--n", "8"]
    assert run_main(["commit", *common, "--k", "4", "--witness", str(wit),
                     "--out", str(d / "c.json"), "--seed", "5"])[0] == 0
    assert run_main(["vault", "lock", *common, "--ell", "2", "--features", str(wit),
                     "--key", str(key), "--out", str(d / "v.json"), "--seed", "3"])[0] == 0
    assert run_main(["simulate", "prop2", "--q", "2", "--n", "4", "--u", "2", "--ell", "1",
                     "--trials", "20", "--seed", "6", "--out", str(d / "trial.json")])[0] == 0
    assert run_main(["simulate", "thm3", "--n", "3", "--ell", "1", "--q-sweep", "2,3",
                     "--trials", "10", "--seed", "6", "--out", str(d / "sweep.json")])[0] in (0, 1)
    names = ("c", "v", "trial", "sweep")
    records = {name: json.loads((d / f"{name}.json").read_text()) for name in names}
    return d, wit, records


@SETTINGS
@given(data=st.data())
def test_verify_survives_mutated_commitments(files, data):
    d, wit, records = files
    bad = d / "bad-c.json"
    bad.write_bytes(data.draw(mutated(records["c"])))
    check_contract(*run_main(["verify", "--commitment", str(bad), "--witness", str(wit)]))


@SETTINGS
@given(data=st.data())
def test_unlock_survives_mutated_vaults(files, data):
    d, wit, records = files
    bad = d / "bad-v.json"
    bad.write_bytes(data.draw(mutated(records["v"])))
    argv = ["vault", "unlock", "--vault", str(bad), "--witness", str(wit),
            "--key-out", str(d / "k-out.hex")]
    check_contract(*run_main(argv))


@pytest.mark.parametrize("kind", ["trial", "sweep"])
@SETTINGS
@given(data=st.data())
def test_load_report_survives_mutated_reports(files, kind, data):
    d, _, records = files
    bad = d / f"bad-{kind}.json"
    bad.write_bytes(data.draw(mutated(records[kind])))
    try:
        report = load_report(bad)
    except ClaimViolation:
        raise
    except (RankfuzzError, ValueError) as exc:  # what main reports as exit 2
        assert "\n" not in str(exc), str(exc)
    else:
        assert isinstance(report, (TrialReport, SweepReport))
        report.to_dict()


@pytest.fixture(scope="module")
def deep(files):
    """A file nested deeper than the JSON parser recurses."""
    path = files[0] / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000, encoding="ascii")
    return path


@pytest.mark.parametrize("command", ["verify", "unlock"])
def test_deeply_nested_files_exit_2_with_one_line(files, deep, command):
    d, wit, _ = files
    if command == "verify":
        argv = ["verify", "--commitment", str(deep), "--witness", str(wit)]
    else:
        argv = ["vault", "unlock", "--vault", str(deep), "--witness", str(wit),
                "--key-out", str(d / "k-deep.hex")]
    code, err = run_main(argv)
    assert code == 2
    assert err.splitlines() == [f"error: {deep}: JSON nested too deeply"]


def test_load_report_refuses_deeply_nested_files(deep):
    with pytest.raises(MalformedRecord, match="nested too deeply"):
        load_report(deep)
