"""Span bookkeeping, self-time accounting and clean removal of the tracer."""

import json
import random

import pytest

import rankfuzz
import run
from rankfuzz import cli, commitment, fields
from tracer import SPAN_NAMES, Tracer
from workloads import Campaign, run_cli

F16 = rankfuzz.ext_field(2, 16)


def hand_built_tracer(spans):
    """Tracer holding (name, parent, start, end) spans, all in operation 1."""
    tr = Tracer()
    for name, parent, start, end in spans:
        tr.span_name.append(tr.name_id(name))
        tr.span_parent.append(parent)
        tr.span_op.append(1)
        tr.span_start.append(start)
        tr.span_end.append(end)
    return tr


def layer_ms(metrics):
    """Sum of the per-layer times, the unattributed rest excluded."""
    return sum(v for k, (v, unit) in metrics.items() if unit == "ms" and not k.startswith("trace."))


def test_self_time_subtracts_children_on_a_nested_tree():
    tr = hand_built_tracer([
        ("op.verify", -1, 0, 100),
        ("commitment.verify", 0, 10, 90),
        ("gabidulin.decode", 1, 20, 70),
        ("fields.kernel_ext", 2, 25, 45),
        ("linpoly.divmod_left", 2, 50, 60),
        ("gabidulin.encode", 1, 75, 85),
    ])
    assert tr.self_times() == [20, 20, 20, 20, 10, 10]


def test_layer_metrics_add_up_to_wall_time():
    tr = hand_built_tracer([
        ("op.verify", -1, 0, 100),
        ("commitment.verify", 0, 10, 90),
        ("gabidulin.decode", 1, 20, 70),
        ("op.commit", -1, 200, 260),
        ("commitment.commit", 3, 205, 255),
    ])
    metrics = tr.layer_metrics(ops=2, first_round=tr.mark(), first_ops=2)
    wall, rest = metrics["trace.wall_ms"][0], metrics["trace.unattributed_ms"][0]
    assert layer_ms(metrics) + rest == pytest.approx(wall)
    assert metrics["trace.wall_ms"][0] == pytest.approx(160 / 1e6 / 2)
    assert metrics["gabidulin.decode.calls"][0] == 0.5


def test_wrappers_record_only_inside_an_operation():
    tr = Tracer()
    tr.install([F16])
    try:
        F16.mul(3, 5)
        assert not tr.counts and len(tr.span_start) == 0
        with tr.operation(1, "probe"):
            F16.mul(3, 5)
            fields.element_rank(F16, [1, 2, 3])
        assert tr.counts["fields.mul"] == 1
        names = [tr.names[i] for i in tr.span_name]
        assert names == ["op.probe", "fields.element_rank"]
        assert list(tr.span_parent) == [-1, 0]
    finally:
        tr.remove()


def snapshot():
    watched = [
        (fields, "element_rank"), (commitment, "verify"), (cli, "check_witness"),
        (cli, "main"), (rankfuzz, "lock"), (rankfuzz.analysis, "lock"),
    ]
    return (
        {(m.__name__, a): getattr(m, a) for m, a in watched},
        dict(vars(F16)),
        dict(vars(rankfuzz.LinearizedPoly)),
        dict(vars(rankfuzz.GabidulinCode)),
    )


def seeded_outputs(tmp_path, tag):
    """Vault and commitment files from fixed seeds, through cli.main."""
    rng = random.Random(5)
    features = [1 << i for i in range(16)]
    key = [rng.getrandbits(16) for _ in range(4)]
    for name, vec in (("f.hex", features), ("k.hex", key)):
        (tmp_path / name).write_text("".join(F16.to_hex(v) + "\n" for v in vec))
    vault = tmp_path / f"vault-{tag}.json"
    com = tmp_path / f"com-{tag}.json"
    assert run_cli(["vault", "lock", "--q", 2, "--m", 16, "--n", 16, "--ell", 4,
                    "--features", tmp_path / "f.hex", "--key", tmp_path / "k.hex",
                    "--out", vault, "--seed", 9]) == 0
    assert run_cli(["commit", "--q", 2, "--m", 16, "--n", 16, "--k", 8,
                    "--witness", tmp_path / "f.hex", "--out", com, "--seed", 9]) == 0
    return vault.read_bytes(), com.read_bytes()


def test_removed_tracer_restores_everything_and_outputs_match(tmp_path):
    F16.mul(1, 1)  # tables first, as the benchmark's set-up does
    before = snapshot()
    plain = seeded_outputs(tmp_path, "plain")
    tr = Tracer()
    tr.install([F16])
    try:
        assert "frobenius" in vars(F16) and vars(F16)["mul"] is not before[1]["mul"]
        with tr.operation(1, "probe"):
            traced = seeded_outputs(tmp_path, "traced")
    finally:
        tr.remove()
    assert traced == plain
    assert tr.counts["fields.mul"] > 0 and tr.counts["fields.frobenius"] > 0
    after = snapshot()
    assert after == before
    assert "frobenius" not in vars(F16)
    for attr in ("mul", "inv"):
        assert vars(F16)[attr] is before[1][attr]


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACES", tmp_path)
    bench = Campaign(seed=3, workdir=tmp_path)
    loop, metrics, _ = run.traced(bench, seconds=0.1)
    assert not loop.problems
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert all(m["unit"] == metrics[m["name"]][1] for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {f"{n}.self_ms" for n in SPAN_NAMES} | {f"{n}_ms" for n in SPAN_NAMES} >= {
        k for k, (v, unit) in metrics.items() if unit == "ms" and not k.startswith("trace.")
    }
    wall, rest = metrics["trace.wall_ms"][0], metrics["trace.unattributed_ms"][0]
    assert layer_ms(metrics) + rest == pytest.approx(wall)
    assert metrics["analysis.sample.accept_ratio"][0] > 0
    assert (tmp_path / "spans-campaign-seed3.tsv").stat().st_size > 0
