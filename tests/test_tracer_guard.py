"""The library names the benchmark's tracer wraps must exist.

perfbench/tracer.py replaces library functions and methods by name when
a benchmark runs with --trace 1.  It is loaded here read-only, so that
removing or renaming a wrapped name fails this suite rather than the
next traced benchmark run.
"""

import importlib
import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest

import rankfuzz.cli  # noqa: F401  (the tracer wraps rankfuzz.cli.main)
from rankfuzz import analysis, commit, verify
from rankfuzz.fields import ext_field
from rankfuzz.gabidulin import GabidulinCode
from rankfuzz.linpoly import LinearizedPoly

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer):
    for name, targets in tracer.FUNCTION_SPANS.items():
        for module, attr in targets:
            assert callable(getattr(importlib.import_module(module), attr, None)), (name, attr)
    for name, targets in tracer.METHOD_SPANS.items():
        for module, cls_name, attr in targets:
            cls = getattr(importlib.import_module(module), cls_name)
            # the tracer reads the method from the class's own namespace
            assert attr in vars(cls), (name, cls_name, attr)


def test_install_then_remove_restores_every_attribute(tracer):
    field = ext_field(2, 8)
    classes = {
        getattr(importlib.import_module(module), cls_name)
        for targets in tracer.METHOD_SPANS.values()
        for module, cls_name, _ in targets
    } | {LinearizedPoly}
    owners = [importlib.import_module(name) for name in tracer.MODULES] + list(classes) + [field]
    before = [dict(vars(obj)) for obj in owners]
    t = tracer.Tracer()
    t.install([field])
    assert any(dict(vars(obj)) != snap for obj, snap in zip(owners, before))
    t.remove()
    for obj, snap in zip(owners, before):
        now = vars(obj)
        assert now.keys() == snap.keys(), obj
        assert all(now[k] is snap[k] for k in snap), obj


def test_campaigns_reach_the_wrapped_names(tracer):
    # A campaign that binds a library function before install() (a default
    # argument, a module-level table) or calls a sampler by keyword would
    # bypass the wrappers or the sampler counter; this records the spans
    # a traced benchmark run reads.
    trials = 3
    t = tracer.Tracer()
    t.install([])
    try:
        with t.operation(0, "campaign"):
            analysis.mc_overlap_tightness(2, 4, 2, 1, trials=trials, seed=5)
            analysis.mc_subspace_tightness(2, 6, 3, 1, 2, 1, trials=trials, seed=5)
            analysis.mc_scheme_tightness("basic", 3, 3, 3, 1, trials=trials, seed=5)
            analysis.mc_decode_roundtrip(3, 5, 5, 1, trials=trials, seed=5)
    finally:
        t.remove()
    spans = Counter(t.names[i] for i in t.span_name)
    assert spans["analysis.campaign"] == 4
    assert spans["analysis.trial_rng"] == 4 * trials
    for name in ("analysis.sample", "vault.lock", "analysis.witness_map",
                 "analysis.restricted_rank", "analysis.distance", "analysis.subspace_map"):
        assert spans[name] > 0, name
    assert t.counts["analysis.sample.accepted"] > 0


def test_big_field_codec_reaches_the_wrapped_field_operations(tracer):
    # Above the table limit linpoly._eval_raw and twist_mul read the
    # field's mul and frobenius at each call; had they kept the unwrapped
    # ones, the benchmark's fields.mul and fields.frobenius counts would
    # miss every evaluation at q^m = 2^32, and an encode is one _eval_raw
    # pass of such products.  The decode's interpolation also inverts,
    # through the field's inv.  At q = 2 mul and frobenius are closures
    # bound on the instance, and the wrappers replace them there.
    field = ext_field(2, 32)
    code = GabidulinCode(field, 8, 4, 1, [2**i for i in range(8)])
    message = (3, 5, 7, 11)
    t = tracer.Tracer()
    t.install([field])
    try:
        with t.operation(0, "encode"):
            word = code.encode(message)
        encoded = Counter(t.counts)
        with t.operation(1, "decode"):
            assert code.decode(word) == (message, 0, word)
    finally:
        t.remove()
    for name in ("fields.mul", "fields.frobenius"):
        assert 0 < encoded[name] < t.counts[name], name
    assert encoded["fields.inv"] < t.counts["fields.inv"]


def test_verify_decodes_through_the_wrapped_decode(monkeypatch):
    # The tracer replaces GabidulinCode.decode on the class; a verify that
    # decoded through any other entry would be booked under
    # commitment.verify alone, and gabidulin.decode.calls would miss it.
    field = ext_field(2, 8)
    code = GabidulinCode(field, 8, 4, 1, [2**i for i in range(8)])
    rng = random.Random(29)
    witness = field.random_vector(8, rng)
    com = commit(code, witness, rng)
    decode, calls = GabidulinCode.decode, Counter()

    def counted(self, received):
        calls["decode"] += 1
        return decode(self, received)

    monkeypatch.setattr(GabidulinCode, "decode", counted)
    assert verify(code, witness, com).accepted
    assert calls["decode"] == 1
    assert verify(code, field.random_vector(8, rng), com).reason == "decoding_failure"
    assert calls["decode"] == 2
