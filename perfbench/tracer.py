"""Outside-in tracing of the library's layers.

The tracer replaces public functions and methods of the library with
wrappers from the benchmark's side; the library itself is not edited.
A span wrapper records (name, parent span, operation id, start, end)
into flat arrays kept in memory; a count wrapper only increments a
counter, for calls far cheaper than a span (table-backed field
multiplication).  Wrappers record only while an operation is open, so
the benchmark's own input generation and checks stay out of the trace.

A module-level function is replaced in every library module that
imported it, because `from .fields import element_rank` binds the
function into the importing module's namespace.  remove() restores
every attribute exactly as it was.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

MODULES = (
    "rankfuzz",
    "rankfuzz.fields",
    "rankfuzz.linpoly",
    "rankfuzz.gabidulin",
    "rankfuzz.commitment",
    "rankfuzz.vault",
    "rankfuzz.analysis",
    "rankfuzz.cli",
)

# span name -> (module, attribute) of each function it covers
FUNCTION_SPANS = {
    "fields.element_rank": [("rankfuzz.fields", "element_rank")],
    "fields.rank_fq": [("rankfuzz.fields", "rank_fq")],
    "fields.is_independent": [("rankfuzz.fields", "is_independent")],
    "fields.kernel_ext": [("rankfuzz.fields", "kernel_ext")],
    "fields.solve_ext": [("rankfuzz.fields", "solve_ext")],
    "fields.kernel_fq": [("rankfuzz.fields", "kernel_fq")],
    "linpoly.interpolate": [("rankfuzz.linpoly", "interpolate")],
    "gabidulin.random_rank_error": [("rankfuzz.gabidulin", "random_rank_error")],
    "commitment.commit": [("rankfuzz.commitment", "commit")],
    "commitment.verify": [("rankfuzz.commitment", "verify")],
    "commitment.json.load": [("rankfuzz.commitment", "load_commitment")],
    "commitment.json.save": [("rankfuzz.commitment", "save_commitment")],
    "vault.lock": [("rankfuzz.vault", "lock")],
    "vault.unlock": [("rankfuzz.vault", "unlock")],
    "vault.json.load": [("rankfuzz.vault", "load_vault")],
    "vault.json.save": [("rankfuzz.vault", "save_vault")],
    "analysis.campaign": [
        ("rankfuzz.analysis", name)
        for name in (
            "mc_independence",
            "mc_overlap_tightness",
            "mc_subspace_tightness",
            "mc_scheme_tightness",
            "mc_decode_roundtrip",
            "sweep_basic_tightness",
            "sweep_generalized_tightness",
        )
    ],
    "analysis.sample": [
        ("rankfuzz.analysis", name)
        for name in ("sample_feature_set", "sample_witness_overlap", "sample_witness_shaped")
    ],
    "analysis.witness_map": [
        ("rankfuzz.analysis", "witness_map"),
        ("rankfuzz.analysis", "witness_map_completed"),
    ],
    "analysis.restricted_rank": [("rankfuzz.analysis", "restricted_rank")],
    "analysis.trial_rng": [("rankfuzz.analysis", "trial_rng")],
    "analysis.distance": [
        ("rankfuzz.analysis", name)
        for name in ("set_difference", "subspace_distance", "subspace_intersection")
    ],
    "cli.main": [("rankfuzz.cli", "main")],
}

# span name -> (module, class, method) of each method it covers
METHOD_SPANS = {
    "linpoly.evaluate_all": [("rankfuzz.linpoly", "LinearizedPoly", "evaluate_all")],
    "linpoly.divmod_left": [("rankfuzz.linpoly", "LinearizedPoly", "divmod_left")],
    "linpoly.map_rank": [("rankfuzz.linpoly", "LinearizedPoly", "map_rank")],
    "gabidulin.encode": [("rankfuzz.gabidulin", "GabidulinCode", "encode")],
    "gabidulin.decode": [("rankfuzz.gabidulin", "GabidulinCode", "decode")],
    "analysis.subspace_map": [
        ("rankfuzz.analysis", "SubspaceMap", "__init__"),
        ("rankfuzz.analysis", "SubspaceMap", "__call__"),
    ],
}

LAYERS = ("fields", "linpoly", "gabidulin", "commitment", "vault", "analysis", "cli")
SPAN_NAMES = tuple(
    sorted([*FUNCTION_SPANS, *METHOD_SPANS], key=lambda name: LAYERS.index(name.split(".")[0]))
)

# metric -> counter incremented by a wrapper
COUNTED = {
    "fields.mul.calls": "fields.mul",
    "fields.frobenius.calls": "fields.frobenius",
    "fields.inv.calls": "fields.inv",
    "linpoly.eval.calls": "linpoly.eval",
    "gabidulin.decode.failures": "gabidulin.decode.failures",
    "commitment.verify.rejects.decoding_failure": "commitment.verify.rejects.decoding_failure",
    "commitment.verify.rejects.digest_mismatch": "commitment.verify.rejects.digest_mismatch",
    "vault.unlock.rejects.decoding_failure": "vault.unlock.rejects.decoding_failure",
    "vault.unlock.rejects.digest_mismatch": "vault.unlock.rejects.digest_mismatch",
}

# metric -> span name whose spans it counts
SPAN_COUNTED = {
    "fields.element_rank.calls": "fields.element_rank",
    "fields.rank_fq.calls": "fields.rank_fq",
    "gabidulin.decode.calls": "gabidulin.decode",
}

# Samplers' accepted candidates per call, from their arguments: a feature
# set is one candidate; a witness sampler accepts n - u fresh elements.
_SAMPLER_ACCEPTS = {
    "sample_feature_set": lambda args: 1,
    "sample_witness_overlap": lambda args: len(args[1]) - args[2],
    "sample_witness_shaped": lambda args: len(args[1]) - args[2],
}


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counts: Counter = Counter()
        self.current = -1
        self.op_id = -1
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.current)
        self.span_op.append(self.op_id)
        self.span_end.append(0)
        self.current = idx
        self.span_start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter_ns()
        self.current = self.span_parent[idx]

    @contextmanager
    def operation(self, op_id: int, kind: str):
        """Root span of one timed operation; wrappers record only inside."""
        self.op_id = op_id
        idx = self._open(self.name_id("op." + kind))
        try:
            yield
        finally:
            self._close(idx)
            self.op_id = -1

    def span(self, name: str, fn, on_result=None):
        """Wrapper recording a span around fn; exceptions count as failures."""
        nid = self.name_id(name)
        failures = name + ".failures"
        tracer = self

        def wrapped(*args, **kwargs):
            if tracer.op_id < 0:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                tracer.counts[failures] += 1
                raise
            tracer._close(idx)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapped

    def counter(self, name: str, fn):
        """Wrapper counting calls of fn without timing them."""
        counts = self.counts
        tracer = self

        def wrapped(*args):
            if tracer.op_id >= 0:
                counts[name] += 1
            return fn(*args)

        return wrapped

    # -- installing ---------------------------------------------------------

    def _set(self, obj, attr: str, value) -> None:
        own = vars(obj)
        self._saved.append((obj, attr, attr in own, own.get(attr)))
        setattr(obj, attr, value)

    def _count_reasons(self, prefix: str):
        counts = self.counts

        def on_result(args, result):
            if result.reason is not None:
                counts[f"{prefix}.rejects.{result.reason}"] += 1

        return on_result

    def _count_accepts(self, attr: str):
        accepts = _SAMPLER_ACCEPTS[attr]
        counts = self.counts

        def on_result(args, result):
            counts["analysis.sample.accepted"] += accepts(args)

        return on_result

    def install(self, fields) -> None:
        """Wrap the library's layers and the given field instances.

        Call after set-up: building a field's tables installs instance
        attributes that would replace the field wrappers.
        """
        hooks = {
            ("rankfuzz.commitment", "verify"): self._count_reasons("commitment.verify"),
            ("rankfuzz.vault", "unlock"): self._count_reasons("vault.unlock"),
        }
        for attr in _SAMPLER_ACCEPTS:
            hooks[("rankfuzz.analysis", attr)] = self._count_accepts(attr)
        modules = [sys.modules[name] for name in MODULES]
        for name, targets in FUNCTION_SPANS.items():
            for module, attr in targets:
                original = getattr(sys.modules[module], attr)
                wrapped = self.span(name, original, hooks.get((module, attr)))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)
        for name, targets in METHOD_SPANS.items():
            for module, cls_name, attr in targets:
                cls = getattr(sys.modules[module], cls_name)
                self._set(cls, attr, self.span(name, vars(cls)[attr]))
        poly_cls = sys.modules["rankfuzz.linpoly"].LinearizedPoly
        self._set(poly_cls, "__call__", self.counter("linpoly.eval", vars(poly_cls)["__call__"]))
        for field in fields:
            for attr in ("mul", "frobenius", "inv"):
                self._set(field, attr, self.counter("fields." + attr, getattr(field, attr)))

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._saved:
            obj, attr, had_own, value = self._saved.pop()
            if had_own:
                setattr(obj, attr, value)
            else:
                delattr(obj, attr)

    # -- reading ------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: its duration minus the durations of its child spans."""
        start, end, parent = self.span_start, self.span_end, self.span_parent
        own = [end[i] - start[i] for i in range(len(start))]
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def mark(self) -> tuple:
        """Counters and span count so far, for per-round counts."""
        return Counter(self.counts), len(self.span_start)

    def layer_metrics(self, ops: int, first_round: tuple, first_ops: int) -> dict:
        """Per-layer metrics per timed operation, as {name: (value, unit)}.

        Times cover every traced operation.  Counts cover the first round
        only (first_round is mark() taken after it, with first_ops
        operations), which is the same work for a given seed, so they
        repeat exactly.  Root spans' self time is the unattributed rest:
        the self times plus it add up to the wall time of the operations.
        """
        own = self.self_times()
        names = self.names
        self_ns = Counter()
        wall = unattributed = 0
        for i, ns in enumerate(own):
            name = names[self.span_name[i]]
            if self.span_parent[i] < 0:
                unattributed += ns
                wall += self.span_end[i] - self.span_start[i]
            else:
                self_ns[name] += ns
        if sum(self_ns.values()) + unattributed != wall:
            raise AssertionError("self times do not add up to the operations' wall time")

        counts, spans = first_round
        span_calls = Counter(names[self.span_name[i]] for i in range(spans))
        sampler = self.name_id("analysis.sample")
        tried = sum(
            1
            for i in range(spans)
            if self.span_parent[i] >= 0
            and self.span_name[self.span_parent[i]] == sampler
            and names[self.span_name[i]] == "fields.element_rank"
        )

        out = {}
        for name in SPAN_NAMES:
            key = f"{name}_ms" if name.endswith((".load", ".save")) else f"{name}.self_ms"
            out[key] = (self_ns[name] / 1e6 / ops, "ms")
        for key, counter in COUNTED.items():
            out[key] = (counts[counter] / first_ops, "count")
        for key, name in SPAN_COUNTED.items():
            out[key] = (span_calls[name] / first_ops, "count")
        accepted = counts["analysis.sample.accepted"]
        out["analysis.sample.accept_ratio"] = (accepted / tried if tried else 0.0, "ratio")
        out["trace.wall_ms"] = (wall / 1e6 / ops, "ms")
        out["trace.unattributed_ms"] = (unattributed / 1e6 / ops, "ms")
        return out

    def write(self, path) -> None:
        """All spans as tab-separated lines, one per span."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t{self.span_end[i]}\n"
                )
