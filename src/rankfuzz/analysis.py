"""Distance measures, witness-map reconstructions, and the Monte Carlo
harness that checks the scheme's probabilistic guarantees.

Three layers live here.  The bottom layer measures how far apart two
feature sets are: as plain sets (symmetric difference), as subspaces
(dimension-counting distance), and as rank of a difference map.  The
middle layer rebuilds, from a vault table and a witness set, the linear
map an unlock attempt implicitly decodes against: interpolation when the
witness spans the whole field, or an explicit basis completion when it
does not.  The top layer runs seeded experiment campaigns comparing the
observed rate of distance-tightness events against exact product
formulas, with per-trial hard assertions for the inequalities that must
hold on every sample, not just on average.

Every sampled campaign runs on one loop, which derives an independent
randomness stream per trial by hashing (seed, trial index), so a
campaign can be split into chunks, run in any order, and merged by
summing counts; each report records its first trial index, and a merge
refuses chunks that overlap or leave a gap.  The four tightness
campaigns share one vault trial: lock a vault, draw a witness, and take
d_r, the rank distance of the key polynomial from the map the witness
decodes against, as the rank of its residuals on a basis: the witness
for the basic scheme (prop2, thm3), the features for the completed one
(prop4, thm5).  prop2, thm3 and thm5 assert
2 d_r <= |A ^ W| on it; prop4 asserts its whole chain of distances.

Each claim is one row of CLAIMS: its campaign, default trial count,
parameter names, help line and plan.  The plan makes every check the
campaign makes before its first trial and gives the exact rate, or the
params of each point of the thm3 and thm5 sweeps.  The campaigns build
their reports from it, the command line its simulate subcommands, and
load_report runs it to refuse a file the claim's campaign would not
write.  No plan builds a field: q^m comes from field_order, and
VaultParams and the code's shape are checked without one.
"""

import hashlib
import math
import random
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .errors import (
    BadDimensions,
    BadRange,
    ClaimViolation,
    DecodingFailure,
    DependentRestriction,
    DimensionMismatch,
    InfeasibleShape,
    MalformedRecord,
    MismatchedField,
    ParamMismatch,
    RankfuzzError,
    TwistMismatch,
    check_record,
    load_json,
    save_json,
)
from .fields import (
    ExtField,
    FqSpan,
    element_rank,
    ext_field,
    field_order,
    find_normal_element,
    fq_combination,
)
from .gabidulin import _MAX_TRIES, GabidulinCode, _check_code_shape, _grow, random_rank_error
from .linpoly import LinearizedPoly, interpolate
from .vault import FeatureSet, Vault, VaultParams, _as_feature_set, lock

_EXHAUSTIVE_ORDER = 1 << 12
_EXHAUSTIVE_SUBSETS = 10**6
_BUDGET_SPENT = "witness retry budget exhausted"


# ---------------------------------------------------------------------------
# Distances.


def set_difference(a, b) -> int:
    """Cardinality of the symmetric difference of two element sets."""
    return len(set(a) ^ set(b))


def _zassenhaus(field: ExtField, a, b):
    """(dim<a> + dim<b>, basis of <a> inter <b>), both from one span of
    the rows (x, x) for x in a and (y, 0) for y in b, two elements wide,
    high half first.  That span has dimension dim<a> + dim<b>, and its
    echelon rows whose high half vanishes span the intersection."""
    ea = field.check_vector(a)
    eb = field.check_vector(b)
    high = field.order
    span = FqSpan(field.q, 2 * field.m, [x * high + x for x in ea] + [y * high for y in eb])
    return span.rank, tuple(r for r in span.basis() if r < high)


def subspace_distance(field: ExtField, a, b) -> int:
    """dim<a> + dim<b> - 2 dim(<a> inter <b>), spans taken over F_q, in
    the one pass of subspace_intersection."""
    total, inter = _zassenhaus(field, a, b)
    return total - 2 * len(inter)


def subspace_intersection(field: ExtField, a, b) -> tuple:
    """Basis of span(a) inter span(b) over F_q (empty tuple if trivial).

    Zassenhaus's sum-and-intersection method: the vectors (x + y, x) with
    x in span(a) and y in span(b) have high half 0 exactly when x = -y
    lies in both spans, so the echelon rows of the stacked (a, a) and
    (b, 0) rows whose high half vanishes give a basis in their low half.
    """
    return _zassenhaus(field, a, b)[1]


def restricted_rank(field: ExtField, func, basis) -> int:
    """Rank of an F_q-linear callable on the span of independent elements."""
    basis = field.check_vector(basis)
    if element_rank(field, basis) != len(basis):
        raise DependentRestriction("restriction elements must be independent")
    return element_rank(field, [func(x) for x in basis])


# ---------------------------------------------------------------------------
# Linear maps known only on a subspace.


class SubspaceMap:
    """F_q-linear map defined by images of a basis of a subspace.

    Keeps an FqSpan of its graph: one row (b, -f(b)) per basis element
    b, two elements wide with b in the high half, read as the int
    b * q^m + neg(f(b)).  The basis is independent exactly when no
    combination of the rows clears the high half: when the graph has
    full rank and every echelon row is q^m or more.  Reducing (x, 0)
    then clears that half exactly when x lies in the domain, taking off
    (x, -f(x)) and leaving f(x); outside the domain the residue is q^m
    or more.
    """

    __slots__ = ("field", "basis", "images", "_graph")

    def __init__(self, field: ExtField, basis, images):
        basis = field.check_vector(basis)
        images = field.check_vector(images)
        if len(basis) != len(images):
            raise DimensionMismatch("need one image per basis element")
        high, neg = field.order, field.neg
        graph = FqSpan(field.q, 2 * field.m, [b * high + neg(y) for b, y in zip(basis, images)])
        if graph.rank != len(basis) or min(graph.basis(), default=high) < high:
            raise DependentRestriction("basis elements must be independent")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_graph", graph)

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceMap is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __contains__(self, x) -> bool:
        field = self.field
        return self._graph.reduce(field.check(x) * field.order) < field.order

    def __call__(self, x: int) -> int:
        field = self.field
        y = self._graph.reduce(field.check(x) * field.order)
        if y >= field.order:
            raise BadRange("element lies outside the map's domain")
        return y

    def __repr__(self):
        return f"SubspaceMap(dim={self.dim} in F_{self.field.q}^{self.field.m})"


def witness_map(vault: Vault, witness) -> LinearizedPoly:
    """Interpolate the vault table through a full-rank witness set.

    Requires m = n so the witness is a basis of the whole field; the
    result is the unique low-degree polynomial matching the table on
    the witness, which is what a decode of those table reads targets.
    """
    params = vault.params
    fld = params.field
    if params.m != params.n:
        raise DimensionMismatch("full interpolation needs m = n")
    ws = _as_feature_set(params, witness, "witness")
    ys = [vault.table[x] for x in ws.elems]
    return interpolate(fld, params.s, ws.elems, ys)


def witness_map_completed(
    vault: Vault, witness, features, key_poly: LinearizedPoly
) -> SubspaceMap:
    """Extend the table-on-witness map across the span of the features.

    The witness images come from the vault table.  Feature elements that
    enlarge the span are appended in order; the i-th feature (1-based)
    contributes the image key_poly(g) + alpha^(q^i), where alpha is the
    field's smallest normal element (find_normal_element): its conjugates
    form a basis, so the shifts cannot hide inside any proper subspace.
    Analysis-side only: it reads the features and the key polynomial,
    which an unlocker never has.
    """
    params = vault.params
    fld = params.field
    ws = _as_feature_set(params, witness, "witness")
    fs = _as_feature_set(params, features, "features")
    if not isinstance(key_poly, LinearizedPoly):
        raise TypeError("key_poly must be a LinearizedPoly")
    if key_poly.field is not fld:
        raise MismatchedField("key polynomial belongs to a different field")
    if key_poly.s != params.s:
        raise TwistMismatch("key polynomial uses a different twist")
    alpha = find_normal_element(fld)
    basis = list(ws.elems)
    images = [vault.table[x] for x in ws.elems]
    span = FqSpan(fld.q, fld.m, basis)
    for i, g in enumerate(fs.elems, start=1):
        if span.add(g):
            basis.append(g)
            images.append(fld.add(key_poly(g), fld.frobenius(alpha, i)))
    return SubspaceMap(fld, basis, images)


# ---------------------------------------------------------------------------
# Exact probabilities.


def independence_probability(q: int, m: int, n: int) -> Fraction:
    """Chance that n uniform distinct elements of F_{q^m} are independent.

    Counts ordered draws without repetition: the i-th element must avoid
    the span of the first i (q^i elements) given it avoids the i chosen
    ones, giving the product of (q^m - q^i)/(q^m - i).  Its factor at
    i = m is 0, so the product stops there.
    """
    order = field_order(q, m)
    if not 0 <= n <= order:
        raise BadRange(f"need 0 <= n <= q^m, got n={n}")
    out = Fraction(1)
    for i in range(min(n, m + 1)):
        out *= Fraction(order - q**i, order - i)
    return out


def overlap_tightness_probability(q: int, n: int, u: int) -> Fraction:
    """Chance the rank bound is met with equality at set overlap u, m = n:
    the subspace chance with span overlap v = n."""
    if not 0 <= u <= n:
        raise BadRange(f"need 0 <= u <= n, got u={u}")
    return subspace_tightness_probability(q, n, n, u, n)


def subspace_tightness_probability(q: int, m: int, n: int, u: int, v: int) -> Fraction:
    """Equality chance at set overlap u and span overlap v, any m >= n."""
    order = field_order(q, m)
    if not (0 <= u <= v <= n <= m):
        raise BadRange(f"need 0 <= u <= v <= n <= m, got u={u} v={v} n={n} m={m}")
    out = Fraction(1)
    for i in range(n - v, n - u):
        out *= Fraction(order - q**i, order - 1)
    return out


# ---------------------------------------------------------------------------
# Claims.


class Claim(NamedTuple):
    """One simulate claim.

    campaign names the function of this module that runs it, looked up
    by name when it runs.  params are its parameter names, in the order
    the command line lists them: the campaign's keywords, the flags and
    the keys of the report's params all at once.  plan maps them to the
    exact rate, or a sweep's to its points' params, after every check the
    campaign makes before its first trial.  A sweep's points run the
    mc_scheme_tightness scheme named by scheme."""

    campaign: str
    trials: int
    params: tuple
    help: str
    plan: Callable
    scheme: str | None = None


def _plan_lemma2(q: int, m: int, n: int) -> Fraction:
    field_order(q, m)
    _check_size(m, n)
    return independence_probability(q, m, n)


def _plan_prop2(q: int, n: int, u: int, ell: int, s: int) -> Fraction:
    VaultParams(q=q, m=n, n=n, ell=ell, s=s)
    _check_overlap_shape(q, n, n, u)
    return overlap_tightness_probability(q, n, u)


def _plan_prop4(q: int, m: int, n: int, u: int, v: int, ell: int, s: int) -> Fraction:
    VaultParams(q=q, m=m, n=n, ell=ell, s=s)
    _check_witness_shape(q, m, n, u, v)
    return subspace_tightness_probability(q, m, n, u, v)


def _plan_roundtrip(q: int, m: int, n: int, k: int, s: int) -> Fraction:
    field_order(q, m)
    _check_size(m, n)
    _check_code_shape(m, n, k, s)
    return Fraction(1)


def _plan_point(scheme: str, q: int, m: int, n: int, ell: int, s: int, distribution: str) -> dict:
    """mc_scheme_tightness's checks, and the params of its report."""
    if scheme not in _SCHEMES:
        raise BadRange(f"unknown scheme {scheme!r}")
    if distribution not in ("uniform_w", "uniform_u"):
        raise BadRange(f"unknown distribution {distribution!r}")
    if scheme == "basic" and m != n:
        raise DimensionMismatch("the basic scheme needs m = n")
    VaultParams(q=q, m=m, n=n, ell=ell, s=s)
    # uniform_u draws u = 0 too, a witness sharing none of the features
    if distribution == "uniform_u":
        _check_overlap_shape(q, m, n, 0)
    return dict(q=q, m=m, n=n, ell=ell, s=s, scheme=scheme, distribution=distribution)


def _plan_sweep(scheme: str, values: list, shape: Callable, common: dict) -> list:
    """The params of each point of a sweep along two or more increasing
    values, at the (q, m) shape of each value, the others common to all."""
    if len(values) < 2:
        raise BadRange("a sweep needs at least two points")
    points = [_plan_point(scheme, *shape(value), **common) for value in values]
    if any(a >= b for a, b in zip(values, values[1:])):
        raise BadRange(f"sweep values must increase, got {values}")
    return points


CLAIMS = {
    "lemma2": Claim(
        "mc_independence", 10**4, ("q", "m", "n"),
        "independence rate of uniform element subsets",
        _plan_lemma2,
    ),
    "prop2": Claim(
        "mc_overlap_tightness", 10**4, ("q", "n", "u", "ell", "s"),
        "tightness rate at fixed set overlap, m = n",
        _plan_prop2,
    ),
    "prop4": Claim(
        "mc_subspace_tightness", 10**4, ("q", "m", "n", "u", "v", "ell", "s"),
        "tightness rate at fixed set and span overlap",
        _plan_prop4,
    ),
    "thm3": Claim(
        "sweep_basic_tightness", 10**4, ("n", "ell", "s", "q_values", "distribution"),
        "failure trend of the m = n scheme as q grows",
        lambda q_values, **p: _plan_sweep("basic", q_values, lambda q: (q, p["n"]), p),
        scheme="basic",
    ),
    "thm5": Claim(
        "sweep_generalized_tightness", 10**4, ("q", "n", "ell", "s", "m_values", "distribution"),
        "failure trend of the completed scheme as m grows",
        lambda q, m_values, **p: _plan_sweep("generalized", m_values, lambda m: (q, m), p),
        scheme="generalized",
    ),
    "roundtrip": Claim(
        "mc_decode_roundtrip", 10**3, ("q", "m", "n", "k", "s"),
        "decode success rate within half distance",
        _plan_roundtrip,
    ),
}
# the claim of each campaign and of each sweep point's scheme
_CLAIM_OF = {row.campaign: claim for claim, row in CLAIMS.items()}
_SCHEMES = {row.scheme: claim for claim, row in CLAIMS.items() if row.scheme}
# the type of every param that is not an int
_PARAM_TYPES = {"q_values": list, "m_values": list, "scheme": str, "distribution": str}


# ---------------------------------------------------------------------------
# Trial bookkeeping.


def trial_rng(seed: int, index: int) -> random.Random:
    """Independent stream for one trial, derived by hashing (seed, index)."""
    h = hashlib.sha256(f"{seed}:{index}".encode("ascii")).digest()
    return random.Random(int.from_bytes(h[:8], "little"))


@dataclass(frozen=True)
class TrialReport:
    """Outcome counts of one experiment campaign plus the claimed rate.
    A sampled campaign ran the trials start .. start + trials - 1."""

    claim: str
    params: dict
    trials: int
    successes: int
    formula: Fraction | None = None
    seed: int | None = None
    mode: str = "sampled"  # or "exhaustive"
    start: int = 0

    def __post_init__(self):
        counts_are_ints = type(self.trials) is type(self.successes) is type(self.start) is int
        if not counts_are_ints or self.seed is not None and type(self.seed) is not int:
            raise BadRange("trials, successes and start must be ints, seed an int or None")
        if self.trials < 1:
            raise BadRange("need at least one trial")
        if not 0 <= self.successes <= self.trials:
            raise BadRange("successes must lie in [0, trials]")
        # compared as ints, which is much cheaper than as Fractions; a
        # Fraction's denominator is positive
        f = self.formula
        if f is not None and not (isinstance(f, Fraction) and 0 <= f.numerator <= f.denominator):
            raise BadRange(f"formula must lie in [0, 1] as a Fraction, or be None; got {f!r}")

    @property
    def estimate(self) -> float:
        return self.successes / self.trials

    @property
    def exact_estimate(self) -> Fraction:
        return Fraction(self.successes, self.trials)

    @property
    def standard_error(self) -> float:
        p = float(self.formula) if self.formula is not None else self.estimate
        return math.sqrt(p * (1.0 - p) / self.trials)

    @property
    def verdict(self):
        """exact_match/within_3sigma/flagged/failed, or None without a target.

        Exhaustive runs demand rational equality.  Sampled runs compare
        against the claimed rate: inside 3 sigma passes, 3 to 4 sigma is
        flagged for attention, beyond 4 sigma fails.  A claimed rate of
        exactly 0 or 1 leaves no sampling slack.
        """
        if self.formula is None:
            return None
        if self.mode == "exhaustive":
            return "exact_match" if self.exact_estimate == self.formula else "failed"
        se = self.standard_error
        diff = abs(self.estimate - float(self.formula))
        if se == 0.0:
            return "within_3sigma" if diff == 0.0 else "failed"
        if diff <= 3.0 * se:
            return "within_3sigma"
        if diff <= 4.0 * se:
            return "flagged"
        return "failed"

    def to_dict(self) -> dict:
        """The report as a record; "start" appears only when nonzero, so a
        campaign run from trial 0 keeps the record it always had."""
        out = {
            "claim": self.claim,
            "params": dict(self.params),
            "trials": self.trials,
            "successes": self.successes,
            "estimate": self.estimate,
            "formula": None
            if self.formula is None
            else {
                "numerator": self.formula.numerator,
                "denominator": self.formula.denominator,
            },
            "standard_error": self.standard_error,
            "verdict": self.verdict,
            "seed": self.seed,
            "mode": self.mode,
        }
        if self.start:
            out["start"] = self.start
        return out


def merge_reports(*reports: TrialReport) -> TrialReport:
    """Combine sampled chunks of one campaign by summing their counts.
    Taken in order of start, the chunks must run on from one another,
    so that no trial is counted twice and none is missing."""
    if not reports:
        raise BadRange("nothing to merge")
    if not all(isinstance(r, TrialReport) for r in reports):
        raise ParamMismatch("can only merge TrialReports")
    first = reports[0]
    for r in reports[1:]:
        same = (
            r.claim == first.claim
            and r.params == first.params
            and r.seed == first.seed
            and r.formula == first.formula
            and r.mode == first.mode
        )
        if not same:
            raise ParamMismatch("reports describe different campaigns")
    if first.mode != "sampled":
        raise ParamMismatch("only sampled campaigns merge")
    chunks = sorted(reports, key=lambda r: r.start)
    for a, b in zip(chunks, chunks[1:]):
        end = a.start + a.trials
        if b.start != end:
            kind = "overlap" if b.start < end else "leave a gap"
            raise ParamMismatch(f"chunks ending at trial {end} and starting at {b.start} {kind}")
    return TrialReport(
        claim=first.claim,
        params=first.params,
        trials=sum(r.trials for r in reports),
        successes=sum(r.successes for r in reports),
        formula=first.formula,
        seed=first.seed,
        mode="sampled",
        start=chunks[0].start,
    )


def trend_holds(points) -> bool:
    """True when failure rates are non-increasing along the points.

    One inversion is tolerated if its gap stays within twice the
    combined sampling error of the two estimates involved.
    """
    fails = [1.0 - r.estimate for r in points]
    ses = [
        math.sqrt(max(r.estimate * (1.0 - r.estimate), 1.0 / r.trials) / r.trials)
        for r in points
    ]
    forgiven = 0
    for i in range(len(points) - 1):
        if fails[i + 1] <= fails[i]:
            continue
        gap = fails[i + 1] - fails[i]
        sigma = math.hypot(ses[i], ses[i + 1])
        if gap > 2.0 * sigma:
            return False
        forgiven += 1
        if forgiven > 1:
            return False
    return True


@dataclass(frozen=True)
class SweepReport:
    """Series of campaigns along one growing parameter, judged by trend."""

    claim: str
    params: dict
    points: tuple
    seed: int | None = None

    def __post_init__(self):
        if len(self.points) < 2:
            raise BadRange("a sweep needs at least two points")
        if not all(isinstance(r, TrialReport) for r in self.points):
            raise ParamMismatch("sweep points must be TrialReports")
        if self.seed is not None and type(self.seed) is not int:
            raise BadRange("seed must be an int or None")

    @property
    def trials(self) -> int:
        return sum(r.trials for r in self.points)

    @property
    def successes(self) -> int:
        return sum(r.successes for r in self.points)

    @property
    def verdict(self) -> str:
        return "within_3sigma" if trend_holds(self.points) else "failed"

    def to_dict(self) -> dict:
        """The record of all points pooled into one trial report, judged
        by trend, with the points' own records."""
        pooled = TrialReport(self.claim, self.params, self.trials, self.successes, seed=self.seed)
        points = [r.to_dict() for r in self.points]
        return dict(pooled.to_dict(), verdict=self.verdict, mode="sweep", points=points)


_NONE = type(None)
_TRIAL_SCHEMA = {
    "claim": str,
    "params": dict,
    "trials": int,
    "successes": int,
    "estimate": float,
    "formula": (dict, _NONE),
    "standard_error": float,
    "verdict": (str, _NONE),
    "seed": (int, _NONE),
    "mode": str,
}
_SWEEP_SCHEMA = dict(_TRIAL_SCHEMA, formula=_NONE, verdict=str, points=list)
_STARTED_SCHEMA = dict(_TRIAL_SCHEMA, start=int)
_FORMULA_SCHEMA = {"numerator": int, "denominator": int}


def _trial_from_dict(data) -> TrialReport:
    started = isinstance(data, dict) and "start" in data
    check_record(data, "report", _STARTED_SCHEMA if started else _TRIAL_SCHEMA)
    if data["mode"] not in ("sampled", "exhaustive"):
        raise MalformedRecord(f"report: unknown mode {data['mode']!r}")
    formula = data["formula"]
    if formula is not None:
        check_record(formula, "report formula", _FORMULA_SCHEMA)
        if formula["denominator"] < 1:
            raise MalformedRecord(f"report formula: bad denominator {formula['denominator']}")
        formula = Fraction(formula["numerator"], formula["denominator"])
    return TrialReport(
        claim=data["claim"],
        params=dict(data["params"]),
        trials=data["trials"],
        successes=data["successes"],
        formula=formula,
        seed=data["seed"],
        mode=data["mode"],
        start=data.get("start", 0),
    )


def report_from_dict(data):
    """Rebuild a TrialReport or SweepReport from its to_dict() form, with
    exact key sets and value types; sweep points must be trial records."""
    if isinstance(data, dict) and data.get("mode") == "sweep":
        check_record(data, "sweep report", _SWEEP_SCHEMA)
        return SweepReport(
            claim=data["claim"],
            params=dict(data["params"]),
            points=tuple(_trial_from_dict(p) for p in data["points"]),
            seed=data["seed"],
        )
    return _trial_from_dict(data)


def save_report(report, path) -> None:
    save_json(report.to_dict(), path)


def _check_params(params: dict, what: str, schema: dict) -> None:
    """check_record, and a list must hold ints only."""
    check_record(params, what, schema)
    for name, value in params.items():
        if type(value) is list and any(type(x) is not int for x in value):
            raise MalformedRecord(f"{what}: {name} must be a list of ints, got {value!r}")


def _check_claim(report) -> None:
    """Refuse a report its claim's campaign does not write: an unknown
    claim, params whose keys or value types are not the claim's, params
    the claim's plan refuses, a formula that is not the plan's rate, and
    a sweep point whose claim or params are not the plan's.  No field is
    built."""
    claim, row = report.claim, CLAIMS.get(report.claim)
    if row is None:
        raise MalformedRecord(f"report: unknown claim {claim!r}")
    if isinstance(report, SweepReport) != (row.scheme is not None):
        raise MalformedRecord(f"report: a {claim} report is {'' if row.scheme else 'not '}a sweep")
    schema = {name: _PARAM_TYPES.get(name, int) for name in row.params}
    _check_params(report.params, f"report: {claim} params", schema)
    try:
        plan = row.plan(**report.params)
    except RankfuzzError as exc:
        has = "points" if row.scheme else "rate"
        raise MalformedRecord(f"report: {claim} params have no {has}: {exc}") from None
    if row.scheme is None:
        if report.formula != plan:
            raise MalformedRecord(f"report: formula {report.formula} is not {claim}'s rate {plan}")
        return
    if len(report.points) != len(plan):
        raise MalformedRecord(f"sweep report: {len(report.points)} points for {len(plan)} values")
    for i, (point, expected) in enumerate(zip(report.points, plan)):
        what = f"sweep report: point {i}"
        if point.claim != claim:
            raise MalformedRecord(f"{what} has claim {point.claim!r}, not {claim!r}")
        _check_params(point.params, f"{what} params", {k: type(v) for k, v in expected.items()})
        if point.params != expected or point.formula is not None:
            at = f"q={expected['q']} m={expected['m']}"
            raise MalformedRecord(f"{what} is not the {claim} point at {at}")


def load_report(path):
    """The report in a file save_report wrote, refused unless it is what
    its claim's campaign writes (_check_claim)."""
    report = report_from_dict(load_json(path))
    _check_claim(report)
    return report


# ---------------------------------------------------------------------------
# Samplers.


def _distinct_elements(field: ExtField, n: int, rng) -> list[int]:
    """n distinct uniform elements in random order.  Up to sys.maxsize
    elements this is rng.sample, so seeded draws stay as they were; it
    cannot take the length of a longer range, so larger fields draw
    rng.randrange and redraw repeats."""
    if field.order <= sys.maxsize:
        return rng.sample(range(field.order), n)
    out: list[int] = []
    while len(out) < n:
        x = rng.randrange(field.order)
        if x not in out:
            out.append(x)
    return out


def _check_size(m: int, n: int) -> None:
    """Refuse a feature set of n elements of F_{q^m} unless 1 <= n <= m."""
    if not 1 <= n <= m:
        raise BadDimensions(f"need 1 <= n <= m, got n={n}")


def sample_feature_set(field: ExtField, n: int, rng) -> FeatureSet:
    """Uniform independent n-subset of the field, by rejection."""
    _check_size(field.m, n)
    for _ in range(_MAX_TRIES):
        subset = _distinct_elements(field, n, rng)
        if element_rank(field, subset) == n:
            return FeatureSet(field, tuple(subset))
    raise InfeasibleShape("no independent subset found within the retry budget")


def sample_witness_overlap(field: ExtField, features: FeatureSet, u: int, rng) -> FeatureSet:
    """Independent witness sharing exactly u elements with the features."""
    n = len(features)
    if not 0 <= u <= n:
        raise BadRange(f"need 0 <= u <= n, got u={u}")
    taken = features.as_set()
    chosen = list(rng.sample(list(features.elems), u))
    # chosen lies in the span, so a repeat does not grow it
    span = FqSpan(field.q, field.m, chosen)
    _grow(span, chosen, n, lambda: field.random_element(rng), _BUDGET_SPENT, taken)
    return FeatureSet(field, tuple(chosen))


def _check_overlap_shape(q: int, m: int, n: int, u: int) -> None:
    """Refuse the one set overlap no witness can meet: in F_4 the only
    nonzero element outside two independent features is their sum."""
    if q == 2 and m == n == 2 and u == 0:
        raise InfeasibleShape(
            "at q = 2 and m = n = 2 the only nonzero element outside the two "
            "features is their sum, so u = 0 cannot be met"
        )


def _check_witness_shape(q: int, m: int, n: int, u: int, v: int) -> None:
    """Refuse the overlaps (u, v) that no witness of n elements can meet."""
    if not 0 <= u <= v <= n:
        raise BadRange(f"need 0 <= u <= v <= n, got u={u} v={v}")
    if 2 * n - v > m:
        raise InfeasibleShape(
            f"span of features plus witness needs dimension {2 * n - v} > m = {m}"
        )
    # over F_2 the span of one or two features holds no basis of itself
    # that avoids them: its only other nonzero element is their sum
    if q == 2 and u == 0 and v == n <= 2:
        raise InfeasibleShape(
            f"at q = 2 the span of n = {n} features has no basis that avoids "
            f"them all, so u = 0 and v = n cannot be met"
        )


def sample_witness_shaped(field: ExtField, features: FeatureSet, u: int, v: int, rng) -> FeatureSet:
    """Witness with set overlap exactly u and span overlap exactly v.

    Built in three blocks: n - v elements independent over the whole
    feature span, v - u elements inside the span but outside the set,
    and u feature elements, all jointly independent.
    """
    n = len(features)
    m = field.m
    _check_witness_shape(field.q, m, n, u, v)
    feats = list(features.elems)
    taken = features.as_set()
    common = list(rng.sample(feats, u))
    # one span: common and in_span, then all of feats and outside
    span = FqSpan(field.q, m, common)
    combination = lambda: fq_combination(field, field.digits(field.random_int(n, rng)), feats)
    in_span = _grow(span, [], v - u, combination, _BUDGET_SPENT, taken)
    span.extend(feats)
    outside = _grow(span, [], n - v, lambda: field.random_element(rng), _BUDGET_SPENT)
    return FeatureSet(field, tuple(outside + in_span + common))


# ---------------------------------------------------------------------------
# Campaigns.


def _head(campaign: str, args: dict) -> TrialReport:
    """The report the named campaign fills in, from its arguments args:
    its claim, the claim's params read from args by name, their planned
    rate and the trial range.  Building it refuses a trial count below 1."""
    claim = _CLAIM_OF[campaign]
    params = {name: args[name] for name in CLAIMS[claim].params}
    formula = CLAIMS[claim].plan(**params)
    return TrialReport(claim, params, args["trials"], 0, formula, args["seed"], start=args["start"])


def _sampled(head: TrialReport, trial) -> TrialReport:
    """head with the successes of trial(trial_rng(seed, i), i) -> bool over
    the trials it names, start .. start + trials - 1.  Building head has
    already refused a trial count below 1."""
    succ = 0
    for i in range(head.start, head.start + head.trials):
        succ += trial(trial_rng(head.seed, i), i)
    return TrialReport(
        head.claim, head.params, head.trials, succ, head.formula, head.seed, start=head.start
    )


def _vault_trial(params: VaultParams, completed: bool, draw, rng):
    """Lock a fresh vault and measure one witness against it.

    Draws the key, the features, the chaff (lock) and then the witness
    draw(rng, features), in that order.  Returns (features, witness, d_r,
    diff): d_r is the rank of kappa - L, the key polynomial minus the map
    the witness decodes against, read off the residuals diff on a basis.
    With completed true L is witness_map_completed and the basis is the
    features; this route holds at any m >= n.  Otherwise (m = n only) the
    basis is the witness and L sends it to its table entries, so diff is
    kappa - L on the witness only.
    """
    fld = params.field
    key = fld.random_vector(params.ell, rng)
    feats = sample_feature_set(fld, params.n, rng)
    vault = lock(params, feats, key, rng)
    wit = draw(rng, feats)
    kappa = LinearizedPoly(fld, params.s, key)
    if completed:
        basis, decoded = feats.elems, witness_map_completed(vault, wit, feats, kappa)
    else:
        basis, decoded = wit.elems, vault.table.__getitem__
    diff = lambda x: fld.sub(kappa(x), decoded(x))
    return feats, wit, restricted_rank(fld, diff, basis), diff


def _rank_bound_trial(params: VaultParams, completed: bool, draw, where: str):
    """Vault trial that asserts 2 d_r <= |A ^ W| and counts equality."""

    def trial(rng, i):
        feats, wit, d_r, _ = _vault_trial(params, completed, draw, rng)
        d_delta = set_difference(feats, wit)
        if 2 * d_r > d_delta:
            raise ClaimViolation(f"rank bound broken: 2*{d_r} > {d_delta} ({where} trial={i})")
        return 2 * d_r == d_delta

    return trial


def mc_independence(
    q: int,
    m: int,
    n: int,
    trials: int = 10**4,
    seed: int = 0,
    start: int = 0,
) -> TrialReport:
    """Rate at which uniform n-subsets of F_{q^m} are F_q-independent.

    Small instances (q^m <= 4096 and at most 10^6 subsets) are enumerated
    completely instead of sampled, which turns the statistical comparison
    into an exact rational identity.
    """
    # refuses a trial count below 1 in either mode
    head = _head("mc_independence", locals())
    fld = ext_field(q, m)
    if fld.order <= _EXHAUSTIVE_ORDER and math.comb(fld.order, n) <= _EXHAUSTIVE_SUBSETS:
        total = 0
        succ = 0
        for subset in combinations(range(fld.order), n):
            total += 1
            succ += element_rank(fld, subset) == n
        return TrialReport(head.claim, head.params, total, succ, head.formula, seed, "exhaustive")
    return _sampled(head, lambda rng, i: element_rank(fld, _distinct_elements(fld, n, rng)) == n)


def mc_overlap_tightness(
    q: int,
    n: int,
    u: int,
    ell: int,
    s: int = 1,
    trials: int = 10**4,
    seed: int = 0,
    start: int = 0,
) -> TrialReport:
    """Rate of rank-bound equality at fixed set overlap u, with m = n.

    Each trial locks a fresh vault and compares twice the rank distance
    of the key polynomial from the witness-interpolated map against the
    symmetric difference 2(n - u).  The one-sided bound is
    asserted outright on every trial; only equality is counted.
    """
    head = _head("mc_overlap_tightness", locals())
    params = VaultParams(q=q, m=n, n=n, ell=ell, s=s)
    fld = params.field
    draw = lambda rng, feats: sample_witness_overlap(fld, feats, u, rng)
    return _sampled(head, _rank_bound_trial(params, False, draw, f"q={q} n={n} u={u} seed={seed}"))


def mc_subspace_tightness(
    q: int,
    m: int,
    n: int,
    u: int,
    v: int,
    ell: int,
    s: int = 1,
    trials: int = 10**4,
    seed: int = 0,
    start: int = 0,
) -> TrialReport:
    """Equality rate at fixed set overlap u and span overlap v, m >= n.

    Uses the completed witness map restricted to the feature span.  The
    full inequality chain through the subspace distance is asserted on
    every trial; the counted event is tightness at the upper end.
    """
    head = _head("mc_subspace_tightness", locals())
    params = VaultParams(q=q, m=m, n=n, ell=ell, s=s)
    fld = params.field
    draw = lambda rng, feats: sample_witness_shaped(fld, feats, u, v, rng)
    where = f"q={q} m={m} n={n} u={u} v={v} seed={seed}"

    def trial(rng, i):
        feats, wit, d_r, diff = _vault_trial(params, True, draw, rng)
        d_delta = set_difference(feats, wit)
        inter = subspace_intersection(fld, feats.elems, wit.elems)
        if len(inter) != v:
            raise ClaimViolation(
                f"sampled witness has span overlap {len(inter)}, not v ({where} trial={i})"
            )
        # both sets hold n independent elements
        d_s = 2 * (n - len(inter))
        r_int = restricted_rank(fld, diff, inter)
        if not d_s <= 2 * d_r <= d_s + 2 * r_int <= d_delta:
            raise ClaimViolation(
                f"distance chain broken: d_s={d_s} 2d_r={2 * d_r} "
                f"d_s+2r={d_s + 2 * r_int} d_delta={d_delta} ({where} trial={i})"
            )
        return 2 * d_r == d_delta

    return _sampled(head, trial)


def mc_scheme_tightness(
    scheme: str,
    q: int,
    m: int,
    n: int,
    ell: int,
    s: int = 1,
    trials: int = 10**4,
    seed: int = 0,
    distribution: str = "uniform_u",
    start: int = 0,
) -> TrialReport:
    """Unconditional equality rate under a declared witness distribution.

    scheme "basic" (m = n, interpolated map) or "generalized" (m >= n,
    completed map restricted to the feature span).  distribution
    "uniform_u" first draws the overlap size uniformly, then a witness
    with that overlap; "uniform_w" draws the witness uniformly among
    all valid sets.  uniform_u is the default because it pins the
    overlap distribution while a sweep varies the field, isolating the
    size effect the trend check looks for; under uniform_w the overlap
    mix itself shifts with the field and can mask the trend at small q.
    No formula applies pointwise; a sweep judges the failure trend.
    """
    point = _plan_point(scheme, q, m, n, ell, s, distribution)
    head = TrialReport(_SCHEMES[scheme], point, trials, 0, None, seed, start=start)
    params = VaultParams(q=q, m=m, n=n, ell=ell, s=s)
    fld = params.field
    if distribution == "uniform_u":
        draw = lambda rng, feats: sample_witness_overlap(fld, feats, rng.randrange(n + 1), rng)
    else:
        draw = lambda rng, feats: sample_feature_set(fld, n, rng)
    where = f"scheme={scheme} q={q} m={m} n={n} seed={seed}"
    return _sampled(head, _rank_bound_trial(params, scheme == "generalized", draw, where))


def mc_decode_roundtrip(
    q: int,
    m: int,
    n: int,
    k: int,
    s: int = 1,
    trials: int = 10**3,
    seed: int = 0,
    start: int = 0,
) -> TrialReport:
    """Decode success rate under errors within half the design distance.

    Fresh independent evaluation points, message, and exact-rank error
    every trial; the claimed rate is exactly 1, so a single failure
    fails the report.
    """
    head = _head("mc_decode_roundtrip", locals())
    fld = ext_field(q, m)

    def trial(rng, i):
        pts = sample_feature_set(fld, n, rng)
        code = GabidulinCode(fld, n, k, s, pts.elems)
        msg = fld.random_vector(k, rng)
        e = rng.randrange(code.t + 1)
        err = random_rank_error(fld, n, e, rng)
        word = tuple(fld.add(a, b) for a, b in zip(code.encode(msg), err))
        try:
            got, got_rank, _ = code.decode(word)
        except DecodingFailure:
            return False
        return got == msg and got_rank == e

    return _sampled(head, trial)


def _sweep(campaign: str, args: dict) -> SweepReport:
    """One mc_scheme_tightness campaign per point that the claim's plan
    gives for the named campaign's arguments args, all checked first."""
    claim = _CLAIM_OF[campaign]
    params = {name: args[name] for name in CLAIMS[claim].params}
    points = CLAIMS[claim].plan(**params)
    runs = tuple(mc_scheme_tightness(**p, trials=args["trials"], seed=args["seed"]) for p in points)
    return SweepReport(claim, params, runs, args["seed"])


def sweep_basic_tightness(
    q_values,
    n: int,
    ell: int,
    s: int = 1,
    trials: int = 10**4,
    seed: int = 0,
    distribution: str = "uniform_u",
) -> SweepReport:
    """Failure-rate trend of the basic scheme as the field grows."""
    q_values = list(q_values)
    return _sweep("sweep_basic_tightness", locals())


def sweep_generalized_tightness(
    q: int,
    m_values,
    n: int,
    ell: int,
    s: int = 1,
    trials: int = 10**4,
    seed: int = 0,
    distribution: str = "uniform_u",
) -> SweepReport:
    """Failure-rate trend of the generalized scheme as the extension grows."""
    m_values = list(m_values)
    return _sweep("sweep_generalized_tightness", locals())
