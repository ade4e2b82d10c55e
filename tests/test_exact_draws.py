"""Prop. 2 and Prop. 4 as exact identities, one trial draw at a time.

A trial draws the key, the features, the lock's chaff and the witness.
Fix one such draw from trial_rng(7, t); the witness reads kappa(x) at
its u feature points and chaff at its n - u others.  Enumerating every
chaff value there (each different from kappa(x)) and running each table
through the library's own pipeline gives the rate of rank-bound
equality over the chaff alone.  At these tiny shapes that rate equals
the formula exactly, whatever the draw, so the enumeration is an exact
oracle for everything below the lock.

Under thm3's and thm5's uniform_w law the witness is a uniform
independent set, drawn as mc_scheme_tightness draws it.  For the basic
scheme the rate at each draw is Prop. 2's formula at the drawn u.  For
the completed scheme it is Prop. 4's formula at the drawn (u, v) exactly
when the witness points lying in span(A) span all of span(A) inter
span(W); a draw where they do not gives another rate.

The map rank of kappa minus the interpolated witness map is also the
oracle for the trial's own rank step, which at m = n reads d_r off the
residuals kappa(w) - table[w] on the witness alone.  The completed
route, which thm5 takes even at m = n, must give the same d_r there.
"""

from fractions import Fraction
from itertools import product

import pytest

from rankfuzz import analysis
from rankfuzz.analysis import (
    overlap_tightness_probability,
    restricted_rank,
    sample_feature_set,
    sample_witness_overlap,
    sample_witness_shaped,
    set_difference,
    subspace_intersection,
    subspace_tightness_probability,
    trial_rng,
    witness_map,
    witness_map_completed,
)
from rankfuzz.fields import element_rank
from rankfuzz.linpoly import LinearizedPoly
from rankfuzz.vault import Vault, VaultParams, lock

DRAWS = range(3)


def exact_tight_fraction(params: VaultParams, draw, rank, t: int) -> Fraction:
    """Share of chaff substitutions at which 2 d_r == |A ^ W|, for the
    draw of trial t.  draw(rng, feats) is the witness sampler; rank(vault,
    wit, feats, kappa) is d_r.  Asserts 2 d_r <= |A ^ W| on every table."""
    fld = params.field
    rng = trial_rng(7, t)
    key = fld.random_vector(params.ell, rng)
    feats = sample_feature_set(fld, params.n, rng)
    vault = lock(params, feats, key, rng)
    wit = draw(rng, feats)
    kappa = LinearizedPoly(fld, params.s, key)
    d_delta = set_difference(feats, wit)
    chaff_at = [x for x in wit.elems if x not in feats.as_set()]
    assert d_delta == 2 * len(chaff_at)
    choices = [[y for y in range(fld.order) if y != kappa(x)] for x in chaff_at]
    table = list(vault.table)
    tight = total = 0
    for ys in product(*choices):
        for x, y in zip(chaff_at, ys):
            table[x] = y
        d_r = rank(Vault(params, tuple(table), vault.key_digest), wit, feats, kappa)
        assert 2 * d_r <= d_delta, (t, ys)
        tight += 2 * d_r == d_delta
        total += 1
    return Fraction(tight, total)


def _map_rank(vault, wit, feats, kappa):
    return (kappa - witness_map(vault, wit)).map_rank()


def _completed_rank(fld):
    def rank(vault, wit, feats, kappa):
        lz = witness_map_completed(vault, wit, feats, kappa)
        return restricted_rank(fld, lambda x: fld.sub(kappa(x), lz(x)), feats.elems)

    return rank


def _uniform_w(fld, n, drawn):
    """The uniform_w witness sampler, which appends each (features,
    witness) it sees to drawn."""

    def draw(rng, feats):
        wit = sample_feature_set(fld, n, rng)
        drawn.append((feats, wit))
        return wit

    return draw


PROP2 = [(q, n, u) for q, n in [(2, 3), (3, 2)] for u in range(n + 1)]


@pytest.mark.parametrize("q,n,u", PROP2, ids=[f"{q}-{n}-{u}" for q, n, u in PROP2])
def test_prop2_rate_is_exact_per_draw(q, n, u):
    params = VaultParams(q=q, m=n, n=n, ell=1)
    fld = params.field
    draw = lambda rng, feats: sample_witness_overlap(fld, feats, u, rng)
    formula = overlap_tightness_probability(q, n, u)
    for t in DRAWS:
        assert exact_tight_fraction(params, draw, _map_rank, t) == formula, t


# every feasible (u, v): 2n - v <= m, and at q = 2 not u = 0 with v = n
PROP4 = [(2, 4, 2, u, v) for u, v in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]] + [
    (3, 3, 2, u, v) for u, v in [(0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
]


@pytest.mark.parametrize("q,m,n,u,v", PROP4, ids=["-".join(map(str, s)) for s in PROP4])
def test_prop4_rate_is_exact_per_draw(q, m, n, u, v):
    params = VaultParams(q=q, m=m, n=n, ell=1)
    fld = params.field
    draw = lambda rng, feats: sample_witness_shaped(fld, feats, u, v, rng)
    rank = _completed_rank(fld)
    formula = subspace_tightness_probability(q, m, n, u, v)
    for t in DRAWS:
        assert exact_tight_fraction(params, draw, rank, t) == formula, t


UNIFORM_W_DRAWS = range(6)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2)], ids=["2-3", "3-2"])
def test_thm3_uniform_w_rate_is_exact_per_draw(q, n):
    params = VaultParams(q=q, m=n, n=n, ell=1)
    drawn = []
    draw = _uniform_w(params.field, n, drawn)
    for t in UNIFORM_W_DRAWS:
        rate = exact_tight_fraction(params, draw, _map_rank, t)
        feats, wit = drawn[-1]
        u = len(feats.as_set() & wit.as_set())
        assert rate == overlap_tightness_probability(q, n, u), t


THM5 = [(2, 4, 2), (3, 3, 2), (2, 5, 2)]


@pytest.mark.parametrize("q,m,n", THM5, ids=["-".join(map(str, s)) for s in THM5])
def test_thm5_uniform_w_rate_is_exact_when_witness_points_span_the_overlap(q, m, n):
    params = VaultParams(q=q, m=m, n=n, ell=1)
    fld = params.field
    rank = _completed_rank(fld)
    drawn = []
    draw = _uniform_w(fld, n, drawn)
    exact, inexact = [], []
    for t in UNIFORM_W_DRAWS:
        rate = exact_tight_fraction(params, draw, rank, t)
        feats, wit = drawn[-1]
        u = len(feats.as_set() & wit.as_set())
        v = len(subspace_intersection(fld, feats.elems, wit.elems))
        # w lies in span(A) when adding it to the features leaves rank n
        inside = [w for w in wit.elems if element_rank(fld, feats.elems + (w,)) == n]
        formula = subspace_tightness_probability(q, m, n, u, v)
        if element_rank(fld, inside) == v:
            assert rate == formula, t
            exact.append(t)
        else:
            assert rate != formula, t
            inexact.append(t)
    # these draws take both branches at every shape
    assert exact and inexact


# (q, n, s): both parities of q, a twist above 1, and n = 8
RANK_STEP_SHAPES = [(2, 4, 1), (2, 4, 3), (2, 8, 1), (3, 4, 1), (5, 3, 2)]
RANK_STEP_DRAWS = range(10)


@pytest.mark.parametrize(
    "q,n,s", RANK_STEP_SHAPES, ids=["-".join(map(str, x)) for x in RANK_STEP_SHAPES]
)
def test_vault_trial_rank_step_matches_the_interpolated_map_rank(q, n, s):
    params = VaultParams(q=q, m=n, n=n, ell=2, s=s)
    fld = params.field
    overlap = lambda u: lambda rng, feats: sample_witness_overlap(fld, feats, u, rng)
    draws = [overlap(u) for u in range(n + 1)] + [_uniform_w(fld, n, [])]
    for d, draw in enumerate(draws):
        for t in RANK_STEP_DRAWS:
            feats, wit, d_r, _ = analysis._vault_trial(params, False, draw, trial_rng(d, t))
            # at m = n the witness spans the field, so completing it adds nothing
            assert analysis._vault_trial(params, True, draw, trial_rng(d, t))[2] == d_r, (d, t)
            # replay the same draws, as exact_tight_fraction does
            rng = trial_rng(d, t)
            key = fld.random_vector(params.ell, rng)
            assert sample_feature_set(fld, n, rng).elems == feats.elems
            vault = lock(params, feats, key, rng)
            assert draw(rng, feats).elems == wit.elems
            assert d_r == _map_rank(vault, wit, feats, LinearizedPoly(fld, s, key)), (d, t)
