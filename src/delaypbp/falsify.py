"""Numerical certificates for the belief recursion and its pitfalls.

Four positive checks certify properties the correct private posterior must
have: it is blind to the owner's strategy, conditionally Markov given the
shared block, reduces to the textbook filter for a single agent, and makes
the belief-form expected cost agree with raw trajectory enumeration.

The fifth check is a refutation: it measures how far the other agents'
freshly shared data is from being conditionally independent of the current
state given one agent's information. A tempting shortcut when deriving
belief recursions is to assume that independence and drop the fresh data
from the conditioning; the measured gap being large shows the assumption
is false, while state-independent observation kernels drive it to zero as
a sanity case.

The checks built on `oracle.walk` group the histories of its blocks by
agent k's realization codes (`info.history_code`, one code array per
block), with one walk per profile and question (the conditional-Markov
laws pair every history's time-t and time-(t+1) codes); each sum is an
`np.add.at` in walk order, and realizations are ordered by code, as are
`oracle.posteriors`' rows, found by `np.searchsorted` or `np.intersect1d`,
and per-code results are slices aligned to those rows. A code becomes
text (`info.realization_keys`, one call per layer) only to label a gap.
The single-agent reduction takes one `classical_filter_step` per layer.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import dp, oracle
from .filtering import expand, seq_sum
from .info import (grid_size, history_code, newest_obs, other_agents, private_size,
                   realization_keys, revealed, shared_prefix_len)
from .model import COMPARE_TOL, ModelSpec
from .strategies import StrategyProfile


def make_report(quantity: str, gaps: list[tuple[str, float]]) -> dict:
    """One quantity's report document: its gaps sorted by label, their
    maximum and a label attaining it (0.0 and None if none were checked)."""
    gaps = sorted((w, float(g)) for w, g in gaps)
    max_gap = max((g for _, g in gaps), default=0.0)
    return {"quantity": quantity, "max_gap": max_gap,
            "witness": next((w for w, g in gaps if g == max_gap), None),
            "gaps": [{"where": w, "gap": g} for w, g in gaps]}


# ---------------------------------------------------------------------------
# Conditional independence of freshly shared data from the current state.
# ---------------------------------------------------------------------------

def _conditional(group: np.ndarray, cell: np.ndarray, width: int, mass: np.ndarray):
    """The law of cell (in 0..width-1) given group, from one walk's
    histories: the distinct groups in increasing order, then per distinct
    (group, cell) in increasing order the index of its group, the cell and
    its mass over its group's mass, each mass added in walk order."""
    (groups, inv), (pairs, pair_inv) = (np.unique(key, return_inverse=True)
                                        for key in (group, group * width + cell))
    per_group, per_pair = np.zeros(len(groups)), np.zeros(len(pairs))
    np.add.at(per_group, inv, mass)
    np.add.at(per_pair, pair_inv, mass)
    at = np.searchsorted(groups, pairs // width)
    return groups, at, pairs % width, per_pair / per_group[at]


def check_conditional_independence(spec: ModelSpec, g_full, k: int, t: int) -> dict:
    """Measure, per positive-probability (x_t, shared block, private block),
    the distance between the law of the other agents' just-shared symbols
    given that triple and given the information alone.

    A zero max gap means the just-shared symbols carry no extra state
    information; any positive gap refutes that conditional independence.
    """
    p_idx = shared_prefix_len(spec.n, t + 1) - 1  # the time of the just-shared symbols
    if p_idx < 0:
        raise ValueError(f"no symbols are shared before t = n-1 = {spec.n - 1}")
    if t > spec.T - 1:
        raise ValueError("t must be a decision time (actions at t are part of the target)")
    others, depth, X = other_agents(spec.K, k), max(t, p_idx + 1), spec.state_size
    # One walk to the first length that reaches t and the shared symbols'
    # time: per history there, agent k's time-t code r, x_t and the index
    # of the shared symbols (`info.revealed`, of width indices), which
    # with n = 1 include the actions at t = p_idx.
    parts = []
    for s, xs, obs, acts, mass, cost in oracle.walk(spec, g_full, depth=depth):
        if s == depth:
            shared, width = revealed(
                spec, k, t, [history_code(spec, obs, acts, j, t) % private_size(spec, j, t)
                             for j in others], [acts[:, j, p_idx] for j in others])
            parts.append((history_code(spec, obs, acts, k, t), xs[:, t].astype(np.int64),
                          np.zeros(len(mass), np.int64) + shared, mass))
    r, x, shared, mass = map(np.concatenate, zip(*parts))
    laws = []  # the shared symbols' law given (r, x_t), then given r; 0 where unseen
    for group in (r * X + x, r):
        groups, at, cell, p = _conditional(group, shared, width, mass)
        law = np.zeros((len(groups), width))
        law[at, cell] = p
        laws.append((groups, law))
    (rx, p1), (rs, p2) = laws
    gaps = np.max(np.abs(p1 - p2[np.searchsorted(rs, rx // X)]), axis=1)
    return make_report("shared-data conditional independence",
                       [(f"x={x}|{key}", gap) for key, x, gap in zip(realization_keys(
                           spec, k, t, rx // X), (rx % X).tolist(), gaps.tolist())])


# ---------------------------------------------------------------------------
# Strategy independence of the posterior.
# ---------------------------------------------------------------------------

def check_policy_independence(spec: ModelSpec, g_a: StrategyProfile,
                              g_b: StrategyProfile, k: int) -> dict:
    """The posterior given a realization must not depend on agent k's own
    strategy: compare the oracle posterior under two profiles that differ
    only in agent k, over the realizations reachable under both.

    Each profile gets one walk, in which every agent, agent k included,
    follows that profile. The gaps must all be exactly zero: a realization
    a walk reaches has the same histories in the same order as in the walk
    with agent k free (see `oracle.posteriors`), so both profiles give it
    the same posterior to the bit."""
    for j in range(spec.K):
        if j != k and not g_a.agents_equal(g_b, j):
            raise ValueError(f"profiles differ in agent {j}, expected only agent {k}")
    gaps, posts = [], [oracle.posteriors(spec, g, k, free=False) for g in (g_a, g_b)]
    for t, ((ra, a), (rb, b)) in enumerate(zip(*posts)):
        both, ia, ib = np.intersect1d(ra, rb, assume_unique=True, return_indices=True)
        gaps += [(f"t={t} {key}", gap) for key, gap in zip(realization_keys(spec, k, t, both),
                 np.max(np.abs(a[ia] - b[ib]), axis=(1, 2)).tolist())]
    return make_report("posterior strategy independence", gaps)


# ---------------------------------------------------------------------------
# Conditional Markov property of the posterior process.
# ---------------------------------------------------------------------------

def _next_posterior_laws(spec: ModelSpec, g_full, k: int,
                         posts: list[tuple[np.ndarray, np.ndarray]]
                         ) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per t < T and per code of posts[t], in code order, the law of agent
    k's next posterior given that code: its posteriors (rows of
    posts[t + 1]) and their probabilities, in code order of the next
    realization. Every reached code has one, as kernel rows sum to 1.

    One walk, its histories of length t + 1 grouped by (r, r') and by r,
    with r' the time-(t+1) code, each summed in walk order."""
    parts: list[list] = [[] for _ in range(spec.T)]
    for s, xs, obs, acts, mass, cost in oracle.walk(spec, g_full):
        if s > 0:
            parts[s - 1].append((history_code(spec, obs, acts, k, s - 1),
                                 history_code(spec, obs, acts, k, s), mass))
    laws = []
    for t, blocks in enumerate(parts):
        r, r1, mass = map(np.concatenate, zip(*blocks))
        _, at, nxt, prob = _conditional(r, r1, grid_size(spec, k, t + 1), mass)
        codes, beliefs = posts[t + 1]
        cuts = np.flatnonzero(np.diff(at)) + 1  # `at` runs through the groups in order
        laws.append(list(zip(np.split(beliefs[np.searchsorted(codes, nxt)], cuts),
                             np.split(prob, cuts))))
    return laws


def _bucket(reps: list[np.ndarray], v: np.ndarray, tol: float) -> int:
    """First fit: the index of the first representative within tol of v in
    max-abs, else v's index as a new last representative."""
    for i, rep in enumerate(reps):
        if float(np.max(np.abs(rep - v))) <= tol:
            return i
    reps.append(v)
    return len(reps) - 1


def _distribution_gap(da, db, tol: float) -> float:
    """Max-abs difference between two (vectors, probabilities) distributions
    over posterior vectors, merging vectors that agree within tol."""
    reps: list[np.ndarray] = []
    ma: dict[int, float] = {}
    mb: dict[int, float] = {}
    for masses, dist in ((ma, da), (mb, db)):
        for v, p in zip(*dist):
            i = _bucket(reps, v, tol)
            masses[i] = masses.get(i, 0.0) + p
    return max(abs(ma.get(i, 0.0) - mb.get(i, 0.0)) for i in range(len(reps)))


def check_conditional_markov(spec: ModelSpec, g_full, k: int,
                             tol: float = COMPARE_TOL) -> dict:
    """Group the positive-probability pasts by their induced (posterior,
    shared block, current action) and require that all pasts in a group
    induce the same law for the next posterior.

    Pasts are grouped with posterior equality up to tol; members of each
    group are listed in the gap labels so a failure is attributable.
    Vacuous for T = 1 horizons with no second step.
    """
    gaps = []
    posts = oracle.posteriors(spec, g_full, k, free=False)
    for t, laws in enumerate(_next_posterior_laws(spec, g_full, k, posts)):
        codes, beliefs = posts[t]
        shared, us = codes // private_size(spec, k, t), g_full.actions_at(k, t, codes)
        keys = realization_keys(spec, k, t, codes)
        order = np.lexsort((us, shared))  # by (shared block, action), then code
        cuts = np.flatnonzero(np.diff(shared[order]) | np.diff(us[order])) + 1
        for members in np.split(order, cuts):
            reps: list[np.ndarray] = []
            clusters: dict[int, list] = {}  # per representative, in order
            for i in members.tolist():
                clusters.setdefault(_bucket(reps, beliefs[i], tol), []).append(i)
            for group in clusters.values():
                pairs = itertools.combinations([laws[i] for i in group], 2)
                gaps.append((f"t={t} u={us[group[0]]} group[{','.join(keys[i] for i in group)}]",
                             max((_distribution_gap(*p, tol) for p in pairs), default=0.0)))
    return make_report("posterior conditional Markov", gaps)


# ---------------------------------------------------------------------------
# Single-agent reduction to the textbook filter.
# ---------------------------------------------------------------------------

def classical_filter_step(spec: ModelSpec, t: int, pis: np.ndarray):
    """One step of the standard partially-observed filter of a single-agent
    model from the time-t beliefs pis (N, X): per (node, action u,
    observation y') the prediction through the transition kernel under u,
    corrected by the time-(t+1) likelihood of y', as (N, A, Y, X), and its
    totals (N, A, Y). The filter is a prediction over its total; a zero
    total is a branch the filter cannot reach. Each prediction sums over x
    left to right from 0.0 and each total is one row's sum, as a scalar
    loop's would be."""
    pred = seq_sum(spec.transition[t].transpose(1, 2, 0) * pis[:, None, None])  # (N, A, X')
    # contiguous, so each row sums as its own .sum() would
    pred = np.ascontiguousarray(pred[:, :, None] * spec.observation[t + 1][0].T)
    return pred, pred.sum(axis=-1)


def check_k1_reduction(spec: ModelSpec) -> dict:
    """Walk every positive-probability (action, observation) history of a
    single-agent model and compare the recursion's state marginal against
    the chained textbook filter, one layer at a time. Branches must agree
    on reachability; a disagreement is reported as gap 1.0."""
    if spec.K != 1:
        raise ValueError("the reduction check needs a single-agent model")
    # No other agents, so no strategies to read.
    layers = expand(spec, 0, None, free=True)
    # Per first observation its prior; at t = 0 the code is the first observation.
    first = layers[0].codes
    prior = np.ascontiguousarray(spec.init_dist * spec.observation[0][0].T)
    total, reached = prior.sum(axis=1), np.isin(np.arange(len(prior)), first)
    filtered = total > 0.0
    gaps = [(f"y0={y0} (reachability disagrees)", 1.0)
            for y0 in np.flatnonzero(filtered != reached).tolist()]
    # The nodes of the current layer that have a textbook filter, their
    # filters and path labels; a node only the recursion reaches has none,
    # so neither it nor its subtree is compared.
    y0s = np.flatnonzero(filtered & reached)
    nodes, pis = np.searchsorted(first, y0s), prior[y0s] / total[y0s, None]
    labels = [f"y0={y0}" for y0 in y0s.tolist()]
    for t, lay in enumerate(layers):
        marginals = seq_sum(lay.beliefs[nodes])
        gaps += zip(labels, np.max(np.abs(marginals - pis), axis=1).tolist())
        if t == spec.T:
            break
        # a child is fixed among its siblings by its newest own observation;
        # child[i, u, y] is its index in the next layer, -1 where none is reached
        nxt, (A, Y) = layers[t + 1], (spec.act_sizes[0], spec.obs_sizes[0])
        child = np.full((len(lay), A, Y), -1)
        child[nxt.parent, nxt.action, newest_obs(spec, 0, t + 1, nxt.codes)] = np.arange(len(nxt))
        child, (preds, totals) = child[nodes], classical_filter_step(spec, t, pis)
        filtered, reached = totals > 0.0, child >= 0
        steps = [f"{label},u={u},y={y}" for label in labels for u in range(A) for y in range(Y)]
        gaps += [(f"{steps[i]} (reachability disagrees)", 1.0)
                 for i in np.flatnonzero(filtered != reached).tolist()]
        kept = filtered & reached
        nodes, pis = child[kept], preds[kept] / totals[kept, None]
        labels = [steps[i] for i in np.flatnonzero(kept).tolist()]
    return make_report("single-agent filter reduction", gaps)


# ---------------------------------------------------------------------------
# Payoff identity: belief-form cost vs raw enumeration.
# ---------------------------------------------------------------------------

def check_payoff_identity(spec: ModelSpec, g_full: StrategyProfile) -> dict:
    """|cost written through agent k's posteriors - enumerated cost| per agent."""
    reference = oracle.enumerate_cost(spec, g_full)
    gaps = []
    for k in range(spec.K):
        via = dp.cost_via_beliefs(spec, g_full, k)
        gaps.append((f"agent={k}", abs(via - reference)))
    return make_report("belief-form payoff identity", gaps)
