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

The checks built on `oracle.walk` group its leaves by agent k's
realization codes (`info.history_code`), and order realizations by code.
A code becomes text (`info.realization_key`) only to label a gap, and is
decoded into its blocks (`info.decode`) only where the single-agent
reduction reads the newest own observation off it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import dp, oracle
from .errors import UnreachableError
from .filtering import BeliefPass, classical_filter_update
from .info import decode, history_code, other_agents, private_size, realization_key
from .model import COMPARE_TOL, ModelSpec
from .strategies import StrategyProfile


@dataclass(frozen=True)
class GapReport:
    """Per-realization gaps for one checked quantity. max_gap is the
    maximum over the listed gaps and witness is a label of a realization
    attaining it (None when nothing was checked)."""

    quantity: str
    gaps: tuple[tuple[str, float], ...]
    max_gap: float
    witness: str | None

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "max_gap": self.max_gap,
            "witness": self.witness,
            "gaps": [{"where": w, "gap": g} for w, g in self.gaps],
        }


def make_report(quantity: str, gaps: list[tuple[str, float]]) -> GapReport:
    gaps = sorted((w, float(g)) for w, g in gaps)
    if not gaps:
        return GapReport(quantity=quantity, gaps=(), max_gap=0.0, witness=None)
    max_gap = max(g for _, g in gaps)
    witness = next(w for w, g in gaps if g == max_gap)
    return GapReport(quantity=quantity, gaps=tuple(gaps), max_gap=max_gap, witness=witness)


# ---------------------------------------------------------------------------
# Conditional independence of freshly shared data from the current state.
# ---------------------------------------------------------------------------

def _table_gap(p1: dict, p2: dict) -> float:
    keys = set(p1) | set(p2)
    return max(abs(p1.get(key, 0.0) - p2.get(key, 0.0)) for key in keys)


def check_conditional_independence(spec: ModelSpec, g_full, k: int, t: int) -> GapReport:
    """Measure, per positive-probability (x_t, shared block, private block),
    the distance between the law of the other agents' just-shared symbols
    given that triple and given the information alone.

    A zero max gap means the just-shared symbols carry no extra state
    information; any positive gap refutes that conditional independence.
    """
    n = spec.n
    p_idx = t - n + 1
    if p_idx < 0:
        raise ValueError(f"no symbols are shared before t = n-1 = {n - 1}")
    if t > spec.T - 1:
        raise ValueError("t must be a decision time (actions at t are part of the target)")
    others = other_agents(spec.K, k)
    # One walk; leaf mass per (realization code r, x_t, shared symbols), per
    # (r, x_t), per (r, shared symbols) and per r, each summed in leaf order.
    by_rxs: dict = {}
    by_rx: dict = {}
    by_rs: dict = {}
    by_r: dict = {}

    def visit(xs, obs, acts, mass, cost):
        r, x = history_code(spec, obs, acts, k, t), xs[t]
        shared = tuple(v for j in others for v in (obs[j][p_idx], acts[j][p_idx]))
        for table, key in ((by_rxs, (r, x, shared)), (by_rx, (r, x)), (by_rs, (r, shared)),
                           (by_r, r)):
            table[key] = table.get(key, 0.0) + mass

    oracle.walk(spec, g_full, visit, t_end=max(t, p_idx + 1))
    p1: dict[tuple, dict] = {}
    for (r, x, shared), m in by_rxs.items():
        p1.setdefault((r, x), {})[shared] = m / by_rx[r, x]
    p2: dict[int, dict] = {}
    for (r, shared), m in by_rs.items():
        p2.setdefault(r, {})[shared] = m / by_r[r]
    gaps = [(f"x={x}|{realization_key(spec, k, t, r)}", _table_gap(p, p2[r]))
            for (r, x), p in p1.items()]
    return make_report("shared-data conditional independence", gaps)


# ---------------------------------------------------------------------------
# Strategy independence of the posterior.
# ---------------------------------------------------------------------------

def check_policy_independence(spec: ModelSpec, g_a: StrategyProfile,
                              g_b: StrategyProfile, k: int) -> GapReport:
    """The posterior given a realization must not depend on agent k's own
    strategy: compare the oracle posterior under two profiles that differ
    only in agent k, over the realizations reachable under both.

    Each profile gets one walk per t, in which every agent, agent k
    included, follows that profile. The gaps must all be exactly zero: a
    realization a walk reaches has the same leaves in the same order as
    in the walk with agent k free (see `oracle.posteriors`), so both
    profiles give it the same posterior to the bit."""
    for j in range(spec.K):
        if j != k and not g_a.agents_equal(g_b, j):
            raise ValueError(f"profiles differ in agent {j}, expected only agent {k}")
    gaps = []
    for t in range(spec.T + 1):
        post_a = oracle.posteriors(spec, g_a, k, t, free=False)
        post_b = oracle.posteriors(spec, g_b, k, t, free=False)
        for r in sorted(post_a.keys() & post_b.keys()):
            gaps.append((f"t={t} {realization_key(spec, k, t, r)}",
                         float(np.max(np.abs(post_a[r] - post_b[r])))))
    return make_report("posterior strategy independence", gaps)


# ---------------------------------------------------------------------------
# Conditional Markov property of the posterior process.
# ---------------------------------------------------------------------------

def _next_posterior_laws(spec: ModelSpec, g_full, k: int, t: int,
                         post_next: dict[int, np.ndarray]
                         ) -> dict[int, list[tuple[np.ndarray, float]]]:
    """Per realization code r reachable at t under g_full, the law of agent
    k's next posterior given r, as (posterior, probability) pairs in code
    order of the next realization.

    One walk to t+1, grouped by the pair (r, r'), with r' the time-(t+1)
    code; both tables accumulate in leaf order."""
    pair: dict[tuple, float] = {}
    marg: dict[int, float] = {}

    def visit(xs, obs, acts, mass, cost):
        r = history_code(spec, obs, acts, k, t)
        key = (r, history_code(spec, obs, acts, k, t + 1))
        marg[r] = marg.get(r, 0.0) + mass
        pair[key] = pair.get(key, 0.0) + mass

    oracle.walk(spec, g_full, visit, t_end=t + 1)
    laws: dict[int, list] = {r: [] for r in marg}
    for (r, r1), m in sorted(pair.items()):
        laws[r].append((post_next[r1], m / marg[r]))
    return laws


def _bucket(reps: list[np.ndarray], v: np.ndarray, tol: float) -> int:
    """First fit: the index of the first representative of v's shape within
    tol of v in max-abs, else v's index as a new last representative."""
    for i, rep in enumerate(reps):
        if v.shape == rep.shape and float(np.max(np.abs(rep - v))) <= tol:
            return i
    reps.append(v)
    return len(reps) - 1


def _distribution_gap(da, db, tol: float) -> float:
    """Max-abs difference between two distributions over posterior vectors,
    merging vectors that agree within tol."""
    reps: list[np.ndarray] = []
    ma: dict[int, float] = {}
    mb: dict[int, float] = {}
    for masses, dist in ((ma, da), (mb, db)):
        for v, p in dist:
            i = _bucket(reps, v, tol)
            masses[i] = masses.get(i, 0.0) + p
    return max(abs(ma.get(i, 0.0) - mb.get(i, 0.0)) for i in range(len(reps)))


def check_conditional_markov(spec: ModelSpec, g_full, k: int,
                             tol: float = COMPARE_TOL) -> GapReport:
    """Group the positive-probability pasts by their induced (posterior,
    shared block, current action) and require that all pasts in a group
    induce the same law for the next posterior.

    Pasts are grouped with posterior equality up to tol; members of each
    group are listed in the gap labels so a failure is attributable.
    Vacuous for T = 1 horizons with no second step.
    """
    gaps = []
    posts = [oracle.posteriors(spec, g_full, k, t, free=False) for t in range(spec.T + 1)]
    for t in range(spec.T):
        laws = _next_posterior_laws(spec, g_full, k, t, posts[t + 1])
        prelim: dict[tuple[int, int], list] = {}  # per (shared block's code, action)
        for r in sorted(laws):
            u = g_full.action_at(k, t, r)
            prelim.setdefault((r // private_size(spec, k, t), u), []).append((r, posts[t][r]))
        for (_, u), members in sorted(prelim.items()):
            reps: list[np.ndarray] = []
            clusters: dict[int, list] = {}  # per representative, in order
            for r, xi in members:
                clusters.setdefault(_bucket(reps, xi, tol), []).append(r)
            for group in clusters.values():
                label = f"t={t} u={u} group[" + ",".join(
                    realization_key(spec, k, t, r) for r in group) + "]"
                if len(group) == 1:
                    gaps.append((label, 0.0))
                    continue
                dists = [laws[r] for r in group]
                worst = 0.0
                for i in range(len(dists)):
                    for j in range(i + 1, len(dists)):
                        worst = max(worst, _distribution_gap(dists[i], dists[j], tol))
                gaps.append((label, worst))
    return make_report("posterior conditional Markov", gaps)


# ---------------------------------------------------------------------------
# Single-agent reduction to the textbook filter.
# ---------------------------------------------------------------------------

def check_k1_reduction(spec: ModelSpec) -> GapReport:
    """Walk every positive-probability (action, observation) history of a
    single-agent model and compare the recursion's state marginal against
    the chained textbook filter. Branches must agree on reachability; a
    disagreement is reported as gap 1.0."""
    if spec.K != 1:
        raise ValueError("the reduction check needs a single-agent model")
    # No other agents, so no strategies to read.
    layers = BeliefPass(spec, 0, None).expand(free=True)
    gaps: list[tuple[str, float]] = []
    # Per node of the current layer, its textbook filter and path label.
    filt: list = []
    for y0 in range(spec.obs_sizes[0]):
        raw = spec.init_dist * spec.observation[0][0][:, y0]
        total = float(raw.sum())
        if y0 in layers[0].codes:  # at t = 0 the code is the first observation
            filt.append((raw / total, f"y0={y0}"))
        elif total > 0.0:
            gaps.append((f"y0={y0} (reachability disagrees)", 1.0))
    for t, lay in enumerate(layers):
        gaps += [(label, float(np.max(np.abs(np.cumsum(xi, axis=1)[:, -1] - pi))))
                 for xi, (pi, label) in zip(lay.beliefs, filt)]
        if t == spec.T:
            break
        # a child is fixed among its siblings by its newest own observation
        nxt = layers[t + 1]
        reached = {(int(p), int(u), decode(spec, 0, t + 1, int(c)).own_obs[-1]): i
                   for i, (p, u, c) in enumerate(zip(nxt.parent, nxt.action, nxt.codes))}
        children: list = [None] * len(nxt)
        for i, (pi, label) in enumerate(filt):
            for u, y1 in itertools.product(range(spec.act_sizes[0]), range(spec.obs_sizes[0])):
                step_label = f"{label},u={u},y={y1}"
                if (i, u, y1) in reached:
                    children[reached[i, u, y1]] = (
                        classical_filter_update(spec, pi, u, y1, t), step_label)
                    continue
                try:
                    classical_filter_update(spec, pi, u, y1, t)
                except UnreachableError:
                    continue
                gaps.append((f"{step_label} (reachability disagrees)", 1.0))
        filt = children
    return make_report("single-agent filter reduction", gaps)


# ---------------------------------------------------------------------------
# Payoff identity: belief-form cost vs raw enumeration.
# ---------------------------------------------------------------------------

def check_payoff_identity(spec: ModelSpec, g_full: StrategyProfile) -> GapReport:
    """|cost written through agent k's posteriors - enumerated cost| per agent."""
    reference = oracle.enumerate_cost(spec, g_full)
    gaps = []
    for k in range(spec.K):
        via = dp.cost_via_beliefs(spec, g_full, k)
        gaps.append((f"agent={k}", abs(via - reference)))
    return make_report("belief-form payoff identity", gaps)
