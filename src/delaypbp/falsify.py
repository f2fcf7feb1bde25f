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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dp, oracle
from .errors import UnreachableError
from .filtering import (Belief, BeliefPass, bayes_oracle_belief,
                        classical_filter_update, initial_realization,
                        max_abs_gap)
from .info import (CommonInfo, InfoRealization, PrivateInfo, advance_common,
                   other_agents, private_act_len, private_obs_len,
                   realization_key, shared_prefix_len, shift_private,
                   sort_key, split_history)
from .model import ModelSpec
from .strategies import StrategyProfile

COMPARE_TOL = 1e-10
K1_TOL = 1e-12


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


def reachable_infos(spec: ModelSpec, g_full, k: int, t: int) -> list[InfoRealization]:
    """Realizations of agent k's information with positive probability
    under the full profile, from the atom measure."""
    seen = set()
    for a in oracle.atoms(spec, g_full, t_end=t):
        c, p, _ = split_history(a.history(), k, spec.n)
        seen.add(InfoRealization(common=c, private=p))
    return sorted(seen, key=sort_key)


# ---------------------------------------------------------------------------
# Conditional independence of freshly shared data from the current state.
# ---------------------------------------------------------------------------

def _realization_from_values(spec: ModelSpec, k: int, t: int, values: tuple) -> InfoRealization:
    cut = shared_prefix_len(spec.n, t)
    i = 0
    obs, acts = [], []
    for _ in range(spec.K):
        obs.append(tuple(values[i:i + cut]))
        i += cut
        acts.append(tuple(values[i:i + cut]))
        i += cut
    lo = private_obs_len(spec.n, t)
    la = private_act_len(spec.n, t)
    p_obs = tuple(values[i:i + lo])
    i += lo
    p_acts = tuple(values[i:i + la])
    return InfoRealization(
        common=CommonInfo(t=t, n=spec.n, obs=tuple(obs), acts=tuple(acts)),
        private=PrivateInfo(t=t, n=spec.n, agent=k, obs=p_obs, acts=p_acts))


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
    target = []
    for j in others:
        target.append(("y", j, p_idx))
        target.append(("u", j, p_idx))
    horizon = max(t, p_idx + 1)

    cond_vars = oracle.delta_vars(spec, t) + oracle.lambda_vars(spec, k, t)
    joint = oracle.conditional_pmf(spec, g_full, cond_vars + [("x", t)], [], horizon)
    events: dict[tuple, list[int]] = {}
    for key in joint:
        events.setdefault(key[:-1], []).append(key[-1])

    gaps = []
    for cond_values in sorted(events):
        given = list(zip(cond_vars, cond_values))
        p2 = oracle.conditional_pmf(spec, g_full, target, given, horizon)
        r = _realization_from_values(spec, k, t, cond_values)
        for x in sorted(events[cond_values]):
            p1 = oracle.conditional_pmf(spec, g_full, target,
                                        given + [(("x", t), x)], horizon)
            gaps.append((f"x={x}|{realization_key(r)}", _table_gap(p1, p2)))
    return make_report("shared-data conditional independence", gaps)


# ---------------------------------------------------------------------------
# Strategy independence of the posterior.
# ---------------------------------------------------------------------------

def check_policy_independence(spec: ModelSpec, g_a: StrategyProfile,
                              g_b: StrategyProfile, k: int) -> GapReport:
    """The posterior given a realization must not depend on agent k's own
    strategy: compare the oracle posterior under two profiles that differ
    only in agent k, over the realizations reachable under both. The gaps
    must all be exactly zero (the computation never reads agent k's maps)."""
    for j in range(spec.K):
        if j != k and not g_a.agents_equal(g_b, j):
            raise ValueError(f"profiles differ in agent {j}, expected only agent {k}")
    gaps = []
    for t in range(spec.T + 1):
        shared = (set(reachable_infos(spec, g_a, k, t))
                  & set(reachable_infos(spec, g_b, k, t)))
        for r in sorted(shared, key=sort_key):
            ba = bayes_oracle_belief(spec, g_a, k, r)
            bb = bayes_oracle_belief(spec, g_b, k, r)
            gaps.append((f"t={t} {realization_key(r)}", max_abs_gap(ba, bb)))
    return make_report("posterior strategy independence", gaps)


# ---------------------------------------------------------------------------
# Conditional Markov property of the posterior process.
# ---------------------------------------------------------------------------

def _next_belief_distribution(spec: ModelSpec, g_full, k: int, r: InfoRealization,
                              u: int) -> list[tuple[np.ndarray, float]]:
    """Law of the next-step posterior given the full past r (and the action
    u the profile takes there), as (posterior vector, probability) pairs."""
    t, n = r.t, spec.n
    others = other_agents(spec.K, k)
    p_idx = t - n + 1
    target = [("y", k, t + 1)]
    if p_idx >= 0:
        for j in others:
            target.append(("y", j, p_idx))
            target.append(("u", j, p_idx))
    pmf = oracle.conditional_pmf(spec, g_full, target,
                                 oracle.realization_given(spec, r), t + 1)
    out = []
    for key, prob in sorted(pmf.items()):
        y_next = key[0]
        if p_idx >= 0:
            promoted_obs = [0] * spec.K
            promoted_acts = [0] * spec.K
            promoted_obs[k] = r.private.obs[0]
            promoted_acts[k] = r.private.acts[0] if n >= 2 else u
            for i, j in enumerate(others):
                promoted_obs[j] = key[1 + 2 * i]
                promoted_acts[j] = key[2 + 2 * i]
            c_next = advance_common(r.common, tuple(promoted_obs), tuple(promoted_acts))
        else:
            c_next = advance_common(r.common, (), ())
        r_next = InfoRealization(common=c_next, private=shift_private(r.private, y_next, u))
        out.append((bayes_oracle_belief(spec, g_full, k, r_next).probs, prob))
    return out


def _distribution_gap(da, db, tol: float) -> float:
    """Max-abs difference between two distributions over posterior vectors,
    merging vectors that agree within tol."""
    reps: list[np.ndarray] = []

    def bucket(v: np.ndarray) -> int:
        for i, rep in enumerate(reps):
            if v.shape == rep.shape and float(np.max(np.abs(rep - v))) <= tol:
                return i
        reps.append(v)
        return len(reps) - 1

    ma: dict[int, float] = {}
    mb: dict[int, float] = {}
    for v, p in da:
        i = bucket(v)
        ma[i] = ma.get(i, 0.0) + p
    for v, p in db:
        i = bucket(v)
        mb[i] = mb.get(i, 0.0) + p
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
    for t in range(spec.T):
        prelim: dict[tuple[CommonInfo, int], list] = {}
        for r in reachable_infos(spec, g_full, k, t):
            xi = bayes_oracle_belief(spec, g_full, k, r)
            u = g_full.action(k, t, r)
            prelim.setdefault((r.common, u), []).append((r, xi))
        for (c, u), members in sorted(prelim.items(),
                                      key=lambda kv: (kv[0][0].obs, kv[0][0].acts, kv[0][1])):
            clusters: list[tuple[np.ndarray, list]] = []
            for r, xi in members:
                for rep, group in clusters:
                    if float(np.max(np.abs(rep - xi.probs))) <= tol:
                        group.append(r)
                        break
                else:
                    clusters.append((xi.probs, [r]))
            for rep, group in clusters:
                label = f"t={t} u={u} group[" + ",".join(realization_key(r) for r in group) + "]"
                if len(group) == 1:
                    gaps.append((label, 0.0))
                    continue
                dists = [_next_belief_distribution(spec, g_full, k, r, u) for r in group]
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
    bp = BeliefPass(spec, 0, None)  # no other agents, so no strategies to read
    gaps: list[tuple[str, float]] = []

    def walk(t: int, r: InfoRealization, xi: Belief, pi: np.ndarray, label: str) -> None:
        gaps.append((label, float(np.max(np.abs(xi.x_marginal(spec.state_size) - pi)))))
        if t == spec.T:
            return
        for u in range(spec.act_sizes[0]):
            # With no other agents a child is fixed by its observation.
            reached = {r1.private.obs[-1]: (r1, b1) for r1, b1, _ in bp.successors(r, xi, u)}
            for y1 in range(spec.obs_sizes[0]):
                step_label = f"{label},u={u},y={y1}"
                if y1 not in reached:
                    try:
                        classical_filter_update(spec, pi, u, y1, t)
                    except UnreachableError:
                        continue
                    gaps.append((f"{step_label} (reachability disagrees)", 1.0))
                    continue
                pi1 = classical_filter_update(spec, pi, u, y1, t)
                walk(t + 1, *reached[y1], pi1, step_label)

    for y0 in range(spec.obs_sizes[0]):
        raw = spec.init_dist * spec.observation[0][0][:, y0]
        total = float(raw.sum())
        try:
            xi0, _ = bp.initial(y0)
        except UnreachableError:
            if total > 0.0:
                gaps.append((f"y0={y0} (reachability disagrees)", 1.0))
            continue
        walk(0, initial_realization(spec, 0, y0), xi0, raw / total, f"y0={y0}")
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
