"""Ground truth by exhaustive enumeration of joint histories.

`walk` enumerates the sample paths that the kernels and a strategy profile
give positive probability, up to some horizon, and hands each leaf to a
visitor. Everything else here is a group-by over one walk: expected costs,
agent k's posterior over the extended state, conditional cost-to-go,
brute-force best responses and stationarity certificates. A joint history
is two tuples of per-agent streams, observations and actions. Group-bys
key each leaf by such tuples, turn each distinct key into realization
codes (`info.history_code`) once, and return dicts keyed by agent k's
code. No beliefs, no backward recursion -- this module is the
reference the filter and the dynamic program are checked against, so it
imports nothing but the model and information-pattern primitives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLargeError
from .info import grid_size, history_code, other_agents, private_size
from .model import COMPARE_TOL, ModelSpec

# Candidate count guard for brute_force_best_response.
BRUTE_FORCE_LIMIT = 10 ** 6


def _likely_observations(spec: ModelSpec, s: int) -> list[list[tuple[tuple, float]]]:
    """Per state, every joint time-s observation with positive likelihood,
    with that likelihood formed as 1.0 * q_0 * q_1 * ..."""
    out = []
    for x in range(spec.state_size):
        row = []
        for ys in itertools.product(*(range(m) for m in spec.obs_sizes)):
            p = 1.0
            for j, y in enumerate(ys):
                p *= float(spec.observation[s][j][x, y])
            if p > 0.0:
                row.append((ys, p))
        out.append(row)
    return out


def walk(spec: ModelSpec, g, visit, t_end: int | None = None, free: int | None = None,
         free_until: int = 0, cost_from: int = 0) -> None:
    """Call visit(xs, obs, acts, mass, cost) at every positive-probability
    joint history up to t_end (default: the horizon T).

    Every agent acts from the profile g, except agent `free` at times before
    free_until: there it branches over its whole action alphabet, and its
    maps are never read. xs is the state path x_0..x_{t_end}; obs and acts
    are the per-agent observation streams (to t_end) and action streams (to
    t_end - 1); mass is init * (1.0 * q_0 * q_1 ...), then
    mass * p_x * p_y per step, the path's probability given the free
    agent's actions; cost sums the stage costs at times cost_from..t_end-1
    left to right, plus the terminal cost when t_end = T.

    Leaves come in a fixed order: initial state, joint observation, then
    per step the free agent's action, the next state and the joint
    observation. Group-bys that accumulate in leaf order are therefore
    deterministic to the bit.
    """
    if t_end is None:
        t_end = spec.T
    if not (0 <= t_end <= spec.T):
        raise ValueError(f"t_end must be in 0..{spec.T}")
    K, X = spec.K, spec.state_size
    likely = [_likely_observations(spec, s) for s in range(t_end + 1)]
    # Kernels and costs as nested lists indexed [x][joint action], with the
    # joint action's flat index in the kernels' C order.
    trans = [spec.transition[s].reshape(X, -1, X).tolist() for s in range(t_end)]
    stage = [spec.stage_cost[s].reshape(X, -1).tolist() for s in range(t_end)]
    terminal = spec.terminal_cost.tolist()
    joint = {us: i for i, us in enumerate(
        itertools.product(*(range(a) for a in spec.act_sizes)))}

    def step(s: int, xs: tuple, obs: tuple, acts: tuple, mass: float, cost: float) -> None:
        if s == t_end:
            visit(xs, obs, acts, mass, cost + terminal[xs[-1]] if s == spec.T else cost)
            return
        x = xs[-1]
        choices = [range(spec.act_sizes[j]) if j == free and s < free_until
                   else (g.action_at(j, s, history_code(spec, obs, acts, j, s)),)
                   for j in range(K)]
        for us in itertools.product(*choices):
            a = joint[us]
            c = cost + stage[s][x][a] if s >= cost_from else cost
            acts1 = tuple(stream + (u,) for stream, u in zip(acts, us))
            for x1, p_x in enumerate(trans[s][x][a]):
                if p_x <= 0.0:
                    continue
                for ys, p_y in likely[s + 1][x1]:
                    step(s + 1, xs + (x1,), tuple(stream + (y,) for stream, y in zip(obs, ys)),
                         acts1, mass * p_x * p_y, c)

    no_acts = tuple(() for _ in range(K))
    for x0, p0 in enumerate(spec.init_dist.tolist()):
        if p0 <= 0.0:
            continue
        for ys, p_y in likely[0][x0]:
            step(0, (x0,), tuple((y,) for y in ys), no_acts, p0 * p_y, 0.0)


def enumerate_cost(spec: ModelSpec, g_full) -> float:
    """Expected total cost of a profile, straight from the definition."""
    total = 0.0

    def visit(xs, obs, acts, mass, cost):
        nonlocal total
        total += mass * cost

    walk(spec, g_full, visit)
    return total


def _cut(obs: tuple, acts: tuple, t: int) -> tuple[tuple, tuple]:
    """The history up to time t as (observations, actions), a cheap
    group-by key that fixes every agent's realization at t."""
    return tuple(ys[:t + 1] for ys in obs), tuple(us[:t] for us in acts)


def posteriors(spec: ModelSpec, g, k: int, t: int,
               free: bool = True) -> dict[int, np.ndarray]:
    """Agent k's posterior over (x_t, lambda_t^{-k}) at every realization
    reachable at t with its own actions free, from the definition, keyed
    by agent k's time-t code.

    One walk to t with agent k free, so its maps are never read: a
    realization already fixes agent k's actions. Leaf masses accumulate in
    leaf order per (joint history, x_t), which is per (agent k's
    realization, lambda_t^{-k}, x_t), and are normalized per realization.
    Each posterior is a (state, lambda) array; the lambda index is the
    mixed radix over the other agents' private codes, the order of
    info.lambda_labels(spec, k, t).

    With free=False agent k follows g instead. A realization g reaches has
    the same leaves in the same order either way, so its posterior is the
    same to the bit; the walk is smaller and reads the other agents' maps
    only where g reaches.
    """
    cells: dict[tuple, float] = {}

    def visit(xs, obs, acts, mass, cost):
        key = (obs, acts, xs[-1])
        cells[key] = cells.get(key, 0.0) + mass

    walk(spec, g, visit, t_end=t, free=k, free_until=t if free else 0)
    others = other_agents(spec.K, k)
    sizes = [private_size(spec, j, t) for j in others]
    at: dict[tuple, tuple[int, int]] = {}  # (obs, acts) -> (code, lambda index)
    mats: dict[int, np.ndarray] = {}
    for (obs, acts, x), m in cells.items():
        if (obs, acts) not in at:
            lam = 0
            for j, size in zip(others, sizes):
                lam = lam * size + history_code(spec, obs, acts, j, t) % size
            at[obs, acts] = history_code(spec, obs, acts, k, t), lam
        code, lam = at[obs, acts]
        if code not in mats:
            mats[code] = np.zeros((spec.state_size, math.prod(sizes)))
        mats[code][x, lam] = m
    return {code: mat / float(mat.sum()) for code, mat in mats.items()}


def cost_to_go(spec: ModelSpec, k: int, g, t0: int) -> dict[int, float]:
    """Expected cost of stages t0..T-1 plus the terminal cost, conditioned
    on agent k's time-t0 realization (keyed by its code), when every agent
    plays g from t0 on.

    One walk to T with agent k free before t0, which covers every
    realization reachable at t0 with agent k's actions free. Per realization,
    the leaf mass times the cost from t0 on, over the leaf mass.
    """
    sums: dict[tuple, list[float]] = {}  # per time-t0 history

    def visit(xs, obs, acts, mass, cost):
        key = _cut(obs, acts, t0)
        if key not in sums:
            sums[key] = [0.0, 0.0]
        acc = sums[key]
        acc[0] += mass * cost
        acc[1] += mass

    walk(spec, g, visit, free=k, free_until=t0, cost_from=t0)
    numer: dict[int, float] = {}
    denom: dict[int, float] = {}
    for (obs, acts), (num, den) in sums.items():
        code = history_code(spec, obs, acts, k, t0)
        numer[code] = numer.get(code, 0.0) + num
        denom[code] = denom.get(code, 0.0) + den
    return {code: numer[code] / denom[code] for code in numer}


# ---------------------------------------------------------------------------
# Brute-force best response. T <= 2 only: stage-0 maps are enumerated
# exhaustively and the final stage is optimized pointwise per realization.
# Pointwise optimization is exact because the total cost is additive across
# the disjoint events {final-stage realization = r}: each final-stage table
# entry only multiplies mass on trajectories passing through its own r, so
# the minimum over tables is the sum of per-r minima.
# ---------------------------------------------------------------------------

def brute_force_best_response(spec: ModelSpec, k: int, g_minus_k):
    """Minimize the team cost over agent k's strategies by enumeration.

    Returns (optimal value, per-time list of strategy arrays). Only the
    realizations the search actually visits get an action; the other cells
    are -1. Ties break toward the smallest action index in canonical
    candidate order.
    """
    if spec.T > 2:
        raise InstanceTooLargeError("instance too large for brute force (T > 2)")
    # One stage-0 map per assignment of an action to each first observation
    # with positive probability.
    n_maps = spec.act_sizes[k] ** int(np.count_nonzero(spec.init_dist @ spec.observation[0][k]))
    if n_maps > BRUTE_FORCE_LIMIT:
        raise InstanceTooLargeError(
            f"instance too large for brute force ({n_maps} stage-0 maps)")
    last = spec.T - 1
    # One walk with agent k free throughout, summed per history up to the
    # final stage (every observation but the time-T one) and its actions; then, per (first realization, first
    # action), the final-stage costs reached through it by final-stage
    # realization and action. Those four fix every action of agent k.
    sums: dict[tuple, float] = {}

    def visit(xs, obs, acts, mass, cost):
        key = (tuple(ys[:-1] for ys in obs), acts)
        sums[key] = sums.get(key, 0.0) + mass * cost

    walk(spec, g_minus_k, visit, free=k, free_until=spec.T)
    tails: dict[tuple, dict[int, dict[int, float]]] = {}  # realizations as codes
    for (obs, acts), c in sums.items():
        costs = tails.setdefault((history_code(spec, obs, acts, k, 0), acts[k][0]), {}
                                 ).setdefault(history_code(spec, obs, acts, k, last), {})
        costs[acts[k][last]] = costs.get(acts[k][last], 0.0) + c
    firsts = sorted({r0 for r0, _ in tails})
    # The pointwise-best final action per realization, and the cost it gives.
    best_tail = {}
    for key, by_r in tails.items():
        picks = {r: min(costs, key=lambda u: (costs[u], u)) for r, costs in by_r.items()}
        best_tail[key] = (sum(by_r[r][u] for r, u in picks.items()), picks)

    best_value = best_combo = None
    for combo in itertools.product(range(spec.act_sizes[k]), repeat=len(firsts)):
        value = sum(best_tail[(r0, u0)][0] for r0, u0 in zip(firsts, combo))
        if best_value is None or value < best_value:
            best_value, best_combo = value, combo
    best_maps = [np.full(grid_size(spec, k, t), -1) for t in range(spec.T)]
    best_maps[0][firsts] = best_combo
    if spec.T == 2:
        for r0, u0 in zip(firsts, best_combo):
            for r, u in best_tail[(r0, u0)][1].items():
                best_maps[1][r] = u
    return best_value, best_maps


@dataclass(frozen=True)
class AgentStationarity:
    agent: int
    best_response_value: float
    gap: float
    stationary: bool


@dataclass(frozen=True)
class PbPReport:
    cost: float
    agents: tuple[AgentStationarity, ...]

    @property
    def all_stationary(self) -> bool:
        return all(a.stationary for a in self.agents)


def verify_pbp(spec: ModelSpec, g_full, tol: float = COMPARE_TOL) -> PbPReport:
    """Certify person-by-person stationarity: for each agent, compare the
    profile's cost against that agent's brute-force best response with the
    rest of the profile frozen."""
    cost = enumerate_cost(spec, g_full)
    rows = []
    for k in range(spec.K):
        bf_value, _ = brute_force_best_response(spec, k, g_full)
        gap = cost - bf_value
        rows.append(AgentStationarity(agent=k, best_response_value=bf_value,
                                      gap=gap, stationary=gap <= tol))
    return PbPReport(cost=cost, agents=tuple(rows))
