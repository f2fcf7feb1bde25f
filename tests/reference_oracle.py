"""The oracle's per-time walks that agent k's realization tree replaced,
kept as a test-local reference.

`walk` here still leaves the free agent free only before `free_until` and
adds stage costs only from `cost_from` on. `cost_to_go` makes one such
walk per time t0, free before t0 and summing costs from t0, and groups
its leaves by the history up to t0 (`_cut`). `brute_force_best_response`
searches every combination of stage-0 actions over the first
realizations, T <= 2 only, and picks the final-stage action pointwise.
The tree's cost-to-go and its backward pass must agree with these.
"""

from __future__ import annotations

import itertools

import numpy as np

from delaypbp.info import grid_size, history_code
from delaypbp.oracle import _likely_observations


def walk(spec, g, visit, t_end=None, free=None, free_until=0, cost_from=0) -> None:
    """visit(xs, obs, acts, mass, cost) at every positive-probability joint
    history up to t_end. Agent `free` branches over its whole alphabet at
    times before free_until; cost sums the stage costs at times
    cost_from..t_end-1, plus the terminal cost when t_end = T."""
    if t_end is None:
        t_end = spec.T
    K, X = spec.K, spec.state_size
    likely = [_likely_observations(spec, s) for s in range(t_end + 1)]
    trans = [spec.transition[s].reshape(X, -1, X).tolist() for s in range(t_end)]
    stage = [spec.stage_cost[s].reshape(X, -1).tolist() for s in range(t_end)]
    terminal = spec.terminal_cost.tolist()
    joint = {us: i for i, us in enumerate(
        itertools.product(*(range(a) for a in spec.act_sizes)))}

    def step(s, xs, obs, acts, mass, cost):
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


def _cut(obs, acts, t):
    """The history up to time t as (observations, actions)."""
    return tuple(ys[:t + 1] for ys in obs), tuple(us[:t] for us in acts)


def cost_to_go(spec, k, g, t0) -> dict[int, float]:
    """Expected cost of stages t0..T-1 plus the terminal cost, conditioned
    on agent k's time-t0 code, when every agent plays g from t0 on: one
    walk with agent k free before t0, per realization the leaf mass times
    the cost from t0 on over the leaf mass."""
    sums: dict[tuple, list[float]] = {}

    def visit(xs, obs, acts, mass, cost):
        acc = sums.setdefault(_cut(obs, acts, t0), [0.0, 0.0])
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


def brute_force_best_response(spec, k, g_minus_k):
    """(optimal value, per-time strategy arrays) for T <= 2: every
    combination of stage-0 actions over the first realizations, each with
    the pointwise-best final-stage action per final realization reached
    through it. Cells the search does not visit are -1; ties break toward
    the smallest action in candidate order."""
    assert spec.T <= 2
    last = spec.T - 1
    sums: dict[tuple, float] = {}

    def visit(xs, obs, acts, mass, cost):
        key = (tuple(ys[:-1] for ys in obs), acts)
        sums[key] = sums.get(key, 0.0) + mass * cost

    walk(spec, g_minus_k, visit, free=k, free_until=spec.T)
    tails: dict[tuple, dict[int, dict[int, float]]] = {}
    for (obs, acts), c in sums.items():
        costs = tails.setdefault((history_code(spec, obs, acts, k, 0), acts[k][0]), {}
                                 ).setdefault(history_code(spec, obs, acts, k, last), {})
        costs[acts[k][last]] = costs.get(acts[k][last], 0.0) + c
    firsts = sorted({r0 for r0, _ in tails})
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
