"""The oracle's tuple walks and dict group-bys, kept as a test-local
reference.

`tuple_walk` is the depth-first walk that `oracle.walk` replaced: it calls
a visitor at every positive-probability history of every length, one
history at a time as tuples, each before its continuations, with every
agent's codes of the history at every time up to its length, and reads a
strategy one code at a time. `enumerate_cost`, `posteriors`,
`RealizationTree` and falsify's tables (`conditional_independence_gaps`,
`next_posterior_laws`) are the dict group-bys over it that the array
oracle must equal to the bit; `fan_out` feeds any number of them from one
tuple walk.

`walk` is the older per-time walk: it leaves the free agent free only
before `free_until` and adds stage costs only from `cost_from` on.
`cost_to_go` makes one such walk per time t0, free before t0 and summing
costs from t0, and groups its leaves by the history up to t0 (`_cut`).
`brute_force_best_response` searches every combination of stage-0
actions over the first realizations, T <= 2 only, and picks the
final-stage action pointwise. The tree's cost-to-go and its backward pass
must agree with these.

Codes come from `history_code` here, a scalar Horner rule over
`info.radices`, apart from the array rule in `info`.

`FirstSeen` is the sorted-merge map from codes to ids in order of first
appearance that `oracle._FirstSeen`'s id table replaced: it keeps the
keys seen sorted, finds a block's keys by `searchsorted` and merges the
new ones in by a stable sort. The table must give the same ids and first
positions call by call.
"""

from __future__ import annotations

import itertools
import math
from array import array

import numpy as np

from delaypbp import oracle
from delaypbp.info import (grid_size, other_agents, private_size, radices, realization_keys,
                           shared_prefix_len)


def action_at(g, k, t, code) -> int:
    """Agent k's time-t action at one code, read through `actions_at`."""
    return int(g.actions_at(k, t, np.array([code]))[0])


def history_code(spec, obs, acts, j, t) -> int:
    """Agent j's time-t code of one joint history given as tuples: every
    agent's streams up to t-n, then agent j's own symbols up to t."""
    cut, code = shared_prefix_len(spec.n, t), 0
    digits = itertools.chain(*(ys[:cut] for ys in obs), *(us[:cut] for us in acts),
                             obs[j][cut:t + 1], acts[j][cut:t])
    for d, r in zip(digits, radices(spec, j, t)):
        code = code * r + d
    return code


def _likely_observations(spec, s) -> list[list[tuple[tuple, float]]]:
    """Per state, every joint time-s observation with positive likelihood,
    with that likelihood formed as 1.0 * q_0 * q_1 * ..."""
    joint = list(itertools.product(*(range(m) for m in spec.obs_sizes)))
    out = []
    for x in range(spec.state_size):
        likes = [math.prod([float(spec.observation[s][j][x, y]) for j, y in enumerate(ys)],
                           start=1.0) for ys in joint]
        out.append([(ys, p) for ys, p in zip(joint, likes) if p > 0.0])
    return out


def tuple_walk(spec, g, visit, free=None) -> None:
    """visit(t, xs, obs, acts, mass, cost, codes) at every
    positive-probability joint history of every length t = 0..T, each
    before its continuations, in the order (initial state, joint
    observation, then per step the free agent's action, the next state, the
    joint observation); mass is init * (1.0 * q_0 * q_1 ...), then
    (mass * p_x) * p_y per step; cost sums the stage costs before t, plus
    the terminal cost at t = T; codes[s][j] is agent j's time-s code, for
    s = 0..t. Each agent's code of one pair of streams is made once, however
    many state paths share them."""
    K, X, T = spec.K, spec.state_size, spec.T
    likely = [_likely_observations(spec, s) for s in range(T + 1)]
    trans = [spec.transition[s].reshape(X, -1, X).tolist() for s in range(T)]
    stage = [spec.stage_cost[s].reshape(X, -1).tolist() for s in range(T)]
    terminal = spec.terminal_cost.tolist()
    joint = {us: i for i, us in enumerate(
        itertools.product(*(range(a) for a in spec.act_sizes)))}
    coded: dict[tuple, tuple[int, ...]] = {}

    def extend(codes, t, obs, acts):
        """codes followed by every agent's time-t code of the streams."""
        now = coded.get((obs, acts))
        if now is None:
            now = coded[obs, acts] = tuple(history_code(spec, obs, acts, j, t) for j in range(K))
        return (*codes, now)

    def step(s, xs, obs, acts, mass, cost, codes):
        codes = extend(codes, s, obs, acts)
        visit(s, xs, obs, acts, mass, cost, codes)
        x = xs[-1]
        choices = [range(spec.act_sizes[j]) if j == free else (action_at(g, j, s, codes[s][j]),)
                   for j in range(K)]
        for us in itertools.product(*choices):
            a = joint[us]
            c = cost + stage[s][x][a]
            acts1 = tuple([stream + (u,) for stream, u in zip(acts, us)])
            for x1, p_x in enumerate(trans[s][x][a]):
                if p_x <= 0.0:
                    continue
                xs1, m = xs + (x1,), mass * p_x
                for ys, p_y in likely[s + 1][x1]:
                    obs1 = tuple([stream + (y,) for stream, y in zip(obs, ys)])
                    if s + 1 < T:
                        step(s + 1, xs1, obs1, acts1, m * p_y, c, codes)
                    else:
                        visit(T, xs1, obs1, acts1, m * p_y, c + terminal[x1],
                              extend(codes, T, obs1, acts1))

    no_acts = tuple(() for _ in range(K))
    for x0, p0 in enumerate(spec.init_dist.tolist()):
        if p0 <= 0.0:
            continue
        for ys, p_y in likely[0][x0]:
            step(0, (x0,), tuple((y,) for y in ys), no_acts, p0 * p_y, 0.0, ())
    del step


def as_tuples(blocks):
    """The histories of oracle.walk's blocks one at a time, as tuple_walk
    visits them: (t, xs, obs, acts, mass, cost) with Python ints and
    floats."""
    for t, xs, obs, acts, mass, cost, *_ in blocks:
        for x, ys, us, m, c in zip(xs.tolist(), obs.tolist(), acts.tolist(), mass.tolist(),
                                   cost.tolist()):
            yield (t, tuple(x), tuple(map(tuple, ys)), tuple(map(tuple, us)), m, c)


# ---------------------------------------------------------------------------
# The dict group-bys over tuple_walk. Each is a (visit, result) pair: one
# tuple walk feeds visit every history (`fan_out`), then result() gives the
# group-by, so several of them share a walk.
# ---------------------------------------------------------------------------

def fan_out(spec, g, free, group_bys: dict) -> dict:
    """One tuple walk (agent `free` free, or none) calling every group-by's
    visitor at each history in turn; each group-by's result by name."""
    visits = [visit for visit, _ in group_bys.values()]

    def visit(*history):
        for v in visits:
            v(*history)

    tuple_walk(spec, g, visit, free=free)
    return {name: result() for name, (_, result) in group_bys.items()}


def enumerate_cost(spec):
    """The expected cost: mass times cost of every leaf, added in visit
    order."""
    total = 0.0

    def visit(t, xs, obs, acts, mass, cost, codes):
        nonlocal total
        if t == spec.T:
            total += mass * cost

    return visit, lambda: total


def posteriors(spec, k):
    """Per t, agent k's posterior per time-t code: masses added in visit
    order per (joint history, x_t), normalized per code. Every agent's
    time-t code together is the joint history."""
    cells: list[dict[tuple, float]] = [{} for _ in range(spec.T + 1)]

    def visit(t, xs, obs, acts, mass, cost, codes):
        key, at_t = (codes[t], xs[-1]), cells[t]
        at_t[key] = at_t.get(key, 0.0) + mass

    def result() -> list[dict[int, np.ndarray]]:
        others = other_agents(spec.K, k)
        out = []
        for t, at_t in enumerate(cells):
            sizes = [private_size(spec, j, t) for j in others]
            mats: dict[int, np.ndarray] = {}
            for (codes, x), m in at_t.items():
                code, lam = codes[k], 0
                for j, size in zip(others, sizes):
                    lam = lam * size + codes[j] % size
                if code not in mats:
                    mats[code] = np.zeros((spec.state_size, math.prod(sizes)))
                mats[code][x, lam] = m
            out.append({code: mat / float(mat.sum()) for code, mat in mats.items()})
        return out

    return visit, result


class RealizationTree(oracle.RealizationTree):
    """The tree's groups from the tuple walk with agent k free: per time-T
    code of agent k, in order of first leaf, its codes and actions and the
    sums added in leaf order; the backward pass is the array tree's. Feed
    `visit` every history, then `result()` is the tree."""

    def __init__(self, spec, k, g):
        self.spec, self.k, self.g = spec, k, g
        T = spec.T
        self._terminal = spec.terminal_cost.tolist()
        self._stage = [spec.stage_cost[s].reshape(spec.state_size, -1).T.tolist()
                       for s in range(T)]
        self._groups: dict[int, list[float]] = {}  # time-T code -> the group's sums
        self._codes = array("q")  # per group: codes, then actions
        self._rows: dict[tuple, list[list[float]]] = {}  # per action streams: stage costs by state

    def visit(self, s, xs, obs, acts, mass, cost, codes):
        spec, k, T = self.spec, self.k, self.spec.T
        if s < T:
            return
        rows = self._rows.get(acts)
        if rows is None:
            rows = self._rows[acts] = [
                self._stage[t][np.ravel_multi_index([us[t] for us in acts], spec.act_sizes)]
                for t in range(T)]
        acc = self._groups.get(codes[T][k])
        if acc is None:
            acc = self._groups[codes[T][k]] = [0.0] * (T + 2)
            self._codes.extend([*(c[k] for c in codes), *acts[k], 0])
        acc[0] += mass
        for t, (row, x) in enumerate(zip(rows, xs), 1):
            acc[t] += mass * row[x]
        acc[T + 1] += mass * self._terminal[xs[T]]

    def result(self):
        T = self.spec.T
        self.codes, self.acts = (np.frombuffer(self._codes, np.int64)
                                 .reshape(-1, 2, T + 1).swapaxes(0, 1))
        self.sums = np.array(list(self._groups.values())).reshape(-1, T + 2)
        return self


def conditional_independence_gaps(spec, k, t):
    """Per (r, x_t), the max distance between the law of the other agents'
    time-(t-n+1) symbols given (r, x_t) and given r, as falsify labels it,
    from four tables at the histories of length max(t, t-n+2): mass per
    (code r, x_t, symbols), per (r, x_t), per (r, symbols) and per r, summed
    in visit order."""
    p_idx = t - spec.n + 1
    others, depth = other_agents(spec.K, k), max(t, p_idx + 1)
    tables: tuple[dict, dict, dict, dict] = ({}, {}, {}, {})

    def visit(s, xs, obs, acts, mass, cost, codes):
        if s != depth:
            return
        r, x = codes[t][k], xs[t]
        shared = tuple(v for j in others for v in (obs[j][p_idx], acts[j][p_idx]))
        for table, key in zip(tables, ((r, x, shared), (r, x), (r, shared), r)):
            table[key] = table.get(key, 0.0) + mass

    def result() -> list[tuple[str, float]]:
        by_rxs, by_rx, by_rs, by_r = tables
        p1: dict[tuple, dict] = {}
        for (r, x, shared), m in by_rxs.items():
            p1.setdefault((r, x), {})[shared] = m / by_rx[r, x]
        p2: dict[int, dict] = {}
        for (r, shared), m in by_rs.items():
            p2.setdefault(r, {})[shared] = m / by_r[r]
        keys = realization_keys(spec, k, t, [r for r, _ in p1])
        return [(f"x={x}|{key}",
                 max(abs(p.get(s, 0.0) - p2[r].get(s, 0.0)) for s in set(p) | set(p2[r])))
                for key, ((r, x), p) in zip(keys, p1.items())]

    return visit, result


def next_posterior_laws(spec, k, posts):
    """Per (t, r), the law of agent k's next posterior given its time-t
    code r, as (posterior, probability) pairs in next-code order."""
    pair: dict[tuple, float] = {}
    marg: dict[tuple, float] = {}

    def visit(s, xs, obs, acts, mass, cost, codes):
        if s == 0:
            return
        r = (s - 1, codes[s - 1][k])
        key = (*r, codes[s][k])
        marg[r] = marg.get(r, 0.0) + mass
        pair[key] = pair.get(key, 0.0) + mass

    def result():
        laws: dict[tuple, list] = {r: [] for r in marg}
        for (t, r, r1), m in sorted(pair.items()):
            laws[t, r].append((posts[t + 1][r1], m / marg[t, r]))
        return laws

    return visit, result


# ---------------------------------------------------------------------------
# The per-time walks the realization tree replaced.
# ---------------------------------------------------------------------------

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
                   else (action_at(g, j, s, history_code(spec, obs, acts, j, s)),)
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


_ABOVE = np.iinfo(np.int64).max  # above every code


class FirstSeen:
    """Dense ids of int keys, numbered in order of first appearance across
    calls."""

    def __init__(self):
        # The keys seen, sorted, and their ids, closed by a key above any code.
        self.keys, self.ids = np.array([_ABOVE]), np.array([-1])

    def __call__(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The id of every key, and the positions of the keys first seen here."""
        at = np.searchsorted(self.keys, keys)
        if (self.keys[at] == keys).all():
            return self.ids[at], at[:0]  # every key known already
        uniq, first, inv = np.unique(keys, return_index=True, return_inverse=True)  # stable sort
        at = at[first]
        new = self.keys[at] != uniq
        order = new.nonzero()[0][first[new].argsort()]  # the new keys by first position
        ids = self.ids[at]
        ids[order] = len(self.keys) - 1 + np.arange(len(order))
        # two sorted runs: the stable sort merges them
        keys = np.concatenate([self.keys, uniq[new]])
        merge = keys.argsort(kind="stable")
        self.keys, self.ids = keys[merge], np.concatenate([self.ids, ids[new]])[merge]
        return ids[inv], first[order]
