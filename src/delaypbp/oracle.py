"""Ground truth by exhaustive enumeration of joint histories.

`walk` enumerates the sample paths of positive probability under the
kernels and a strategy profile, one agent possibly free to take every
action, and hands each leaf to a visitor. Everything else is a group-by
over one walk keyed by agent k's realization code: expected costs,
posteriors over the extended state, and agent k's realization tree, which
gives its cost-to-go under any strategy and its best response. No beliefs:
this is the reference the filter and the dynamic program are checked
against, so it imports only the model and information-pattern primitives.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import InstanceTooLargeError
from .info import grid_size, history_code, other_agents, private_size
from .model import COMPARE_TOL, ModelSpec


def _likely_observations(spec: ModelSpec, s: int) -> list[list[tuple[tuple, float]]]:
    """Per state, every joint time-s observation with positive likelihood,
    with that likelihood formed as 1.0 * q_0 * q_1 * ..."""
    joint = list(itertools.product(*(range(m) for m in spec.obs_sizes)))
    out = []
    for x in range(spec.state_size):
        likes = [math.prod([float(spec.observation[s][j][x, y]) for j, y in enumerate(ys)],
                           start=1.0) for ys in joint]
        out.append([(ys, p) for ys, p in zip(joint, likes) if p > 0.0])
    return out


def walk(spec: ModelSpec, g, visit, t_end: int | None = None, free: int | None = None) -> None:
    """Call visit(xs, obs, acts, mass, cost) at every positive-probability
    joint history up to t_end (default: the horizon T).

    Every agent acts from the profile g but agent `free`, which takes every
    action at every step; its maps are never read. xs is the state path to
    t_end; obs and acts are the per-agent observation streams (to t_end)
    and action streams (to t_end - 1); mass is init * (1.0 * q_0 * q_1 ...),
    then (mass * p_x) * p_y per step, the path's probability given the free
    agent's actions; cost sums the stage costs left to right, plus the
    terminal cost when t_end = T. Leaves come in a fixed order (initial
    state, joint observation, then per step the free agent's action, the
    next state, the joint observation): leaf-order sums are deterministic.
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
        if s == t_end:  # only a root, when t_end = 0: deeper leaves are visited below
            visit(xs, obs, acts, mass, cost + terminal[xs[-1]] if s == spec.T else cost)
            return
        x = xs[-1]
        choices = [range(spec.act_sizes[j]) if j == free
                   else (g.action_at(j, s, history_code(spec, obs, acts, j, s)),)
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
                    if s + 1 < t_end:
                        step(s + 1, xs1, obs1, acts1, m * p_y, c)
                    else:
                        visit(xs1, obs1, acts1, m * p_y, c + terminal[x1] if t_end == spec.T else c)

    no_acts = tuple(() for _ in range(K))
    for x0, p0 in enumerate(spec.init_dist.tolist()):
        if p0 <= 0.0:
            continue
        for ys, p_y in likely[0][x0]:
            step(0, (x0,), tuple((y,) for y in ys), no_acts, p0 * p_y, 0.0)
    del step  # step refers to itself: free it, and the visitor's state, now


def enumerate_cost(spec: ModelSpec, g_full) -> float:
    """Expected total cost of a profile, straight from the definition."""
    total = 0.0

    def visit(xs, obs, acts, mass, cost):
        nonlocal total
        total += mass * cost

    walk(spec, g_full, visit)
    return total


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

    walk(spec, g, visit, t_end=t, free=k if free else None)
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


class RealizationTree:
    """Agent k's realization tree against the other agents' maps in g.

    One walk to T with agent k free throughout, its leaves grouped by agent
    k's time-T code, which by perfect recall fixes its code and action at
    every earlier t. Per group, in order of first leaf: codes at t = 0..T,
    actions at t = 0..T-1 (and a 0 for none at T), and sums added in leaf
    order: mass, mass times the stage cost at each t < T and mass times the
    terminal cost. Agent k's strategies only choose among the groups, so
    any one's cost-to-go and the best response are backward passes.
    """

    def __init__(self, spec: ModelSpec, k: int, g):
        self.spec, self.k, self.g = spec, k, g
        T, terminal = spec.T, spec.terminal_cost.tolist()
        stage = [spec.stage_cost[s].reshape(spec.state_size, -1).T.tolist() for s in range(T)]
        groups: dict[int, list[float]] = {}  # time-T code -> the group's sums
        codes = array("q")  # per group: codes, then actions
        # A history but its time-T observations fixes all actions and agent k's
        # earlier codes, and with k's own one (n >= 1) its group: each is read
        # once, to stage costs by state, those codes and a slot per own y_T.
        seen: dict[tuple, tuple[list, list[list[float]], list[int]]] = {}

        def visit(xs, obs, acts, mass, cost):
            key = (tuple([ys[:-1] for ys in obs]), acts)
            hit = seen.get(key)
            if hit is None:
                hit = seen[key] = [None] * spec.obs_sizes[k], [
                    stage[t][np.ravel_multi_index([us[t] for us in acts], spec.act_sizes)]
                    for t in range(T)], [history_code(spec, obs, acts, k, t) for t in range(T)]
            slots, rows, earlier = hit
            acc = slots[obs[k][-1]]
            if acc is None:
                code = history_code(spec, obs, acts, k, T)
                if code not in groups:
                    groups[code] = [0.0] * (T + 2)
                    codes.extend([*earlier, code, *acts[k], 0])
                acc = slots[obs[k][-1]] = groups[code]
            acc[0] += mass
            for t, (row, x) in enumerate(zip(rows, xs), 1):
                acc[t] += mass * row[x]
            acc[T + 1] += mass * terminal[xs[T]]

        walk(spec, g, visit, free=k)
        self.codes, self.acts = np.frombuffer(codes, np.int64).reshape(-1, 2, T + 1).swapaxes(0, 1)
        self.sums = np.array(list(groups.values())).reshape(-1, T + 2)

    def cost_to_go(self, maps) -> list[dict[int, float]]:
        """Per t0 = 0..T, the expected cost of stages t0..T-1 plus terminal
        cost given agent k's time-t0 realization (keyed by code), when agent
        k plays the per-time strategy arrays maps from t0 on against the
        tree's profile; raises where maps give no action the tree needs."""
        g = self.g.with_agent(self.k, maps)
        return self._backward(lambda t, codes, costs: g.actions_at(self.k, t, codes))[0]

    def _backward(self, pick):
        """From t = T down, per (time-t code, own action), the cost from t
        on and the mass, added in group order, of the groups whose later
        actions follow the maps picked so far by pick(t, codes, costs).
        Returns under those maps the cost-to-go per t (cost over mass), the
        maps (-1 off the tree) and the expected cost from t = 0."""
        spec, k, T = self.spec, self.k, self.spec.T
        follow, tail, tables, maps = np.ones(len(self.sums), dtype=bool), 0.0, [], []
        for t in range(T, -1, -1):
            tail = self.sums[:, t + 1] + tail
            hit, inv = np.unique(self.codes[follow, t], return_inverse=True)
            cell = (inv, self.acts[follow, t])
            cost, mass = (np.zeros((len(hit), spec.act_sizes[k])) for _ in "cm")
            np.add.at(cost, cell, tail[follow])
            np.add.at(mass, cell, self.sums[follow, 0])
            u = pick(t, hit, cost) if t < T else np.zeros(len(hit), dtype=np.int64)
            at = (np.arange(len(hit)), u)
            tables.insert(0, dict(zip(hit.tolist(), (cost[at] / mass[at]).tolist())))
            follow[follow] = u[inv] == self.acts[follow, t]
            if t < T:
                maps.insert(0, np.full(grid_size(spec, k, t), -1))
                maps[0][hit] = u
        return tables, maps, float(tail[follow].sum())


# ---------------------------------------------------------------------------
# Best response by backward induction over the realization tree. Agent k's
# time-t code and action fix the groups a choice at t reaches, and different
# time-t codes are disjoint events, so with later choices fixed the best
# time-t map is the best action per code: no search over combinations of
# maps. Exact at any T; the T > 2 cap stays only because the canonical
# T = 3 reports record that skip.
# ---------------------------------------------------------------------------

def _best_response(tree: RealizationTree) -> tuple[float, list[np.ndarray]]:
    """(optimal value, per-time strategy arrays): per code, the action of
    least cost from t on, ties to the smallest; -1 off the tree."""
    _, maps, value = tree._backward(lambda t, codes, costs: np.argmin(costs, axis=1))
    return value, maps


def brute_force_best_response(spec: ModelSpec, k: int, g_minus_k):
    """Minimize the team cost over agent k's strategies by enumeration:
    (optimal value, per-time strategy arrays) from agent k's realization
    tree, an action at every realization reachable with agent k's actions
    free (ties to the smallest) and -1 elsewhere."""
    if spec.T > 2:
        raise InstanceTooLargeError("instance too large for brute force (T > 2)")
    return _best_response(RealizationTree(spec, k, g_minus_k))


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
