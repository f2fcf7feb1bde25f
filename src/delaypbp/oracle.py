"""Ground truth by exhaustive enumeration of joint histories.

`walk` enumerates the sample paths of positive probability under the
kernels and a strategy profile, one agent possibly free to take every
action, breadth first: the histories of each length t = 0..T come as
numpy blocks before any longer one; with an agent free, each history also
carries that agent's code and its stage cost per step. Everything else is
a group-by over one walk keyed by agent k's realization codes, an
`np.add.at` over group ids in walk order, so every sum adds in the order
of a walk one history at a time: expected costs (the histories of length
T), posteriors over the extended state at every t, and agent k's
realization tree, which gives its cost-to-go under any strategy and its
best response, each per realization as increasing codes and arrays
aligned to them row by row. No belief recursion: this is
the reference the filter and the dynamic program are checked against, so
it imports only the model and information-pattern primitives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .info import digits, grid_size, history_code, other_agents, private_size, radix
from .model import COMPARE_TOL, ModelSpec

_BLOCK = 16384  # most histories per yielded block: what bounds the walk's memory


def walk(spec: ModelSpec, g, free: int | None = None, depth: int | None = None):
    """Yield (t, xs, obs, acts, mass, cost) blocks of at most _BLOCK
    positive-probability joint histories, every length t = 0..depth (T by
    default) in turn; only the layer before the last is held whole.

    Every agent acts from the profile g, one g.actions_at per (agent, t),
    but agent `free`, which takes every action at every step; its maps are
    never read. Row i of a block is one history: xs[i] the state path to t,
    obs[i] (K, t+1) and acts[i] (K, t) the per-agent observation and action
    streams, in the narrowest int dtype of the alphabets; mass[i] is
    init * (1.0 * q_0 * q_1 ...), then (mass * p_x) * p_y per step, the
    path's probability given the free agent's actions; cost[i] sums the
    stage costs before t left to right, plus the terminal cost at t = T.
    The histories of one length come in a fixed order (initial state,
    joint observation, then per step the free agent's action, the next
    state, the joint observation), so sums over them are deterministic.
    With an agent free, blocks also carry code, the int64 sum of each step's
    share of agent free's time-depth code (its code at t = depth: Horner's
    rule is linear in the digits, and a share is the code of one step
    alone), and stages (N, t), the stage cost of each step, which cost adds.

    A layer is one packed array hist (N, t+1, 1+2K), step s of row i being
    [x_s, y_s^0..y_s^{K-1}, u_s^0..u_s^{K-1}] with 0 for the newest step's
    actions; xs, obs and acts are views of it. Per (parent, action) the
    child's row but its new step (the parent's row, padded, with the step's
    actions set) and the stage costs are written once, then copied to the
    children as whole fixed-width records, repeated by the count of
    children per (parent, action). A child gathers its new step's x' and y
    columns, likelihood, terminal cost and code share from tables over the
    flat (x', joint y) index, built once per walk.
    """
    K, X, T = spec.K, spec.state_size, spec.T
    depth = T if depth is None else depth
    dtype = np.min_scalar_type(max(X, *spec.obs_sizes, *spec.act_sizes) - 1)
    ys = np.stack(digits(np.arange(math.prod(spec.obs_sizes)), spec.obs_sizes), 1).astype(dtype)
    like = [math.prod([q[:, ys[:, j]] for j, q in enumerate(qs)], start=1.0)  # (X, J)
            for qs in spec.observation]
    trans = [p.reshape(X, -1, X) for p in spec.transition]
    stage = [c.reshape(X, -1) for c in spec.stage_cost]
    U, J = spec.act_sizes[free] if free is not None else 1, len(ys)
    rows = np.zeros((X, J, 1 + 2 * K), dtype)  # per flat (x', y): the new step, no actions
    rows[..., 0], rows[..., 1:1 + K] = np.arange(X)[:, None], ys
    rows, term = rows.reshape(X * J, -1), spec.terminal_cost.repeat(J)
    if free is not None:  # per step s: the code's share per flat (x', y), per joint action
        one, blank = np.eye(depth + 1, dtype=dtype)[:, None, None], np.zeros((K, depth + 1), dtype)
        code_y = history_code(spec, rows[:, 1:1 + K, None] * one, blank, free, depth)
        joint = np.stack(digits(np.arange(math.prod(spec.act_sizes)), spec.act_sizes), 1)
        code_u = history_code(spec, blank, joint[:, :, None] * one[:-1], free, depth)

    def views(hist):
        """A layer's xs, obs and acts, as views of its packed rows."""
        return (hist[:, :, 0], hist[:, :, 1:1 + K].transpose(0, 2, 1),
                hist[:, :-1, 1 + K:].transpose(0, 2, 1))

    def blocks(t, hist, *arrays):
        arrays = (*views(hist), *arrays)
        for lo in range(0, len(hist), _BLOCK):
            yield (t, *(a[lo:lo + _BLOCK] for a in arrays))

    def expand(s, hist, mass, cost, *carry):
        """Layer s + 1 as (hist, mass, cost, *carry) in parent-major chunks
        of at most _BLOCK histories (but one parent's children), each
        parent's in (free action, x', joint y) order."""
        xs, obs, acts = views(hist)
        base = np.zeros((len(mass), U, s + 2, 1 + 2 * K), dtype)  # a child's row but its new step
        base[:, :, :-1], us = hist[:, None], base[:, :, s, 1 + K:]
        for j in range(K):
            us[..., j] = (np.arange(U) if j == free else
                          g.actions_at(j, s, history_code(spec, obs, acts, j, s))[:, None])
        a = radix(us.astype(np.intp).T, spec.act_sizes).T  # (N, U)
        p_x = trans[s][xs[:, -1, None], a]  # (N, U, X)
        c_s = stage[s][xs[:, -1, None], a]
        c, base = cost[:, None] + c_s, _records(base.reshape(len(mass) * U, -1))
        if carry:
            code, stages = carry[0][:, None] + code_u[s][a], np.empty((len(mass), U, s + 1))
            stages[..., :s], stages[..., s] = carry[1][:, None], c_s
            stages = _records(stages.reshape(len(mass) * U, -1))
        seen, p_y = like[s + 1] > 0.0, like[s + 1].ravel()
        step, per_y = max(1, _BLOCK // p_x[0].size // J), seen.sum(axis=1)
        for lo in range(0, len(mass), step):
            pos = p_x[lo:lo + step] > 0.0
            per_x = (pos * per_y).ravel()
            per_u = per_x.reshape(-1, X).sum(axis=1)
            # each child's flat (x', y): its flat (parent, u, x', y) less its run's start
            at = ((pos[..., None] & seen).ravel().nonzero()[0]
                  - (np.arange(len(per_u)) * (X * J)).repeat(per_u))
            child = base[lo * U:(lo + step) * U].repeat(per_u).view(dtype).reshape(
                -1, s + 2, 1 + 2 * K)
            for j, col in enumerate(rows.T[:1 + K]):
                child[:, s + 1, j] = col[at]
            c_u = c[lo:lo + step].ravel().repeat(per_u)
            out = (child, (mass[lo:lo + step, None, None] * p_x[lo:lo + step]).ravel().repeat(
                per_x) * p_y[at], c_u + term[at] if s + 1 == T else c_u)
            if carry:
                out += (code[lo:lo + step].ravel().repeat(per_u) + code_y[s + 1][at],
                        stages[lo * U:(lo + step) * U].repeat(per_u).view(float).reshape(-1, s + 1))
            yield out

    at = ((spec.init_dist > 0.0)[:, None] & (like[0] > 0.0)).ravel().nonzero()[0]
    layer = (rows[at, None], spec.init_dist[at // J] * like[0].ravel()[at], np.zeros(len(at)))
    if free is not None:
        layer += (code_y[0][at], np.zeros((len(at), 0)))
    last = [layer]
    for t in range(depth):
        yield from blocks(t, *layer)
        last = expand(t, *layer)
        if t + 1 < depth:
            layer = tuple(map(np.concatenate, zip(*last)))
    for chunk in last:
        yield from blocks(depth, *chunk)


def _records(a: np.ndarray) -> np.ndarray:
    """A C-contiguous (N, W) array as N fixed-width byte records, one a row:
    a view whose ndarray.repeat copies each row whole."""
    return a.view(np.dtype((np.void, a.itemsize * a.shape[1])))[:, 0]


def enumerate_cost(spec: ModelSpec, g_full) -> float:
    """Expected total cost of a profile, straight from the definition."""
    total = np.zeros(1)
    for t, xs, obs, acts, mass, cost in walk(spec, g_full):
        if t == spec.T:
            np.add.at(total, np.zeros(len(mass), np.intp), mass * cost)
    return float(total[0])


def posteriors(spec: ModelSpec, g, k: int, free: bool = True) -> list[tuple]:
    """Per t = 0..T, agent k's posterior over (x_t, lambda_t^{-k}) at every
    time-t realization reachable with its own actions free, from the
    definition: (codes, beliefs), the time-t codes in increasing order and
    a read-only (N, state, lambda) array whose row i is codes[i]'s.

    One walk with agent k free, so its maps are never read: a realization
    already fixes agent k's actions. The masses of the histories of length
    t accumulate in walk order per (agent k's realization, lambda_t^{-k},
    x_t), which is per (joint history, x_t), and are normalized per
    realization. Rows are numbered in order of first history by an int32
    id table over agent k's time-t codes (4 * grid_size(spec, k, t) bytes),
    block by block as the walk passes. The lambda index is the mixed radix
    over the other agents' private codes, in info.lambda_labels' order.

    With free=False agent k follows g instead. A realization g reaches has
    the same histories in the same order either way, so its posterior is
    the same to the bit; the walk is smaller and reads the other agents'
    maps only where g reaches.
    """
    others, out = other_agents(spec.K, k), []
    for t, blocks in itertools.groupby(walk(spec, g, free=k if free else None), lambda b: b[0]):
        sizes = [private_size(spec, j, t) for j in others]
        group_of = _FirstSeen(grid_size(spec, k, t))
        mats = np.zeros((0, spec.state_size, math.prod(sizes)))
        for _, xs, obs, acts, mass, *_ in blocks:
            group, _ = group_of(history_code(spec, obs, acts, k, t))
            if group_of.count > len(mats):  # at least double the rows
                mats = np.concatenate([mats, np.zeros((len(mats) + group_of.count,
                                                       *mats.shape[1:]))])
            lam = radix([history_code(spec, obs, acts, j, t) % s for j, s in zip(others, sizes)],
                        sizes)
            np.add.at(mats, (group, xs[:, t].astype(np.intp), lam), mass)
        codes = group_of.keys
        mats = mats[group_of.ids[codes]]
        mats /= mats.sum(axis=(1, 2), keepdims=True)
        mats.setflags(write=False)
        out.append((codes, mats))
    return out


class _FirstSeen:
    """Dense ids of the codes in [0, size), numbered in order of first
    appearance across calls, held in a direct-address int32 table of
    4 * size bytes: ids[code], -1 for a code not seen yet."""

    def __init__(self, size: int):
        self.ids, self.count = np.full(size, -1, np.int32), 0

    @property
    def keys(self) -> np.ndarray:  # the codes seen, in increasing order
        return np.flatnonzero(self.ids >= 0)

    def __call__(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The id of every key, and the positions of the keys first seen here."""
        ids = self.ids[keys].astype(np.intp)  # np.add.at is fastest on intp ids
        unseen = (ids < 0).nonzero()[0]
        if not len(unseen):
            return ids, unseen  # every key known already
        uniq, first = np.unique(keys[unseen], return_index=True)  # stable sort
        order = first.argsort()  # the new keys by first position, numbered in that order
        self.ids[uniq[order]] = self.count + np.arange(len(order))
        self.count += len(order)
        ids[unseen] = self.ids[keys[unseen]]
        return ids, unseen[first[order]]


class RealizationTree:
    """Agent k's realization tree against the other agents' maps in g.

    One walk with agent k free throughout, its leaves (the histories of
    length T) grouped by agent k's time-T code, which the walk carries and
    which by perfect recall fixes its code and action at every earlier t,
    through an int32 id table over those codes (4 * grid_size(spec, k, T)
    bytes). Per group, in order of first leaf: codes at t = 0..T, actions
    at t = 0..T-1 (and a 0 for none at T), and sums added in leaf order:
    mass, mass times the carried stage cost at each t < T and mass times
    the terminal cost. Agent k's strategies only choose among the groups,
    so any one's cost-to-go and the best response are backward passes.
    """

    def __init__(self, spec: ModelSpec, k: int, g):
        self.spec, self.k, self.g, T = spec, k, g, spec.T
        group_of, firsts, sums = _FirstSeen(grid_size(spec, k, T)), [], np.zeros((T + 2, 0))
        for t, xs, obs, acts, mass, cost, code, stages in walk(spec, g, free=k):
            if t < T:
                continue
            group, first = group_of(code)
            firsts.append((obs[first], acts[first]))
            if group_of.count > sums.shape[1]:  # at least double the columns
                sums = np.hstack([sums, np.zeros((T + 2, group_of.count))])
            for row, c in zip(sums, [1.0, *stages.T, spec.terminal_cost[xs[:, T]]]):
                np.add.at(row, group, mass * c)
        obs, acts = map(np.concatenate, zip(*firsts))
        self.codes = np.stack([history_code(spec, obs, acts, k, t) for t in range(T + 1)], 1)
        self.acts = np.pad(acts[:, k], ((0, 0), (0, 1))).astype(np.int64)
        self.sums = sums[:, :len(obs)].T

    def cost_to_go(self, maps) -> list[tuple]:
        """Per t0 = 0..T, (codes, values): agent k's time-t0 codes reached, in
        increasing order, and the expected cost of stages t0..T-1 plus
        terminal cost given each, when agent k plays the per-time strategy
        arrays maps from t0 on against the tree's profile; raises where maps
        give no action the tree needs."""
        g = self.g.with_agent(self.k, maps)
        return self._backward(lambda t, codes, costs: g.actions_at(self.k, t, codes))[0]

    def _backward(self, pick):
        """From t = T down, per (time-t code, own action), the cost from t
        on and the mass, added in group order, of the groups whose later
        actions follow the maps picked so far by pick(t, codes, costs).
        Returns under those maps the cost-to-go per t (codes, cost over
        mass), the maps (-1 off the tree) and the expected cost from t = 0."""
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
            tables.insert(0, (hit, cost[at] / mass[at]))
            follow[follow] = u[inv] == self.acts[follow, t]
            if t < T:
                maps.insert(0, np.full(grid_size(spec, k, t), -1))
                maps[0][hit] = u
        return tables, maps, float(tail[follow].sum())

    def best_response(self) -> tuple[float, list[np.ndarray]]:
        """(optimal value, per-time strategy arrays): per code, the action of
        least cost from t on, ties to the smallest; -1 off the tree. Exact at
        any T: agent k's time-t code and action fix the groups a choice at t
        reaches, and different codes are disjoint events, so with later
        choices fixed the best time-t map is the best action per code."""
        _, maps, value = self._backward(lambda t, codes, costs: np.argmin(costs, axis=1))
        return value, maps


@dataclass(frozen=True)
class PbPReport:
    """The enumerated cost, per agent {agent, best_response_value, gap, stationary}, and
    whether every agent is stationary."""

    cost: float
    agents: tuple[dict, ...]
    all_stationary: bool


def verify_pbp(spec: ModelSpec, g_full, tol: float = COMPARE_TOL) -> PbPReport:
    """Certify person-by-person stationarity: for each agent, compare the
    profile's cost against that agent's brute-force best response with the
    rest of the profile frozen."""
    cost = enumerate_cost(spec, g_full)
    rows = []
    for k in range(spec.K):
        bf_value, _ = RealizationTree(spec, k, g_full).best_response()
        gap = cost - bf_value
        rows.append({"agent": k, "best_response_value": bf_value,
                     "gap": gap, "stationary": gap <= tol})
    return PbPReport(cost, tuple(rows), all(r["stationary"] for r in rows))
