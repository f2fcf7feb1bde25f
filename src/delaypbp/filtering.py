"""Private posterior beliefs over the extended state.

Under delayed sharing, agent k cannot act on the plant state alone: the
other agents' recent private data steers their actions, so the object to
estimate is the extended state (x_t, lambda_t^{-k}) -- plant state plus
the other agents' private blocks. A belief is a read-only (state,
lambda) float array whose lambda index is the mixed radix over the other
agents' private codes. `start` and `step` compute it by a one-step
recursion that conditions on agent k's new observation, its own action,
and the symbols newly revealed into the shared block; it must reproduce
`oracle.posteriors`, which stacks beliefs row by row along increasing
codes as a layer does, and, for a single agent, the textbook filter, whose
step `falsify.classical_filter_step` filters a whole layer at once.
Zero-probability continuations are left out rather than returned as
non-distributions. Layers are keyed by realization code; only the report
writer spells codes as text keys.

`expand` is the one forward expansion, one time layer at a time, against
the other agents' strategies g (None only without other agents), with
agent k's own action either free (the best-response DP, the single-agent
check) or read from g. Strategies are read only where some belief has
mass, so maps covering just the reachable grid suffice. A `Layer` holds
time t's nodes as arrays: realization codes, stacked beliefs, the others'
joint action per (node, lambda) -- one indexed read of each other agent's
strategy array per layer -- each node's unique predecessor as (parent
index, own action, step weight) and its path probability. One
`np.bincount` (input order) per layer produces every child in (parent,
own action, revealed, y') order, revealed being `info.revealed`'s index of
the symbols the others promote, and one stable sort by code orders the
layer; a child's cell is its pair's block plus an offset that
`step_tables`, built once per model, holds. Every mixed radix is `info`'s
`radix`, split by its `digits`, and the promotion rule is `info`'s. The
arithmetic is that of a scalar loop over each node's grid: products
associate as ((p * T) * q_k) * q_j..., every cell accumulates its terms in
the C order of (x, lambda, y', x', y^{-k}) -- cells of different nodes are
disjoint -- and expectations sum left to right (`seq_sum`), so no result
depends on the batching. The DP reads a time-T node only through its
expected terminal cost, so `step`'s horizon variant builds the time-T nodes
with state masses in place of beliefs, in the textbook association: predict
(p * T summed over (x, lambda) in C order per (node, own action, revealed,
x')), then correct by q_k(y' | x'). The others' fresh likelihoods sum to 1
and move neither the revealed group nor agent k's code, so they drop out.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .info import digits, next_codes, other_agents, private_size, radix, revealed, shift_code
from .model import ModelSpec


def seq_sum(v: np.ndarray) -> np.ndarray:
    """Left-to-right sums from 0.0 along the last axis, bit for bit what
    `acc += v[i]` gives (np.sum sums pairwise)."""
    return 0.0 + np.cumsum(v, axis=-1)[..., -1]


class StepTable:
    """Agent k's lambda grid at time t < T, the belief- and strategy-free
    parts of a step to t+1, and the size of the lambda grid at t+1.

    Joint actions are flat indices into the (act_sizes[0], ...,
    act_sizes[K-1]) block of the kernels; the other agents' joint actions
    and fresh symbols are indices into their product (C) orders.
    """

    def __init__(self, spec: ModelSpec, k: int, t: int):
        others = self.others = other_agents(spec.K, k)
        X = spec.state_size
        obs_sizes = tuple(spec.obs_sizes[j] for j in others)
        act_sizes = tuple(spec.act_sizes[j] for j in others)
        n_obs, n_acts = math.prod(obs_sizes), math.prod(act_sizes)
        self.private_sizes = tuple(private_size(spec, j, t) for j in others)
        self.size = math.prod(self.private_sizes)
        # Per other agent, its private code per lambda index, and its action
        # and fresh observation per index of their product orders.
        self.private_codes = digits(np.arange(self.size), self.private_sizes)
        acts, ys = digits(np.arange(n_acts), act_sizes), digits(np.arange(n_obs), obs_sizes)
        # [u_k, others' joint action] -> joint action
        u = np.arange(spec.act_sizes[k])[:, None]
        self.joint = radix([*acts[:k], u, *acts[k:]], spec.act_sizes) + np.zeros(n_acts, np.intp)
        self.trans = spec.transition[t].reshape(X, -1, X)  # (x, joint action, x')
        self.own_lik = spec.observation[t + 1][k].T          # (y'_k, x')
        # per other agent, (x', y'^{-k}) -> likelihood of its symbol
        self.other_lik = tuple(spec.observation[t + 1][j][:, y] for j, y in zip(others, ys))
        # (lambda, u^{-k}) -> `info.revealed`'s index, one of `groups`
        group, self.groups = revealed(spec, k, t, [pc[:, None] for pc in self.private_codes], acts)
        self.group = np.zeros((self.size, n_acts), dtype=np.intp) + group
        # (lambda, u^{-k}, y'_k, x', y'^{-k}) -> a child's cell in its (node, own
        # action) block: the radix over (revealed, y'_k, x', lambda').
        pcs = [pc[:, None, None, None, None] for pc in self.private_codes]
        us = [a[:, None, None, None] for a in acts]
        next_sizes = [private_size(spec, j, t + 1) for j in others]
        succ = radix([shift_code(spec, j, t, pc, y, a) for j, pc, y, a in zip(others, pcs, ys, us)],
                     next_sizes)
        self.next_size = math.prod(next_sizes)
        sizes = (self.groups, spec.obs_sizes[k], X, self.next_size)
        self.block = math.prod(sizes)
        self.off = np.zeros((self.size, n_acts, *sizes[1:3], n_obs), dtype=np.intp) + radix(
            [self.group[..., None, None, None], np.arange(sizes[1])[:, None, None],
             np.arange(X)[:, None], succ], sizes)


_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def step_tables(spec: ModelSpec, k: int) -> tuple[StepTable, ...]:
    """Agent k's step tables for t = 0..T-1, built once per (spec, k) and
    read-only: a spec is immutable and hashes by identity, and its entry
    dies with it."""
    per_agent = _TABLES.setdefault(spec, {})
    if k not in per_agent:
        per_agent[k] = tuple(StepTable(spec, k, t) for t in range(spec.T))
        for value in (v for tab in per_agent[k] for v in vars(tab).values()):
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
    return per_agent[k]


@dataclass(frozen=True, eq=False)
class Layer:
    """Agent k's nodes at time t along increasing codes: codes, read-only
    (node, state, lambda) beliefs and, before the horizon, the others'
    joint action per (node, lambda), 0 off the support. A node is reached
    from node `parent` of layer t-1 under own action `action` with step
    weight `weight`, the probability of its new symbols given the parent;
    at t = 0 parent and action are -1 and weight is p(first observation).
    `prob`, the node's probability, is the product of its path's weights.
    A horizon layer (at T) holds (node, state) masses in place of beliefs:
    each node's state marginal times its weight."""

    t: int
    codes: np.ndarray
    beliefs: np.ndarray
    others_acts: np.ndarray | None
    parent: np.ndarray
    action: np.ndarray
    weight: np.ndarray
    prob: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


def _others_acts(spec: ModelSpec, k: int, g, t: int, codes, beliefs) -> np.ndarray | None:
    """Before the horizon, the others' joint actions at a layer's (node,
    lambda) cells with mass, one indexed read per other agent, and 0
    elsewhere; a missing action raises IncompleteStrategyError."""
    if t == spec.T:
        return None
    tab = step_tables(spec, k)[t]
    node, lam = np.nonzero((beliefs > 0.0).any(axis=1))
    shared = codes[node] // private_size(spec, k, t)
    others_acts = np.zeros((len(codes), tab.size), dtype=np.intp)
    others_acts[node, lam] = radix(
        [g.actions_at(j, t, shared * size + pc[lam])
         for j, size, pc in zip(tab.others, tab.private_sizes, tab.private_codes)],
        [spec.act_sizes[j] for j in tab.others])
    return others_acts


def start(spec: ModelSpec, k: int, g) -> Layer:
    """The time-0 layer: one node per reachable first observation of
    agent k, whose code it is."""
    tab = step_tables(spec, k)[0]
    # (y0, x, lambda); at t = 0 a private code is the first observation
    mats = (spec.init_dist * spec.observation[0][k].T)[:, :, None]
    for j, fo in zip(tab.others, tab.private_codes):
        mats = mats * spec.observation[0][j][:, fo]
    mats = np.ascontiguousarray(mats)  # so each row sums as its own .sum() would
    totals = mats.sum(axis=(1, 2))
    codes = np.flatnonzero(totals > 0.0)
    none, weight = np.full(len(codes), -1), totals[codes]
    beliefs = mats[codes] / totals[codes, None, None]
    beliefs.setflags(write=False)
    return Layer(0, codes, beliefs, _others_acts(spec, k, g, 0, codes, beliefs), none, none,
                 weight, weight)


def children(spec: ModelSpec, k: int, lay: Layer, nodes: np.ndarray, us: np.ndarray, horizon=False):
    """Every positive-mass child of node nodes[i] when agent k plays us[i],
    over all i at once, as arrays (i, revealed group, y', belief, weight) in
    (i, group, y') order. The weight is the probability of (revealed, y')
    given the node's belief and action, i.e. the step's normalizer. With
    horizon (at t = T-1) a child's belief is its state mass, predicted then
    corrected."""
    tab = step_tables(spec, k)[lay.t]
    (Y, X1), G, L1 = tab.own_lik.shape, tab.groups, tab.next_size
    # positive-mass cells, pair-major and state-major within a pair
    i, xs, ls = np.nonzero(lay.beliefs[nodes] > 0.0)
    p, acts = lay.beliefs[nodes[i], xs, ls], lay.others_acts[nodes[i], ls]
    rows = tab.trans[xs, tab.joint[us[i], acts]]
    if horizon:
        cell = ((i * G + tab.group[ls, acts]) * X1)[:, None] + np.arange(X1)
        pred = np.bincount(cell.ravel(), (p[:, None] * rows).ravel(), minlength=len(nodes) * G * X1)
        acc = (pred.reshape(-1, 1, X1) * tab.own_lik).reshape(-1, X1)
    else:
        w = ((p[:, None] * rows)[:, None, :] * tab.own_lik)[..., None]
        for lik in tab.other_lik:
            w = w * lik
        cell = (i * tab.block)[:, None, None, None] + tab.off[ls, acts]
        acc = np.bincount(cell.ravel(), w.ravel(), minlength=len(nodes) * tab.block)
        acc = acc.reshape(-1, X1 * L1)
    totals = acc.sum(axis=1)
    keep = np.flatnonzero(totals > 0.0)
    beliefs = acc[keep] if horizon else (acc[keep] / totals[keep, None]).reshape(-1, X1, L1)
    return (*digits(keep, (len(nodes), G, Y)), beliefs, totals[keep])


def step(spec: ModelSpec, k: int, g, lay: Layer, own: np.ndarray | None, horizon=False) -> Layer:
    """Layer t+1 from layer t: with own None agent k branches over every
    action, else node i plays own[i]. One kernel call covers every
    (node, action) pair; its children, each reached once, are sorted
    stably by code from (parent, own action, revealed, y') order. With
    horizon, from layer T-1 only, it is the horizon layer."""
    N, A = len(lay), spec.act_sizes[k]
    nodes, us = ((np.repeat(np.arange(N), A), np.tile(np.arange(A), N)) if own is None
                 else (np.arange(N), own))
    pair, group, y, beliefs, weight = children(spec, k, lay, nodes, us, horizon)
    codes = next_codes(spec, k, lay.t, lay.codes[nodes[pair]], us[pair], group, y)
    order = np.argsort(codes, kind="stable")
    codes, pair = codes[order], pair[order]
    if (codes[1:] == codes[:-1]).any():
        raise AssertionError("realization reached twice; predecessor not unique")
    parent, weight, beliefs = nodes[pair], weight[order], beliefs[order]
    beliefs.setflags(write=False)
    return Layer(lay.t + 1, codes, beliefs, _others_acts(spec, k, g, lay.t + 1, codes, beliefs),
                 parent, us[pair], weight, lay.prob[parent] * weight)


def expand(spec: ModelSpec, k: int, g, free: bool, depth: int | None = None) -> list[Layer]:
    """The layers t = 0..depth (T by default) of every realization reachable,
    each node with its belief, predecessor and probability. With free, agent
    k branches over every own action, else plays g's (a full profile)."""
    layers = [start(spec, k, g)]
    for t in range(spec.T if depth is None else depth):
        own = None if free else g.actions_at(k, t, layers[t].codes)
        layers.append(step(spec, k, g, layers[t], own))
    return layers
