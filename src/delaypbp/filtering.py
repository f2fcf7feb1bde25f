"""Private posterior beliefs over the extended state.

Under delayed sharing, agent k cannot act on the plant state alone: the
other agents' recent private data steers their actions, so the object to
estimate is the extended state (x_t, lambda_t^{-k}) -- plant state plus
the other agents' private blocks. A belief is a read-only (state,
lambda) float array whose lambda index is the mixed radix over the other
agents' private codes, the type `oracle.posteriors` returns per
realization code. `BeliefPass` computes it by a one-step recursion that
conditions on agent k's new observation, its own action, and the symbols
newly revealed into the shared block; it must reproduce
`oracle.posteriors` and, for a single agent, the textbook filter
(`classical_filter_update`) kept here. Zero-probability continuations are
left out rather than returned as non-distributions. `chained_beliefs`
keys its layers by realization code too; only the report writer decodes.

`BeliefPass.expand` is the one forward expansion, one time layer at a
time, with agent k's own action either free (the best-response DP, the
single-agent check) or read from its strategy (`chain`). A `Layer` holds
time t's nodes as arrays: realization codes, stacked beliefs, the others'
joint action per (node, lambda) -- one indexed read of each other agent's
strategy array per layer -- and each node's unique predecessor as (parent
index, own action, step weight). One `np.add.at` per (layer, own action)
produces every child, in (parent, own action, revealed, y') order, and
`info.next_codes` gives their codes. The arithmetic is that of a scalar
loop over each node's grid: products associate as ((p * T) * q_k) *
q_j..., every cell accumulates its terms in the C order of (x, lambda, y',
x', y^{-k}) -- cells of different nodes are disjoint -- and expectations
sum left to right (`seq_sum`), so no result depends on the batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnreachableError
from .info import next_codes, oldest, other_agents, private_size, shared_prefix_len, shift_code
from .model import ModelSpec


def seq_sum(v: np.ndarray) -> np.ndarray:
    """Left-to-right sums from 0.0 along the last axis, bit for bit what
    `acc += v[i]` gives (np.sum sums pairwise)."""
    return 0.0 + np.cumsum(v, axis=-1)[..., -1]


def max_abs_gap(b: np.ndarray, ref: np.ndarray) -> float:
    """Largest |b - ref| over two beliefs on the same grid, such as a
    filter belief and its `oracle.posteriors` entry."""
    if b.shape != ref.shape:
        raise ValueError("beliefs live on different grids")
    return float(np.max(np.abs(b - ref)))


class StepTable:
    """Agent k's lambda grid at time t and, for t < T, the belief- and
    strategy-free parts of a step to t+1.

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
        self.private_codes = _digits(np.arange(self.size), self.private_sizes)
        acts, ys = _digits(np.arange(n_acts), act_sizes), _digits(np.arange(n_obs), obs_sizes)
        # [u_k, others' joint action] -> joint action
        u = np.arange(spec.act_sizes[k])[:, None]
        self.joint = _radix([*acts[:k], u, *acts[k:]], spec.act_sizes) + np.zeros(n_acts, np.intp)
        if t == spec.T:
            return
        self.trans = spec.transition[t].reshape(X, -1, X)  # (x, joint action, x')
        self.own_lik = spec.observation[t + 1][k].T          # (y'_k, x')
        # per other agent, (x', y'^{-k}) -> likelihood of its symbol
        self.other_lik = tuple(spec.observation[t + 1][j][:, y] for j, y in zip(others, ys))
        # (lambda, y'^{-k}, u^{-k}) -> lambda' index at t+1
        self.succ = np.zeros((self.size, n_obs, n_acts), dtype=np.intp) + _radix(
            [shift_code(spec, j, t, pc[:, None, None], y[:, None], a)
             for j, pc, y, a in zip(others, self.private_codes, ys, acts)],
            [private_size(spec, j, t + 1) for j in others])
        # (lambda, u^{-k}) -> index of the symbols a step reveals into the
        # shared block: the others' oldest observations, then their oldest
        # actions (with n = 1 the actions they play now); one group while
        # nothing is promoted. Index order is the order of the revealed
        # tuples, so children sorted by group are sorted by them.
        self.shown_sizes, self.groups = obs_sizes + act_sizes, 1
        self.group = np.zeros((self.size, n_acts), dtype=np.intp)
        if shared_prefix_len(spec.n, t + 1) > shared_prefix_len(spec.n, t):
            first = [oldest(spec, j, t, pc) for j, pc in zip(others, self.private_codes)]
            shown_acts = (_radix([a[:, None] for _, a in first], act_sizes) if spec.n >= 2
                          else np.arange(n_acts))
            self.group += _radix([o[:, None] for o, _ in first], obs_sizes) * n_acts + shown_acts
            self.groups = n_obs * n_acts


def _digits(codes: np.ndarray, sizes: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """codes' digits in the mixed radix sizes (none for no sizes)."""
    return np.unravel_index(codes, sizes) if sizes else ()


def _radix(digits, sizes):
    """The mixed-radix number of digit arrays (0 for no digits)."""
    out = 0
    for d, size in zip(digits, sizes):
        out = out * size + d
    return out


@dataclass(frozen=True, eq=False)
class Layer:
    """Agent k's nodes at time t in expansion order: codes, read-only
    (node, state, lambda) beliefs and, before the horizon, the others'
    joint action per (node, lambda), 0 off the support. A node is reached
    from node `parent` of layer t-1 under own action `action` with step
    weight `weight`, the probability of its new symbols given the parent;
    at t = 0 parent and action are -1 and weight is p(first observation)."""

    t: int
    codes: np.ndarray
    beliefs: np.ndarray
    others_acts: np.ndarray | None
    parent: np.ndarray
    action: np.ndarray
    weight: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


class BeliefPass:
    """One forward pass of agent k's posterior against the other agents'
    strategies g_minus_k (None only without other agents), holding its
    step tables. Only `expand(free=False)` and `chain` read agent k's own
    maps. Strategies are read only where some belief has mass, so maps
    covering just the reachable grid suffice."""

    def __init__(self, spec: ModelSpec, k: int, g_minus_k):
        self.spec, self.k, self.g = spec, k, g_minus_k
        self._tables: dict[int, StepTable] = {}

    def table(self, t: int) -> StepTable:
        if t not in self._tables:
            self._tables[t] = StepTable(self.spec, self.k, t)
        return self._tables[t]

    def layer(self, t: int, codes, beliefs, parent, action, weight) -> Layer:
        """A layer of nodes with, before the horizon, the others' joint
        actions: one indexed read per other agent. A reached cell without
        an action raises the profile's IncompleteStrategyError."""
        others_acts = None
        if t < self.spec.T:
            tab, reached = self.table(t), (beliefs > 0.0).any(axis=1)
            shared = codes[:, None] // private_size(self.spec, self.k, t)
            others_acts = np.zeros(reached.shape, dtype=np.intp) + _radix(
                [self.g.actions_at(j, t, shared * size + pc, reached)
                 for j, size, pc in zip(tab.others, tab.private_sizes, tab.private_codes)],
                [self.spec.act_sizes[j] for j in tab.others])
        beliefs.setflags(write=False)
        return Layer(t, codes, beliefs, others_acts, parent, action, weight)

    def start(self) -> Layer:
        """The time-0 layer: one node per reachable first observation of
        agent k, whose code it is."""
        spec, k = self.spec, self.k
        tab = self.table(0)
        codes, beliefs, weights = [], [], []
        for y0 in range(spec.obs_sizes[k]):
            base = spec.init_dist * spec.observation[0][k][:, y0]
            mat = np.repeat(base[:, None], tab.size, axis=1)
            # at t = 0 a private code is the first observation
            for j, fo in zip(tab.others, tab.private_codes):
                mat = mat * spec.observation[0][j][:, fo]
            total = float(mat.sum())
            if total > 0.0:
                codes.append(y0)
                beliefs.append(mat / total)
                weights.append(total)
        none = np.full(len(codes), -1)
        return self.layer(0, np.array(codes), np.array(beliefs), none, none, np.array(weights))

    def children(self, lay: Layer, nodes: np.ndarray, us: np.ndarray):
        """Every positive-mass child of node nodes[i] when agent k plays
        us[i], over all i at once, as arrays (i, revealed group, y',
        belief, weight) in (i, group, y') order. The weight is the
        probability of (revealed, y') given the node's belief and action,
        i.e. the step's normalizer."""
        tab, L1 = self.table(lay.t), self.table(lay.t + 1).size
        (Y, X1), G = tab.own_lik.shape, tab.groups
        # positive-mass cells, pair-major and state-major within a pair
        i, xs, ls = np.nonzero(lay.beliefs[nodes] > 0.0)
        p, acts = lay.beliefs[nodes[i], xs, ls], lay.others_acts[nodes[i], ls]
        rows = tab.trans[xs, tab.joint[us[i], acts]]
        w = ((p[:, None] * rows)[:, None, :] * tab.own_lik)[..., None]
        for lik in tab.other_lik:
            w = w * lik
        cell = ((((i * G + tab.group[ls, acts])[:, None, None, None] * Y
                  + np.arange(Y)[:, None, None]) * X1 + np.arange(X1)[:, None]) * L1
                + tab.succ[ls, :, acts][:, None, None, :])
        acc = np.zeros(len(nodes) * G * Y * X1 * L1)
        np.add.at(acc, cell.reshape(-1), w.reshape(-1))
        acc = acc.reshape(-1, X1 * L1)
        totals = acc.sum(axis=1)
        keep = np.flatnonzero(totals > 0.0)
        return (keep // (G * Y), keep // Y % G, keep % Y,
                (acc[keep] / totals[keep, None]).reshape(-1, X1, L1), totals[keep])

    def step(self, lay: Layer, own: np.ndarray | None) -> Layer:
        """Layer t+1 from layer t: with own None agent k branches over every
        action, else node i plays own[i]. One kernel call covers every
        (node, action) pair, so children come in (parent, own action,
        revealed, y') order; each is reached once."""
        spec, k, t = self.spec, self.k, lay.t
        N, A = len(lay), spec.act_sizes[k]
        nodes, us = ((np.repeat(np.arange(N), A), np.tile(np.arange(A), N)) if own is None
                     else (np.arange(N), own))
        pair, group, y, beliefs, weight = self.children(lay, nodes, us)
        parent, u = nodes[pair], us[pair]
        codes = next_codes(spec, k, t, lay.codes[parent], u,
                           _digits(group, self.table(t).shown_sizes), y)
        if len(set(codes.tolist())) < len(codes):
            raise AssertionError("realization reached twice; predecessor not unique")
        return self.layer(t + 1, codes, beliefs, parent, u, weight)

    def expand(self, free: bool) -> list[Layer]:
        """The layers t = 0..T of every realization reachable from the
        start, each node with its belief and predecessor. With free, agent
        k branches over every own action; otherwise it plays g's action (a
        full profile)."""
        layers = [self.start()]
        for t in range(self.spec.T):
            own = None if free else self.g.actions_at(self.k, t, layers[t].codes)
            layers.append(self.step(layers[t], own))
        return layers

    def chain(self) -> tuple[list[Layer], list[np.ndarray]]:
        """The layers along every realization reachable when agent k follows
        g (a full profile), and per layer each node's probability: the
        product of the step weights along its path."""
        layers = self.expand(free=False)
        probs = [layers[0].weight]
        for lay in layers[1:]:
            probs.append(probs[-1][lay.parent] * lay.weight)
        return layers, probs


def chained_beliefs(spec: ModelSpec, g_full, k: int
                    ) -> list[dict[int, tuple[np.ndarray, float]]]:
    """Run the recursion along every realization reachable under g_full.

    Returns, per time t = 0..T, a map realization code -> (belief,
    probability of the realization), in expansion order. Probabilities
    chain the step normalizers, so this path never enumerates trajectories.
    """
    layers, probs = BeliefPass(spec, k, g_full).chain()
    return [{int(c): (b, float(p)) for c, b, p in zip(lay.codes, lay.beliefs, prob)}
            for lay, prob in zip(layers, probs)]


# ---------------------------------------------------------------------------
# Single-agent textbook filter.
# ---------------------------------------------------------------------------

def classical_filter_update(spec: ModelSpec, pi: np.ndarray, u: int, y_next: int,
                            t: int) -> np.ndarray:
    """One step of the standard partially-observed filter (K must be 1):
    predict through the transition kernel under action u, correct by the
    time-(t+1) observation likelihood, normalize."""
    if spec.K != 1:
        raise ValueError("classical_filter_update requires a single-agent model")
    pred = np.zeros(spec.state_size)
    for x1 in range(spec.state_size):
        acc = 0.0
        for x in range(spec.state_size):
            acc += float(spec.transition[t][(x, u, x1)]) * float(pi[x])
        pred[x1] = acc * float(spec.observation[t + 1][0][x1, y_next])
    total = float(pred.sum())
    if total <= 0.0:
        raise UnreachableError(f"unreachable observation y_next={y_next} at t={t}")
    return pred / total
