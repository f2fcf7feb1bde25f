"""Private posterior beliefs over the extended state.

Under delayed sharing, agent k cannot act on the plant state alone: the
other agents' recent private data steers their actions, so the object to
estimate is the extended state (x_t, lambda_t^{-k}) -- plant state plus
everyone else's private block. lambda is the tuple of the other agents'
`PrivateInfo` blocks, the type of agent k's own, and its index in
other_private_space is the mixed radix over their private codes, so each
other agent's action is one indexed read of its strategy array at
shared_code * private_size + private code. This module computes that
posterior by a one-step recursion (`BeliefPass`), which conditions on
agent k's new observation, its own action, and the symbols newly revealed
into the shared block. It must reproduce the definition-level posterior
(`oracle.posteriors`) and, for a single agent, the textbook filter
(`classical_filter_update`) kept here. `BeliefPass.expand` is the one
forward expansion: from every first observation to every positive-mass
child, with agent k's own action either free (the best-response DP, the
single-agent check) or read from its strategy (`chain`).

A belief is a read-only (state, lambda) float array over
other_private_space(spec, k, t), the type `oracle.posteriors` returns, so
filter and oracle posteriors compare as arrays. Zero-probability
continuations are left out rather than returned as non-distributions.

The recursion is an array kernel. Per (k, t) a `StepTable` holds what a
step reads that depends on neither the belief nor the strategies: the
lambdas and the others' private codes in them, the successor index
lambda -> lambda' per (the others' fresh symbols, their actions), the
symbols each lambda reveals into the shared block, and the kernels as
arrays. One pass over a belief and an own action produces every
positive-mass child (revealed symbols, next own observation) at once. Its arithmetic is ordered like a scalar loop over
the grid: products associate as ((p * T) * q_k) * q_j..., every cell
accumulates its terms in the C order of (x, lambda, y', x', y^{-k}) with
np.add.at, and scalar expectations sum left to right (`seq_sum`), so the
results do not depend on how the work is batched.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import UnreachableError
from .info import (CommonInfo, InfoRealization, Lam, advance_common, advance_other,
                   decode, other_agents, other_private_space, private_size,
                   shared_code, shared_prefix_len, shift_private)
from .model import ModelSpec


def seq_sum(v: np.ndarray) -> float:
    """Left-to-right sum from 0.0, bit for bit what `acc += v[i]` gives
    (np.sum sums pairwise)."""
    return 0.0 + float(np.cumsum(v)[-1]) if len(v) else 0.0


def positive(b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(state index, lambda index, probability) of a belief's positive-mass
    cells, in state-major order."""
    xs, ls = np.nonzero(b > 0.0)
    return xs, ls, b[xs, ls]


def _frozen(b: np.ndarray) -> np.ndarray:
    b.setflags(write=False)
    return b


def max_abs_gap(b: np.ndarray, ref: np.ndarray) -> float:
    """Largest |b - ref| over two beliefs on the same grid, such as a
    filter belief and its `oracle.posteriors` entry."""
    if b.shape != ref.shape:
        raise ValueError("beliefs live on different grids")
    return float(np.max(np.abs(b - ref)))


class StepTable:
    """Agent k's lambdas at time t and, for t < T, the belief- and
    strategy-free parts of a step to t+1 (next_lams is the lambdas at
    t+1, or None at t = T).

    Joint actions are flat indices into the (act_sizes[0], ...,
    act_sizes[K-1]) block of the kernels; the other agents' joint actions
    and fresh symbols are indices into their product orders.
    """

    def __init__(self, spec: ModelSpec, k: int, t: int, lams, next_lams):
        others = self.others = other_agents(spec.K, k)
        X = spec.state_size
        self.lams = lams
        # Per other agent, its number of private blocks and, per lambda, its
        # private code: the lambda index's digit in that radix.
        self.private_sizes = tuple(private_size(spec, j, t) for j in others)
        self.private_codes = (np.unravel_index(np.arange(len(lams)), self.private_sizes)
                              if others else ())
        # Per lambda, the others' oldest observations and actions: the
        # symbols a promotion moves into the shared block (no actions while
        # n = 1).
        self.first_obs = tuple(tuple(p.obs[0] for p in lam) for lam in lams)
        self.first_acts = tuple(tuple(p.acts[0] for p in lam if p.acts) for lam in lams)
        self.act_combos = tuple(itertools.product(*(range(spec.act_sizes[j]) for j in others)))
        # [u_k, others' joint action] -> joint action
        self.joint = np.array([[np.ravel_multi_index(c[:k] + (u,) + c[k:], spec.act_sizes)
                                for c in self.act_combos] for u in range(spec.act_sizes[k])],
                              dtype=np.intp)
        if next_lams is None:
            return
        self.promote = shared_prefix_len(spec.n, t + 1) > shared_prefix_len(spec.n, t)
        self.trans = spec.transition[t].reshape(X, -1, X)  # (x, joint action, x')
        self.own_lik = spec.observation[t + 1][k].T          # (y'_k, x')
        obs_combos = tuple(itertools.product(*(range(spec.obs_sizes[j]) for j in others)))
        # per other agent, (x', y'^{-k}) -> likelihood of its symbol
        self.other_lik = tuple(spec.observation[t + 1][j][:, [ys[pos] for ys in obs_combos]]
                               for pos, j in enumerate(others))
        # (lambda, y'^{-k}, u^{-k}) -> lambda' index at t+1
        next_index = {lam: i for i, lam in enumerate(next_lams)}
        self.succ = np.array([[[next_index[advance_other(lam, ys, us)]
                                for us in self.act_combos] for ys in obs_combos]
                              for lam in lams], dtype=np.intp)


class BeliefPass:
    """One forward pass of agent k's posterior against the other agents'
    strategies g_minus_k. Only `expand(free=False)` and `chain` read agent
    k's own maps, so they need a full profile.

    Holds the pass's step tables, which die with it. Strategies are read
    only at lambdas with positive mass in some belief, so maps covering
    just the reachable grid suffice.
    """

    def __init__(self, spec: ModelSpec, k: int, g_minus_k):
        self.spec, self.k, self.g = spec, k, g_minus_k
        self._lams: dict[int, tuple[Lam, ...]] = {}
        self._tables: dict[int, StepTable] = {}

    def _lam_space(self, t: int) -> tuple[Lam, ...]:
        if t not in self._lams:
            self._lams[t] = other_private_space(self.spec, self.k, t)
        return self._lams[t]

    def table(self, t: int) -> StepTable:
        if t not in self._tables:
            nxt = self._lam_space(t + 1) if t < self.spec.T else None
            self._tables[t] = StepTable(self.spec, self.k, t, self._lam_space(t), nxt)
        return self._tables[t]

    def actions(self, common: CommonInfo, ls: np.ndarray) -> np.ndarray:
        """The others' joint-action index at each lambda index in ls, under
        shared block `common`: one indexed read per other agent. A cell
        without an action raises the profile's IncompleteStrategyError."""
        t, tab = common.t, self.table(common.t)
        shared, joint = shared_code(self.spec, common), None
        for j, size, pc in zip(tab.others, tab.private_sizes, tab.private_codes):
            codes = pc[ls] + shared * size
            a = self.g.maps[j][t][codes]
            if a.min() < 0:
                self.g.action_at(j, t, int(codes[a.argmin()]))
            joint = a if joint is None else joint * self.spec.act_sizes[j] + a
        return np.zeros_like(ls) if joint is None else joint

    def start(self) -> list[tuple[InfoRealization, np.ndarray, float]]:
        """(realization, belief, probability) per reachable first
        observation of agent k."""
        spec, k = self.spec, self.k
        tab = self.table(0)
        out = []
        for y0 in range(spec.obs_sizes[k]):
            base = spec.init_dist * spec.observation[0][k][:, y0]
            mat = np.repeat(base[:, None], len(tab.lams), axis=1)
            for pos, j in enumerate(other_agents(spec.K, k)):
                mat = mat * spec.observation[0][j][:, [fo[pos] for fo in tab.first_obs]]
            total = float(mat.sum())
            if total > 0.0:
                # at t = 0 agent k's code is its first observation
                out.append((decode(spec, k, 0, y0), _frozen(mat / total), total))
        return out

    def children(self, common: CommonInfo, xi: np.ndarray, u: int
                 ) -> list[tuple[tuple, int, np.ndarray, float]]:
        """Every positive-mass continuation of xi (at shared block `common`)
        when agent k plays u, as (revealed, y', belief, weight).

        revealed is () when nothing is promoted at t+1, else the others'
        (observations, actions) moved into the shared block; children come
        in increasing (revealed, y') order. The weight is the probability
        of (revealed, y') given (xi, u), i.e. the step's normalizer.
        """
        spec, t = self.spec, common.t
        tab, nxt = self.table(t), self.table(t + 1)
        xs, ls, p = positive(xi)
        acts = self.actions(common, ls)
        if tab.promote:
            by_lam = {li: (tab.first_obs[li],
                           tab.first_acts[li] if spec.n >= 2 else tab.act_combos[a])
                      for li, a in zip(ls.tolist(), acts.tolist())}
            keys = sorted(set(by_lam.values()))
            slot = {key: i for i, key in enumerate(keys)}
            group = np.array([slot[by_lam[li]] for li in ls.tolist()], dtype=np.intp)
        else:
            keys, group = [()], np.zeros(len(ls), dtype=np.intp)

        rows = tab.trans[xs, tab.joint[u, acts]]
        w = ((p[:, None] * rows)[:, None, :] * tab.own_lik)[..., None]
        for lik in tab.other_lik:
            w = w * lik
        (Y, X1), L1 = tab.own_lik.shape, len(nxt.lams)
        cell = ((group[:, None, None, None] * Y + np.arange(Y)[:, None, None]) * X1
                + np.arange(X1)[:, None]) * L1 + tab.succ[ls, :, acts][:, None, None, :]
        acc = np.zeros(len(keys) * Y * X1 * L1)
        np.add.at(acc, cell.reshape(-1), w.reshape(-1))
        acc = acc.reshape(len(keys), Y, X1, L1)

        out = []
        for gi, key in enumerate(keys):
            for y in range(Y):
                mat = acc[gi, y]
                total = float(mat.sum())
                if total > 0.0:
                    out.append((key, y, _frozen(mat / total), total))
        return out

    def next_common(self, r: InfoRealization, u: int, revealed: tuple) -> CommonInfo:
        """The shared block at t+1 after realization r, own action u and the
        others' revealed symbols."""
        c, p = r.common, r.private
        if not self.table(c.t).promote:
            return advance_common(c, (), ())
        obs, acts = list(revealed[0]), list(revealed[1])
        obs.insert(self.k, p.obs[0])
        acts.insert(self.k, p.acts[0] if self.spec.n >= 2 else u)
        return advance_common(c, tuple(obs), tuple(acts))

    def successors(self, r: InfoRealization, xi: np.ndarray, u: int
                   ) -> list[tuple[InfoRealization, np.ndarray, float]]:
        """(next realization, its belief, step weight) per positive-mass
        child of (r, xi) under own action u, in canonical order."""
        out, blocks = [], {}
        for revealed, y, b, w in self.children(r.common, xi, u):
            if revealed not in blocks:
                blocks[revealed] = self.next_common(r, u, revealed)
            out.append((InfoRealization(common=blocks[revealed],
                                        private=shift_private(r.private, y, u)), b, w))
        return out

    def expand(self, free: bool):
        """Every realization reachable from the start, with its belief, and
        the steps between them.

        With free, agent k branches over every own action; otherwise it
        plays g's action (a full profile). Returns (nodes, edges): nodes[t]
        maps realization -> belief, edges[t] maps (realization, action) ->
        tuple of (successor, step weight), both in expansion order.
        """
        spec, k = self.spec, self.k
        nodes: list[dict[InfoRealization, np.ndarray]] = [dict() for _ in range(spec.T + 1)]
        edges: list[dict] = [dict() for _ in range(spec.T)]
        for r, b, _ in self.start():
            nodes[0][r] = b
        for t in range(spec.T):
            for r, xi in nodes[t].items():
                for u in range(spec.act_sizes[k]) if free else (self.g.action(k, t, r),):
                    succ = []
                    for r1, b1, w in self.successors(r, xi, u):
                        if r1 in nodes[t + 1]:
                            raise AssertionError(
                                "realization reached twice; predecessor not unique")
                        nodes[t + 1][r1] = b1
                        succ.append((r1, w))
                    edges[t][(r, u)] = tuple(succ)
        return nodes, edges

    def chain(self) -> list[dict[InfoRealization, tuple[np.ndarray, float]]]:
        """Per time t = 0..T, realization -> (belief, probability) along
        every realization reachable when agent k follows g (a full profile)."""
        nodes, edges = self.expand(free=False)
        prob = {r: w for r, _, w in self.start()}
        out = [{r: (b, prob[r]) for r, b in nodes[0].items()}]
        for t in range(self.spec.T):
            prob = {r1: prob[r] * w for (r, _), succ in edges[t].items() for r1, w in succ}
            out.append({r: (nodes[t + 1][r], p) for r, p in prob.items()})
        return out


def chained_beliefs(spec: ModelSpec, g_full, k: int
                    ) -> list[dict[InfoRealization, tuple[np.ndarray, float]]]:
    """Run the recursion along every realization reachable under g_full.

    Returns, per time t = 0..T, a map realization -> (belief, probability
    of the realization). Probabilities chain the step normalizers, so this
    path never enumerates trajectories.
    """
    return BeliefPass(spec, k, g_full).chain()


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
