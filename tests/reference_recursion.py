"""The per-node belief recursion and backward pass that the layer arrays
replaced, kept as a test-local reference.

One node at a time: `children` runs the batched kernel on one belief and
one own action, `successors` builds each child's realization from
nested tuples (`advance_common`, `shift_private`), `expand` grows dicts
realization -> belief, and the backward pass and the belief-form cost loop
over those dicts with one stage and terminal value per node. The layer
path must give the same floats bit for bit.

Realizations here are the local records `Node` (a `Common` shared block
and a `Private` block), and lambda is a tuple of the other agents'
`Private` blocks in `other_private_space` order; they meet the package's
integer coding only through `encode` and `decode`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from delaypbp import info
from delaypbp.info import grid_size, other_agents, private_size, radices, shared_prefix_len
from delaypbp.model import IMPROVE_TOL


# --- the realization records --------------------------------------------------

@dataclass(frozen=True)
class Common:
    """The shared block at time t: per agent, the observation and action
    prefixes up to time t-n."""

    t: int
    n: int
    obs: tuple
    acts: tuple


@dataclass(frozen=True)
class Private:
    """Agent `agent`'s private block at time t."""

    t: int
    n: int
    agent: int
    obs: tuple
    acts: tuple


@dataclass(frozen=True)
class Node:
    common: Common
    private: Private


def encode(spec, r):
    return info.encode(spec, r.private.agent, r.common.t,
                       info.Blocks(r.common.obs, r.common.acts, r.private.obs, r.private.acts))


def decode(spec, k, t, code):
    b = info.decode(spec, k, t, code)
    return Node(Common(t, spec.n, b.shared_obs, b.shared_acts),
                Private(t, spec.n, k, b.own_obs, b.own_acts))


def other_private_space(spec, k, t):
    """Every lambda at time t: per other agent, its private blocks in
    (observations, actions) order, combined agent-major."""
    lo, la = info.private_obs_len(spec.n, t), info.private_act_len(spec.n, t)
    return tuple(itertools.product(*(
        [Private(t, spec.n, j, ys, us)
         for ys in itertools.product(range(spec.obs_sizes[j]), repeat=lo)
         for us in itertools.product(range(spec.act_sizes[j]), repeat=la)]
        for j in other_agents(spec.K, k))))


def seq_sum(v):
    return 0.0 + float(np.cumsum(v)[-1]) if len(v) else 0.0


def positive(b):
    xs, ls = np.nonzero(b > 0.0)
    return xs, ls, b[xs, ls]


def _frozen(b):
    b.setflags(write=False)
    return b


def shared_code(spec, common):
    """The code of a shared block alone: Horner's rule over its digits in
    `radices` order, i.e. an agent's code // its private_size."""
    code = 0
    for d, r in zip(itertools.chain(*common.obs, *common.acts), radices(spec, 0, common.t)):
        code = code * r + d
    return code


# --- the tuple advances -------------------------------------------------------

def advance_common(c, promoted_obs, promoted_acts):
    """Shared block at t+1: extend every agent's prefixes by the
    time-(t-n+1) symbols, or keep them empty while t+1 < n."""
    if shared_prefix_len(c.n, c.t + 1) == shared_prefix_len(c.n, c.t):
        return Common(t=c.t + 1, n=c.n, obs=c.obs, acts=c.acts)
    return Common(
        t=c.t + 1, n=c.n,
        obs=tuple(ys + (y,) for ys, y in zip(c.obs, promoted_obs)),
        acts=tuple(us + (u,) for us, u in zip(c.acts, promoted_acts)))


def shift_private(p, new_obs, new_act):
    """Private block at t+1: shed the oldest symbols once t >= n-1, then
    append the time-(t+1) observation and, with n >= 2, the time-t action."""
    drop = 1 if shared_prefix_len(p.n, p.t + 1) > shared_prefix_len(p.n, p.t) else 0
    return Private(t=p.t + 1, n=p.n, agent=p.agent, obs=p.obs[drop:] + (new_obs,),
                   acts=p.acts[drop:] + (new_act,) if p.n >= 2 else ())


def advance_other(lam, new_obs, new_acts):
    return tuple(shift_private(p, y, u) for p, y, u in zip(lam, new_obs, new_acts))


# --- one node at a time -------------------------------------------------------

class StepTable:
    def __init__(self, spec, k, t, lams, next_lams):
        others = self.others = other_agents(spec.K, k)
        X = spec.state_size
        self.lams = lams
        self.private_sizes = tuple(private_size(spec, j, t) for j in others)
        self.private_codes = (np.unravel_index(np.arange(len(lams)), self.private_sizes)
                              if others else ())
        self.first_obs = tuple(tuple(p.obs[0] for p in lam) for lam in lams)
        self.first_acts = tuple(tuple(p.acts[0] for p in lam if p.acts) for lam in lams)
        self.act_combos = tuple(itertools.product(*(range(spec.act_sizes[j]) for j in others)))
        self.joint = np.array([[np.ravel_multi_index(c[:k] + (u,) + c[k:], spec.act_sizes)
                                for c in self.act_combos] for u in range(spec.act_sizes[k])],
                              dtype=np.intp)
        if next_lams is None:
            return
        self.promote = shared_prefix_len(spec.n, t + 1) > shared_prefix_len(spec.n, t)
        self.trans = spec.transition[t].reshape(X, -1, X)
        self.own_lik = spec.observation[t + 1][k].T
        obs_combos = tuple(itertools.product(*(range(spec.obs_sizes[j]) for j in others)))
        self.other_lik = tuple(spec.observation[t + 1][j][:, [ys[pos] for ys in obs_combos]]
                               for pos, j in enumerate(others))
        next_index = {lam: i for i, lam in enumerate(next_lams)}
        self.succ = np.array([[[next_index[advance_other(lam, ys, us)]
                                for us in self.act_combos] for ys in obs_combos]
                              for lam in lams], dtype=np.intp)


class NodePass:
    """Agent k's posterior recursion, one realization at a time."""

    def __init__(self, spec, k, g):
        self.spec, self.k, self.g = spec, k, g
        self._tables = {}

    def table(self, t):
        if t not in self._tables:
            spec, k = self.spec, self.k
            nxt = other_private_space(spec, k, t + 1) if t < spec.T else None
            self._tables[t] = StepTable(spec, k, t, other_private_space(spec, k, t), nxt)
        return self._tables[t]

    def actions(self, common, ls):
        t, tab = common.t, self.table(common.t)
        shared, joint = shared_code(self.spec, common), None
        for j, size, pc in zip(tab.others, tab.private_sizes, tab.private_codes):
            codes = pc[ls] + shared * size
            a = self.g.maps[j][t][codes]
            if a.min() < 0:
                self.g.action_at(j, t, int(codes[a.argmin()]))
            joint = a if joint is None else joint * self.spec.act_sizes[j] + a
        return np.zeros_like(ls) if joint is None else joint

    def start(self):
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
                out.append((decode(spec, k, 0, y0), _frozen(mat / total), total))
        return out

    def children(self, common, xi, u):
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

    def next_common(self, r, u, revealed):
        c, p = r.common, r.private
        if not self.table(c.t).promote:
            return advance_common(c, (), ())
        obs, acts = list(revealed[0]), list(revealed[1])
        obs.insert(self.k, p.obs[0])
        acts.insert(self.k, p.acts[0] if self.spec.n >= 2 else u)
        return advance_common(c, tuple(obs), tuple(acts))

    def successors(self, r, xi, u):
        out, blocks = [], {}
        for revealed, y, b, w in self.children(r.common, xi, u):
            if revealed not in blocks:
                blocks[revealed] = self.next_common(r, u, revealed)
            out.append((Node(common=blocks[revealed],
                             private=shift_private(r.private, y, u)), b, w))
        return out

    def expand(self, free):
        """(nodes, edges): nodes[t] realization -> belief, edges[t] (realization,
        action) -> ((successor, step weight), ...), in expansion order."""
        spec, k = self.spec, self.k
        nodes = [dict() for _ in range(spec.T + 1)]
        edges = [dict() for _ in range(spec.T)]
        for r, b, _ in self.start():
            nodes[0][r] = b
        for t in range(spec.T):
            for r, xi in nodes[t].items():
                us = (range(spec.act_sizes[k]) if free
                      else (self.g.action_at(k, t, encode(spec, r)),))
                for u in us:
                    succ = []
                    for r1, b1, w in self.successors(r, xi, u):
                        assert r1 not in nodes[t + 1]
                        nodes[t + 1][r1] = b1
                        succ.append((r1, w))
                    edges[t][(r, u)] = tuple(succ)
        return nodes, edges

    def chain(self):
        """Per t, realization -> (belief, probability) along g."""
        nodes, edges = self.expand(free=False)
        prob = {r: w for r, _, w in self.start()}
        out = [{r: (b, prob[r]) for r, b in nodes[0].items()}]
        for t in range(self.spec.T):
            prob = {r1: prob[r] * w for (r, _), succ in edges[t].items() for r1, w in succ}
            out.append({r: (nodes[t + 1][r], p) for r, p in prob.items()})
        return out


# --- the per-node backward pass and belief-form cost --------------------------

def terminal_value(spec, belief):
    return seq_sum((spec.terminal_cost[:, None] * belief).reshape(-1))


def stage_value(spec, bp, r, xi, u):
    xs, ls, p = positive(xi)
    cost = spec.stage_cost[r.common.t].reshape(spec.state_size, -1)
    return seq_sum(p * cost[xs, bp.table(r.common.t).joint[u, bp.actions(r.common, ls)]])


def solve_best_response(spec, k, g):
    """(entries, maps): entries[t] realization -> (value, belief, best action)."""
    bp = NodePass(spec, k, g)
    nodes, edges = bp.expand(free=True)
    entries = [dict() for _ in range(spec.T + 1)]
    for r, xi in nodes[spec.T].items():
        entries[spec.T][r] = (terminal_value(spec, xi), xi, None)
    maps = [np.full(grid_size(spec, k, t), -1) for t in range(spec.T)]
    for t in range(spec.T - 1, -1, -1):
        for r, xi in nodes[t].items():
            best_u, best_v = None, None
            for u in range(spec.act_sizes[k]):
                v = stage_value(spec, bp, r, xi, u)
                for r1, w in edges[t][(r, u)]:
                    v += w * entries[t + 1][r1][0]
                if best_v is None or v < best_v:
                    best_u, best_v = u, v
            entries[t][r] = (best_v, xi, best_u)
            maps[t][encode(spec, r)] = best_u
    return entries, maps


def expected_value(spec, k, entries):
    prob = {r: w for r, _, w in NodePass(spec, k, None).start()}
    acc = 0.0
    for r, (value, _, _) in entries[0].items():
        acc += prob[r] * value
    return acc


def cost_via_beliefs(spec, g, k):
    bp = NodePass(spec, k, g)
    chain = bp.chain()
    acc = 0.0
    for t in range(spec.T):
        for r, (xi, pr) in chain[t].items():
            acc += pr * stage_value(spec, bp, r, xi, g.action_at(k, t, encode(spec, r)))
    for r, (xi, pr) in chain[spec.T].items():
        acc += pr * terminal_value(spec, xi)
    return float(acc)


def pbp_sweep(spec, g, max_rounds, improve_tol=IMPROVE_TOL):
    trace = []
    current = cost_via_beliefs(spec, g, 0)
    converged = False
    for _ in range(max_rounds):
        start = current
        for k in range(spec.K):
            _, maps = solve_best_response(spec, k, g)
            g = g.with_agent(k, [np.where(m < 0, 0, m) for m in maps])
            current = cost_via_beliefs(spec, g, 0)
            trace.append(current)
        if start - current <= improve_tol:
            converged = True
            break
    return g, trace, converged
