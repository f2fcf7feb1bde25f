"""The per-node belief recursion and backward pass that the layer arrays
replaced, kept as a test-local reference.

One node at a time: `children` runs the batched kernel on one belief and
one own action, `successors` builds each child's realization from
nested tuples (`advance_common`, `shift_private`), `expand` grows dicts
realization -> belief, and the backward pass and the belief-form cost loop
over those dicts with one stage and terminal value per node; the backward
pass prices the horizon at T-1 through the prediction (`horizon_value`),
as `dp.backward` does, and both take their time-T terms from `horizon`,
whose children hold state masses, predicted then corrected, as
`filtering.step`'s horizon layer does. The layer path must give the same
floats bit for bit.

Realizations here are the local records `Node` (a `Common` shared block
and a `Private` block), and lambda is a tuple of the other agents'
`Private` blocks in `other_private_space` order; they meet the package's
integer coding only through `encode` and `decode`. Those two rest on the
spelled-out form of a code, `Blocks`, which `decode_blocks` splits off a
code's `info.digits` and `encode_blocks` codes back by Horner's rule;
`spelled_key` writes a `Blocks` as the text key, the scalar reference the
package's array codec (`info.realization_keys`) is checked against.

The single-agent reduction is kept the same way: `classical_filter_update`
is the scalar textbook filter step, and `k1_reduction` chains it node by
node, one (node, action, observation) at a time, as the layer-wise
`falsify.check_k1_reduction` must to the bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from delaypbp import info
from delaypbp.errors import UnreachableError
from delaypbp.falsify import make_report
from delaypbp.filtering import expand
from delaypbp.info import (grid_size, newest_obs, other_agents, private_size, radices,
                           shared_prefix_len)
from delaypbp.model import IMPROVE_TOL
from reference_oracle import action_at


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


class Blocks(NamedTuple):
    """A realization's symbols in code order: per agent, the shared
    observations and the shared actions; then the owner's private
    observations and private actions."""

    shared_obs: tuple
    shared_acts: tuple
    own_obs: tuple
    own_acts: tuple


def decode_blocks(spec, k, t, code):
    """The blocks of agent k's time-t realization with the given code."""
    ds = [int(d) for d in info.digits(code, radices(spec, k, t))]
    cut, lo, K = shared_prefix_len(spec.n, t), info.private_obs_len(spec.n, t), spec.K
    per_agent = [tuple(ds[i * cut:(i + 1) * cut]) for i in range(2 * K)]
    own = ds[2 * K * cut:]
    return Blocks(tuple(per_agent[:K]), tuple(per_agent[K:]), tuple(own[:lo]), tuple(own[lo:]))


def encode_blocks(spec, k, t, blocks):
    """Agent k's time-t code of the given blocks; decode_blocks' inverse."""
    code = 0
    for d, r in zip(itertools.chain(*blocks.shared_obs, *blocks.shared_acts, blocks.own_obs,
                                    blocks.own_acts), radices(spec, k, t)):
        code = code * r + d
    return code


def _spelled_block(obs, acts):
    return "-".join(map(str, obs)) + "/" + "-".join(map(str, acts))


def spelled_key(spec, k, t, code):
    """The text key of agent k's time-t code, e.g. ``c(0/1;1/0)p(1/)`` for
    K=2, n=1, t=1: per agent its shared observations '/' shared actions,
    joined by ';', then the private block, symbols joined by '-'."""
    b = decode_blocks(spec, k, t, code)
    common = ";".join(map(_spelled_block, b.shared_obs, b.shared_acts))
    return f"c({common})p({_spelled_block(b.own_obs, b.own_acts)})"


def encode(spec, r):
    return encode_blocks(spec, r.private.agent, r.common.t,
                         Blocks(r.common.obs, r.common.acts, r.private.obs, r.private.acts))


def decode(spec, k, t, code):
    b = decode_blocks(spec, k, t, code)
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
    """The code of a shared block alone, i.e. an agent's code // its
    private_size: Horner's rule over the shared digits, which lead."""
    return encode_blocks(spec, 0, common.t, Blocks(common.obs, common.acts, (), ()))


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
                self.g.actions_at(j, t, codes[[a.argmin()]])
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

    def children(self, common, xi, u, horizon=False):
        """Per (revealed, y') with mass, its belief and weight; with horizon
        (at T-1), its state mass in place of its belief: the prediction
        summed over (x, lambda) per (revealed, x'), then times q_k."""
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
        (Y, X1), L1 = tab.own_lik.shape, len(nxt.lams)
        if horizon:
            pred = np.zeros(len(keys) * X1)
            np.add.at(pred, (group[:, None] * X1 + np.arange(X1)).reshape(-1),
                      (p[:, None] * rows).reshape(-1))
            acc = pred.reshape(len(keys), 1, X1) * tab.own_lik
        else:
            w = ((p[:, None] * rows)[:, None, :] * tab.own_lik)[..., None]
            for lik in tab.other_lik:
                w = w * lik
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
                    out.append((key, y, _frozen(mat.copy() if horizon else mat / total), total))
        return out

    def next_common(self, r, u, revealed):
        c, p = r.common, r.private
        if not self.table(c.t).promote:
            return advance_common(c, (), ())
        obs, acts = list(revealed[0]), list(revealed[1])
        obs.insert(self.k, p.obs[0])
        acts.insert(self.k, p.acts[0] if self.spec.n >= 2 else u)
        return advance_common(c, tuple(obs), tuple(acts))

    def successors(self, r, xi, u, horizon=False):
        out, blocks = [], {}
        for revealed, y, b, w in self.children(r.common, xi, u, horizon):
            if revealed not in blocks:
                blocks[revealed] = self.next_common(r, u, revealed)
            out.append((Node(common=blocks[revealed],
                             private=shift_private(r.private, y, u)), b, w))
        return out

    def expand(self, free, depth=None):
        """(nodes, edges) for t = 0..depth (T by default): nodes[t]
        realization -> belief in `encode` order, edges[t] (realization,
        action) -> ((successor, step weight), ...) in expansion order."""
        spec, k = self.spec, self.k
        depth = spec.T if depth is None else depth
        nodes = [dict() for _ in range(depth + 1)]
        edges = [dict() for _ in range(depth)]
        for r, b, _ in self.start():
            nodes[0][r] = b
        for t in range(depth):
            for r, xi in nodes[t].items():
                us = (range(spec.act_sizes[k]) if free
                      else (action_at(self.g, k, t, encode(spec, r)),))
                for u in us:
                    succ = []
                    for r1, b1, w in self.successors(r, xi, u):
                        assert r1 not in nodes[t + 1]
                        nodes[t + 1][r1] = b1
                        succ.append((r1, w))
                    edges[t][(r, u)] = tuple(succ)
            nodes[t + 1] = dict(sorted(nodes[t + 1].items(), key=lambda e: encode(spec, e[0])))
        return nodes, edges

    def chain(self, depth=None):
        """Per t = 0..depth (T by default), realization -> (belief,
        probability) along g, in `encode` order."""
        nodes, edges = self.expand(free=False, depth=depth)
        prob = {r: w for r, _, w in self.start()}
        out = [{r: (b, prob[r]) for r, b in nodes[0].items()}]
        for t in range(len(edges)):
            prob = {r1: prob[r] * w for (r, _), succ in edges[t].items() for r1, w in succ}
            out.append({r: (b, prob[r]) for r, b in nodes[t + 1].items()})
        return out


# --- the per-node backward pass and belief-form cost --------------------------

def terminal_value(spec, mass, total):
    """The expected terminal cost of a horizon child: its cost-weighted
    state mass summed left to right, over its weight."""
    return seq_sum(spec.terminal_cost * mass) / total


def horizon(spec, bp, nodes, actions):
    """The horizon children of the time-(T-1) nodes (realization -> belief)
    when node r plays each of actions(r): realization -> (state mass,
    weight, parent), in `encode` order."""
    out = {}
    for r, xi in nodes.items():
        for u in actions(r):
            for r1, mass, w in bp.successors(r, xi, u, horizon=True):
                assert r1 not in out
                out[r1] = (mass, w, r)
    return dict(sorted(out.items(), key=lambda e: encode(spec, e[0])))


def stage_value(spec, bp, r, xi, u):
    xs, ls, p = positive(xi)
    cost = spec.stage_cost[r.common.t].reshape(spec.state_size, -1)
    return seq_sum(p * cost[xs, bp.table(r.common.t).joint[u, bp.actions(r.common, ls)]])


def prediction(spec):
    """Per (state, joint action) at T-1, T(x, u, x') c_T(x') summed over x'
    left to right."""
    X = spec.state_size
    return np.array([[seq_sum(row * spec.terminal_cost) for row in rows]
                     for rows in spec.transition[spec.T - 1].reshape(X, -1, X)])


def horizon_value(spec, bp, r, xi, u, pred):
    """The expected terminal cost after (r, u) at T-1: the prediction pred
    read under the belief as `stage_value` reads the stage cost."""
    xs, ls, p = positive(xi)
    return seq_sum(p * pred[xs, bp.table(r.common.t).joint[u, bp.actions(r.common, ls)]])


def solve_best_response(spec, k, g):
    """(entries, maps): entries[t] realization -> (value, belief, best action).
    At T-1 a value is stage plus horizon value; the time-T entries are the
    horizon children, (terminal value, state mass, None), which no earlier
    value reads."""
    bp = NodePass(spec, k, g)
    nodes, edges = bp.expand(free=True, depth=spec.T - 1)
    entries = [dict() for _ in range(spec.T + 1)]
    last = horizon(spec, bp, nodes[spec.T - 1], lambda r: range(spec.act_sizes[k]))
    entries[spec.T] = {r: (terminal_value(spec, mass, w), mass, None)
                       for r, (mass, w, _) in last.items()}
    maps = [np.full(grid_size(spec, k, t), -1) for t in range(spec.T)]
    pred = prediction(spec)
    for t in range(spec.T - 1, -1, -1):
        for r, xi in nodes[t].items():
            best_u, best_v = None, None
            for u in range(spec.act_sizes[k]):
                v = stage_value(spec, bp, r, xi, u)
                if t == spec.T - 1:
                    v += horizon_value(spec, bp, r, xi, u, pred)
                else:
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
    chain = bp.chain(depth=spec.T - 1)
    acc = 0.0
    for t in range(spec.T):
        for r, (xi, pr) in chain[t].items():
            acc += pr * stage_value(spec, bp, r, xi, action_at(g, k, t, encode(spec, r)))
    last = horizon(spec, bp, {r: xi for r, (xi, _) in chain[-1].items()},
                   lambda r: (action_at(g, k, spec.T - 1, encode(spec, r)),))
    for mass, w, r in last.values():
        acc += chain[-1][r][1] * w * terminal_value(spec, mass, w)
    return float(acc)


def pbp_sweep(spec, g, max_rounds, improve_tol=IMPROVE_TOL):
    trace = []
    current = cost_via_beliefs(spec, g, 0)
    converged = False
    for _ in range(max_rounds):
        start = current
        for k in range(spec.K):
            entries, maps = solve_best_response(spec, k, g)
            g = g.with_agent(k, [np.where(m < 0, 0, m) for m in maps])
            current = expected_value(spec, k, entries)
            trace.append(current)
        if start - current <= improve_tol:
            converged = True
            break
    return g, trace, converged


# --- the single-agent reduction, one node at a time -----------------------------

def classical_filter_update(spec, pi, u, y_next, t):
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


def k1_reduction(spec):
    """`falsify.check_k1_reduction` per node: the textbook filter of every
    node as a (vector, label) pair, None where only the recursion reaches
    the node, chained by one `classical_filter_update` per (node, action,
    observation)."""
    layers = expand(spec, 0, None, free=True)
    gaps = []
    filt = []
    for y0 in range(spec.obs_sizes[0]):
        raw = spec.init_dist * spec.observation[0][0][:, y0]
        total = float(raw.sum())
        if y0 in layers[0].codes:  # at t = 0 the code is the first observation
            filt.append((raw / total, f"y0={y0}"))
        elif total > 0.0:
            gaps.append((f"y0={y0} (reachability disagrees)", 1.0))
    for t, lay in enumerate(layers):
        kept = [(i, node) for i, node in enumerate(filt) if node is not None]
        gaps += [(label, float(np.max(np.abs(np.cumsum(lay.beliefs[i], axis=1)[:, -1] - pi))))
                 for i, (pi, label) in kept]
        if t == spec.T:
            break
        nxt, shape = layers[t + 1], (len(lay), spec.act_sizes[0], spec.obs_sizes[0])
        child = np.full(shape, -1)
        child[nxt.parent, nxt.action, newest_obs(spec, 0, t + 1, nxt.codes)] = np.arange(len(nxt))
        children = [None] * len(nxt)
        for i, (pi, label) in kept:
            for u, y1 in itertools.product(range(shape[1]), range(shape[2])):
                step_label, c = f"{label},u={u},y={y1}", int(child[i, u, y1])
                try:
                    pi1 = classical_filter_update(spec, pi, u, y1, t)
                except UnreachableError:
                    pi1 = None
                if (pi1 is None) != (c < 0):
                    gaps.append((f"{step_label} (reachability disagrees)", 1.0))
                elif c >= 0:
                    children[c] = (pi1, step_label)
        filt = children
    return make_report("single-agent filter reduction", gaps)
