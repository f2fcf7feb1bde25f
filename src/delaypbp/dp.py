"""Best-response dynamic programming on the private posterior.

With the other agents' strategies frozen, agent k faces an ordinary
partially observed control problem whose sufficient statistic is the
triple (posterior over the extended state, shared block, private block).
The value recursion, `backward`, runs backward over the layers t < T of
`filtering.expand(free=True)` -- every realization reachable with agent
k's own actions left free -- one time layer per array step: the stage
values of every (node, own action), plus each child's step weight times
its value, added in child order, then the minimizing action per node,
ties to the smallest. The likelihoods of y' sum to 1, so the horizon is
priced through the prediction: at T-1, stage + (sum over (x, lambda), in C
order, of b times (sum over x' of T c_T)), each sum left to right. So the
sweep builds no time-T layer; the `solve` table's t = T rows and the
belief-form cost's terminal term read the horizon layer's state masses
(`filtering`), each node's c_T-weighted mass summed left to right over its
weight. The table is those layers, whose beliefs the values sit beside,
plus one value array per layer; the minimizing actions live once,
in the extracted strategy arrays. On top of that sit the payoff identity
(expected cost written through the posteriors), exact best-response
iteration toward a person-by-person stationary profile, and the dominance
check of the value function against arbitrary alternative strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnreachableError
from .filtering import Layer, expand, seq_sum, step, step_tables
from .info import grid_size, realization_keys
from .model import IMPROVE_TOL, ModelSpec
from .strategies import StrategyProfile


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Agent k's value table: per t < T the layer of `expand(free=True,
    depth=T-1)` and its values (`backward`); `solve_best_response` appends
    the horizon layer (`beliefs` hold (node, state) masses) and its values."""

    entries: tuple[Layer, ...]
    values: tuple[np.ndarray, ...]


def terminal_values(spec: ModelSpec, masses: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Expected terminal cost at each node of a horizon layer: its
    cost-weighted state mass summed left to right, over its weight."""
    return seq_sum(spec.terminal_cost * masses) / weights


def stage_values(spec: ModelSpec, k: int, lay: Layer, cost=None) -> np.ndarray:
    """(node, own action) -> expected stage cost (or the (state, joint
    action) table cost) at a node of agent k's layer when agent k plays
    that action and the others the joint actions the layer holds."""
    cost = spec.stage_cost[lay.t].reshape(spec.state_size, -1) if cost is None else cost
    # (node, u, lambda) -> joint action
    joint = step_tables(spec, k)[lay.t].joint[:, lay.others_acts].transpose(1, 0, 2)
    terms = lay.beliefs[:, None] * cost[np.arange(spec.state_size)[:, None], joint[:, :, None]]
    return seq_sum(terms.reshape(*joint.shape[:2], -1))


def horizon_values(spec: ModelSpec, k: int, lay: Layer) -> np.ndarray:
    """`stage_values` of the prediction sum_x' T(x, u, x') c_T(x') at T-1."""
    trans = spec.transition[lay.t].reshape(spec.state_size, -1, spec.state_size)
    return stage_values(spec, k, lay, seq_sum(trans * spec.terminal_cost))


def backward(spec: ModelSpec, k: int, g_minus_k) -> tuple[ValueTable, list[np.ndarray]]:
    """Backward induction for agent k against a frozen g_minus_k.

    Returns the value table (t < T) and, per decision time, the extracted
    strategy array (ties break toward the smallest action index). Its cells
    hold the minimizing action at exactly the reachable grid of the forward
    pass, and -1 elsewhere.
    """
    layers = expand(spec, k, g_minus_k, free=True, depth=spec.T - 1)
    values, g_maps = [], [np.full(grid_size(spec, k, t), -1) for t in range(spec.T)]
    for t in range(spec.T - 1, -1, -1):
        lay = layers[t]
        q = stage_values(spec, k, lay)
        if t == spec.T - 1:
            q += horizon_values(spec, k, lay)
        else:
            nxt = layers[t + 1]
            np.add.at(q, (nxt.parent, nxt.action), nxt.weight * values[-1])
        best = np.argmin(q, axis=1)
        values.append(q[np.arange(len(lay)), best])
        g_maps[t][lay.codes] = best
    return ValueTable(tuple(layers), tuple(values[::-1])), g_maps


def solve_best_response(spec: ModelSpec, k: int, g_minus_k) -> tuple[ValueTable, list[np.ndarray]]:
    """`backward`, its table extended by the horizon layer and its terminal values."""
    vtable, g_maps = backward(spec, k, g_minus_k)
    last = step(spec, k, g_minus_k, vtable.entries[-1], None, horizon=True)
    values = terminal_values(spec, last.beliefs, last.weight)
    return ValueTable((*vtable.entries, last), (*vtable.values, values)), g_maps


def expected_value(spec: ModelSpec, k: int, vtable: ValueTable) -> float:
    """Time-0 values averaged over the initial realizations with their
    probabilities (the time-0 layer's `prob`); equals the best-response
    cost of the extracted strategy."""
    return float(seq_sum(vtable.entries[0].prob * vtable.values[0]))


def cost_via_beliefs(spec: ModelSpec, g_full: StrategyProfile, k: int) -> float:
    """Expected total cost written through agent k's posteriors.

    Sums, over the realizations reachable under the full profile and
    weighted by their probabilities, the belief-expectation of the stage
    cost, plus the terminal term, left to right in (time, code) order.
    Uses only the layers of `expand(free=False, depth=T-1)` and the horizon
    layer `step` builds from the last; never enumerates trajectories.
    The result is the same number for every k.
    """
    layers = expand(spec, k, g_full, free=False, depth=spec.T - 1)
    own = g_full.actions_at(k, spec.T - 1, layers[-1].codes)
    last = step(spec, k, g_full, layers[-1], own, horizon=True)
    terms = [lay.prob * stage_values(spec, k, lay)[np.arange(len(lay)),
                                                   g_full.actions_at(k, lay.t, lay.codes)]
             for lay in layers]
    terms.append(last.prob * terminal_values(spec, last.beliefs, last.weight))
    return float(seq_sum(np.concatenate(terms)))


def pbp_sweep(spec: ModelSpec, g_init: StrategyProfile, max_rounds: int,
              improve_tol: float = IMPROVE_TOL
              ) -> tuple[StrategyProfile, list[float], bool]:
    """Exact best-response iteration.

    Each round replaces every agent's strategy in turn by its best response
    (`backward`'s, so no time-T layer is built) against the current others
    and records the team cost after each replacement: that best response's
    `expected_value` (the start profile is priced by `cost_via_beliefs`). A
    best response reads only the other agents' maps, so agent k's value is
    kept, and agent k's turn records it without solving again, until a
    replacement changes some agent's maps.
    Stops once a full round brings no strict decrease greater than
    improve_tol (converged=True) or after max_rounds. Extracted best
    responses get action 0 in their -1 cells, the structurally valid but
    currently unreachable realizations, so the profile stays total when the
    other agents move in later rounds; the fill never changes the cost at
    the time it is made.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    g = g_init
    trace: list[float] = []
    current = cost_via_beliefs(spec, g, 0)
    value: list[float | None] = [None] * spec.K
    converged = False
    for _ in range(max_rounds):
        start = current
        for k in range(spec.K):
            if value[k] is None:
                vtable, g_maps = backward(spec, k, g)
                g_new = g.with_agent(k, [np.where(m < 0, 0, m) for m in g_maps])
                value = value if g_new.agents_equal(g, k) else [None] * spec.K
                g, value[k] = g_new, expected_value(spec, k, vtable)
            current = value[k]
            trace.append(current)
        if start - current <= improve_tol:
            converged = True
            break
    return g, trace, converged


def verify_value_dominance(tree, vtable: ValueTable, maps_k
                           ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Table values beside the enumerated conditional cost-to-go of agent
    k's alternative per-time strategy arrays maps_k, read off agent k's
    `oracle.RealizationTree` for the profile the table was solved for: per
    t = 0..T, (codes, table values, alternative values), the table layer's
    increasing codes, which must be `cost_to_go`'s. A table without its
    time-T layer (`backward`'s) raises ValueError.

    The table must sit weakly below the alternative everywhere; the caller
    compares. A layer whose codes are not those the enumeration reaches
    raises UnreachableError, naming the first code one side lacks.
    """
    rows = []
    for t, (lay, values, (alt_codes, alt)) in enumerate(
            zip(vtable.entries, vtable.values, tree.cost_to_go(maps_k), strict=True)):
        if not np.array_equal(lay.codes, alt_codes):  # both increase, so one side lacks a code
            code = int(np.setxor1d(lay.codes, alt_codes)[0])
            side = "enumeration" if code in lay.codes else "value table"
            key = realization_keys(tree.spec, tree.k, t, [code])[0]
            raise UnreachableError(f"unreachable realization for agent {tree.k} at t={t}: the "
                                   f"{side} lacks {key}")
        rows.append((lay.codes, values, alt))
    return rows
