"""Best-response dynamic programming on the private posterior.

With the other agents' strategies frozen, agent k faces an ordinary
partially observed control problem whose sufficient statistic is the
triple (posterior over the extended state, shared block, private block).
The value recursion here runs backward over the layers of
`BeliefPass.expand(free=True)` -- every realization reachable with agent
k's own actions left free -- one time layer per array step: the stage
values of every (node, own action), plus each child's step weight times
its value, added in child order, then the minimizing action per node,
ties to the smallest. The table keeps each layer, whose (state, lambda)
beliefs sit alongside the values. On top of that sit the payoff identity
(expected cost written through the posteriors), exact best-response
iteration toward a person-by-person stationary profile, and the dominance
check of the value function against arbitrary alternative strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .errors import UnreachableError
from .filtering import BeliefPass, Layer, seq_sum
from .info import grid_size
from .model import COMPARE_TOL, IMPROVE_TOL, ModelSpec
from .strategies import StrategyProfile


@dataclass(frozen=True, eq=False)
class ValueLayer:
    """Agent k's value-table rows at one time: the nodes of a layer with
    their values and, before the horizon, minimizing actions."""

    layer: Layer
    values: np.ndarray
    best_actions: np.ndarray | None  # None at the terminal time

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Per time t = 0..T, agent k's value/argmin/belief per node."""

    agent: int
    entries: tuple[ValueLayer, ...]


def terminal_values(spec: ModelSpec, beliefs: np.ndarray) -> np.ndarray:
    """Expected terminal cost under each of a stack of time-T beliefs.
    Zero-mass terms add nothing, so each sum runs over the whole grid."""
    return seq_sum((spec.terminal_cost[:, None] * beliefs).reshape(len(beliefs), -1))


def stage_values(spec: ModelSpec, bp: BeliefPass, lay: Layer) -> np.ndarray:
    """(node, own action) -> expected stage cost at a layer's node when
    agent k plays that action and the others their strategies (those of
    the pass bp)."""
    cost = spec.stage_cost[lay.t].reshape(spec.state_size, -1)
    joint = bp.table(lay.t).joint[:, lay.others_acts].transpose(1, 0, 2)  # (node, u, lambda)
    terms = lay.beliefs[:, None] * cost[np.arange(spec.state_size)[:, None], joint[:, :, None]]
    return seq_sum(terms.reshape(*joint.shape[:2], -1))


def solve_best_response(spec: ModelSpec, k: int, g_minus_k
                        ) -> tuple[ValueTable, list[np.ndarray]]:
    """Backward induction for agent k against a frozen g_minus_k.

    Returns the value table and, per decision time, the extracted strategy
    array (ties break toward the smallest action index). Its cells hold
    the minimizing action at exactly the reachable grid of the forward
    pass, and -1 elsewhere.
    """
    bp = BeliefPass(spec, k, g_minus_k)
    layers = bp.expand(free=True)
    values = terminal_values(spec, layers[spec.T].beliefs)
    entries = [ValueLayer(layers[spec.T], values, None)]
    g_maps = [np.full(grid_size(spec, k, t), -1) for t in range(spec.T)]
    for t in range(spec.T - 1, -1, -1):
        lay, nxt = layers[t], layers[t + 1]
        q = stage_values(spec, bp, lay)
        np.add.at(q, (nxt.parent, nxt.action), nxt.weight * values)
        best = np.argmin(q, axis=1)
        values = q[np.arange(len(lay)), best]
        g_maps[t][lay.codes] = best
        entries.append(ValueLayer(lay, values, best))
    return ValueTable(agent=k, entries=tuple(entries[::-1])), g_maps


def expected_value(spec: ModelSpec, k: int, vtable: ValueTable) -> float:
    """Time-0 values averaged over the initial realizations with their
    probabilities (the time-0 layer's weights, as in `chain`); equals the
    best-response cost of the extracted strategy."""
    first = vtable.entries[0]
    return float(seq_sum(first.layer.weight * first.values))


def cost_via_beliefs(spec: ModelSpec, g_full: StrategyProfile, k: int) -> float:
    """Expected total cost written through agent k's posteriors.

    Sums, over the realizations reachable under the full profile and
    weighted by their probabilities, the belief-expectation of the stage
    cost, plus the terminal term, left to right in (time, expansion)
    order. Uses only the filter chain (beliefs and step normalizers);
    never enumerates trajectories. The result is the same number for
    every k.
    """
    bp = BeliefPass(spec, k, g_full)
    layers, probs = bp.chain()
    terms = [pr * stage_values(spec, bp, lay)[np.arange(len(lay)),
                                              g_full.actions_at(k, lay.t, lay.codes)]
             for lay, pr in zip(layers[:-1], probs)]
    terms.append(probs[-1] * terminal_values(spec, layers[-1].beliefs))
    return float(seq_sum(np.concatenate(terms)))


def pbp_sweep(spec: ModelSpec, g_init: StrategyProfile, max_rounds: int,
              improve_tol: float = IMPROVE_TOL
              ) -> tuple[StrategyProfile, list[float], bool]:
    """Exact best-response iteration.

    Each round replaces every agent's strategy in turn by its best response
    against the current others, recording the team cost after each
    replacement. Stops once a full round brings no strict decrease greater
    than improve_tol (converged=True) or after max_rounds. Extracted best
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
    converged = False
    for _ in range(max_rounds):
        start = current
        for k in range(spec.K):
            _, g_maps = solve_best_response(spec, k, g)
            g = g.with_agent(k, [np.where(m < 0, 0, m) for m in g_maps])
            current = cost_via_beliefs(spec, g, 0)
            trace.append(current)
        if start - current <= improve_tol:
            converged = True
            break
    return g, trace, converged


@dataclass(frozen=True)
class DominanceEntry:
    t: int
    code: int  # agent k's time-t realization code
    table_value: float
    alt_value: float


@dataclass(frozen=True)
class DominanceReport:
    """Value-table dominance against one alternative agent-k strategy."""

    entries: tuple[DominanceEntry, ...]
    tol: float

    @property
    def violations(self) -> tuple[DominanceEntry, ...]:
        return tuple(e for e in self.entries if e.table_value > e.alt_value + self.tol)

    @property
    def max_abs_gap(self) -> float:
        return max((abs(e.table_value - e.alt_value) for e in self.entries), default=0.0)


def verify_value_dominance(tree: oracle.RealizationTree, vtable: ValueTable, maps_k,
                           tol: float = COMPARE_TOL) -> DominanceReport:
    """Check table values against the enumerated conditional cost-to-go of
    agent k's alternative per-time strategy arrays maps_k, read off agent
    k's realization tree against the profile the table was solved for, at
    every time and reachable realization, in code order per time.

    The table must sit weakly below the alternative everywhere; violations
    are reported as data, not raised. A table realization the enumeration
    does not reach raises UnreachableError.
    """
    rows = []
    for t, (entry, alt) in enumerate(zip(vtable.entries, tree.cost_to_go(maps_k))):
        codes = entry.layer.codes
        for i in np.argsort(codes):
            code = int(codes[i])
            if code not in alt:
                raise UnreachableError(f"unreachable realization for agent {tree.k} at t={t}")
            rows.append(DominanceEntry(t=t, code=code, table_value=float(entry.values[i]),
                                       alt_value=alt[code]))
    return DominanceReport(entries=tuple(rows), tol=tol)
