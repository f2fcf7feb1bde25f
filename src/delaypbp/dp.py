"""Best-response dynamic programming on the private posterior.

With the other agents' strategies frozen, agent k faces an ordinary
partially observed control problem whose sufficient statistic is the
triple (posterior over the extended state, shared block, private block).
The value recursion here runs backward over `BeliefPass.expand(free=True)`
-- every realization reachable with agent k's own actions left free --
storing the chained posterior, a (state, lambda) array, alongside each
entry, and extracts the minimizing action per realization. On top of that
sit the payoff identity (expected cost written through the posteriors),
exact best-response iteration toward a person-by-person stationary
profile, and the dominance check of the value function against arbitrary
alternative strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .errors import UnreachableError
from .filtering import BeliefPass, positive, seq_sum
from .info import InfoRealization, encode, grid_size, ordered, realization_key
from .model import COMPARE_TOL, IMPROVE_TOL, ModelSpec
from .strategies import StrategyProfile


@dataclass(frozen=True)
class ValueEntry:
    value: float
    belief: np.ndarray
    best_action: int | None  # None at the terminal time


@dataclass(frozen=True, eq=False)
class ValueTable:
    """Per time t = 0..T, agent k's value/argmin/belief per realization."""

    agent: int
    entries: tuple[dict[InfoRealization, ValueEntry], ...]


def terminal_value(spec: ModelSpec, k: int, belief: np.ndarray) -> float:
    """Expected terminal cost under a time-T belief. Zero-mass terms add
    nothing, so the sum runs over the whole grid."""
    return seq_sum((spec.terminal_cost[:, None] * belief).reshape(-1))


def stage_value(spec: ModelSpec, bp: BeliefPass, r: InfoRealization, xi: np.ndarray,
                u_t_k: int) -> float:
    """Expected stage cost at realization r when agent k plays u_t_k and
    the others play their strategies (those of the pass bp) on the
    belief's support."""
    xs, ls, p = positive(xi)
    cost = spec.stage_cost[r.t].reshape(spec.state_size, -1)
    return seq_sum(p * cost[xs, bp.table(r.t).joint[u_t_k, bp.actions(r.common, ls)]])


def solve_best_response(spec: ModelSpec, k: int, g_minus_k
                        ) -> tuple[ValueTable, list[np.ndarray]]:
    """Backward induction for agent k against a frozen g_minus_k.

    Returns the value table and, per decision time, the extracted strategy
    array (ties break toward the smallest action index). Its cells hold
    the minimizing action at exactly the reachable grid of the forward
    pass, and -1 elsewhere.
    """
    bp = BeliefPass(spec, k, g_minus_k)
    nodes, edges = bp.expand(free=True)
    entries: list[dict[InfoRealization, ValueEntry]] = [dict() for _ in range(spec.T + 1)]
    for r, xi in nodes[spec.T].items():
        entries[spec.T][r] = ValueEntry(value=terminal_value(spec, k, xi),
                                        belief=xi, best_action=None)
    g_maps = [np.full(grid_size(spec, k, t), -1) for t in range(spec.T)]
    for t in range(spec.T - 1, -1, -1):
        for r, xi in nodes[t].items():
            best_u, best_v = None, None
            for u in range(spec.act_sizes[k]):
                v = stage_value(spec, bp, r, xi, u)
                for r1, w in edges[t][(r, u)]:
                    v += w * entries[t + 1][r1].value
                if best_v is None or v < best_v:
                    best_u, best_v = u, v
            entries[t][r] = ValueEntry(value=best_v, belief=xi, best_action=best_u)
            g_maps[t][encode(spec, r)] = best_u
    return ValueTable(agent=k, entries=tuple(entries)), g_maps


def expected_value(spec: ModelSpec, k: int, vtable: ValueTable) -> float:
    """Time-0 values averaged over the initial realizations with their
    probabilities (the weights `BeliefPass.start` gives, as in `chain`);
    equals the best-response cost of the extracted strategy."""
    prob = {r: w for r, _, w in BeliefPass(spec, k, None).start()}
    acc = 0.0
    for r, entry in vtable.entries[0].items():
        acc += prob[r] * entry.value
    return acc


def cost_via_beliefs(spec: ModelSpec, g_full: StrategyProfile, k: int) -> float:
    """Expected total cost written through agent k's posteriors.

    Sums, over the realizations reachable under the full profile and
    weighted by their probabilities, the belief-expectation of the stage
    cost, plus the terminal term. Uses only the filter chain (beliefs and
    step normalizers); never enumerates trajectories. The result is the
    same number for every k.
    """
    bp = BeliefPass(spec, k, g_full)
    chain = bp.chain()
    acc = 0.0
    for t in range(spec.T):
        for r, (xi, pr) in chain[t].items():
            u = g_full.action(k, t, r)
            acc += pr * stage_value(spec, bp, r, xi, u)
    for r, (xi, pr) in chain[spec.T].items():
        acc += pr * terminal_value(spec, k, xi)
    return float(acc)


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
    key: str
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


def verify_value_dominance(spec: ModelSpec, k: int, g_minus_k: StrategyProfile,
                           vtable: ValueTable, maps_k, tol: float = COMPARE_TOL
                           ) -> DominanceReport:
    """Check table values against the enumerated conditional cost-to-go of
    agent k's alternative per-time strategy arrays maps_k, at every time
    and reachable realization.

    The table must sit weakly below the alternative everywhere; violations
    are reported as data, not raised. A table realization the enumeration
    does not reach raises UnreachableError.
    """
    g = g_minus_k.with_agent(k, maps_k)
    rows = []
    for t in range(spec.T + 1):
        alt = oracle.cost_to_go(spec, k, g, t)
        for r in ordered(spec, vtable.entries[t]):
            if r not in alt:
                raise UnreachableError(f"unreachable realization for agent {k} at t={t}")
            rows.append(DominanceEntry(t=t, key=realization_key(r),
                                       table_value=vtable.entries[t][r].value,
                                       alt_value=alt[r]))
    return DominanceReport(entries=tuple(rows), tol=tol)
