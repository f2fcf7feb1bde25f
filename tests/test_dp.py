import itertools

import numpy as np
import pytest

from conftest import (dominance_violations, five_profiles, layer_nodes, max_abs_gap,
                      others_play, random_model, rows_at, tiny_uniform_t1)
from delaypbp import dp, oracle
from delaypbp.dp import (ValueTable, backward, cost_via_beliefs, expected_value,
                         horizon_values, pbp_sweep, solve_best_response, stage_values,
                         terminal_values, verify_value_dominance)
from delaypbp.filtering import expand, seq_sum, start, step
from delaypbp.info import grid_size
from delaypbp.model import IMPROVE_TOL
from delaypbp.strategies import (constant_profile, observation_following_profile,
                                 random_profile)
from reference_recursion import decode as decode_node
from reference_recursion import decode_blocks, other_private_space
from test_layer_recursion import MODELS, bits, model
from test_oracle import truncate_to_t1, zero_cost_variant


# --- terminal values ----------------------------------------------------------

def full_terminal_values(spec, beliefs):
    """Expected terminal cost under each of a stack of time-T (state,
    lambda) beliefs, each summed left to right over the whole grid: the
    terminal term before the horizon layer."""
    return seq_sum((spec.terminal_cost[:, None] * beliefs).reshape(len(beliefs), -1))


def chain_layers(spec, k, g):
    """The layers t < T of `expand(free=False)` and the horizon layer
    `step` builds from the last, as `cost_via_beliefs` reads them."""
    layers = expand(spec, k, g, free=False, depth=spec.T - 1)
    own = g.actions_at(k, spec.T - 1, layers[-1].codes)
    return [*layers, step(spec, k, g, layers[-1], own, horizon=True)]


def test_terminal_value_zero_cost(canon_2a):
    spec = zero_cost_variant(canon_2a)
    g = constant_profile(spec, 0)
    last = chain_layers(spec, 0, g)[spec.T]
    assert np.all(terminal_values(spec, last.beliefs, last.weight) == 0.0)


def test_terminal_value_point_mass(canon_2a):
    point = np.zeros((1, canon_2a.state_size))
    x_star = canon_2a.state_size - 1
    point[0, x_star] = 0.25
    assert terminal_values(canon_2a, point, np.array([0.25]))[0] == \
        canon_2a.terminal_cost[x_star]


def test_terminal_value_matches_oracle_expectation(canon_2a):
    """A horizon node's masses over its weight are the oracle's posterior
    state marginal, and its terminal value that marginal's expectation."""
    g = observation_following_profile(canon_2a)
    t = canon_2a.T
    last = chain_layers(canon_2a, 0, g)[t]
    posts = rows_at(oracle.posteriors(canon_2a, g, 0)[t], last.codes)
    values = terminal_values(canon_2a, last.beliefs, last.weight)
    for mass, w, value, post in zip(last.beliefs, last.weight, values, posts):
        assert np.max(np.abs(mass / w - post.sum(axis=1))) <= 1e-10
        ref = sum(canon_2a.terminal_cost[x] * p for x, p in enumerate(post.sum(axis=1)))
        assert value == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("name", MODELS, ids=str)
def test_horizon_layer_equals_the_full_step(name):
    """The horizon layer, agent k free and under g, has the full step's
    time-T nodes (codes, parent, action) exactly, and its weights,
    probabilities, state masses and terminal values within 1e-14 of the
    full step's and `full_terminal_values`'."""
    spec, g = model(name)
    for k in sorted({0, spec.K - 1}):
        for free in (True, False):
            lay = expand(spec, k, g, free, depth=spec.T - 1)[-1]
            own = None if free else g.actions_at(k, lay.t, lay.codes)
            full, last = (step(spec, k, g, lay, own, horizon) for horizon in (False, True))
            for field in ("codes", "parent", "action"):
                assert np.array_equal(getattr(last, field), getattr(full, field)), field
            assert last.beliefs.shape == (len(full), spec.state_size)
            assert np.max(np.abs(last.weight - full.weight)) <= 1e-14
            assert np.max(np.abs(last.prob - full.prob)) <= 1e-14
            masses = full.beliefs.sum(axis=2) * full.weight[:, None]
            assert np.max(np.abs(last.beliefs - masses)) <= 1e-14
            assert np.max(np.abs(terminal_values(spec, last.beliefs, last.weight)
                                 - full_terminal_values(spec, full.beliefs))) <= 1e-14


@pytest.mark.parametrize("K,n,T", [(2, 2, 3), (3, 1, 2)])
def test_stage_and_terminal_values_equal_scalar_loops_bitwise(K, n, T):
    """The gathers sum left to right like the loops they replaced; the
    grids here have at least 8 points, where np.sum would sum pairwise.
    The horizon term at T-1 sums the prediction over x' first, then the
    belief-weighted read over (x, lambda)."""
    spec = random_model(seed=31 * K + n, K=K, n=n, T=T, sizes=2)
    g = random_profile(spec, np.random.default_rng(n * T))
    layers = chain_layers(spec, 0, g)
    for t, lay in enumerate(layers):
        if t == T:  # the horizon layer: (state) masses over their weights
            got = terminal_values(spec, lay.beliefs, lay.weight)
            for i, (mass, w) in enumerate(zip(lay.beliefs, lay.weight.tolist())):
                acc = 0.0
                for x, p in enumerate(mass.tolist()):
                    if p > 0.0:
                        acc += spec.terminal_cost[x] * p
                assert got[i] == acc / w
            continue
        got = stage_values(spec, 0, lay)
        horizon = horizon_values(spec, 0, lay) if t == T - 1 else None
        lams = other_private_space(spec, 0, t)
        for i, (code, xi) in enumerate(layer_nodes(lay).items()):
            for u in range(spec.act_sizes[0]):
                acc = 0.0
                for (x, li), p in np.ndenumerate(xi):
                    if p > 0.0:
                        common = decode_node(spec, 0, t, code).common
                        u_full = (u, *others_play(g, common, lams[li]))
                        acc += p * spec.stage_cost[t][(x, *u_full)]
                assert got[i, u] == acc
                if horizon is None:
                    continue
                acc = 0.0
                for (x, li), p in np.ndenumerate(xi):
                    if p > 0.0:
                        common = decode_node(spec, 0, t, code).common
                        u_full = (u, *others_play(g, common, lams[li]))
                        pred = 0.0
                        for x1 in range(spec.state_size):
                            pred += spec.transition[t][(x, *u_full, x1)] * spec.terminal_cost[x1]
                        acc += p * pred
                assert horizon[i, u] == acc


# --- best response -------------------------------------------------------------

def test_best_response_single_stage_matches_enumeration(canon_2a):
    spec = truncate_to_t1(canon_2a)
    g = observation_following_profile(spec)
    for k in range(2):
        vtable, _ = solve_best_response(spec, k, g)
        bf_value, _ = oracle.RealizationTree(spec, k, g).best_response()
        assert expected_value(spec, k, vtable) == pytest.approx(bf_value, abs=1e-10)


def test_best_response_zero_costs(canon_2a):
    spec = zero_cost_variant(canon_2a)
    g = observation_following_profile(spec)
    vtable, maps = solve_best_response(spec, 0, g)
    for t, (lay, values) in enumerate(zip(vtable.entries, vtable.values)):
        assert np.all(values == 0.0)
        assert t == spec.T or np.all(maps[t][lay.codes] == 0)
    assert all(np.all(m[m >= 0] == 0) and np.any(m == 0) for m in maps)


@pytest.mark.parametrize("agent", [0, 1])
def test_best_response_matches_brute_force(canon_2a, agent):
    opponents = [
        constant_profile(canon_2a, 0),
        constant_profile(canon_2a, 1),
        observation_following_profile(canon_2a),
    ]
    for g in opponents:
        vtable, maps = solve_best_response(canon_2a, agent, g)
        dp_value = expected_value(canon_2a, agent, vtable)
        bf_value, bf_maps = oracle.RealizationTree(canon_2a, agent, g).best_response()
        assert dp_value == pytest.approx(bf_value, abs=1e-10)
        g_dp = g.with_agent(agent, maps)
        g_bf = g.with_agent(agent, bf_maps)
        assert (oracle.enumerate_cost(canon_2a, g_dp)
                == pytest.approx(oracle.enumerate_cost(canon_2a, g_bf), abs=1e-10))


def test_best_response_consistency_with_cost(canon_2a):
    """Averaged time-0 value equals the belief-form cost of the extracted
    response played against the frozen opponents."""
    g = observation_following_profile(canon_2a)
    for k in range(2):
        vtable, maps = solve_best_response(canon_2a, k, g)
        g_br = g.with_agent(k, maps)
        assert expected_value(canon_2a, k, vtable) == pytest.approx(
            cost_via_beliefs(canon_2a, g_br, k), abs=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_expected_value_weights_are_the_chain_probabilities_bitwise(seed):
    """The averaged time-0 value weighs each first observation with the
    probability the belief chain gives it, to the bit: one formula for
    p(y0), summed left to right in the value table's order."""
    spec = random_model(seed=seed, K=3, n=1, T=2, sizes=3)
    g = constant_profile(spec, 0)
    for k in range(spec.K):
        prob0 = expand(spec, k, g, free=False)[0].prob
        first = start(spec, k, g)
        values = full_terminal_values(spec, first.beliefs)
        acc = 0.0
        for p, v in zip(prob0.tolist(), values):
            acc += p * v
        table = ValueTable((first,), (values,))
        assert expected_value(spec, k, table) == acc


def test_semi_separation_of_extracted_actions(canon_2a):
    """Realizations with identical (posterior, shared block, private block)
    share their extracted action. Identical triples can only repeat via
    numerically equal posteriors, so group and compare."""
    g = observation_following_profile(canon_2a)
    vtable, maps = solve_best_response(canon_2a, 0, g)
    for t in range(canon_2a.T):
        groups = {}
        lay = vtable.entries[t]
        for code, belief, best in zip(lay.codes, lay.beliefs, maps[t][lay.codes]):
            r = decode_blocks(canon_2a, 0, t, int(code))
            placed = False
            for key, (probs, actions) in groups.items():
                if key == r and \
                        np.max(np.abs(probs - belief)) <= 1e-10:
                    actions.append(best)
                    placed = True
            if not placed:
                groups[r] = (belief, [best])
        for _, actions in groups.values():
            assert len(set(actions)) == 1


# --- payoff identity -----------------------------------------------------------

def test_cost_via_beliefs_zero(canon_2a):
    spec = zero_cost_variant(canon_2a)
    assert cost_via_beliefs(spec, constant_profile(spec, 1), 0) == 0.0


def test_cost_via_beliefs_uniform_single_stage_hand_sum():
    spec = tiny_uniform_t1()
    g = constant_profile(spec, 0)
    # uniform state and terminal transition: J = mean of c0[x][0][0] over x
    # plus mean terminal cost
    hand = 0.5 * (1.0 + 5.0) + 0.5 * (0.0 + 10.0)
    for k in range(2):
        assert cost_via_beliefs(spec, g, k) == pytest.approx(hand, abs=1e-12)
    g_follow = observation_following_profile(spec)
    # u^k = y^k uniform and independent of the state, so the stage term
    # averages the cost table over (x, u1, u2)
    hand = float(np.mean(spec.stage_cost[0])) + 5.0
    for k in range(2):
        assert cost_via_beliefs(spec, g_follow, k) == pytest.approx(hand, abs=1e-12)


def test_cost_via_beliefs_equals_enumeration(canon_2a, canon_2b, canon_1):
    for spec in (canon_2a, canon_2b, canon_1):
        for name, g in five_profiles(spec):
            ref = oracle.enumerate_cost(spec, g)
            for k in range(spec.K):
                assert cost_via_beliefs(spec, g, k) == pytest.approx(
                    ref, abs=1e-10), (name, k)


# --- best-response iteration ----------------------------------------------------

def test_sweep_zero_costs_converges_immediately(canon_2a):
    spec = zero_cost_variant(canon_2a)
    g, trace, converged = pbp_sweep(spec, constant_profile(spec, 0), 8)
    assert converged
    assert trace == [0.0] * spec.K


def test_sweep_canon_2a_certified_stationary(canon_2a):
    g0 = constant_profile(canon_2a, 0)
    g, trace, converged = pbp_sweep(canon_2a, g0, 32)
    assert converged
    assert len(trace) <= 5 * canon_2a.K
    assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))
    report = oracle.verify_pbp(canon_2a, g)
    assert report.all_stationary
    assert trace[-1] == pytest.approx(report.cost, abs=1e-10)


def test_sweep_monotone_from_random_starts(canon_2b):
    for seed in (3, 5):
        g0 = random_profile(canon_2b, np.random.default_rng(seed))
        _, trace, converged = pbp_sweep(canon_2b, g0, 32)
        assert converged
        assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))


def unskipped_sweep(spec, g, max_rounds=32):
    """The sweep with a best response solved on every turn: (final profile,
    each best response's expected value, the same replacements priced by
    the belief chain, converged)."""
    trace, chained = [], []
    current = cost_via_beliefs(spec, g, 0)
    for _ in range(max_rounds):
        start = current
        for k in range(spec.K):
            vtable, maps = solve_best_response(spec, k, g)
            g = g.with_agent(k, [np.where(m < 0, 0, m) for m in maps])
            current = expected_value(spec, k, vtable)
            trace.append(current)
            chained.append(cost_via_beliefs(spec, g, 0))
        if start - current <= IMPROVE_TOL:
            return g, trace, chained, True
    return g, trace, chained, False


def counted_sweep(monkeypatch, spec, g0):
    """pbp_sweep's result and the agent of each best response it solved."""
    calls = []

    def counting(spec, k, g):
        calls.append(k)
        return backward(spec, k, g)

    monkeypatch.setattr(dp, "backward", counting)
    return dp.pbp_sweep(spec, g0, 32), calls


def same_profile(g, h):
    return all(g.agents_equal(h, k) for k in range(g.spec.K))


@pytest.mark.parametrize("name, solves", [("CANON-1", 1), ("CANON-2A", 3), ("CANON-2B", 4),
                                          ((2, 1, 3, 2), 4)], ids=str)
def test_sweep_solves_an_agent_again_only_after_another_agent_moved(monkeypatch, name, solves):
    """From all-0 a solve on every turn would take 2, 4, 6 and 6 best
    responses; the final turn of each sweep repeats its agent's value."""
    spec, _ = model(name)
    (g, trace, converged), calls = counted_sweep(monkeypatch, spec, constant_profile(spec, 0))
    assert len(calls) == solves
    assert converged and trace[-1] == trace[-1 - spec.K]


def test_sweep_skip_is_exact_when_a_middle_agent_moves_twice(monkeypatch):
    """K = 3: agent 1 moves again after agent 0 kept its strategy and agent
    2 moved, so both of their kept values are dropped and both agents are
    solved again; the result equals the unskipped sweep's bit for bit."""
    spec = random_model(seed=2, K=3, n=1, T=2, sizes=3)
    g0 = constant_profile(spec, 0)
    (g, trace, converged), calls = counted_sweep(monkeypatch, spec, g0)
    assert calls == [0, 1, 2, 0, 1, 2, 0]
    ref_g, ref_trace, _, ref_converged = unskipped_sweep(spec, g0)
    assert bits(trace) == bits(ref_trace)
    assert same_profile(g, ref_g) and converged == ref_converged


@pytest.mark.parametrize("name", MODELS, ids=str)
def test_horizon_prediction_equals_the_sum_over_the_horizon_layer(name):
    """At T-1, stage plus the prediction gives the `q` that stage plus each
    time-T child's weight times its terminal value gave, within 1e-14 and
    with the same argmins; `backward`'s table is `solve_best_response`'s
    without its time-T layer."""
    spec, g = model(name)
    T = spec.T
    for k in sorted({0, spec.K - 1}):
        vtable, maps = solve_best_response(spec, k, g)
        lay, nxt = vtable.entries[T - 1], vtable.entries[T]
        stage = stage_values(spec, k, lay)
        predicted = stage + horizon_values(spec, k, lay)
        summed = stage.copy()
        np.add.at(summed, (nxt.parent, nxt.action), nxt.weight * vtable.values[T])
        assert np.max(np.abs(predicted - summed)) <= 1e-14
        assert np.array_equal(np.argmin(predicted, axis=1), np.argmin(summed, axis=1))
        short, short_maps = backward(spec, k, g)
        assert len(short.entries) == len(short.values) == T
        assert all(np.array_equal(a.codes, b.codes)
                   for a, b in zip(short.entries, vtable.entries[:T]))
        assert bits(np.concatenate(short.values)) == bits(np.concatenate(vtable.values[:T]))
        assert all(np.array_equal(a, b) for a, b in zip(short_maps, maps, strict=True))


@pytest.mark.parametrize("name", MODELS, ids=str)
def test_sweep_trace_is_the_belief_chain_cost_of_each_replacement(name):
    """Every trace entry lies within 1e-12 of the belief chain's cost of the
    profile just made, and the last within 1e-12 of the enumerated cost of
    the final profile."""
    spec, _ = model(name)
    g0 = constant_profile(spec, 0)
    g, trace, converged = pbp_sweep(spec, g0, 32)
    ref_g, _, chained, ref_converged = unskipped_sweep(spec, g0)
    assert same_profile(g, ref_g) and converged == ref_converged
    assert len(trace) == len(chained)
    assert max(abs(a - b) for a, b in zip(trace, chained)) <= 1e-12
    assert abs(trace[-1] - oracle.enumerate_cost(spec, g)) <= 1e-12


def canon1_global_minimum(spec):
    """Independent exhaustive minimum for the single-agent instance:
    stage-0 and stage-1 maps enumerated, stage-2 optimized pointwise.
    Works directly on the kernel tables; shares no code with the package.
    """
    init = spec.init_dist
    Q = [spec.observation[t][0] for t in range(4)]
    S = spec.transition
    c = spec.stage_cost
    cT = spec.terminal_cost

    best = None
    for m0 in itertools.product(range(2), repeat=2):        # y0 -> u0
        for m1 in itertools.product(range(2), repeat=4):    # (y0, y1) -> u1
            # mass over (x0,y0,x1,y1,x2,y2) trajectories
            value = 0.0
            tails = {}
            for x0, y0 in itertools.product(range(2), repeat=2):
                p0 = init[x0] * Q[0][x0, y0]
                u0 = m0[y0]
                for x1, y1 in itertools.product(range(2), repeat=2):
                    p1 = p0 * S[0][x0, u0, x1] * Q[1][x1, y1]
                    u1 = m1[2 * y0 + y1]
                    for x2, y2 in itertools.product(range(2), repeat=2):
                        p2 = p1 * S[1][x1, u1, x2] * Q[2][x2, y2]
                        if p2 <= 0.0:
                            continue
                        value += p2 * (c[0][x0, u0] + c[1][x1, u1])
                        key = (y0, y1, y2)
                        for u2 in range(2):
                            tail = p2 * (c[2][x2, u2]
                                         + sum(S[2][x2, u2, x3] * cT[x3]
                                               for x3 in range(2)))
                            bucket = tails.setdefault(key, [0.0, 0.0])
                            bucket[u2] += tail
            value += sum(min(b) for b in tails.values())
            best = value if best is None else min(best, value)
    return best


def test_single_agent_sweep_is_globally_optimal(canon_1):
    reference = canon1_global_minimum(canon_1)
    g, trace, converged = pbp_sweep(canon_1, constant_profile(canon_1, 0), 32)
    assert converged
    assert trace[-1] == pytest.approx(reference, abs=1e-10)
    vtable, _ = solve_best_response(canon_1, 0, constant_profile(canon_1, 0))
    assert expected_value(canon_1, 0, vtable) == pytest.approx(reference, abs=1e-10)


# --- dominance -------------------------------------------------------------------

def test_dominance_tight_at_best_response(canon_2a):
    g = observation_following_profile(canon_2a)
    vtable, maps = solve_best_response(canon_2a, 0, g)
    rows = verify_value_dominance(oracle.RealizationTree(canon_2a, 0, g), vtable, maps)
    assert dominance_violations(rows) == []
    assert max_abs_gap(rows) <= 1e-10
    assert sum(len(codes) for codes, _, _ in rows) >= 40


def test_dominance_against_constant_alternative(canon_2a):
    g = observation_following_profile(canon_2a)
    vtable, _ = solve_best_response(canon_2a, 0, g)
    alt = constant_profile(canon_2a, 1).maps[0]
    rows = verify_value_dominance(oracle.RealizationTree(canon_2a, 0, g), vtable, alt)
    assert dominance_violations(rows) == []
    # the costs distinguish actions somewhere, so dominance is strict there
    assert any(np.any(alt_values > table + 1e-6) for _, table, alt_values in rows)


def test_dominance_refuses_a_table_without_its_horizon_layer(canon_2a):
    """The table and the enumeration are compared at every t = 0..T; a
    table one layer short is an error, not a shorter comparison."""
    g = observation_following_profile(canon_2a)
    vtable, maps = solve_best_response(canon_2a, 0, g)
    short = ValueTable(vtable.entries[:-1], vtable.values[:-1])
    with pytest.raises(ValueError, match="zip"):
        verify_value_dominance(oracle.RealizationTree(canon_2a, 0, g), short, maps)


def test_incomplete_opponent_strategy_is_an_error(canon_2a):
    from delaypbp.errors import IncompleteStrategyError

    g = observation_following_profile(canon_2a)
    # drop agent 1's entire t=1 map: the expansion needs it
    gutted = g.with_agent(1, [g.maps[1][0], np.full(grid_size(canon_2a, 1, 1), -1)])
    with pytest.raises(IncompleteStrategyError,
                       match="incomplete strategy: agent 1 has no action at t=1"):
        solve_best_response(canon_2a, 0, gutted)


def test_dominance_zero_costs(canon_2a):
    spec = zero_cost_variant(canon_2a)
    g = observation_following_profile(spec)
    vtable, _ = solve_best_response(spec, 0, g)
    alt = constant_profile(spec, 1).maps[0]
    rows = verify_value_dominance(oracle.RealizationTree(spec, 0, g), vtable, alt)
    assert dominance_violations(rows) == []
    assert max_abs_gap(rows) == 0.0


@pytest.mark.parametrize("name", MODELS, ids=str)
def test_dominance_rows_are_in_the_cost_to_go_layout(name):
    """Per t, the dominance check gives `cost_to_go`'s layout: strictly
    increasing codes, the same the enumeration reaches and the DP layer
    holds, with the table's and the alternative's values aligned to them."""
    spec, g = model(name)
    for k in sorted({0, spec.K - 1}):
        vtable, maps = solve_best_response(spec, k, g)
        tree = oracle.RealizationTree(spec, k, g)
        rows = verify_value_dominance(tree, vtable, maps)
        for (codes, table, alt), (alt_codes, alt_values), lay, values in zip(
                rows, tree.cost_to_go(maps), vtable.entries, vtable.values, strict=True):
            assert np.all(np.diff(codes) > 0)
            assert np.array_equal(codes, alt_codes)
            assert np.array_equal(codes, lay.codes)
            assert np.array_equal(rows_at((codes, table), lay.codes), values)
            assert np.array_equal(alt, alt_values)
