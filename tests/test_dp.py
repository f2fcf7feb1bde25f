import itertools

import numpy as np
import pytest

from conftest import five_profiles, layer_nodes, others_play, random_model, tiny_uniform_t1
from delaypbp import oracle
from delaypbp.dp import (ValueLayer, ValueTable, cost_via_beliefs, expected_value,
                         pbp_sweep, solve_best_response, stage_values,
                         terminal_values, verify_value_dominance)
from delaypbp.filtering import BeliefPass, chained_beliefs
from delaypbp.info import decode, grid_size
from delaypbp.strategies import (constant_profile, observation_following_profile,
                                 random_profile)
from reference_recursion import decode as decode_node
from reference_recursion import other_private_space
from test_oracle import truncate_to_t1, zero_cost_variant


# --- terminal values ----------------------------------------------------------

def test_terminal_value_zero_cost(canon_2a):
    spec = zero_cost_variant(canon_2a)
    g = constant_profile(spec, 0)
    chain = chained_beliefs(spec, g, 0)
    for r, (b, _) in chain[spec.T].items():
        assert terminal_values(spec, b[None])[0] == 0.0


def test_terminal_value_point_mass(canon_2a):
    g = constant_profile(canon_2a, 0)
    chain = chained_beliefs(canon_2a, g, 0)
    (r, (b, _)) = next(iter(chain[canon_2a.T].items()))
    point = np.zeros_like(b)
    x_star = canon_2a.state_size - 1
    point[x_star, b.shape[1] - 1] = 1.0
    assert terminal_values(canon_2a, point[None])[0] == canon_2a.terminal_cost[x_star]


def test_terminal_value_matches_oracle_expectation(canon_2a):
    g = observation_following_profile(canon_2a)
    chain = chained_beliefs(canon_2a, g, 0)
    t = canon_2a.T
    post = oracle.posteriors(canon_2a, g, 0, t)
    for r, (b, _) in chain[t].items():
        ref = sum(canon_2a.terminal_cost[x] * p for x, p in enumerate(post[r].sum(axis=1)))
        assert terminal_values(canon_2a, b[None])[0] == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("K,n,T", [(2, 2, 3), (3, 1, 2)])
def test_stage_and_terminal_values_equal_scalar_loops_bitwise(K, n, T):
    """The gathers sum left to right like the loops they replaced; the
    grids here have at least 8 points, where np.sum would sum pairwise."""
    spec = random_model(seed=31 * K + n, K=K, n=n, T=T, sizes=2)
    g = random_profile(spec, np.random.default_rng(n * T))
    bp = BeliefPass(spec, 0, g)
    layers, _ = bp.chain()
    for t, lay in enumerate(layers):
        got = terminal_values(spec, lay.beliefs) if t == T else stage_values(spec, bp, lay)
        lams = other_private_space(spec, 0, t)
        for i, (code, xi) in enumerate(layer_nodes(lay).items()):
            if t == T:
                acc = 0.0
                for (x, _), p in np.ndenumerate(xi):
                    if p > 0.0:
                        acc += spec.terminal_cost[x] * p
                assert got[i] == acc
                continue
            for u in range(spec.act_sizes[0]):
                acc = 0.0
                for (x, li), p in np.ndenumerate(xi):
                    if p > 0.0:
                        common = decode_node(spec, 0, t, code).common
                        u_full = (u, *others_play(g, common, lams[li]))
                        acc += p * spec.stage_cost[t][(x, *u_full)]
                assert got[i, u] == acc


# --- best response -------------------------------------------------------------

def test_best_response_single_stage_matches_enumeration(canon_2a):
    spec = truncate_to_t1(canon_2a)
    g = observation_following_profile(spec)
    for k in range(2):
        vtable, _ = solve_best_response(spec, k, g)
        bf_value, _ = oracle.brute_force_best_response(spec, k, g)
        assert expected_value(spec, k, vtable) == pytest.approx(bf_value, abs=1e-10)


def test_best_response_zero_costs(canon_2a):
    spec = zero_cost_variant(canon_2a)
    g = observation_following_profile(spec)
    vtable, maps = solve_best_response(spec, 0, g)
    for entry in vtable.entries:
        assert np.all(entry.values == 0.0)
        assert entry.best_actions is None or np.all(entry.best_actions == 0)
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
        bf_value, bf_maps = oracle.brute_force_best_response(canon_2a, agent, g)
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
        chain0 = chained_beliefs(spec, g, k)[0]
        first = BeliefPass(spec, k, g).start()
        values = terminal_values(spec, first.beliefs)
        acc = 0.0
        for (_, p), v in zip(chain0.values(), values):
            acc += p * v
        table = ValueTable(agent=k, entries=(ValueLayer(first, values, None),))
        assert expected_value(spec, k, table) == acc


def test_semi_separation_of_extracted_actions(canon_2a):
    """Realizations with identical (posterior, shared block, private block)
    share their extracted action. Identical triples can only repeat via
    numerically equal posteriors, so group and compare."""
    g = observation_following_profile(canon_2a)
    vtable, _ = solve_best_response(canon_2a, 0, g)
    for t in range(canon_2a.T):
        groups = {}
        entry = vtable.entries[t]
        for code, belief, best in zip(entry.layer.codes, entry.layer.beliefs,
                                      entry.best_actions):
            r = decode(canon_2a, 0, t, int(code))
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
    report = verify_value_dominance(oracle.RealizationTree(canon_2a, 0, g), vtable, maps)
    assert report.violations == ()
    assert report.max_abs_gap <= 1e-10
    assert len(report.entries) >= 40


def test_dominance_against_constant_alternative(canon_2a):
    g = observation_following_profile(canon_2a)
    vtable, _ = solve_best_response(canon_2a, 0, g)
    alt = constant_profile(canon_2a, 1).maps[0]
    report = verify_value_dominance(oracle.RealizationTree(canon_2a, 0, g), vtable, alt)
    assert report.violations == ()
    # the costs distinguish actions somewhere, so dominance is strict there
    assert any(e.alt_value > e.table_value + 1e-6 for e in report.entries)


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
    report = verify_value_dominance(oracle.RealizationTree(spec, 0, g), vtable, alt)
    assert report.violations == ()
    assert report.max_abs_gap == 0.0
