"""Cross-checks on patterns the canonical instances do not cover:
two-step sharing (n=2), three agents and horizons past T = 2."""

import numpy as np
import pytest

from conftest import dominance_violations, max_abs_gap, oracle_gap, random_model, sparse_model
from delaypbp import oracle
from delaypbp.dp import (cost_via_beliefs, expected_value, pbp_sweep,
                         solve_best_response, verify_value_dominance)
from delaypbp.falsify import (check_conditional_independence,
                              check_conditional_markov, check_payoff_identity)
from delaypbp.filtering import expand
from delaypbp.info import grid_size
from delaypbp.strategies import constant_profile, random_profile


@pytest.fixture(scope="module")
def two_step_model():
    return random_model(seed=424242, K=2, n=2, T=2, sizes=2)


@pytest.fixture(scope="module")
def three_agent_model():
    return random_model(seed=515151, K=3, n=1, T=2, sizes=2)


def test_two_step_sharing_chain_matches_oracle(two_step_model):
    spec = two_step_model
    g = random_profile(spec, np.random.default_rng(1))
    for k in range(spec.K):
        assert oracle_gap(spec, g, k, expand(spec, k, g, free=False)) <= 1e-10


def test_two_step_sharing_dp_matches_brute_force(two_step_model):
    spec = two_step_model
    g = random_profile(spec, np.random.default_rng(2))
    for k in range(spec.K):
        vtable, maps = solve_best_response(spec, k, g)
        bf_value, _ = oracle.RealizationTree(spec, k, g).best_response()
        assert expected_value(spec, k, vtable) == pytest.approx(bf_value, abs=1e-10)
        # the table's layers (and the time-T beliefs) match the posterior
        # oracle on the wider grid
        assert oracle_gap(spec, g, k, expand(spec, k, g, free=True)) <= 1e-10


def test_two_step_sharing_dominance(two_step_model):
    spec = two_step_model
    g = constant_profile(spec, 0)
    vtable, maps = solve_best_response(spec, 1, g)
    tree = oracle.RealizationTree(spec, 1, g)
    at_best_response = verify_value_dominance(tree, vtable, maps)
    assert dominance_violations(at_best_response) == []
    assert max_abs_gap(at_best_response) <= 1e-10
    alt = constant_profile(spec, 1).maps[1]
    assert dominance_violations(verify_value_dominance(tree, vtable, alt)) == []


def test_two_step_sharing_sweep_certified(two_step_model):
    spec = two_step_model
    g, trace, converged = pbp_sweep(spec, constant_profile(spec, 0), 32)
    assert converged
    assert all(trace[i + 1] <= trace[i] + 1e-12 for i in range(len(trace) - 1))
    assert oracle.verify_pbp(spec, g).all_stationary


def test_two_step_sharing_falsify_checks(two_step_model):
    spec = two_step_model
    g = random_profile(spec, np.random.default_rng(3))
    assert check_payoff_identity(spec, g)["max_gap"] <= 1e-10
    assert check_conditional_markov(spec, g, 0)["max_gap"] <= 1e-10
    # with n=2 the t=1 step shares the time-0 symbols
    rep = check_conditional_independence(spec, g, 0, 1)
    assert rep["max_gap"] >= 0.0
    assert rep["gaps"]


def test_three_agents_chain_matches_oracle(three_agent_model):
    spec = three_agent_model
    g = random_profile(spec, np.random.default_rng(4))
    for k in range(spec.K):
        assert oracle_gap(spec, g, k, expand(spec, k, g, free=False)) <= 1e-10


def test_three_agents_payoff_identity(three_agent_model):
    spec = three_agent_model
    g = random_profile(spec, np.random.default_rng(5))
    ref = oracle.enumerate_cost(spec, g)
    for k in range(spec.K):
        assert cost_via_beliefs(spec, g, k) == pytest.approx(ref, abs=1e-10)


def test_three_agents_dp_matches_brute_force(three_agent_model):
    spec = three_agent_model
    g = constant_profile(spec, 0)
    for k in range(spec.K):
        vtable, _ = solve_best_response(spec, k, g)
        bf_value, _ = oracle.RealizationTree(spec, k, g).best_response()
        assert expected_value(spec, k, vtable) == pytest.approx(bf_value, abs=1e-10)


def test_three_agents_sweep_certified(three_agent_model):
    spec = three_agent_model
    g, trace, converged = pbp_sweep(spec, constant_profile(spec, 0), 32)
    assert converged
    assert oracle.verify_pbp(spec, g).all_stationary


# Shapes no end-to-end run certifies: the benchmark sweep's shapes at T = 3,
# three-step sharing, three agents with two-step sharing, T = 4 and a sparse
# draw.
WIDER_SHAPES = {
    "K2n1T3": lambda: random_model(7, 2, 1, 3, 2),
    "K2n2T3": lambda: random_model(7, 2, 2, 3, 2),
    "K2n3T3": lambda: random_model(1, 2, 3, 3, 2),
    "K3n2T2": lambda: random_model(1, 3, 2, 2, 2),
    "K3n2T3": lambda: random_model(1, 3, 2, 3, 2),
    "K1n3T4": lambda: random_model(1, 1, 3, 4, 2),
    "sparse-K2n2T3": lambda: sparse_model(7, 2, 2, 3),
}


@pytest.mark.parametrize("name", WIDER_SHAPES)
def test_sweep_certified_by_brute_force_on_wider_shapes(name):
    """The sweep from all-0 converges, the brute force certifies every
    agent stationary, and each agent's dynamic-program value against the
    result is its brute-force value."""
    spec = WIDER_SHAPES[name]()
    g, _, converged = pbp_sweep(spec, constant_profile(spec, 0), 32)
    assert converged
    assert oracle.verify_pbp(spec, g).all_stationary
    for k in range(spec.K):
        vtable, _ = solve_best_response(spec, k, g)
        bf_value, _ = oracle.RealizationTree(spec, k, g).best_response()
        assert abs(expected_value(spec, k, vtable) - bf_value) <= 1e-12


# --- the batched belief kernel beyond the canonical instances -----------------

def _chain_and_payoff_match_oracle(spec, g, k):
    chain = expand(spec, k, g, free=False)
    assert oracle_gap(spec, g, k, chain, free=False) <= 1e-10
    assert sum(map(len, chain))
    assert cost_via_beliefs(spec, g, k) == pytest.approx(oracle.enumerate_cost(spec, g),
                                                         abs=1e-10)


@pytest.mark.parametrize("K,n,T", [(2, 1, 3), (2, 2, 3), (3, 1, 2)])
@pytest.mark.parametrize("last", [False, True], ids=["agent0", "agentK-1"])
def test_batched_kernel_matches_oracle_on_random_models(K, n, T, last):
    """Every chained belief equals definition-level Bayes and the
    belief-form cost equals enumeration: against a total random profile,
    with the opponent playing the unextended best-response maps (its
    reachable grid with its own actions free), and with the opponent's
    maps cut down to the realizations it reaches under the profile."""
    spec = random_model(seed=1000 * K + 100 * n + T, K=K, n=n, T=T, sizes=2)
    k = K - 1 if last else 0
    opponent = 0 if last else K - 1
    g = random_profile(spec, np.random.default_rng(K + n + T))
    _chain_and_payoff_match_oracle(spec, g, k)
    _, g_maps = solve_best_response(spec, opponent, g)
    _chain_and_payoff_match_oracle(spec, g.with_agent(opponent, g_maps), k)
    reached = expand(spec, opponent, g, free=False)
    cut = [np.full(grid_size(spec, opponent, t), -1) for t in range(T)]
    for t in range(T):
        cut[t][reached[t].codes] = g.actions_at(opponent, t, reached[t].codes)
    _chain_and_payoff_match_oracle(spec, g.with_agent(opponent, cut), k)
