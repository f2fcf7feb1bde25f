import numpy as np
import pytest

from conftest import five_profiles, markov_grouping_model
from delaypbp.falsify import (check_conditional_independence,
                              check_conditional_markov, check_k1_reduction,
                              check_payoff_identity, check_policy_independence,
                              make_report)
from delaypbp.model import ModelSpec, uniform_observation_variant
from delaypbp.strategies import (constant_profile, observation_following_profile,
                                 random_profile)

# Measured once with the enumeration oracle when the instance was frozen;
# guards against accidental edits to the CANON-2B tables.
CANON_2B_INDEPENDENCE_GAP = 0.7900921383271508


def single_state_model():
    q = [[0.6, 0.4]]                            # (1 state, 2 symbols)
    trans = [[[[1.0], [1.0]], [[1.0], [1.0]]]]  # (1, 2, 2, 1)
    c = [[[0.0, 1.0], [2.0, 3.0]]]              # (1, 2, 2)
    return ModelSpec.from_tables(
        K=2, n=1, T=2, state_size=1, obs_sizes=(2, 2), act_sizes=(2, 2),
        init_dist=[1.0], transition=[trans, trans], observation=[(q, q)] * 3,
        stage_cost=[c, c], terminal_cost=[0.0])


# --- conditional independence -------------------------------------------------

def test_gap_report_bookkeeping():
    rep = make_report("demo", [("b", 0.25), ("a", 0.5), ("c", 0.1)])
    assert rep.max_gap == 0.5
    assert rep.witness == "a"
    assert rep.gaps == (("a", 0.5), ("b", 0.25), ("c", 0.1))
    assert all(g >= 0 for _, g in rep.gaps)


def test_conditional_independence_fails_on_canon_2b(canon_2b):
    g = observation_following_profile(canon_2b)
    rep = check_conditional_independence(canon_2b, g, 0, 1)
    assert rep.max_gap > 0.01
    assert rep.witness is not None
    assert rep.max_gap == pytest.approx(CANON_2B_INDEPENDENCE_GAP, abs=1e-9)


def test_conditional_independence_holds_without_state_information(canon_2b):
    flat = uniform_observation_variant(canon_2b)
    g = observation_following_profile(flat)
    rep = check_conditional_independence(flat, g, 0, 1)
    assert rep.max_gap <= 1e-12


def test_conditional_independence_trivial_single_state():
    spec = single_state_model()
    g = observation_following_profile(spec)
    rep = check_conditional_independence(spec, g, 0, 1)
    assert rep.max_gap <= 1e-15


def test_conditional_independence_also_positive_on_canon_2a(canon_2a):
    # the effect is generic, not an artifact of the tuned instance
    g = observation_following_profile(canon_2a)
    rep = check_conditional_independence(canon_2a, g, 0, 1)
    assert rep.max_gap > 0.01


def test_conditional_independence_rejects_pre_sharing_times(canon_2b):
    g = observation_following_profile(canon_2b)
    two_step = ModelSpec.from_tables(
        canon_2b.K, 2, canon_2b.T, canon_2b.state_size, canon_2b.obs_sizes,
        canon_2b.act_sizes, canon_2b.init_dist, canon_2b.transition,
        canon_2b.observation, canon_2b.stage_cost, canon_2b.terminal_cost)
    with pytest.raises(ValueError, match="no symbols are shared"):
        check_conditional_independence(two_step, g, 0, 0)


# --- strategy independence ------------------------------------------------------

@pytest.mark.parametrize("instance", ["canon_2a", "canon_2b"])
def test_policy_independence_exact_zero(instance, request):
    spec = request.getfixturevalue(instance)
    base = observation_following_profile(spec)
    variants = [
        constant_profile(spec, 0).maps[0],
        constant_profile(spec, 1).maps[0],
        random_profile(spec, np.random.default_rng(11)).maps[0],
    ]
    for alt in variants:
        rep = check_policy_independence(spec, base, base.with_agent(0, alt), 0)
        assert rep.gaps, "no shared reachable realizations"
        assert rep.max_gap == 0.0


def test_policy_independence_identical_profiles(canon_2a):
    g = observation_following_profile(canon_2a)
    rep = check_policy_independence(canon_2a, g, g, 0)
    assert rep.max_gap == 0.0


def test_policy_independence_rejects_other_agent_changes(canon_2a):
    g_a = observation_following_profile(canon_2a)
    g_b = g_a.with_agent(1, constant_profile(canon_2a, 0).maps[1])
    with pytest.raises(ValueError, match="differ in agent 1"):
        check_policy_independence(canon_2a, g_a, g_b, 0)
    # one cell of agent 1's strategy arrays, an action or a missing one
    for u in (1 - g_a.maps[1][1][5], -1):
        m = g_a.maps[1][1].copy()
        m[5] = u
        g_c = g_a.with_agent(1, [g_a.maps[1][0], m])
        with pytest.raises(ValueError, match="differ in agent 1"):
            check_policy_independence(canon_2a, g_a, g_c, 0)
    # equal arrays, copied by with_agent, are the same strategy
    same = g_a.with_agent(1, g_a.maps[1])
    assert check_policy_independence(canon_2a, g_a, same, 0).max_gap == 0.0


# --- conditional Markov property --------------------------------------------------

def test_conditional_markov_on_canon_2a(canon_2a):
    for k in range(2):
        rep = check_conditional_markov(canon_2a, observation_following_profile(canon_2a), k)
        assert rep.gaps
        assert rep.max_gap <= 1e-10


def test_conditional_markov_groups_are_nontrivial():
    """With an uninformative mid-horizon channel, distinct histories induce
    the same posterior and land in one group; the next-posterior laws must
    then coincide."""
    spec = markov_grouping_model()
    g = constant_profile(spec, 0)
    rep = check_conditional_markov(spec, g, 0)
    sizes = [label.count("c(") for label, _ in rep.gaps]
    assert max(sizes) >= 2
    assert rep.max_gap <= 1e-10


def test_conditional_markov_single_decision(canon_2a):
    from test_oracle import truncate_to_t1

    spec = truncate_to_t1(canon_2a)
    rep = check_conditional_markov(spec, observation_following_profile(spec), 0)
    # only the t=0 -> 1 transition exists; all groups must still be tight
    assert all(label.startswith("t=0") for label, _ in rep.gaps)
    assert rep.max_gap <= 1e-10


# --- single-agent reduction --------------------------------------------------------

def test_k1_reduction_on_canon_1(canon_1):
    rep = check_k1_reduction(canon_1)
    assert rep.max_gap <= 1e-12
    # every reachable run of the T=3 binary tree is visited
    assert len(rep.gaps) == 2 + 8 + 32 + 128


def test_k1_reduction_perfect_observation():
    q = [[1.0, 0.0], [0.0, 1.0]]
    trans = [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]
    spec = ModelSpec.from_tables(
        K=1, n=1, T=2, state_size=2, obs_sizes=(2,), act_sizes=(2,),
        init_dist=[0.5, 0.5], transition=[trans, trans],
        observation=[(q,)] * 3, stage_cost=[[[0.0, 0.0], [0.0, 0.0]]] * 2,
        terminal_cost=[0.0, 0.0])
    rep = check_k1_reduction(spec)
    assert rep.max_gap == 0.0


def test_k1_reduction_requires_single_agent(canon_2a):
    with pytest.raises(ValueError, match="single-agent"):
        check_k1_reduction(canon_2a)


# --- payoff identity -----------------------------------------------------------------

def test_payoff_identity_all_instances(canon_2a, canon_2b, canon_1):
    for spec in (canon_2a, canon_2b, canon_1):
        for name, g in five_profiles(spec):
            rep = check_payoff_identity(spec, g)
            assert rep.max_gap <= 1e-10, name
            assert len(rep.gaps) == spec.K


def test_payoff_identity_deterministic_model():
    from conftest import deterministic_chain

    spec = deterministic_chain()
    rep = check_payoff_identity(spec, constant_profile(spec, 0))
    assert rep.max_gap <= 1e-15
