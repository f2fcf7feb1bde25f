import numpy as np
import pytest

from conftest import (deterministic_chain, five_profiles, markov_grouping_model, random_model,
                      sparse_model)
from delaypbp import falsify, oracle
from delaypbp.errors import UnreachableError
from delaypbp.falsify import (check_conditional_independence,
                              check_conditional_markov, check_k1_reduction,
                              check_payoff_identity, check_policy_independence,
                              classical_filter_step, make_report)
from delaypbp.filtering import expand
from delaypbp.model import K1_TOL, ModelSpec, canonical_instance, uniform_observation_variant
from delaypbp.strategies import (constant_profile, observation_following_profile,
                                 random_profile)
from reference_recursion import classical_filter_update, k1_reduction

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
    assert rep["max_gap"] == 0.5
    assert rep["witness"] == "a"
    assert rep["gaps"] == [{"where": "a", "gap": 0.5}, {"where": "b", "gap": 0.25},
                           {"where": "c", "gap": 0.1}]
    assert all(e["gap"] >= 0 for e in rep["gaps"])


def test_conditional_independence_fails_on_canon_2b(canon_2b):
    g = observation_following_profile(canon_2b)
    rep = check_conditional_independence(canon_2b, g, 0, 1)
    assert rep["max_gap"] > 0.01
    assert rep["witness"] is not None
    assert rep["max_gap"] == pytest.approx(CANON_2B_INDEPENDENCE_GAP, abs=1e-9)


def test_conditional_independence_holds_without_state_information(canon_2b):
    flat = uniform_observation_variant(canon_2b)
    g = observation_following_profile(flat)
    rep = check_conditional_independence(flat, g, 0, 1)
    assert rep["max_gap"] <= 1e-12


def test_conditional_independence_trivial_single_state():
    spec = single_state_model()
    g = observation_following_profile(spec)
    rep = check_conditional_independence(spec, g, 0, 1)
    assert rep["max_gap"] <= 1e-15


def test_conditional_independence_also_positive_on_canon_2a(canon_2a):
    # the effect is generic, not an artifact of the tuned instance
    g = observation_following_profile(canon_2a)
    rep = check_conditional_independence(canon_2a, g, 0, 1)
    assert rep["max_gap"] > 0.01


def test_conditional_independence_rejects_pre_sharing_times(canon_2b):
    g = observation_following_profile(canon_2b)
    two_step = ModelSpec.from_tables(
        canon_2b.K, 2, canon_2b.T, canon_2b.state_size, canon_2b.obs_sizes,
        canon_2b.act_sizes, canon_2b.init_dist, canon_2b.transition,
        canon_2b.observation, canon_2b.stage_cost, canon_2b.terminal_cost)
    with pytest.raises(ValueError, match="no symbols are shared"):
        check_conditional_independence(two_step, g, 0, 0)
    with pytest.raises(ValueError, match="t must be a decision time"):
        check_conditional_independence(canon_2b, g, 0, canon_2b.T)


def test_conditional_independence_walks_no_further_than_it_reads(monkeypatch):
    """At t = T - 1 with n = 2 the check reads the histories of length
    max(t, t - n + 2) = 2 < T: the walk produces no block of length 3."""
    spec = random_model(seed=3, K=2, n=2, T=3)
    lengths, whole = [], oracle.walk

    def counted(*args, **kwargs):
        for block in whole(*args, **kwargs):
            lengths.append(block[0])
            yield block

    monkeypatch.setattr(oracle, "walk", counted)
    check_conditional_independence(spec, observation_following_profile(spec), 0, spec.T - 1)
    assert sorted(set(lengths)) == [0, 1, 2]


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
        assert rep["gaps"], "no shared reachable realizations"
        assert rep["max_gap"] == 0.0


def test_policy_independence_identical_profiles(canon_2a):
    g = observation_following_profile(canon_2a)
    rep = check_policy_independence(canon_2a, g, g, 0)
    assert rep["max_gap"] == 0.0


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
    assert check_policy_independence(canon_2a, g_a, same, 0)["max_gap"] == 0.0


# --- conditional Markov property --------------------------------------------------

def test_conditional_markov_on_canon_2a(canon_2a):
    for k in range(2):
        rep = check_conditional_markov(canon_2a, observation_following_profile(canon_2a), k)
        assert rep["gaps"]
        assert rep["max_gap"] <= 1e-10


def test_conditional_markov_groups_are_nontrivial():
    """With an uninformative mid-horizon channel, distinct histories induce
    the same posterior and land in one group; the next-posterior laws must
    then coincide."""
    spec = markov_grouping_model()
    g = constant_profile(spec, 0)
    rep = check_conditional_markov(spec, g, 0)
    sizes = [e["where"].count("c(") for e in rep["gaps"]]
    assert max(sizes) >= 2
    assert rep["max_gap"] <= 1e-10


# Agent 0's conditional-Markov report under random_profile(default_rng(5)):
# every group's label and gap, in label order. Singleton groups read 0.0 by
# definition; the two-member groups of the sparse draw differ by rounding.
PINNED_MARKOV_REPORTS = {
    "markov-grouping": [
        ("t=0 u=1 group[c(/;/)p(0/)]", 0.0),
        ("t=0 u=1 group[c(/;/)p(1/)]", 0.0),
        ("t=1 u=0 group[c(0/1;0/1)p(1/)]", 0.0),
        ("t=1 u=0 group[c(0/1;1/0)p(0/),c(0/1;1/0)p(1/)]", 0.0),
        ("t=1 u=0 group[c(1/1;0/1)p(0/),c(1/1;0/1)p(1/)]", 0.0),
        ("t=1 u=1 group[c(0/1;0/1)p(0/)]", 0.0),
        ("t=1 u=1 group[c(1/1;1/0)p(0/),c(1/1;1/0)p(1/)]", 0.0),
    ],
    "sparse-7": [
        ("t=0 u=1 group[c(/;/)p(0/)]", 0.0),
        ("t=0 u=1 group[c(/;/)p(1/)]", 0.0),
        ("t=1 u=0 group[c(/;/)p(1-0/1)]", 0.0),
        ("t=1 u=1 group[c(/;/)p(0-0/1)]", 0.0),
        ("t=1 u=1 group[c(/;/)p(0-1/1)]", 0.0),
        ("t=2 u=0 group[c(0/1;0/1)p(0-0/1)]", 0.0),
        ("t=2 u=0 group[c(0/1;0/1)p(1-0/1)]", 0.0),
        ("t=2 u=0 group[c(0/1;1/1)p(0-0/1),c(0/1;1/1)p(0-1/1)]", 1.1102230246251565e-16),
        ("t=2 u=0 group[c(0/1;1/1)p(1-0/1)]", 0.0),
        ("t=2 u=0 group[c(0/1;2/1)p(0-1/1)]", 0.0),
        ("t=2 u=0 group[c(0/1;2/1)p(1-1/1)]", 0.0),
        ("t=2 u=0 group[c(1/1;0/1)p(0-0/0)]", 0.0),
        ("t=2 u=0 group[c(1/1;1/1)p(0-0/0)]", 0.0),
        ("t=2 u=1 group[c(0/1;0/1)p(0-1/1)]", 0.0),
        ("t=2 u=1 group[c(0/1;0/1)p(1-1/1)]", 0.0),
        ("t=2 u=1 group[c(0/1;1/1)p(1-1/1)]", 0.0),
        ("t=2 u=1 group[c(0/1;2/1)p(0-0/1)]", 0.0),
        ("t=2 u=1 group[c(0/1;2/1)p(1-0/1)]", 0.0),
        ("t=2 u=1 group[c(1/1;0/1)p(0-1/0)]", 0.0),
        ("t=2 u=1 group[c(1/1;1/1)p(0-1/0)]", 0.0),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_MARKOV_REPORTS))
def test_conditional_markov_report_is_pinned(name):
    """The whole report, labels and gaps to the bit, on two models whose
    groups have two members: which pasts share a group, the action in each
    label and the first-fit merging of the next posteriors all show."""
    spec = markov_grouping_model() if name == "markov-grouping" else sparse_model(7, 2, 2, 3)
    rep = check_conditional_markov(spec, random_profile(spec, np.random.default_rng(5)), 0)
    want = PINNED_MARKOV_REPORTS[name]
    max_gap = max(g for _, g in want)
    assert rep == {"quantity": "posterior conditional Markov", "max_gap": max_gap,
                   "witness": next(w for w, g in want if g == max_gap),
                   "gaps": [{"where": w, "gap": g} for w, g in want]}


def test_conditional_markov_single_decision(canon_2a):
    from test_oracle import truncate_to_t1

    spec = truncate_to_t1(canon_2a)
    rep = check_conditional_markov(spec, observation_following_profile(spec), 0)
    # only the t=0 -> 1 transition exists; all groups must still be tight
    assert all(e["where"].startswith("t=0") for e in rep["gaps"])
    assert rep["max_gap"] <= 1e-10


# --- single-agent reduction --------------------------------------------------------

def test_k1_reduction_on_canon_1(canon_1):
    rep = check_k1_reduction(canon_1)
    assert rep["max_gap"] <= 1e-12
    # every reachable run of the T=3 binary tree is visited
    assert len(rep["gaps"]) == 2 + 8 + 32 + 128


def test_k1_reduction_perfect_observation():
    q = [[1.0, 0.0], [0.0, 1.0]]
    trans = [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]
    spec = ModelSpec.from_tables(
        K=1, n=1, T=2, state_size=2, obs_sizes=(2,), act_sizes=(2,),
        init_dist=[0.5, 0.5], transition=[trans, trans],
        observation=[(q,)] * 3, stage_cost=[[[0.0, 0.0], [0.0, 0.0]]] * 2,
        terminal_cost=[0.0, 0.0])
    rep = check_k1_reduction(spec)
    assert rep["max_gap"] == 0.0


def test_k1_reduction_reports_a_branch_only_the_recursion_reaches(canon_1, monkeypatch):
    """A textbook filter that calls a reached branch unreachable is a 1.0
    gap, not an error; that branch's subtree has no filter to compare."""
    real = falsify.classical_filter_step

    def step(spec, t, pis):
        preds, totals = real(spec, t, pis)
        if t == 1:
            totals[:, 0, 1] = 0.0
        return preds, totals

    monkeypatch.setattr(falsify, "classical_filter_step", step)
    rep = check_k1_reduction(canon_1)
    assert rep["max_gap"] == 1.0
    assert rep["witness"] == "y0=0,u=0,y=0,u=0,y=1 (reachability disagrees)"
    assert not any(e["where"].startswith("y0=0,u=0,y=0,u=0,y=1,") for e in rep["gaps"])


def test_k1_reduction_reports_a_branch_only_the_filter_reaches(monkeypatch):
    """Where the deterministic chain's filter has a zero total, a filter
    that predicts a uniform vector reaches a branch the recursion does
    not: a 1.0 gap."""
    chain = deterministic_chain()
    real = falsify.classical_filter_step

    def step(spec, t, pis):
        preds, totals = real(spec, t, pis)
        zero = totals == 0.0
        preds[zero], totals[zero] = 1.0 / spec.state_size, 1.0
        return preds, totals

    monkeypatch.setattr(falsify, "classical_filter_step", step)
    rep = check_k1_reduction(chain)
    assert rep["max_gap"] == 1.0
    assert len([e for e in rep["gaps"] if e["where"].endswith("(reachability disagrees)")]) == 6


@pytest.mark.parametrize("make, args", [
    (canonical_instance, ("CANON-1",)),
    *((sparse_model, (seed, 1, n, 3)) for seed, n in ((0, 1), (3, 2), (5, 3))),
    *((random_model, (seed, 1, 1, 1, 9)) for seed in (0, 1)),
    *((random_model, (seed, 1, 2, 2, 8)) for seed in (0, 1)),
])
def test_k1_reduction_matches_the_per_node_reference(make, args):
    """The batched filter step is the scalar step bit for bit on every
    (node, action, observation) of the recursion's layers, a zero total
    where the scalar step raises; and the layer-wise reduction is the
    per-node one dict for dict. Alphabets 8 and 9 sum a row pairwise, so
    they tell a contiguous total from a strided one."""
    spec = make(*args)
    for lay in expand(spec, 0, None, free=True)[:-1]:
        pis = lay.beliefs[:, :, 0]
        preds, totals = classical_filter_step(spec, lay.t, pis)
        for (i, u, y), total in np.ndenumerate(totals):
            try:
                want = classical_filter_update(spec, pis[i], u, y, lay.t)
            except UnreachableError:
                assert total == 0.0
            else:
                assert np.array_equal(preds[i, u, y] / total, want)
    assert check_k1_reduction(spec) == k1_reduction(spec)
@pytest.mark.parametrize("seed", range(12))
def test_k1_reduction_agrees_on_sparse_single_agent_models(seed):
    """Zero kernel entries: the recursion and the filter drop the same
    branches (seed 0 cannot reach its first observation 0). With n = 2 and
    3 the codes carry private action digits below the newest observation,
    on the sparse draws and on dense ones with alphabet 2."""
    for spec in (*(sparse_model(seed, 1, n, 3) for n in (1, 2, 3)),
                 *(random_model(seed, 1, n, 3, 2) for n in (2, 3))):
        rep = check_k1_reduction(spec)
        assert rep["max_gap"] <= K1_TOL, spec.n
        assert not any(e["where"].endswith("(reachability disagrees)") for e in rep["gaps"])


def test_k1_reduction_requires_single_agent(canon_2a):
    with pytest.raises(ValueError, match="single-agent"):
        check_k1_reduction(canon_2a)


# --- payoff identity -----------------------------------------------------------------

def test_payoff_identity_all_instances(canon_2a, canon_2b, canon_1):
    for spec in (canon_2a, canon_2b, canon_1):
        for name, g in five_profiles(spec):
            rep = check_payoff_identity(spec, g)
            assert rep["max_gap"] <= 1e-10, name
            assert len(rep["gaps"]) == spec.K


def test_payoff_identity_deterministic_model():
    from conftest import deterministic_chain

    spec = deterministic_chain()
    rep = check_payoff_identity(spec, constant_profile(spec, 0))
    assert rep["max_gap"] <= 1e-15
