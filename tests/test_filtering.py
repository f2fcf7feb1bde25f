import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_gap, others_play, random_model, rows_at, sparse_model
from delaypbp import filtering, oracle
from delaypbp.falsify import classical_filter_step
from delaypbp.filtering import expand, start, step, step_tables
from delaypbp.info import grid_size, other_agents, shared_prefix_len
from delaypbp.model import ModelSpec
from delaypbp.strategies import (constant_profile, observation_following_profile,
                                 random_profile)
from reference_recursion import Blocks, advance_other, decode_blocks, other_private_space
from reference_recursion import decode as decode_node


def perfect_obs_identity_spec():
    """Agent 0 observes the state exactly and the state never moves."""
    q_perfect = [[1.0, 0.0], [0.0, 1.0]]
    q_noisy = [[0.7, 0.3], [0.3, 0.7]]
    identity = [
        [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]]],
        [[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]],
    ]
    c = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    return ModelSpec.from_tables(
        K=2, n=1, T=2, state_size=2, obs_sizes=(2, 2), act_sizes=(2, 2),
        init_dist=[0.5, 0.5], transition=[identity, identity],
        observation=[(q_perfect, q_noisy)] * 3, stage_cost=[c, c],
        terminal_cost=[0.0, 0.0])


def uniform_spec():
    """Uniform prior and channels, doubly stochastic transition."""
    q = [[0.5, 0.5], [0.5, 0.5]]
    flip = [
        [[[0.3, 0.7], [0.3, 0.7]], [[0.3, 0.7], [0.3, 0.7]]],
        [[[0.7, 0.3], [0.7, 0.3]], [[0.7, 0.3], [0.7, 0.3]]],
    ]
    c = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    return ModelSpec.from_tables(
        K=2, n=1, T=2, state_size=2, obs_sizes=(2, 2), act_sizes=(2, 2),
        init_dist=[0.5, 0.5], transition=[flip, flip],
        observation=[(q, q)] * 3, stage_cost=[c, c], terminal_cost=[0.0, 0.0])


# --- initial beliefs --------------------------------------------------------

def initial_belief(spec, k, y0):
    """The time-0 belief of `filtering.start` at first observation y0 (at
    t = 0 the code is the first observation)."""
    lay = start(spec, k, constant_profile(spec, 0))
    return dict(zip(lay.codes.tolist(), lay.beliefs))[y0]


def test_initial_belief_uniform_no_information():
    spec = uniform_spec()
    b = initial_belief(spec, 0, 0)
    assert b.shape == (2, 2) and not b.flags.writeable
    assert np.allclose(b, 1.0 / b.size)


def test_initial_belief_perfect_observation():
    spec = perfect_obs_identity_spec()
    b = initial_belief(spec, 0, 1)
    assert np.allclose(b.sum(axis=1), [0.0, 1.0])


def test_initial_belief_matches_oracle(canon_2a):
    g = observation_following_profile(canon_2a)
    for k in range(2):
        first = start(canon_2a, k, g)
        assert [decode_blocks(canon_2a, k, 0, c) for c in first.codes.tolist()] == [
            first_realization(canon_2a, k, y0) for y0 in range(2)]
        post = rows_at(oracle.posteriors(canon_2a, g, k)[0], first.codes)
        assert first.beliefs.shape == post.shape
        assert np.max(np.abs(first.beliefs - post)) <= 1e-15


def test_initial_belief_unreachable_observation():
    spec = perfect_obs_identity_spec()
    narrowed = ModelSpec.from_tables(
        spec.K, spec.n, spec.T, spec.state_size, spec.obs_sizes, spec.act_sizes,
        [1.0, 0.0], spec.transition, spec.observation, spec.stage_cost,
        spec.terminal_cost)
    assert start(narrowed, 0, constant_profile(narrowed, 0)).codes.tolist() == [0]


# --- one-step updates -------------------------------------------------------

def first_realization(spec, k, y0):
    """Agent k's time-0 realization: no shared block, first observation y0."""
    return Blocks(((),) * spec.K, ((),) * spec.K, (y0,), ())


def successors_by_block(spec, k, y0, g, u):
    """(shared block, own observation) -> belief over the positive-mass
    children of the time-0 node at first observation y0 under own action
    u, from one step of the start layer."""
    lay = start(spec, k, g)
    nxt = step(spec, k, g, lay, np.full(len(lay), u))
    mine = nxt.parent == lay.codes.tolist().index(y0)
    return {((r1.shared_obs, r1.shared_acts), r1.own_obs[-1]): b
            for r1, b in zip((decode_blocks(spec, k, 1, int(c)) for c in nxt.codes[mine]),
                             nxt.beliefs[mine])}


def test_update_perfect_observation_collapses():
    spec = perfect_obs_identity_spec()
    g = constant_profile(spec, 0)
    children = successors_by_block(spec, 0, 1, g, 0)
    assert len(children) == 2  # one per value of the other agent's y0
    for b in children.values():
        assert np.allclose(b.sum(axis=1), [0.0, 1.0])


def test_update_unreachable_continuation_has_no_child():
    # identity transition and a perfect channel: the next own observation
    # cannot differ from the current state
    spec = perfect_obs_identity_spec()
    g = constant_profile(spec, 0)
    children = successors_by_block(spec, 0, 1, g, 0)
    assert len({c for c, _ in children}) == 2
    assert all(y == 1 for _, y in children)


def test_update_uniform_symmetry():
    spec = uniform_spec()
    g = constant_profile(spec, 0)
    children = successors_by_block(spec, 0, 0, g, 1)
    assert {y for _, y in children} == {0, 1}
    for b in children.values():
        assert np.allclose(b.sum(axis=1), [0.5, 0.5])


# --- chain vs oracle --------------------------------------------------------

@pytest.mark.parametrize("agent", [0, 1])
def test_chain_matches_oracle_canon_2a(canon_2a, agent):
    g = observation_following_profile(canon_2a)
    layers = expand(canon_2a, agent, g, free=False)
    for lay in layers:
        assert len(lay), "no reachable realizations found"
        assert abs(sum(lay.prob.tolist()) - 1.0) <= 1e-10
        assert np.max(np.abs(lay.beliefs.sum(axis=(1, 2)) - 1.0)) <= 1e-10
    assert oracle_gap(canon_2a, g, agent, layers) <= 1e-10
    assert sum(map(len, layers)) >= 40


def test_oracle_belief_ignores_own_strategy_bitwise(canon_2a):
    g_a = observation_following_profile(canon_2a)
    g_b = g_a.with_agent(0, constant_profile(canon_2a, 1).maps[0])
    # a realization reachable under both: actions in the realization are
    # what matters, not the maps that produced them
    shared = np.intersect1d(*(expand(canon_2a, 0, g, free=False)[1].codes
                              for g in (g_a, g_b)))
    assert len(shared)
    post_a = rows_at(oracle.posteriors(canon_2a, g_a, 0)[1], shared)
    post_b = rows_at(oracle.posteriors(canon_2a, g_b, 0)[1], shared)
    assert np.array_equal(post_a, post_b)


def test_oracle_belief_unreachable_realization(canon_2a):
    """The oracle has no posterior at a realization of zero probability:
    under the all-0 opponent, exactly those in which it played 1."""
    g = constant_profile(canon_2a, 0)
    codes, _ = oracle.posteriors(canon_2a, g, 0)[1]
    unreachable = [decode_blocks(canon_2a, 0, 1, code) for code in range(grid_size(canon_2a, 0, 1))
                   if code not in codes]
    assert len(unreachable) == len(codes) == 16
    assert all(r.shared_acts[1] == (1,) for r in unreachable)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 2]))
def test_chain_matches_oracle_random_models(seed, n):
    """Recursion equals definition-level Bayes on random dense models,
    including two-step sharing."""
    spec = random_model(seed, K=2, n=n, T=2, sizes=2)
    g = random_profile(spec, np.random.default_rng(seed + 1))
    for k in range(spec.K):
        assert oracle_gap(spec, g, k, expand(spec, k, g, free=False)) <= 1e-10


# --- one forward expansion ---------------------------------------------------

@pytest.mark.parametrize("n", [1, 2])
def test_expand_follows_g_inside_the_free_expansion(n):
    """expand(free=False) keeps, at every node, only g's own action; its
    nodes are nodes of expand(free=True) with the same belief, step weights
    and path probability, and in both expansions a node's prob is its
    parent's times its weight. Two passes give the same layers."""
    spec = random_model(seed=3 + n, K=2, n=n, T=3, sizes=2)
    g = random_profile(spec, np.random.default_rng(n))
    for k in range(spec.K):
        layers = expand(spec, k, g, free=False)
        free = expand(spec, k, g, free=True)
        chain = expand(spec, k, g, free=False)
        where = [{int(c): i for i, c in enumerate(f.codes)} for f in free]
        for t, lay in enumerate(layers):
            assert np.array_equal(chain[t].codes, lay.codes)
            assert np.array_equal(chain[t].beliefs, lay.beliefs)
            assert not lay.beliefs.flags.writeable
            at = [where[t][int(c)] for c in lay.codes]
            assert np.array_equal(free[t].beliefs[at], lay.beliefs)
            # a code fixes agent k's own actions, so its probability is the
            # same in both expansions
            assert free[t].prob[at].tobytes() == lay.prob.tobytes()
            if t == 0:
                assert np.array_equal(lay.prob, lay.weight)
                assert np.array_equal(free[0].prob, free[0].weight)
                continue
            # the one edge kept is the parent's g-action, with the free
            # expansion's predecessor and step weight
            prev = layers[t - 1]
            assert np.array_equal(lay.action, g.maps[k][t - 1][prev.codes[lay.parent]])
            assert np.array_equal(free[t].action[at], lay.action)
            assert np.array_equal(free[t].weight[at], lay.weight)
            assert free[t].parent[at].tolist() == [where[t - 1][int(c)]
                                                   for c in prev.codes[lay.parent]]
            assert np.array_equal(lay.prob, prev.prob[lay.parent] * lay.weight)
            assert np.array_equal(free[t].prob,
                                  free[t - 1].prob[free[t].parent] * free[t].weight)
        for t in range(spec.T):
            # every free node has children under every own action
            edges = set(zip(free[t + 1].parent.tolist(), free[t + 1].action.tolist()))
            assert len(edges) == len(free[t]) * spec.act_sizes[k]


def test_expand_rejects_a_realization_reached_twice(canon_2a, monkeypatch):
    g = observation_following_profile(canon_2a)
    advance = filtering.next_codes
    monkeypatch.setattr(filtering, "next_codes", lambda *a: advance(*a) // 2)
    with pytest.raises(AssertionError, match="reached twice"):
        expand(canon_2a, 0, g, free=True)


def test_step_tables_are_shared_per_model_and_agent():
    """Expansions of one (spec, k) under different profiles read one tables
    object, another agent its own, and no expansion can write to them."""
    spec = random_model(seed=3, K=2, n=2, T=2, sizes=2)
    expand(spec, 0, constant_profile(spec, 0), free=True)
    tables = step_tables(spec, 0)
    expand(spec, 0, observation_following_profile(spec), free=True)
    assert step_tables(spec, 0) is tables
    assert step_tables(spec, 1) is not tables
    assert len(tables) == spec.T  # one table per step, none at the horizon
    arrays = [a for tab in tables for value in vars(tab).values()
              for a in (value if isinstance(value, tuple) else (value,))
              if isinstance(a, np.ndarray)]
    assert {"off", "joint", "trans", "own_lik"} <= set(vars(tables[0]))
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0


def test_step_tables_do_not_keep_their_model_alive():
    spec = random_model(seed=3, K=2, n=1, T=2, sizes=2)
    expand(spec, 0, constant_profile(spec, 0), free=True)
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


# --- classical filter -------------------------------------------------------

def single_agent_spec(q):
    # doubly stochastic transition, one action-less-ish shape (2 actions)
    trans = [[[0.3, 0.7], [0.3, 0.7]], [[0.7, 0.3], [0.7, 0.3]]]
    return ModelSpec.from_tables(
        K=1, n=1, T=1, state_size=2, obs_sizes=(2,), act_sizes=(2,),
        init_dist=[0.5, 0.5], transition=[trans],
        observation=[(q,)] * 2, stage_cost=[[[0.0, 0.0], [0.0, 0.0]]],
        terminal_cost=[0.0, 0.0])


def filter_at(spec, pi, u, y_next):
    """The time-1 textbook filter from the time-0 belief pi under (u, y_next)."""
    preds, totals = classical_filter_step(spec, 0, np.array([pi]))
    return preds[0, u, y_next] / totals[0, u, y_next]


def test_classical_filter_uniform():
    spec = single_agent_spec([[0.5, 0.5], [0.5, 0.5]])
    pi = filter_at(spec, [0.5, 0.5], 0, 1)
    assert np.allclose(pi, [0.5, 0.5])


def test_classical_filter_perfect_observation():
    spec = single_agent_spec([[1.0, 0.0], [0.0, 1.0]])
    pi = filter_at(spec, [0.5, 0.5], 0, 1)
    assert np.allclose(pi, [0.0, 1.0])


def test_classical_filter_matches_recursion_marginal(canon_1):
    g = constant_profile(canon_1, 0)
    first = expand(canon_1, 0, g, free=False)[0]
    for code, b in zip(first.codes.tolist(), first.beliefs):
        y0 = decode_blocks(canon_1, 0, 0, code).own_obs[0]
        raw = canon_1.init_dist * canon_1.observation[0][0][:, y0]
        pi = raw / raw.sum()
        assert np.max(np.abs(b.sum(axis=1) - pi)) <= 1e-12


# --- batched kernel vs the scalar loop it replaced ----------------------------

def loop_child(spec, k, common, xi, g, u, revealed, y):
    """Reference: the per-entry loop over the grid, with the kernel's
    association of products and order of accumulation. Returns the child's
    (belief, weight), or None when it has zero mass."""
    t, others = common.t, other_agents(spec.K, k)
    lams, lams1 = other_private_space(spec, k, t), other_private_space(spec, k, t + 1)
    mat = np.zeros((spec.state_size, len(lams1)))
    for (x, li), p in np.ndenumerate(xi):
        if p <= 0.0:
            continue
        lam = lams[li]
        u_other = others_play(g, common, lam)
        if revealed:
            shown = (tuple(q.obs[0] for q in lam),
                     tuple(q.acts[0] for q in lam) if spec.n >= 2 else u_other)
            if shown != revealed:
                continue
        u_full = list(u_other)
        u_full.insert(k, u)
        row = spec.transition[t][(x, *u_full)]
        for x1 in range(spec.state_size):
            w = p * row[x1] * spec.observation[t + 1][k][x1, y]
            for ys in itertools.product(*(range(spec.obs_sizes[j]) for j in others)):
                wy = w
                for pos, j in enumerate(others):
                    wy *= spec.observation[t + 1][j][x1, ys[pos]]
                mat[x1, lams1.index(advance_other(lam, ys, u_other))] += wy
    total = float(mat.sum())
    return (mat / total, total) if total > 0.0 else None


@pytest.mark.parametrize("spec", [
    *(pytest.param(random_model(seed=7 * K + 5 * n + T, K=K, n=n, T=T, sizes=sizes),
                   id=f"{K}-{n}-{T}-{sizes}")
      for K, n, T, sizes in [(2, 1, 3, 2), (2, 2, 3, 2), (3, 1, 2, 2), (2, 1, 2, 3),
                             (2, 2, 2, 3)]),
    *(pytest.param(sparse_model(seed, K, n, T), id=f"sparse-{seed}-{K}-{n}-{T}")
      for seed, K, n, T in [(0, 1, 1, 3), (5, 1, 2, 3), (1, 2, 2, 3), (7, 2, 1, 3),
                            (5, 2, 2, 3), (1, 3, 1, 2)])])
def test_batched_kernel_equals_scalar_loop_bitwise(spec):
    """With three states a cell sums three or more terms, so the order of
    accumulation shows in the last bit. Every node the chain reaches is
    checked under every own action, through the free expansion's layers.
    Sparse draws add zero kernel entries, unequal alphabets, one agent and
    single-action agents."""
    K, n, T = spec.K, spec.n, spec.T
    g = random_profile(spec, np.random.default_rng(K * n * T))
    for k in sorted({0, K - 1}):
        others = other_agents(K, k)
        shown = list(itertools.product(
            itertools.product(*(range(spec.obs_sizes[j]) for j in others)),
            itertools.product(*(range(spec.act_sizes[j]) for j in others))))
        chain = expand(spec, k, g, free=False)
        free = expand(spec, k, g, free=True)
        for t in range(T):
            promote = shared_prefix_len(n, t + 1) > shared_prefix_len(n, t)
            reveals = shown if promote else [()]
            nxt = free[t + 1]
            on_chain = set(chain[t].codes.tolist())
            for i, code in enumerate(free[t].codes.tolist()):
                if code not in on_chain:
                    continue
                r, xi = decode_node(spec, k, t, code), free[t].beliefs[i]
                for u in range(spec.act_sizes[k]):
                    got = {}
                    for c in np.flatnonzero((nxt.parent == i) & (nxt.action == u)):
                        r1 = decode_blocks(spec, k, t + 1, int(nxt.codes[c]))
                        rev = ((tuple(r1.shared_obs[j][-1] for j in others),
                                tuple(r1.shared_acts[j][-1] for j in others))
                               if promote else ())
                        got[(rev, r1.own_obs[-1])] = (nxt.beliefs[c], nxt.weight[c])
                    want = {}
                    for rev in reveals:
                        for y in range(spec.obs_sizes[k]):
                            ref = loop_child(spec, k, r.common, xi, g, u, rev, y)
                            if ref is not None:
                                want[(rev, y)] = ref
                    assert list(got) == sorted(want)
                    for key, (probs, w) in want.items():
                        assert np.array_equal(got[key][0], probs) and got[key][1] == w
