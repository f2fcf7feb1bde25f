import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SHAPES, layer_nodes, random_model
from delaypbp import oracle
from delaypbp.filtering import BeliefPass
from delaypbp.info import (Blocks, decode, encode, grid_size, history_code, lambda_labels,
                           next_codes, oldest, parse_realization_key, private_act_len,
                           private_obs_len, private_size, realization_key, shared_prefix_len,
                           shift_code)
from delaypbp.model import ModelSpec
from delaypbp.strategies import (constant_profile, observation_following_profile,
                                 random_profile)


def make_history(K, t, fill=0):
    """A joint history to time t: per-agent observation and action streams."""
    return (tuple(tuple((fill + k + s) % 3 for s in range(t + 1)) for k in range(K)),
            tuple(tuple((fill + k + s + 1) % 3 for s in range(t)) for k in range(K)))


def split(spec, obs, acts, k, t):
    """Agent k's blocks and lambda at time t, read through the codes: agent
    k's history code decoded, and each other agent's decoded private block
    (observations, actions), keyed by agent."""
    b = decode(spec, k, t, history_code(spec, obs, acts, k, t))
    lam = {j: decode(spec, j, t, history_code(spec, obs, acts, j, t))[2:]
           for j in range(spec.K) if j != k}
    return b, lam


@functools.lru_cache(maxsize=None)
def alphabet3_spec(K, n):
    """A model whose alphabets hold make_history's symbols, horizon 5."""
    return random_model(seed=K * n, K=K, n=n, T=5, sizes=3)


# --- split examples ---------------------------------------------------------

def test_split_t0_n1(canon_2a):
    b, o = split(canon_2a, ((0,), (1,)), ((), ()), 0, 0)
    assert b.shared_obs == ((), ()) and b.shared_acts == ((), ())
    assert b.own_obs == (0,) and b.own_acts == ()
    assert o == {1: ((1,), ())}


def test_split_t1_n1(canon_2a):
    b, o = split(canon_2a, ((0, 1), (1, 0)), ((1,), (0,)), 0, 1)
    assert b.shared_obs == ((0,), (1,)) and b.shared_acts == ((1,), (0,))
    assert b.own_obs == (1,) and b.own_acts == ()
    assert o == {1: ((0,), ())}


def test_split_t2_n2_agent1():
    b, o = split(alphabet3_spec(2, 2), ((0, 1, 0), (1, 1, 0)), ((1, 0), (0, 1)), 1, 2)
    assert b.shared_obs == ((0,), (1,)) and b.shared_acts == ((1,), (0,))
    assert b.own_obs == (1, 0) and b.own_acts == (1,)
    assert o == {0: ((1, 0), (0,))}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 5), st.integers(0, 2))
def test_split_partition_property(K, n, t, fill):
    """Agent k's shared prefix plus private block is exactly its stream."""
    (obs, acts), spec = make_history(K, t, fill), alphabet3_spec(K, n)
    for k in range(K):
        b, o = split(spec, obs, acts, k, t)
        assert b.shared_obs[k] + b.own_obs == obs[k]
        assert b.shared_acts[k] + b.own_acts == acts[k]
        assert len(b.own_obs) == private_obs_len(n, t)
        assert len(b.own_acts) == private_act_len(n, t)
        for j, (ys, us) in o.items():
            assert b.shared_obs[j] + ys == obs[j]
            assert b.shared_acts[j] + us == acts[j]


# --- advance ------------------------------------------------------------------

def extend(obs, acts, new_obs, new_acts):
    return (tuple(ys + (y,) for ys, y in zip(obs, new_obs)),
            tuple(us + (u,) for us, u in zip(acts, new_acts)))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(0, 4), st.integers(0, 2))
def test_advance_matches_split_of_extended_history(K, n, t, fill):
    """Advancing agent k's code one step (`next_codes`) gives the code of
    the extended history, and the others' private codes shift by the same
    rule (`shift_code`). Once t >= n-1 the oldest private symbols move
    into the shared block; with n = 1 the actions go there straight away."""
    spec = alphabet3_spec(K, n)
    obs, acts = make_history(K, t, fill)
    new_obs = tuple((fill + 2 + j) % 3 for j in range(K))
    new_acts = tuple((fill + 1 + j) % 3 for j in range(K))
    obs1, acts1 = extend(obs, acts, new_obs, new_acts)
    promote = shared_prefix_len(n, t + 1) > shared_prefix_len(n, t)
    for k in range(K):
        b, o = split(spec, obs, acts, k, t)
        others = [j for j in range(K) if j != k]
        shown_obs = [o[j][0][0] if promote else 0 for j in others]
        shown_acts = [(o[j][1][0] if n >= 2 else new_acts[j]) if promote else 0
                      for j in others]
        code = np.array([history_code(spec, obs, acts, k, t)])
        assert oldest(spec, k, t, code % private_size(spec, k, t)) == (
            b.own_obs[0], b.own_acts[0] if b.own_acts else None)
        code1 = next_codes(spec, k, t, code, new_acts[k], shown_obs + shown_acts, new_obs[k])
        assert code1.tolist() == [history_code(spec, obs1, acts1, k, t + 1)]
        for j in others:
            pc = history_code(spec, obs, acts, j, t) % private_size(spec, j, t)
            assert (shift_code(spec, j, t, pc, new_obs[j], new_acts[j])
                    == history_code(spec, obs1, acts1, j, t + 1) % private_size(spec, j, t + 1))


def test_advance_then_shift_roundtrip():
    """Every agent's code at t = 3 advances to its code at t = 4 for delays
    1..3, whatever the new symbols."""
    obs, acts = make_history(2, 3)
    for n in (1, 2, 3):
        spec = alphabet3_spec(2, n)
        for y, u in ((0, 1), (2, 0)):
            obs2, acts2 = extend(obs, acts, (y, y), (u, u))
            promoted = shared_prefix_len(n, 4) - 1  # the time-(4-n) symbols
            for k, j in ((0, 1), (1, 0)):
                code = np.array([history_code(spec, obs, acts, k, 3)])
                code2 = next_codes(spec, k, 3, code, u,
                                   [obs2[j][promoted], acts2[j][promoted]], y)
                assert code2.tolist() == [history_code(spec, obs2, acts2, k, 4)]


# --- keys and ordering ------------------------------------------------------

def test_realization_key_roundtrip():
    obs, acts = make_history(2, 2)
    for n in (1, 2):
        spec = random_model(seed=n, K=2, n=n, T=2, sizes=3)
        for k in range(2):
            code = history_code(spec, obs, acts, k, 2)
            assert encode(spec, k, 2, decode(spec, k, 2, code)) == code
            key = realization_key(spec, k, 2, code)
            assert parse_realization_key(key, spec, k, 2) == code


@pytest.mark.parametrize("key,problem", [
    ("c(0/1;1/0;1/1)p(1/)", "names 3 agents"),
    ("c(0/1)p(1/)", "names 1 agents"),
    ("c(0/1;1/0)p(7/)", "agent 0's alphabets"),
    ("c(0/1;2/0)p(1/)", "agent 1's alphabets"),
    ("c(0/1;1/3)p(1/)", "agent 1's alphabets"),
    ("c(0/1;1/0)p(1-1/)", "private obs must have length 1"),
    ("c(0-1/1;1/0)p(1/)", "agent 0: shared prefixes must have length 1, got obs 2 / acts 1"),
    ("c(0/1;1/0)p(1/0)", "private acts must have length 0"),
    ("c( 0/+1;1/0)p(01/)", r"not the canonical spelling 'c\(0/1;1/0\)p\(1/\)'"),
    ("c(0/1;1/0)p(1/)p(0/)", r"one '\)p\(' between the shared and private blocks, found 2"),
    ("c(0/1;1/0)p(1)", "block '1' needs one '/' between observations and actions, found 0"),
    ("c(0/1;1//0)p(1/)", "block '1//0' needs one '/' between observations and actions, found 2"),
    ("c(0/1;1/0)p(-1/)", r"block '-1/': observation symbol 0 is ''; symbols are non-negative "
                         r"decimal integers joined by single '-'"),
    ("c(0/1;1/0)p(1--0/)", "block '1--0/': observation symbol 1 is ''"),
    ("c(0/1;1/0)p(x/)", "block 'x/': observation symbol 0 is 'x'"),
])
def test_parse_realization_key_rejects_keys_outside_the_model(canon_2a, key, problem):
    with pytest.raises(ValueError, match=problem):
        parse_realization_key(key, canon_2a, 0, 1)


def canonical(r):
    """The canonical order of one agent's realizations at one time:
    shared observations, shared actions, private observations, private
    actions, each agent-major and compared as nested tuples."""
    return (r.shared_obs, r.shared_acts, r.own_obs, r.own_acts)


def test_sort_key_total_order():
    """On every benchmark shape, codes 0, 1, ... decode to realizations in
    strictly increasing canonical order, each round-tripping through its
    text key."""
    for K, n, T, sizes in SHAPES:
        spec = random_model(seed=0, K=K, n=n, T=T, sizes=sizes)
        for k in range(K):
            for t in range(T):
                prev = None
                for code in range(grid_size(spec, k, t)):
                    r = decode(spec, k, t, code)
                    assert parse_realization_key(realization_key(spec, k, t, code),
                                                 spec, k, t) == code
                    assert encode(spec, k, t, r) == code
                    assert prev is None or canonical(prev) < canonical(r)
                    prev = r


def test_random_profile_draws_one_integer_per_cell_in_code_order():
    """random_profile equals, bit for bit, one scalar draw per cell in
    (agent, time, code) order from the same generator state."""
    for K, n, T, sizes in SHAPES:
        spec = random_model(seed=1, K=K, n=n, T=T, sizes=sizes)
        g = random_profile(spec, np.random.default_rng(K * n * T))
        rng = np.random.default_rng(K * n * T)
        for k in range(K):
            for t in range(T):
                want = [int(rng.integers(0, spec.act_sizes[k]))
                        for _ in range(grid_size(spec, k, t))]
                assert g.maps[k][t].tolist() == want


def test_structural_grid_size(canon_2a):
    """On every benchmark shape the grid is every index-valid (shared,
    private) pair: each window's alphabet to the power of its length. Agent
    j's code, read off a history, is the code of the blocks its windows
    cut from the history, and splits into the shared block's code (the
    same for every agent) * private_size + its private block's index;
    lambda ranges over the others' private blocks."""
    for K, n, T, sizes in SHAPES:
        spec = random_model(seed=0, K=K, n=n, T=T, sizes=sizes)
        obs_all = tuple(tuple((k + s) % sizes for s in range(T)) for k in range(K))
        acts_all = tuple(tuple((k + s + 1) % sizes for s in range(T - 1)) for k in range(K))
        for k in range(K):
            for t in range(T):
                cut = shared_prefix_len(n, t)
                assert private_size(spec, k, t) == sizes ** (private_obs_len(n, t)
                                                            + private_act_len(n, t))
                assert grid_size(spec, k, t) == ((sizes * sizes) ** (K * cut)
                                                 * private_size(spec, k, t))
                last = decode(spec, k, t, grid_size(spec, k, t) - 1)
                assert last.shared_obs == ((sizes - 1,) * cut,) * K
                obs = tuple(ys[:t + 1] for ys in obs_all)
                acts = tuple(us[:t] for us in acts_all)
                blocks = Blocks(tuple(ys[:cut] for ys in obs), tuple(us[:cut] for us in acts),
                                obs[k][cut:t + 1], acts[k][cut:t])
                code = history_code(spec, obs, acts, k, t)
                assert code == encode(spec, k, t, blocks)
                assert (code // private_size(spec, k, t)
                        == history_code(spec, obs, acts, 0, t) // private_size(spec, 0, t))
                assert len(lambda_labels(spec, k, t)) == math.prod(
                    private_size(spec, j, t) for j in range(K) if j != k)
    # shared block at t=1, n=1: one obs + one act per agent (2*2)^2 = 16,
    # times 2 private observations
    assert grid_size(canon_2a, 0, 1) == 32
    assert grid_size(canon_2a, 0, 0) == 2
    assert len(lambda_labels(canon_2a, 0, 1)) == 2


# --- reachability: the DP's expanded nodes are the oracle's reachable set ------

def assert_dp_nodes_are_oracle_reachable(spec, g, k):
    """At every t, the realizations the best-response DP expands (agent k's
    actions free) are those the oracle's walk reaches with agent k free, and
    each chained belief has the oracle posterior's support. Returns the
    oracle posteriors per t."""
    layers = BeliefPass(spec, k, g).expand(free=True)
    posts = []
    for t, lay in enumerate(layers):
        post = oracle.posteriors(spec, g, k, t)
        nodes = layer_nodes(lay)
        assert set(nodes) == set(post)
        for r, b in nodes.items():
            assert b.shape == post[r].shape
            assert np.array_equal(b > 0.0, post[r] > 0.0)
        posts.append(post)
    return posts


def lam_support(mat):
    return int(np.count_nonzero(mat.sum(axis=0)))


def test_enumerate_reachable_t0(canon_2a):
    g = observation_following_profile(canon_2a)
    rs = assert_dp_nodes_are_oracle_reachable(canon_2a, g, 0)[0]
    assert len(rs) == 2  # both first observations have positive probability
    for code, mat in rs.items():
        assert decode(canon_2a, 0, 0, code).own_obs == (code,)
        assert lam_support(mat) == 2


def test_enumerate_reachable_counts_on_canon_2a(canon_2a):
    # 16 shared-block combinations x 2 private observations, halved because
    # the deterministic opponent pins its own past action to its observation
    g = observation_following_profile(canon_2a)
    posts = assert_dp_nodes_are_oracle_reachable(canon_2a, g, 0)
    assert len(posts[1]) == 16
    for code, mat in posts[1].items():
        r = decode(canon_2a, 0, 1, code)
        y02, u02 = r.shared_obs[1][0], r.shared_acts[1][0]
        assert u02 == y02  # opponent determinism filtered the rest
        assert lam_support(mat) == 2
    assert len(posts[2]) == 128


def test_enumerate_reachable_respects_zero_kernel_rows(canon_2a):
    obs = [[q.copy() for q in qs] for qs in canon_2a.observation]
    obs[0][0] = [[1.0, 0.0], [1.0, 0.0]]  # agent 0 can only ever see y=0 at t=0
    spec = ModelSpec.from_tables(
        canon_2a.K, canon_2a.n, canon_2a.T, canon_2a.state_size,
        canon_2a.obs_sizes, canon_2a.act_sizes, canon_2a.init_dist,
        canon_2a.transition, obs, canon_2a.stage_cost, canon_2a.terminal_cost)
    g = observation_following_profile(spec)
    rs = assert_dp_nodes_are_oracle_reachable(spec, g, 0)[0]
    assert [decode(spec, 0, 0, code).own_obs for code in rs] == [(0,)]
    posts = assert_dp_nodes_are_oracle_reachable(spec, g, 1)
    assert posts[1]
    for code in posts[1]:
        assert decode(spec, 1, 1, code).shared_obs[0] == (0,)


def test_enumerate_reachable_closed_under_advance(canon_2a):
    """Every reachable (t+1)-realization restricts to a reachable t-one."""
    g = constant_profile(canon_2a, 0)
    at = assert_dp_nodes_are_oracle_reachable(canon_2a, g, 0)
    for t in range(1, canon_2a.T + 1):
        for r in (decode(canon_2a, 0, t, code) for code in at[t]):
            # unique predecessor for n=1: drop the newest shared symbols,
            # the private block was the last promoted own observation
            prev = Blocks(tuple(ys[:-1] for ys in r.shared_obs),
                          tuple(us[:-1] for us in r.shared_acts), (r.shared_obs[0][-1],), ())
            assert encode(canon_2a, 0, t - 1, prev) in at[t - 1]


@pytest.mark.parametrize("K,n,T", [(2, 1, 3), (2, 2, 3), (3, 1, 2)])
def test_dp_nodes_are_oracle_reachable_on_random_models(K, n, T):
    spec = random_model(seed=100 * K + 10 * n + T, K=K, n=n, T=T, sizes=2)
    g = random_profile(spec, np.random.default_rng(K * n * T))
    for k in (0, K - 1):
        assert_dp_nodes_are_oracle_reachable(spec, g, k)
