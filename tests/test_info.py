import functools
import gc
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SHAPES, random_model, rows_at, sparse_model
from delaypbp import cli, info, oracle
from delaypbp.filtering import expand
from delaypbp.info import (digits, grid_size, history_code, lambda_labels, newest_obs,
                           next_codes, parse_realization_keys, private_act_len, private_obs_len,
                           private_size, promoted, radix, realization_keys, revealed,
                           shared_prefix_len, shift_code)
from delaypbp.model import ModelSpec
from delaypbp.strategies import (constant_profile, observation_following_profile,
                                 random_profile)
from reference_recursion import Blocks, decode_blocks, encode_blocks, spelled_key
from test_wider_patterns import WIDER_SHAPES


def make_history(K, t, fill=0):
    """A joint history to time t: per-agent observation and action streams."""
    return (tuple(tuple((fill + k + s) % 3 for s in range(t + 1)) for k in range(K)),
            tuple(tuple((fill + k + s + 1) % 3 for s in range(t)) for k in range(K)))


def split(spec, obs, acts, k, t):
    """Agent k's blocks and lambda at time t, read through the codes: agent
    k's history code decoded, and each other agent's decoded private block
    (observations, actions), keyed by agent."""
    b = decode_blocks(spec, k, t, history_code(spec, obs, acts, k, t))
    lam = {j: decode_blocks(spec, j, t, history_code(spec, obs, acts, j, t))[2:]
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


# --- the mixed radix ----------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), max_size=5), st.integers(0, 2 ** 32 - 1))
def test_digits_invert_radix(sizes, seed):
    """radix then digits gives the digits back, for any sizes, no sizes
    included, and for digit arrays broadcast against one another."""
    rng = np.random.default_rng(seed)
    # every other digit is a column that broadcasts against the row digits
    ds = [rng.integers(s, size=(3, 1) if i % 2 else 4) for i, s in enumerate(sizes)]
    code = np.asarray(radix(ds, sizes))
    assert np.all((0 <= code) & (code < math.prod(sizes)))
    got = digits(code, sizes)
    assert len(got) == len(sizes)
    for g, d in zip(got, ds):
        assert np.array_equal(g, np.broadcast_to(d, code.shape))
    scalars = [int(rng.integers(s)) for s in sizes]
    assert [int(d) for d in digits(radix(scalars, sizes), sizes)] == scalars
    assert radix([], []) == 0 and digits(np.arange(3), ()) == ()


def symbols_promoted(spec, j, t, pcode, u):
    """Agent j's promoted observation and action read off its decoded
    private block (a private code decodes with an all-zero shared block)."""
    own_obs, own_acts = decode_blocks(spec, j, t, pcode)[2:]
    return own_obs[0], own_acts[0] if spec.n >= 2 else u


@pytest.mark.parametrize("n", [1, 2, 3])
def test_promoted_is_the_played_action_with_n1_else_the_oldest_private_one(n):
    spec = alphabet3_spec(2, n)
    for t in range(n - 1, spec.T):
        pcode = np.arange(private_size(spec, 0, t))
        for u in range(3):
            o, a = promoted(spec, 0, t, pcode, np.full(len(pcode), u))
            want = [symbols_promoted(spec, 0, t, int(pc), u) for pc in pcode]
            assert list(zip(o.tolist(), a.tolist())) == want


@pytest.mark.parametrize("n", [1, 2])
def test_revealed_index_sorts_like_the_revealed_tuples(n):
    """Over every time-(n-1) private code and action of the other two
    agents of a three-agent model, the revealed index numbers the revealed
    tuples (observations in agent order, then actions in agent order)
    0..size-1 in their sort order; nothing is revealed before t = n-1."""
    spec, t = random_model(seed=n, K=3, n=n, T=3), n - 1
    for k in range(3):
        others = [j for j in range(3) if j != k]
        if t > 0:
            assert revealed(spec, k, t - 1, [0, 0], [0, 0]) == (0, 1)
        cells = itertools.product(*(range(private_size(spec, j, t)) for j in others),
                                  *(range(spec.act_sizes[j]) for j in others))
        *pcodes, u1, u2 = map(np.array, zip(*cells))
        index, size = revealed(spec, k, t, pcodes, [u1, u2])
        shown = [symbols_promoted(spec, j, t, int(pc), int(u))
                 for j, pcs, us in zip(others, pcodes, (u1, u2)) for pc, u in zip(pcs, us)]
        half = len(shown) // 2
        tuples = [(o1, o2, a1, a2) for (o1, a1), (o2, a2) in zip(shown[:half], shown[half:])]
        assert size == len(set(tuples)) == 16
        by_index = dict(zip(index.tolist(), tuples))
        assert all(by_index[i] == tup for i, tup in zip(index.tolist(), tuples))
        assert sorted(by_index) == list(range(size))
        assert [by_index[i] for i in range(size)] == sorted(set(tuples))


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
    into the shared block; with n = 1 the actions go there straight away.
    The others' symbols come as their revealed index (`revealed`), the
    mixed radix over their observations, then their actions."""
    spec = alphabet3_spec(K, n)
    obs, acts = make_history(K, t, fill)
    new_obs = tuple((fill + 2 + j) % 3 for j in range(K))
    new_acts = tuple((fill + 1 + j) % 3 for j in range(K))
    obs1, acts1 = extend(obs, acts, new_obs, new_acts)
    promote = shared_prefix_len(n, t + 1) > shared_prefix_len(n, t)
    for k in range(K):
        b, o = split(spec, obs, acts, k, t)
        others = [j for j in range(K) if j != k]
        shown = ([o[j][0][0] for j in others]
                 + [o[j][1][0] if n >= 2 else new_acts[j] for j in others]) if promote else []
        sizes = [spec.obs_sizes[j] for j in others] + [spec.act_sizes[j] for j in others]
        index = sum(d * math.prod(sizes[i + 1:]) for i, d in enumerate(shown))
        pcodes = [history_code(spec, obs, acts, j, t) % private_size(spec, j, t) for j in others]
        assert revealed(spec, k, t, pcodes, [new_acts[j] for j in others]) == (
            index, math.prod(sizes) if promote else 1)
        code = np.array([history_code(spec, obs, acts, k, t)])
        assert promoted(spec, k, t, code % private_size(spec, k, t), new_acts[k]) == (
            b.own_obs[0], b.own_acts[0] if b.own_acts else new_acts[k])
        code1 = next_codes(spec, k, t, code, new_acts[k], np.array([index]), new_obs[k])
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
                shown = obs2[j][promoted] * spec.act_sizes[j] + acts2[j][promoted]
                code2 = next_codes(spec, k, 3, code, u, shown, y)
                assert code2.tolist() == [history_code(spec, obs2, acts2, k, 4)]


# --- keys and ordering ------------------------------------------------------

def test_realization_key_roundtrip():
    obs, acts = make_history(2, 2)
    for n in (1, 2):
        spec = random_model(seed=n, K=2, n=n, T=2, sizes=3)
        for k in range(2):
            code = history_code(spec, obs, acts, k, 2)
            assert encode_blocks(spec, k, 2, decode_blocks(spec, k, 2, code)) == code
            keys = realization_keys(spec, k, 2, [code])
            assert keys == [spelled_key(spec, k, 2, code)]
            assert parse_realization_keys(keys, spec, k, 2).tolist() == [code]


@pytest.mark.parametrize("key,problem", [
    ("c(0/1;1/0;1/1)p(1/)", "names 3 agents"),
    ("c(0/1)p(1/)", "names 1 agents"),
    ("c(0/1;1/0)p(7/)", "agent 0's alphabets"),
    ("c(0/1;1/0)p(99999999999999999999/)", "agent 0's alphabets"),
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
    """The batch reader names the bad key between two canonical ones; a
    symbol too large for int64 is outside the alphabet, not an overflow."""
    good = realization_keys(canon_2a, 0, 1, [0, 31])
    with pytest.raises(ValueError, match=problem) as err:
        parse_realization_keys([good[0], key, good[1]], canon_2a, 0, 1)
    assert str(err.value).startswith(f"bad realization key {key!r}: ")


def test_batch_reader_checks_every_key_before_any_spelling():
    """A malformed key after a misspelled one is named first: the reader
    checks the structure and alphabets of all keys, then their spellings."""
    spec = random_model(seed=1, K=2, n=1, T=2)
    with pytest.raises(ValueError, match=r"'c\(0/1;1/0\)p\(2/\)': symbol outside"):
        parse_realization_keys(["c(0/1;1/0)p(+1/)", "c(0/1;1/0)p(2/)"], spec, 0, 1)


def canonical(r):
    """The canonical order of one agent's realizations at one time:
    shared observations, shared actions, private observations, private
    actions, each agent-major and compared as nested tuples."""
    return (r.shared_obs, r.shared_acts, r.own_obs, r.own_acts)


def test_sort_key_total_order():
    """On every benchmark shape, codes 0, 1, ... spell out (decode_blocks)
    realizations in strictly increasing canonical order, and the keys of
    each (k, t) grid parse back to its codes in one batch."""
    for K, n, T, sizes in SHAPES:
        spec = random_model(seed=0, K=K, n=n, T=T, sizes=sizes)
        for k in range(K):
            for t in range(T):
                codes = np.arange(grid_size(spec, k, t))
                keys = realization_keys(spec, k, t, codes)
                assert np.array_equal(parse_realization_keys(keys, spec, k, t), codes)
                rs = [canonical(decode_blocks(spec, k, t, c)) for c in codes.tolist()]
                assert all(a < b for a, b in zip(rs, rs[1:]))


KEY_MODELS = {
    **{f"K{K}n{n}T{T}a{a}": functools.partial(random_model, 0, K, n, T, a)
       for K, n, T, a in SHAPES},
    **WIDER_SHAPES,
    "sparse-K1n1T3": lambda: sparse_model(0, 1, 1, 3),
    "sparse-K2n2T3-size1": lambda: sparse_model(5, 2, 2, 3),  # |Y_1| = |A_1| = 1
    "K1n1T1a11": lambda: random_model(3, 1, 1, 1, 11),  # two-digit symbols
    "K2n1T1a11": lambda: random_model(3, 2, 1, 1, 11),
}


@pytest.mark.parametrize("name", KEY_MODELS)
def test_realization_keys_equal_the_spelled_out_keys(name):
    """At every (k, t), t = 0..T, realization_keys gives the reference's
    spelled-out key of each code, the batch reader inverts it, and no codes
    give no keys. Grids of more than 1024 codes are checked at every
    step-th code, step odd, and at their last code."""
    spec = KEY_MODELS[name]()
    for k in range(spec.K):
        for t in range(spec.T + 1):
            size = grid_size(spec, k, t)
            codes = np.union1d(np.arange(0, size, size // 1024 | 1), [size - 1])
            keys = realization_keys(spec, k, t, codes)
            assert keys == [spelled_key(spec, k, t, c) for c in codes.tolist()]
            assert np.array_equal(parse_realization_keys(keys, spec, k, t), codes)
            assert realization_keys(spec, k, t, codes[:0]) == []
            assert parse_realization_keys([], spec, k, t).tolist() == []


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


def test_observation_following_profile_reads_the_newest_own_observation_digit():
    """Each cell of the observation-following profile equals the code's
    digit just above its private actions, read off every digit of the code
    (mod the action count), on the benchmark shapes and on two sparse draws
    whose observation and action alphabets differ."""
    specs = [random_model(seed=1, K=K, n=n, T=T, sizes=sizes) for K, n, T, sizes in SHAPES]
    for spec in specs + [sparse_model(4, 2, 2, 3), sparse_model(7, 2, 2, 3)]:
        g = observation_following_profile(spec)
        for k in range(spec.K):
            for t in range(spec.T):
                ds = digits(np.arange(grid_size(spec, k, t)), info.radices(spec, k, t))
                want = ds[len(ds) - 1 - private_act_len(spec.n, t)] % spec.act_sizes[k]
                assert np.array_equal(g.maps[k][t], want)


@pytest.mark.parametrize("K,n", itertools.product((1, 2, 3), (1, 2, 3)))
def test_newest_obs_is_the_last_private_observation_of_decode(K, n):
    """At every code of every (k, t), newest_obs reads the last own
    observation that decode_blocks spells out, on a dense draw and on a sparse one
    (unequal alphabets) whose horizons reach the first shared step."""
    for spec in (random_model(seed=K * n, K=K, n=n, T=n + 1), sparse_model(K * n, K, n, n + 1)):
        for k in range(K):
            for t in range(spec.T):
                codes = np.arange(grid_size(spec, k, t))
                want = [decode_blocks(spec, k, t, c).own_obs[-1] for c in codes.tolist()]
                assert newest_obs(spec, k, t, codes).tolist() == want, (k, t)


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
                last = decode_blocks(spec, k, t, grid_size(spec, k, t) - 1)
                assert last.shared_obs == ((sizes - 1,) * cut,) * K
                obs = tuple(ys[:t + 1] for ys in obs_all)
                acts = tuple(us[:t] for us in acts_all)
                blocks = Blocks(tuple(ys[:cut] for ys in obs), tuple(us[:cut] for us in acts),
                                obs[k][cut:t + 1], acts[k][cut:t])
                code = history_code(spec, obs, acts, k, t)
                assert code == encode_blocks(spec, k, t, blocks)
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
    oracle posteriors per t, (codes, beliefs)."""
    layers = expand(spec, k, g, free=True)
    posts = oracle.posteriors(spec, g, k)
    for lay, post in zip(layers, posts, strict=True):
        assert np.array_equal(lay.codes, post[0])
        ref = rows_at(post, lay.codes)
        assert lay.beliefs.shape == ref.shape
        assert np.array_equal(lay.beliefs > 0.0, ref > 0.0)
    return posts


def lam_support(mat):
    return int(np.count_nonzero(mat.sum(axis=0)))


def test_enumerate_reachable_t0(canon_2a):
    g = observation_following_profile(canon_2a)
    codes, mats = assert_dp_nodes_are_oracle_reachable(canon_2a, g, 0)[0]
    assert len(codes) == 2  # both first observations have positive probability
    for code, mat in zip(codes.tolist(), mats):
        assert decode_blocks(canon_2a, 0, 0, code).own_obs == (code,)
        assert lam_support(mat) == 2


def test_enumerate_reachable_counts_on_canon_2a(canon_2a):
    # 16 shared-block combinations x 2 private observations, halved because
    # the deterministic opponent pins its own past action to its observation
    g = observation_following_profile(canon_2a)
    posts = assert_dp_nodes_are_oracle_reachable(canon_2a, g, 0)
    codes, mats = posts[1]
    assert len(codes) == 16
    for code, mat in zip(codes.tolist(), mats):
        r = decode_blocks(canon_2a, 0, 1, code)
        y02, u02 = r.shared_obs[1][0], r.shared_acts[1][0]
        assert u02 == y02  # opponent determinism filtered the rest
        assert lam_support(mat) == 2
    assert len(posts[2][0]) == 128


def test_enumerate_reachable_respects_zero_kernel_rows(canon_2a):
    obs = [[q.copy() for q in qs] for qs in canon_2a.observation]
    obs[0][0] = [[1.0, 0.0], [1.0, 0.0]]  # agent 0 can only ever see y=0 at t=0
    spec = ModelSpec.from_tables(
        canon_2a.K, canon_2a.n, canon_2a.T, canon_2a.state_size,
        canon_2a.obs_sizes, canon_2a.act_sizes, canon_2a.init_dist,
        canon_2a.transition, obs, canon_2a.stage_cost, canon_2a.terminal_cost)
    g = observation_following_profile(spec)
    codes, _ = assert_dp_nodes_are_oracle_reachable(spec, g, 0)[0]
    assert [decode_blocks(spec, 0, 0, code).own_obs for code in codes.tolist()] == [(0,)]
    codes, _ = assert_dp_nodes_are_oracle_reachable(spec, g, 1)[1]
    assert len(codes)
    for code in codes.tolist():
        assert decode_blocks(spec, 1, 1, code).shared_obs[0] == (0,)


def test_enumerate_reachable_closed_under_advance(canon_2a):
    """Every reachable (t+1)-realization restricts to a reachable t-one."""
    g = constant_profile(canon_2a, 0)
    at = [codes.tolist() for codes, _ in assert_dp_nodes_are_oracle_reachable(canon_2a, g, 0)]
    for t in range(1, canon_2a.T + 1):
        for r in (decode_blocks(canon_2a, 0, t, code) for code in at[t]):
            # unique predecessor for n=1: drop the newest shared symbols,
            # the private block was the last promoted own observation
            prev = Blocks(tuple(ys[:-1] for ys in r.shared_obs),
                          tuple(us[:-1] for us in r.shared_acts), (r.shared_obs[0][-1],), ())
            assert encode_blocks(canon_2a, 0, t - 1, prev) in at[t - 1]


@pytest.mark.parametrize("K,n,T", [(2, 1, 3), (2, 2, 3), (3, 1, 2)])
def test_dp_nodes_are_oracle_reachable_on_random_models(K, n, T):
    spec = random_model(seed=100 * K + 10 * n + T, K=K, n=n, T=T, sizes=2)
    g = random_profile(spec, np.random.default_rng(K * n * T))
    for k in (0, K - 1):
        assert_dp_nodes_are_oracle_reachable(spec, g, k)


# --- the radix cache -------------------------------------------------------------

def test_radices_cache_keeps_no_spec_alive():
    spec = random_model(seed=5, K=2, n=2, T=3, sizes=2)
    obs, acts = make_history(spec.K, 2)
    assert grid_size(spec, 0, 2) == 2 ** 7
    history_code(spec, obs, acts, 1, 2)
    dropped = weakref.ref(spec)
    del spec
    gc.collect()
    assert dropped() is None


def test_cli_runs_of_one_model_leave_the_radices_cache_as_they_found_it(tmp_path):
    """Each run loads a fresh spec (and falsify builds a variant of it): the
    second run of the same model finds every radix it needs cached."""
    config = cli.RunConfig(command="falsify", model="CANON-2B", out=str(tmp_path))
    info._radices.cache_clear()
    assert cli.run(config) == cli.EXIT_OK
    size = info._radices.cache_info().currsize
    assert size > 0
    assert cli.run(config) == cli.EXIT_OK
    assert info._radices.cache_info().currsize == size
