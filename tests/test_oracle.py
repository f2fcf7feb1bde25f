import ast
import collections
import itertools
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (SHAPES, deterministic_chain, five_profiles, random_model, rows_at,
                      sparse_model)
from delaypbp import cli, falsify, oracle
from delaypbp.dp import expected_value, solve_best_response, verify_value_dominance
from delaypbp.errors import IncompleteStrategyError, UnreachableError
from delaypbp.falsify import check_conditional_independence, make_report
from delaypbp.filtering import expand
from delaypbp.info import grid_size, history_code, lambda_labels, realization_keys
from delaypbp.model import ModelSpec, canonical_instance
from delaypbp.oracle import RealizationTree, enumerate_cost, posteriors, verify_pbp, walk
from delaypbp.strategies import (StrategyProfile, constant_profile,
                                 observation_following_profile, random_profile)
import reference_oracle
from reference_recursion import decode as decode_node
from reference_recursion import other_private_space


def zero_cost_variant(spec):
    return ModelSpec.from_tables(
        spec.K, spec.n, spec.T, spec.state_size, spec.obs_sizes, spec.act_sizes,
        spec.init_dist, spec.transition, spec.observation,
        [np.zeros_like(c) for c in spec.stage_cost],
        np.zeros_like(spec.terminal_cost))


def truncate_to_t1(spec):
    """Single-decision variant of a T>=1 model."""
    return ModelSpec.from_tables(
        spec.K, spec.n, 1, spec.state_size, spec.obs_sizes, spec.act_sizes,
        spec.init_dist, spec.transition[:1], spec.observation[:2],
        spec.stage_cost[:1], spec.terminal_cost)


def leaf_masses(spec, g, key, t):
    """Mass of one walk's histories of length t summed per key(xs, obs, acts)."""
    out = {}
    for s, xs, obs, acts, mass, cost in reference_oracle.as_tuples(walk(spec, g)):
        if s == t:
            kk = key(xs, obs, acts)
            out[kk] = out.get(kk, 0.0) + mass
    return out


# --- the leaf measure ---------------------------------------------------------

def test_walk_leaf_masses_form_a_probability_measure(canon_2a, canon_1):
    for spec in (canon_2a, canon_1):
        for _, g in five_profiles(spec):
            total = sum(leaf_masses(spec, g, lambda xs, obs, acts: (), spec.T).values())
            assert abs(total - 1.0) <= 1e-10


def test_walk_blocks_have_consistent_shapes(canon_2a):
    g = constant_profile(canon_2a, 0)
    lengths = []
    for t, xs, obs, acts, mass, cost in walk(canon_2a, g):
        lengths.append(t)
        N = len(mass)
        assert xs.shape == (N, t + 1) and obs.shape == (N, 2, t + 1) and acts.shape == (N, 2, t)
        assert cost.shape == (N,) and xs.dtype == obs.dtype == acts.dtype == np.uint8
    assert lengths == sorted(lengths) and set(lengths) == set(range(canon_2a.T + 1))


# Two sparse draws (seed, K, n, T): zero kernel entries, so histories with a
# (free action, next state) or a (next state, joint observation) that has no
# child, and alphabets of one symbol.
SPARSE_DRAWS = [("sparse", 5, 2, 1, 2), ("sparse", 11, 2, 2, 3)]
WALK_MODELS = ["CANON-2A", "CANON-2B", "CANON-1", (2, 1, 3, 2), (2, 2, 3, 2), (3, 1, 2, 2),
               *SPARSE_DRAWS]


@pytest.mark.parametrize("name", WALK_MODELS, ids=str)
def test_walk_visits_each_length_as_the_walk_to_that_horizon(name):
    """The histories come breadth first, each after the history one step
    shorter it extends, and for every t the histories of length t come in
    the order of the leaves of a walk that stops at t, and of the tuple
    walk's histories of length t, with the same state path, streams, mass
    and cost to the bit: with every agent following the profile, and with
    each agent in turn free throughout. Every block has the shapes and the
    one int dtype the walk promises."""
    spec, g = tree_model(name)
    dtype = np.min_scalar_type(max(spec.state_size, *spec.obs_sizes, *spec.act_sizes) - 1)
    for free in (None, *range(spec.K)):
        blocks = list(walk(spec, g, free=free))
        for t, xs, obs, acts, mass, cost, *_ in blocks:
            N = len(mass)
            assert xs.shape == (N, t + 1) and obs.shape == (N, spec.K, t + 1)
            assert acts.shape == (N, spec.K, t) and cost.shape == (N,)
            assert xs.dtype == obs.dtype == acts.dtype == dtype
        tuples = [[] for _ in range(spec.T + 1)]
        reference_oracle.tuple_walk(spec, g, lambda t, *h: tuples[t].append(h[:-1]), free=free)
        seen, by_length = set(), [[] for _ in range(spec.T + 1)]
        for t, xs, obs, acts, mass, cost in reference_oracle.as_tuples(blocks):
            prefix = (xs[:-1], tuple(ys[:-1] for ys in obs), tuple(us[:-1] for us in acts))
            assert t == 0 or prefix in seen
            assert not any(by_length[t + 1:])
            seen.add((xs, obs, acts))
            by_length[t].append((xs, obs, acts, mass, cost))
        for t, got in enumerate(by_length):
            want = []
            reference_oracle.walk(spec, g, lambda *leaf: want.append(leaf), t_end=t, free=free,
                                  free_until=spec.T)
            assert got == want == tuples[t], (free, t)


@pytest.mark.parametrize("name", SPARSE_DRAWS, ids=str)
def test_sparse_draws_reach_the_empty_runs(name):
    """Each sparse draw reaches a history with a (free action, next state)
    of no child, and one with a next state whose joint observations are not
    all possible: zero counts among the runs the walk copies its children
    by. With stochastic kernels every history and every (history, action)
    has a child: each transition row and each observation row keeps a
    positive entry."""
    spec, g = tree_model(name)
    k, J = spec.K - 1, math.prod(spec.obs_sizes)
    kids: dict = {}
    for t, xs, obs, acts, mass, cost in reference_oracle.as_tuples(walk(spec, g, free=k)):
        if t:
            parent = (xs[:-1], tuple(ys[:-1] for ys in obs), tuple(us[:-1] for us in acts))
            kids.setdefault(parent, []).append((acts[k][-1], xs[-1]))
    runs = [collections.Counter(pairs) for pairs in kids.values()]
    assert any(len(run) < spec.act_sizes[k] * spec.state_size for run in runs)
    assert any(n < J for run in runs for n in run.values())
    assert all({u for u, _ in run} == set(range(spec.act_sizes[k])) for run in runs)


@pytest.mark.parametrize("name", WALK_MODELS, ids=str)
def test_a_free_walk_carries_the_free_agents_code_and_stage_costs(name):
    """With each agent in turn free, to depth T and T - 1: at every history
    of the last length the carried code is the free agent's time-depth
    code, and at every length the carried stage costs, one per step and
    summed left to right from 0.0 (plus the terminal cost at T), are the
    cost to the bit."""
    spec, g = tree_model(name)
    for free, depth in itertools.product(range(spec.K), (spec.T, spec.T - 1)):
        for t, xs, obs, acts, mass, cost, code, stages in walk(spec, g, free=free, depth=depth):
            assert code.dtype == np.int64 and stages.shape == (len(mass), t)
            if t == depth:
                assert np.array_equal(code, history_code(spec, obs, acts, free, depth))
            total = np.zeros(len(mass))
            for s in range(t):
                total = total + stages[:, s]
            if t == spec.T:
                total = total + spec.terminal_cost[xs[:, t]]
            assert np.array_equal(total, cost), (free, depth, t)


@pytest.mark.parametrize("name", WALK_MODELS, ids=str)
def test_walk_codes_index_their_grids(name):
    """The id tables are indexed by codes, and numpy wraps a negative index
    silently, so a code outside its grid would fall in a wrong group rather
    than raise: with each agent in turn free, to depth T and T - 1, the
    carried code lies in [0, grid_size(spec, free, depth)) at every length,
    and every agent's time-t code of every history, with no agent free and
    with each free, lies in [0, grid_size(spec, k, t))."""
    spec, g = tree_model(name)
    for free, depth in itertools.product(range(spec.K), (spec.T, spec.T - 1)):
        size = grid_size(spec, free, depth)
        for t, xs, obs, acts, mass, cost, code, stages in walk(spec, g, free=free, depth=depth):
            assert code.min() >= 0 and code.max() < size, (free, depth, t)
    for free in (None, *range(spec.K)):
        for t, xs, obs, acts, mass, *_ in walk(spec, g, free=free):
            for k in range(spec.K):
                codes = history_code(spec, obs, acts, k, t)
                assert codes.min() >= 0 and codes.max() < grid_size(spec, k, t), (free, k, t)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda size: st.tuples(
    st.just(size), st.lists(st.lists(st.integers(0, size - 1), max_size=24), max_size=6))))
def test_id_table_equals_the_sorted_merge(case):
    """oracle._FirstSeen's id table and the sorted merge it replaced
    (reference_oracle.FirstSeen) give the same ids and first positions
    call by call, and the same keys seen at the end, on int64 key blocks
    that always include an empty block, a new key repeated within a block,
    the keys 0 and size - 1, and a block of only known keys."""
    size, drawn = case
    table, merge = oracle._FirstSeen(size), reference_oracle.FirstSeen()
    for block in [[], [size - 1, 0, size - 1], *drawn, [0, size - 1, 0], []]:
        keys = np.array(block, dtype=np.int64)
        (ids, first), (want_ids, want_first) = table(keys), merge(keys)
        assert np.array_equal(ids, want_ids) and np.array_equal(first, want_first), block
    assert np.array_equal(table.keys, merge.keys[:-1]) and table.count == len(table.keys)


# --- the array group-bys against the tuple walk ----------------------------------

def by_code(results):
    """Per t, a code-sorted result (codes, values) as the dict code ->
    value row that the tuple walk's group-bys build."""
    return [dict(zip(codes.tolist(), values)) for codes, values in results]


def laws_by_code(laws, follow):
    """falsify's next-posterior laws, per t one (posteriors, probabilities)
    pair per code of follow[t], as the dict (t, code) -> [(posterior,
    probability), ...] that the tuple walk builds."""
    return {(t, code): list(zip(beliefs, probs.tolist()))
            for t, per_code in enumerate(laws)
            for code, (beliefs, probs) in zip(follow[t][0].tolist(), per_code, strict=True)}


def group_bys(spec, g, k):
    """Every group-by over the walk, for agent k: the profile's cost and
    falsify's tables with every agent following g, the posteriors with
    agent k free and following (as dicts by code), and agent k's tree
    (free) with its best response."""
    follow = posteriors(spec, g, k, free=False)
    tree = RealizationTree(spec, k, g)
    return {"cost": enumerate_cost(spec, g),
            "posteriors": by_code(posteriors(spec, g, k)), "following": by_code(follow),
            "tree": (tree.sums, tree.codes, tree.acts), "best": tree.best_response(),
            "independence": [check_conditional_independence(spec, g, k, t)
                             for t in range(spec.n - 1, spec.T)],
            "laws": laws_by_code(falsify._next_posterior_laws(spec, g, k, follow), follow)}


def reference_group_bys(spec, g, k, follow):
    """The same from the tuple walk, one walk with every agent following g
    and one with agent k free; the laws index the given posteriors."""
    ref, tree = reference_oracle, reference_oracle.RealizationTree(spec, k, g)
    free = ref.fan_out(spec, g, k, {"posteriors": ref.posteriors(spec, k),
                                    "tree": (tree.visit, tree.result)})
    ts = range(spec.n - 1, spec.T)
    following = ref.fan_out(spec, g, None, {
        "cost": ref.enumerate_cost(spec), "following": ref.posteriors(spec, k),
        "laws": ref.next_posterior_laws(spec, k, follow),
        **{t: ref.conditional_independence_gaps(spec, k, t) for t in ts}})
    return {"cost": following["cost"], "posteriors": free["posteriors"],
            "following": following["following"],
            "tree": (tree.sums, tree.codes, tree.acts), "best": tree.best_response(),
            "independence": [make_report("shared-data conditional independence",
                                         following[t]) for t in ts],
            "laws": following["laws"]}


def assert_bitwise_equal(got, want, where="$"):
    """Equal structures with == on every float and code."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_bitwise_equal(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_bitwise_equal(a, b, f"{where}[{i}]")
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want), where
    else:
        assert type(got) is type(want) and got == want, where


@pytest.mark.parametrize("name", ["CANON-2A", "CANON-2B", "CANON-1", *SHAPES, *SPARSE_DRAWS],
                         ids=str)
def test_group_bys_equal_the_tuple_walk_bitwise(name):
    """Every group-by over the array walk equals the dict group-by over the
    tuple walk with == on every float and code, for the last agent free
    and following."""
    spec, g = tree_model(name)
    k = spec.K - 1
    got = group_bys(spec, g, k)
    want = reference_group_bys(spec, g, k, got["following"])
    assert_bitwise_equal(got, want)


@pytest.mark.parametrize("name", ["CANON-2A", "CANON-2B", "CANON-1", *SPARSE_DRAWS], ids=str)
def test_every_agents_tree_equals_the_tuple_walks(name):
    """For every agent, not only the last, the tree's codes, actions and
    sums equal the tuple walk's groups with == on every float and code."""
    spec, g = tree_model(name)
    for k in range(spec.K):
        tree, want = RealizationTree(spec, k, g), reference_oracle.RealizationTree(spec, k, g)
        reference_oracle.fan_out(spec, g, k, {"tree": (want.visit, want.result)})
        assert_bitwise_equal((tree.sums, tree.codes, tree.acts),
                             (want.sums, want.codes, want.acts), f"agent {k}")


@pytest.mark.parametrize("name", ["CANON-2A", "CANON-2B", "CANON-1", *SHAPES], ids=str)
def test_per_realization_results_are_rows_along_increasing_codes(name):
    """For every agent, at every t: the posteriors, with the agent free and
    following, are one read-only belief row per code, along strictly
    increasing codes, each summing to 1; following, the codes are those the
    chain reaches. The cost-to-go per t has strictly increasing codes too."""
    spec, g = tree_model(name)
    for k in range(spec.K):
        chain = expand(spec, k, g, free=False)
        for free in (True, False):
            for t, (codes, beliefs) in enumerate(posteriors(spec, g, k, free=free)):
                assert codes.dtype == np.int64 and np.all(np.diff(codes) > 0), (k, free, t)
                assert beliefs.shape[0] == len(codes) and not beliefs.flags.writeable
                assert np.max(np.abs(beliefs.sum(axis=(1, 2)) - 1.0)) <= 1e-15, (k, free, t)
                assert free or np.array_equal(codes, chain[t].codes), (k, t)
        for t, (codes, values) in enumerate(RealizationTree(spec, k, g).cost_to_go(g.maps[k])):
            assert np.all(np.diff(codes) > 0) and values.shape == codes.shape, (k, t)


BLOCK_MODELS = ["CANON-2A", "CANON-2B", "CANON-1", (2, 2, 2, 2), (3, 1, 1, 2), *SPARSE_DRAWS]


@pytest.mark.parametrize("name", BLOCK_MODELS, ids=str)
@pytest.mark.parametrize("block", [1, 97, 2 ** 20])
def test_group_bys_do_not_depend_on_the_block_size(monkeypatch, name, block):
    """With one history a block, 97 (chunks of several parents that end
    mid-layer), or every layer in one block, every group-by is
    bit-identical to the default blocks', and no yielded block holds more
    histories than the size."""
    spec, g = tree_model(name)
    k = spec.K - 1
    want = group_bys(spec, g, k)
    sizes, whole = [], oracle.walk

    def sized(*args, **kwargs):
        for blk in whole(*args, **kwargs):
            sizes.append(len(blk[-1]))
            yield blk

    monkeypatch.setattr(oracle, "_BLOCK", block)
    monkeypatch.setattr(oracle, "walk", sized)
    got = group_bys(spec, g, k)
    assert 0 < max(sizes) <= block and (block > 1 or min(sizes) == 1)
    assert_bitwise_equal(got, want)


def test_a_holey_profile_fails_the_walk_at_its_first_read(canon_2a):
    """enumerate_cost reads every agent's map once per length, in agent
    order: a profile without actions at reached realizations raises the
    count of them at the first (t, agent) that has any, with the first
    three in code order."""
    g = observation_following_profile(canon_2a)
    reached = [[set() for _ in range(canon_2a.T)] for _ in range(canon_2a.K)]

    def visit(t, xs, obs, acts, mass, cost, codes):
        for j in range(canon_2a.K):
            if t < canon_2a.T:
                reached[j][t].add(codes[t][j])

    reference_oracle.tuple_walk(canon_2a, g, visit)
    holes = [[m.copy() for m in row] for row in g.maps]
    holes[0][1][::2] = -1
    holes[1][1][1::2] = -1
    holes[1][0][0] = -1
    for j, t in ((1, 0), (0, 1)):
        missing = sorted(c for c in reached[j][t] if holes[j][t][c] < 0)
        keys = ", ".join(realization_keys(canon_2a, j, t, missing[:3]))
        plural = "s" * (len(missing) > 1)
        with pytest.raises(IncompleteStrategyError) as err:
            enumerate_cost(canon_2a, StrategyProfile(canon_2a, holes))
        assert err.value.args[0] == (
            f"incomplete strategy: agent {j} has no action at t={t}, {keys} "
            f"({len(missing)} reached realization{plural} without one)")
        holes[j][t] = g.maps[j][t]


# --- expected cost ----------------------------------------------------------

def test_enumerate_cost_zero_costs(canon_2a):
    spec = zero_cost_variant(canon_2a)
    assert enumerate_cost(spec, constant_profile(spec, 1)) == 0.0


def test_enumerate_cost_deterministic_model():
    spec = deterministic_chain()
    g = constant_profile(spec, 0)
    # single trajectory: x = 0 -> 1 -> 0, costs 0.5 + 4.0 + terminal 3.0
    assert enumerate_cost(spec, g) == pytest.approx(7.5, abs=1e-15)
    leaves = [(xs, mass, cost) for t, xs, obs, acts, mass, cost
              in reference_oracle.as_tuples(walk(spec, g))]
    assert leaves == [((0,), 1.0, 0.0), ((0, 1), 1.0, 0.5), ((0, 1, 0), 1.0, 7.5)]


def reference_cost(spec, g):
    """Expected cost by a plain recursion over sample paths, with masses
    formed as init * (1.0 * q_0 * q_1 ...) then mass * p_x * p_y and paths
    summed in (state, joint observation) order: the arithmetic that report
    witnesses chosen by float noise depend on."""
    obs = list(itertools.product(*(range(m) for m in spec.obs_sizes)))

    def lik(s, x, ys):
        p = 1.0
        for j, y in enumerate(ys):
            p *= float(spec.observation[s][j][x, y])
        return p

    def paths(s, x, hist, mass, cost):
        if s == spec.T:
            yield mass, cost + float(spec.terminal_cost[x])
            return
        acts = tuple(reference_oracle.action_at(g, j, s, history_code(spec, *hist, j, s))
                     for j in range(spec.K))
        cost = cost + float(spec.stage_cost[s][(x, *acts)])
        for x1 in range(spec.state_size):
            p_x = float(spec.transition[s][(x, *acts, x1)])
            for ys in obs:
                p_y = lik(s + 1, x1, ys)
                if p_x > 0.0 and p_y > 0.0:
                    h1 = (tuple(o + (y,) for o, y in zip(hist[0], ys)),
                          tuple(u + (a,) for u, a in zip(hist[1], acts)))
                    yield from paths(s + 1, x1, h1, mass * p_x * p_y, cost)

    total = 0.0
    for x0 in range(spec.state_size):
        for ys in obs:
            p0, p_y = float(spec.init_dist[x0]), lik(0, x0, ys)
            if p0 > 0.0 and p_y > 0.0:
                h0 = (tuple((y,) for y in ys), ((),) * spec.K)
                for mass, cost in paths(0, x0, h0, p0 * p_y, 0.0):
                    total += mass * cost
    return total


@pytest.mark.parametrize("K,n,T,sizes", [(2, 1, 2, 3), (2, 2, 3, 2), (3, 1, 2, 2)])
def test_enumerate_cost_equals_reference_recursion_bitwise(K, n, T, sizes):
    spec = random_model(seed=97 * K + 13 * n + T, K=K, n=n, T=T, sizes=sizes)
    g = random_profile(spec, np.random.default_rng(K + n + T + sizes))
    assert enumerate_cost(spec, g) == reference_cost(spec, g)


# --- conditional distributions as group-bys over one walk ---------------------

def test_walk_group_by_initial_state_recovers_the_prior(canon_2a):
    g = constant_profile(canon_2a, 0)
    masses = leaf_masses(canon_2a, g, lambda xs, obs, acts: xs[0], 0)
    for x in range(2):
        assert masses[x] == pytest.approx(canon_2a.init_dist[x], abs=1e-12)


def test_walk_group_by_reads_back_an_observation_kernel_row(canon_2a):
    g = constant_profile(canon_2a, 0)
    joint = leaf_masses(canon_2a, g, lambda xs, obs, acts: (xs[0], obs[1][0]), 0)
    marg = leaf_masses(canon_2a, g, lambda xs, obs, acts: xs[0], 0)
    for x in range(2):
        for y in range(2):
            assert joint[x, y] / marg[x] == pytest.approx(canon_2a.observation[0][1][x, y],
                                                          abs=1e-12)


def test_walk_group_bys_have_consistent_marginals(canon_2a):
    g = observation_following_profile(canon_2a)
    joint = leaf_masses(canon_2a, g, lambda xs, obs, acts: (xs[1], obs[0][1]), 1)
    marg = leaf_masses(canon_2a, g, lambda xs, obs, acts: xs[1], 1)
    for x in range(2):
        s = sum(p for key, p in joint.items() if key[0] == x)
        assert s == pytest.approx(marg[x], abs=1e-12)


def test_walk_group_by_realization_matches_the_posterior(canon_2a):
    """The extended-state law given a realization, conditioned on a walk in
    which agent 0 follows the profile, equals the posterior from the walk
    with agent 0 free; the posteriors computed with agent 0 following the
    profile are those of the free walk to the bit. The lambda axis is the
    order of the reference's other_private_space, which lambda_labels
    labels."""
    g = observation_following_profile(canon_2a)
    t = 1
    space = other_private_space(canon_2a, 0, t)
    lams = {lam: i for i, lam in enumerate(space)}
    assert lambda_labels(canon_2a, 0, t) == [
        ";".join(f"{'-'.join(map(str, p.obs))}/{'-'.join(map(str, p.acts))}" for p in lam)
        for lam in space]

    def key(xs, obs, acts):
        lam = (decode_node(canon_2a, 1, t, history_code(canon_2a, obs, acts, 1, t)).private,)
        return history_code(canon_2a, obs, acts, 0, t), xs[-1], lam

    joint = leaf_masses(canon_2a, g, key, t)
    laws = {}
    for (r, x, lam), m in joint.items():
        laws.setdefault(r, np.zeros((canon_2a.state_size, len(lams))))[x, lams[lam]] = m
    codes = np.array(sorted(laws))
    post = rows_at(posteriors(canon_2a, g, 0)[t], codes)
    follow = posteriors(canon_2a, g, 0, free=False)[t]
    assert len(laws) == 8  # both first observations of each agent, then agent 0's second
    assert np.array_equal(follow[0], codes)
    want = np.array([laws[r] / laws[r].sum() for r in codes.tolist()])
    assert np.max(np.abs(want - post)) <= 1e-10
    assert np.array_equal(follow[1], post)


def test_dominance_check_rejects_a_table_realization_the_tree_does_not_reach(canon_2a):
    """A table realization the enumeration cannot reach raises instead of
    being compared against nothing: a table built against the all-0
    opponent, checked against the tree of an opponent that plays its
    observation. The error names the first code one side lacks, and the
    side; with the two opponents swapped the other side lacks it."""
    follow = observation_following_profile(canon_2a)
    vtable, _ = solve_best_response(canon_2a, 0, constant_profile(canon_2a, 0))
    tree = RealizationTree(canon_2a, 0, follow)
    with pytest.raises(UnreachableError, match=re.escape(
            "unreachable realization for agent 0 at t=1: the enumeration lacks c(0/0;1/0)p(0/)")):
        verify_value_dominance(tree, vtable, constant_profile(canon_2a, 1).maps[0])
    vtable, _ = solve_best_response(canon_2a, 0, follow)
    tree = RealizationTree(canon_2a, 0, constant_profile(canon_2a, 0))
    with pytest.raises(UnreachableError, match=re.escape(
            "unreachable realization for agent 0 at t=1: the value table lacks c(0/0;1/0)p(0/)")):
        verify_value_dominance(tree, vtable, constant_profile(canon_2a, 1).maps[0])


# --- brute force ------------------------------------------------------------

def test_verify_pbp_certifies_the_swept_profile_at_t3(canon_1):
    """The brute force answers at every horizon: it certifies the profile
    the sweep converges to on CANON-1 (T = 3), its value the profile's."""
    from delaypbp.dp import pbp_sweep

    assert canon_1.T == 3
    g, _, converged = pbp_sweep(canon_1, constant_profile(canon_1, 0), 32)
    assert converged
    report = verify_pbp(canon_1, g)
    assert report.all_stationary
    assert abs(report.agents[0]["gap"]) <= 1e-12


def test_brute_force_t1_equals_plain_enumeration(canon_2a):
    spec = truncate_to_t1(canon_2a)
    g = observation_following_profile(spec)
    value, maps = RealizationTree(spec, 0, g).best_response()
    # plain enumeration over all stage-0 strategy arrays of agent 0
    from delaypbp.info import grid_size
    costs = [enumerate_cost(spec, g.with_agent(0, [np.array(combo)]))
             for combo in itertools.product(range(2), repeat=grid_size(spec, 0, 0))]
    assert value == pytest.approx(min(costs), abs=1e-12)
    g_star = g.with_agent(0, [maps[0]])
    assert enumerate_cost(spec, g_star) == pytest.approx(value, abs=1e-12)


def test_brute_force_lower_bounds_any_agreeing_profile(canon_2a):
    g = observation_following_profile(canon_2a)
    bf_value, _ = RealizationTree(canon_2a, 0, g).best_response()
    for _, g_any in five_profiles(canon_2a):
        mixed = g.with_agent(0, g_any.maps[0])  # agrees with g off agent 0
        assert bf_value <= enumerate_cost(canon_2a, mixed) + 1e-12


def test_brute_force_zero_costs_picks_all_zero(canon_2a):
    spec = zero_cost_variant(canon_2a)
    g = observation_following_profile(spec)
    value, maps = RealizationTree(spec, 0, g).best_response()
    assert value == 0.0
    assert all(np.all(m[m >= 0] == 0) and np.any(m == 0) for m in maps)


def test_brute_force_value_matches_realized_cost(canon_2a):
    g = observation_following_profile(canon_2a)
    value, maps = RealizationTree(canon_2a, 1, g).best_response()
    g_star = g.with_agent(1, [maps[0], maps[1]])
    assert enumerate_cost(canon_2a, g_star) == pytest.approx(value, abs=1e-12)


# --- the realization tree against the walks it replaced ------------------------

def tree_model(name):
    """A model and the profile its tree is built against: the one `verify`
    uses on the canonical instances, a seeded random one on a shape or a
    sparse draw."""
    if isinstance(name, str):
        spec = canonical_instance(name)
        return spec, observation_following_profile(spec)
    if name[0] == "sparse":
        spec = sparse_model(*name[1:])
        return spec, random_profile(spec, np.random.default_rng(name[1]))
    K, n, T, sizes = name
    spec = random_model(seed=11, K=K, n=n, T=T, sizes=sizes)
    return spec, random_profile(spec, np.random.default_rng(11))


# The benchmark shapes with T <= 3, except that K = 3 is checked at T = 2:
# its T = 3 shape has 524,288 free leaves, and the per-time reference walks
# would take half a minute there.
COST_TO_GO_MODELS = ["CANON-2A", "CANON-2B", "CANON-1",
                     *[s for s in SHAPES if s[2] <= 3 and s[0] < 3], (3, 1, 2, 2)]


@pytest.mark.parametrize("name", COST_TO_GO_MODELS, ids=str)
def test_tree_cost_to_go_equals_one_walk_per_time(name):
    """For every alternative `verify` checks, the tree reaches the same
    realizations at every t0 as one walk per t0 with agent 0 free before
    it, with the same conditional cost-to-go up to summation order. With
    agent 0 free before T the last walk never reads agent 0's maps, so it
    is made once."""
    spec, g = tree_model(name)
    tree = RealizationTree(spec, 0, g)
    _, maps = solve_best_response(spec, 0, g)
    at_horizon = reference_oracle.cost_to_go(spec, 0, g, spec.T)
    for label, alt in cli._alternative_strategies(spec, 0, maps):
        got = tree.cost_to_go(alt)
        for t0 in range(spec.T + 1):
            ref = (at_horizon if t0 == spec.T
                   else reference_oracle.cost_to_go(spec, 0, g.with_agent(0, alt), t0))
            codes, values = got[t0][0].tolist(), got[t0][1].tolist()
            assert codes == sorted(ref), (label, t0)
            assert max(abs(v - ref[r]) for r, v in zip(codes, values)) <= 1e-12, (label, t0)


def test_tree_cost_to_go_rejects_a_map_without_an_action(canon_2a):
    g = observation_following_profile(canon_2a)
    holey = [g.maps[0][0], np.where(np.arange(grid_size(canon_2a, 0, 1)) == 5, -1,
                                    g.maps[0][1])]
    with pytest.raises(IncompleteStrategyError, match="agent 0 has no action at t=1"):
        RealizationTree(canon_2a, 0, g).cost_to_go(holey)


def binary_t2_models():
    base = [canonical_instance("CANON-2A"), canonical_instance("CANON-2B")]
    return [*base, *map(truncate_to_t1, base),
            *(random_model(seed=31 + n, K=2, n=n, T=2, sizes=2) for n in (1, 2))]


def test_pointwise_best_response_equals_the_stage_zero_search():
    """On T <= 2 binary models, every agent against five opponents: the
    backward pass over the tree finds the value of the search over every
    combination of stage-0 actions, and the same action wherever the search
    gives one."""
    for spec in binary_t2_models():
        for _, g in five_profiles(spec):
            for k in range(spec.K):
                value, maps = RealizationTree(spec, k, g).best_response()
                ref_value, ref_maps = reference_oracle.brute_force_best_response(spec, k, g)
                assert abs(value - ref_value) <= 1e-12
                for m, ref in zip(maps, ref_maps):
                    assert np.array_equal(m[ref >= 0], ref[ref >= 0])


@pytest.mark.parametrize("name", ["CANON-1", (2, 1, 3, 2), (2, 2, 3, 2)], ids=str)
def test_pointwise_best_response_equals_the_dp_past_t2(name):
    """Past T = 2 the pass is still exact: its value is the dynamic
    program's."""
    spec, g = tree_model(name)
    for k in range(spec.K):
        value, _ = RealizationTree(spec, k, g).best_response()
        vtable, _ = solve_best_response(spec, k, g)
        assert abs(value - expected_value(spec, k, vtable)) <= 1e-12


# --- stationarity certificates ----------------------------------------------

def test_verify_pbp_zero_costs_certifies_everything(canon_2a):
    spec = zero_cost_variant(canon_2a)
    for _, g in five_profiles(spec):
        report = verify_pbp(spec, g)
        assert report.all_stationary


def test_verify_pbp_flags_improvable_agent(canon_2a):
    from delaypbp.dp import pbp_sweep

    g_opt, _, converged = pbp_sweep(canon_2a, constant_profile(canon_2a, 0), 32)
    assert converged
    report = verify_pbp(canon_2a, g_opt)
    assert report.all_stationary

    # flip agent 0 everywhere at t=0: costs distinguish actions here
    g_bad = g_opt.with_agent(0, [1 - g_opt.maps[0][0], g_opt.maps[0][1]])
    report = verify_pbp(canon_2a, g_bad)
    agent0 = report.agents[0]
    assert not agent0["stationary"]
    assert agent0["gap"] > 1e-6


# --- the oracle stays independent of the filter and the DP ----------------------

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "delaypbp"


def package_imports(path: pathlib.Path) -> set[str]:
    """The delaypbp modules a source file imports, function-level imports
    included."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("delaypbp"):
                continue
            parts = (node.module or "").split(".")[0 if node.level else 1:]
            found.update([parts[0]] if parts and parts[0] else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("delaypbp."))
    return found


def names_imported(path: pathlib.Path, module: str) -> set[str]:
    """The names a source file imports from one delaypbp module."""
    return {a.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and node.level
            and (node.module or "") == module for a in node.names}


def test_oracle_module_boundary():
    imports = {p.stem: package_imports(p) for p in SRC.glob("*.py")}
    assert "info" in imports["oracle"]  # the parser does see the imports
    assert imports["oracle"] <= {"model", "info"}, imports["oracle"]
    assert "oracle" not in imports["filtering"]
    # Realizations are codes: the oracle groups by them and takes from info
    # only the code arithmetic, never the blocks or the text keys.
    from_info = names_imported(SRC / "oracle.py", "info")
    assert "history_code" in from_info  # the parser does see the names
    assert from_info <= {"digits", "grid_size", "history_code", "next_codes", "other_agents",
                         "private_act_len", "private_obs_len", "private_size", "promoted",
                         "radices", "radix", "shared_prefix_len", "shift_code"}, from_info
    # info defines no record types: no dataclasses behind the codes.
    tree = ast.parse((SRC / "info.py").read_text(encoding="utf-8"))
    modules = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and not node.level}
    assert "numpy" in modules  # the parser does see the imports
    assert "dataclasses" not in modules, modules


def test_importing_the_oracle_loads_no_filter_or_dp():
    """A fresh interpreter that imports the oracle loads only the modules
    the oracle imports: the package's top level pulls in nothing more."""
    code = ("import sys, delaypbp.oracle; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'delaypbp')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}).stdout.split()
    assert "delaypbp.oracle" in out  # the probe does see the loaded modules
    assert set(out) <= {"delaypbp", "delaypbp.model", "delaypbp.info", "delaypbp.errors",
                        "delaypbp.oracle"}, out
