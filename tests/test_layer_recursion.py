"""The layer recursion against the per-node recursion it replaced.

`reference_recursion` keeps the per-node path: one kernel call per (node,
own action), realizations built from nested tuples, and a backward pass
with one stage and terminal value per node. On the canonical instances,
on every benchmark ladder and sweep shape, on K = 3 with n = 2 and on
n = 3 (where promotion interleaves most) and on two sparse draws, the
layers must give the same nodes in the same (code) order and the same
floats bit for bit: value tables, argmins, beliefs, the horizon layer's
state masses, chain probabilities, the belief-form cost and the
best-response sweep's trace.
"""

import numpy as np
import pytest

import reference_recursion as ref
from conftest import SHAPES, random_model, sparse_model
from delaypbp import dp
from delaypbp.filtering import expand
from delaypbp.model import canonical_instance
from delaypbp.strategies import (constant_profile, observation_following_profile,
                                 random_profile)

# The sparse draws (zero kernel entries, unequal alphabets) each reach one
# first observation of agent 0 out of several, so the time-0 layer drops rows.
MODELS = ["CANON-2A", "CANON-2B", "CANON-1", *SHAPES, (3, 2, 3, 2), (2, 3, 4, 2),
          ("sparse", 5, 2, 1, 2), ("sparse", 0, 1, 1, 3)]


def model(name):
    """The instance and a total profile to play against: the
    observation-following profile on the canonical instances, a seeded
    random one on the benchmark shapes and the sparse draws."""
    if isinstance(name, str):
        spec = canonical_instance(name)
        return spec, observation_following_profile(spec)
    if name[0] == "sparse":
        spec = sparse_model(*name[1:])
        return spec, random_profile(spec, np.random.default_rng(name[1]))
    K, n, T, sizes = name
    spec = random_model(seed=7, K=K, n=n, T=T, sizes=sizes)
    return spec, random_profile(spec, np.random.default_rng(7))


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_nodes(spec, k, ref_nodes, codes, beliefs):
    """ref_nodes (realization -> belief, in `encode` order) are the layer's
    codes and beliefs, in the same order and to the bit."""
    assert [ref.encode(spec, r) for r in ref_nodes] == codes.tolist()
    assert bits(list(ref_nodes.values())) == bits(beliefs)


@pytest.mark.parametrize("name", MODELS, ids=str)
def test_value_tables_and_argmins_equal_the_per_node_pass_bitwise(name):
    """At t = T the table holds the horizon layer's state masses; the free
    expansion's time-T beliefs are checked against the per-node expansion."""
    spec, g = model(name)
    for k in sorted({0, spec.K - 1}):
        vtable, maps = dp.solve_best_response(spec, k, g)
        ref_entries, ref_maps = ref.solve_best_response(spec, k, g)
        last = expand(spec, k, g, free=True)[spec.T]
        assert_same_nodes(spec, k, ref.NodePass(spec, k, g).expand(free=True)[0][spec.T],
                          last.codes, last.beliefs)
        assert np.array_equal(last.codes, vtable.entries[spec.T].codes)
        for t, (lay, values, ref_entry) in enumerate(
                zip(vtable.entries, vtable.values, ref_entries)):
            assert_same_nodes(spec, k, {r: b for r, (_, b, _) in ref_entry.items()},
                              lay.codes, lay.beliefs)
            assert np.all(np.diff(lay.codes) > 0)
            assert bits([v for v, _, _ in ref_entry.values()]) == bits(values)
            if t < spec.T:
                assert [u for _, _, u in ref_entry.values()] == maps[t][lay.codes].tolist()
        assert all(np.array_equal(m, rm) for m, rm in zip(maps, ref_maps))
        assert bits(dp.expected_value(spec, k, vtable)) == bits(
            ref.expected_value(spec, k, ref_entries))


@pytest.mark.parametrize("name", MODELS, ids=str)
def test_chain_and_belief_form_cost_equal_the_per_node_pass_bitwise(name):
    spec, g = model(name)
    for k in range(spec.K):
        layers = expand(spec, k, g, free=False)
        ref_chain = ref.NodePass(spec, k, g).chain()
        for lay, ref_layer in zip(layers, ref_chain):
            assert_same_nodes(spec, k, {r: b for r, (b, _) in ref_layer.items()},
                              lay.codes, lay.beliefs)
            assert np.all(np.diff(lay.codes) > 0)
            assert bits([p for _, p in ref_layer.values()]) == bits(lay.prob)
        assert bits(dp.cost_via_beliefs(spec, g, k)) == bits(ref.cost_via_beliefs(spec, g, k))


@pytest.mark.parametrize("name", MODELS, ids=str)
def test_others_actions_are_zero_off_the_support(name):
    """A layer reads the other agents' strategies only at the (node, lambda)
    cells with mass and holds 0 elsewhere, in the free expansion and along
    the chain, for every agent."""
    spec, g = model(name)
    for k in range(spec.K):
        for free in (True, False):
            for lay in expand(spec, k, g, free)[:-1]:
                reached = (lay.beliefs > 0.0).any(axis=1)
                assert lay.others_acts.shape == reached.shape
                assert not lay.others_acts[~reached].any(), (k, free, lay.t)


@pytest.mark.parametrize("name", MODELS, ids=str)
def test_pbp_sweep_equals_the_per_node_sweep_bitwise(name):
    spec, _ = model(name)
    g0 = constant_profile(spec, 0)
    g, trace, converged = dp.pbp_sweep(spec, g0, 32)
    ref_g, ref_trace, ref_converged = ref.pbp_sweep(spec, g0, 32)
    assert bits(trace) == bits(ref_trace) and converged == ref_converged
    assert all(np.array_equal(a, b) for row, ref_row in zip(g.maps, ref_g.maps)
               for a, b in zip(row, ref_row))
