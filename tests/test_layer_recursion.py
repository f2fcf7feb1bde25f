"""The layer recursion against the per-node recursion it replaced.

`reference_recursion` keeps the per-node path: one kernel call per (node,
own action), realizations built from nested tuples, and a backward pass
with one stage and terminal value per node. On the canonical instances
and on every benchmark ladder and sweep shape, the layers must give the
same nodes in the same order and the same floats bit for bit: value
tables, argmins, beliefs, chain probabilities, the belief-form cost and
the best-response sweep's trace.
"""

import numpy as np
import pytest

import reference_recursion as ref
from conftest import SHAPES, random_model
from delaypbp import canonical_instance, dp
from delaypbp.filtering import BeliefPass
from delaypbp.strategies import (constant_profile, observation_following_profile,
                                 random_profile)

MODELS = ["CANON-2A", "CANON-2B", "CANON-1", *SHAPES]


def model(name):
    """The instance and a total profile to play against: the
    observation-following profile on the canonical instances, a seeded
    random one on the benchmark shapes."""
    if isinstance(name, str):
        spec = canonical_instance(name)
        return spec, observation_following_profile(spec)
    K, n, T, sizes = name
    spec = random_model(seed=7, K=K, n=n, T=T, sizes=sizes)
    return spec, random_profile(spec, np.random.default_rng(7))


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_nodes(spec, k, ref_nodes, codes, beliefs):
    """ref_nodes (realization -> belief, in expansion order) are the layer's
    codes and beliefs, in the same order and to the bit."""
    assert [ref.encode(spec, r) for r in ref_nodes] == codes.tolist()
    assert bits(list(ref_nodes.values())) == bits(beliefs)


@pytest.mark.parametrize("name", MODELS, ids=str)
def test_value_tables_and_argmins_equal_the_per_node_pass_bitwise(name):
    spec, g = model(name)
    for k in sorted({0, spec.K - 1}):
        vtable, maps = dp.solve_best_response(spec, k, g)
        ref_entries, ref_maps = ref.solve_best_response(spec, k, g)
        for entry, ref_entry in zip(vtable.entries, ref_entries):
            assert_same_nodes(spec, k, {r: b for r, (_, b, _) in ref_entry.items()},
                              entry.layer.codes, entry.layer.beliefs)
            assert bits([v for v, _, _ in ref_entry.values()]) == bits(entry.values)
            if entry.best_actions is not None:
                assert [u for _, _, u in ref_entry.values()] == entry.best_actions.tolist()
        assert all(np.array_equal(m, rm) for m, rm in zip(maps, ref_maps))
        assert bits(dp.expected_value(spec, k, vtable)) == bits(
            ref.expected_value(spec, k, ref_entries))


@pytest.mark.parametrize("name", MODELS, ids=str)
def test_chain_and_belief_form_cost_equal_the_per_node_pass_bitwise(name):
    spec, g = model(name)
    for k in range(spec.K):
        layers, probs = BeliefPass(spec, k, g).chain()
        ref_chain = ref.NodePass(spec, k, g).chain()
        for lay, prob, ref_layer in zip(layers, probs, ref_chain):
            assert_same_nodes(spec, k, {r: b for r, (b, _) in ref_layer.items()},
                              lay.codes, lay.beliefs)
            assert bits([p for _, p in ref_layer.values()]) == bits(prob)
        assert bits(dp.cost_via_beliefs(spec, g, k)) == bits(ref.cost_via_beliefs(spec, g, k))


@pytest.mark.parametrize("name", MODELS, ids=str)
def test_pbp_sweep_equals_the_per_node_sweep_bitwise(name):
    spec, _ = model(name)
    g0 = constant_profile(spec, 0)
    g, trace, converged = dp.pbp_sweep(spec, g0, 32)
    ref_g, ref_trace, ref_converged = ref.pbp_sweep(spec, g0, 32)
    assert bits(trace) == bits(ref_trace) and converged == ref_converged
    assert all(np.array_equal(a, b) for row, ref_row in zip(g.maps, ref_g.maps)
               for a, b in zip(row, ref_row))
