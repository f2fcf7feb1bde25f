import numpy as np
import pytest

from delaypbp import canonical_instance
from delaypbp.model import ModelSpec
from delaypbp.strategies import (constant_profile, observation_following_profile,
                                 random_profile)
from reference_recursion import Node, encode

RANDOM_SEED = 20240817

# The benchmark's shapes (bench/workloads.py): the ladder rungs (K, n, T)
# at alphabet 2 and the sweep models (K, n, T, alphabet).
LADDER_RUNGS = ((2, 1, 4), (2, 2, 4), (3, 1, 3))
SWEEP_MODELS = ((2, 1, 3, 2), (2, 2, 3, 2), (2, 1, 2, 3))
SHAPES = [(*rung, 2) for rung in LADDER_RUNGS] + list(SWEEP_MODELS)


@pytest.fixture(scope="session")
def canon_2a():
    return canonical_instance("CANON-2A")


@pytest.fixture(scope="session")
def canon_2b():
    return canonical_instance("CANON-2B")


@pytest.fixture(scope="session")
def canon_1():
    return canonical_instance("CANON-1")


def five_profiles(spec):
    """Deterministic list of (name, profile): the acceptance suite's test
    battery, including one seeded-random profile."""
    out = [
        ("constant-0", constant_profile(spec, 0)),
        ("constant-1", constant_profile(spec, min(1, max(spec.act_sizes) - 1))),
        ("observation-following", observation_following_profile(spec)),
    ]
    mixed = constant_profile(spec, 0)
    follow = observation_following_profile(spec)
    mixed = mixed.with_agent(spec.K - 1, follow.maps[spec.K - 1])
    out.append(("mixed", mixed))
    out.append((f"random-{RANDOM_SEED}",
                random_profile(spec, np.random.default_rng(RANDOM_SEED))))
    return out


def others_play(g, common, lam):
    """The other agents' actions at (common, each one's private block in
    lambda), reference_recursion records, read one realization at a time:
    the reference the strategy gathers are checked against."""
    return tuple(g.action_at(p.agent, p.t, encode(g.spec, Node(common=common, private=p)))
                 for p in lam)


def layer_nodes(lay):
    """A layer's nodes as realization code -> belief, in expansion order."""
    return {int(c): b for c, b in zip(lay.codes, lay.beliefs)}


def tiny_uniform_t1():
    """T=1, two agents, everything uniform: single-stage costs are a closed
    sum by hand."""
    q = [[0.5, 0.5], [0.5, 0.5]]
    trans = [
        [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
        [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
    ]
    c0 = [
        [[1.0, 2.0], [3.0, 4.0]],
        [[5.0, 6.0], [7.0, 8.0]],
    ]
    return ModelSpec.from_tables(
        K=2, n=1, T=1, state_size=2, obs_sizes=(2, 2), act_sizes=(2, 2),
        init_dist=[0.5, 0.5], transition=[trans], observation=[(q, q)] * 2,
        stage_cost=[c0], terminal_cost=[0.0, 10.0])


def deterministic_chain():
    """Deterministic single-agent model: point-mass kernels everywhere, so
    the sample-path measure is a single trajectory."""
    q = [[1.0, 0.0], [0.0, 1.0]]
    trans = [
        [[0.0, 1.0], [0.0, 1.0]],  # x=0 -> 1 under both actions
        [[1.0, 0.0], [1.0, 0.0]],  # x=1 -> 0
    ]
    c0 = [[0.5, 0.5], [2.0, 2.0]]
    c1 = [[0.25, 0.25], [4.0, 4.0]]
    return ModelSpec.from_tables(
        K=1, n=1, T=2, state_size=2, obs_sizes=(2,), act_sizes=(2,),
        init_dist=[1.0, 0.0], transition=[trans, trans],
        observation=[(q,)] * 3, stage_cost=[c0, c1], terminal_cost=[3.0, 7.0])


def markov_grouping_model():
    """Two agents, agent 0's time-1 observation carries no information:
    realizations differing only in that symbol induce equal posteriors, so
    the conditional-Markov check gets groups with several members."""
    q_inf = [[0.8, 0.2], [0.2, 0.8]]
    q_uni = [[0.5, 0.5], [0.5, 0.5]]
    trans = [
        [[[0.9, 0.1], [0.7, 0.3]], [[0.6, 0.4], [0.3, 0.7]]],
        [[[0.8, 0.2], [0.5, 0.5]], [[0.25, 0.75], [0.15, 0.85]]],
    ]
    c = [[[0.0, 0.4], [0.7, 1.1]], [[1.0, 0.3], [0.9, 0.2]]]
    return ModelSpec.from_tables(
        K=2, n=1, T=2, state_size=2, obs_sizes=(2, 2), act_sizes=(2, 2),
        init_dist=[0.6, 0.4], transition=[trans, trans],
        observation=[(q_inf, q_inf), (q_uni, q_inf), (q_inf, q_inf)],
        stage_cost=[c, c], terminal_cost=[0.25, 1.5])


def random_model(seed: int, K: int = 2, n: int = 1, T: int = 2, sizes: int = 2) -> ModelSpec:
    """Random dense model with strictly positive kernels."""
    rng = np.random.default_rng(seed)

    def dist(shape):
        raw = rng.uniform(0.1, 1.0, size=shape)
        return raw / raw.sum(axis=-1, keepdims=True)

    obs_sizes = (sizes,) * K
    act_sizes = (sizes,) * K
    return ModelSpec.from_tables(
        K=K, n=n, T=T, state_size=sizes, obs_sizes=obs_sizes, act_sizes=act_sizes,
        init_dist=dist((sizes,)),
        transition=[dist((sizes, *act_sizes, sizes)) for _ in range(T)],
        observation=[[dist((sizes, sizes)) for _ in range(K)] for _ in range(T + 1)],
        stage_cost=[rng.uniform(0.0, 2.0, size=(sizes, *act_sizes)) for _ in range(T)],
        terminal_cost=rng.uniform(0.0, 2.0, size=(sizes,)))
