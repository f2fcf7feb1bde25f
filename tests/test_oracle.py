import ast
import itertools
import pathlib

import numpy as np
import pytest

from conftest import SHAPES, deterministic_chain, five_profiles, random_model
from delaypbp import canonical_instance, cli
from delaypbp.dp import expected_value, solve_best_response, verify_value_dominance
from delaypbp.errors import IncompleteStrategyError, InstanceTooLargeError, UnreachableError
from delaypbp.info import grid_size, history_code, lambda_labels
from delaypbp.model import ModelSpec
from delaypbp.oracle import (RealizationTree, _best_response, brute_force_best_response,
                             enumerate_cost, posteriors, verify_pbp, walk)
from delaypbp.strategies import (constant_profile, observation_following_profile,
                                 random_profile)
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


def leaf_masses(spec, g, key, t_end):
    """Leaf mass of one walk summed per key(xs, obs, acts)."""
    out = {}

    def visit(xs, obs, acts, mass, cost):
        kk = key(xs, obs, acts)
        out[kk] = out.get(kk, 0.0) + mass

    walk(spec, g, visit, t_end=t_end)
    return out


# --- the leaf measure ---------------------------------------------------------

def test_atom_masses_form_probability_measure(canon_2a, canon_1):
    for spec in (canon_2a, canon_1):
        for _, g in five_profiles(spec):
            total = sum(leaf_masses(spec, g, lambda xs, obs, acts: (), spec.T).values())
            assert abs(total - 1.0) <= 1e-10


def test_atoms_have_consistent_shapes(canon_2a):
    g = constant_profile(canon_2a, 0)
    leaves = []
    walk(canon_2a, g, lambda xs, obs, acts, mass, cost: leaves.append((xs, obs, acts)), t_end=1)
    assert leaves
    for xs, obs, acts in leaves:
        assert len(xs) == 2 and len(obs) == len(acts) == 2
        assert all(len(ys) == 2 for ys in obs)
        assert all(len(us) == 1 for us in acts)


# --- expected cost ----------------------------------------------------------

def test_enumerate_cost_zero_costs(canon_2a):
    spec = zero_cost_variant(canon_2a)
    assert enumerate_cost(spec, constant_profile(spec, 1)) == 0.0


def test_enumerate_cost_deterministic_model():
    spec = deterministic_chain()
    g = constant_profile(spec, 0)
    # single trajectory: x = 0 -> 1 -> 0, costs 0.5 + 4.0 + terminal 3.0
    assert enumerate_cost(spec, g) == pytest.approx(7.5, abs=1e-15)
    leaves = []
    walk(spec, g, lambda xs, obs, acts, mass, cost: leaves.append((xs, mass, cost)))
    assert leaves == [((0, 1, 0), 1.0, 7.5)]


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
        acts = tuple(g.action_at(j, s, history_code(spec, *hist, j, s)) for j in range(spec.K))
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

def test_conditional_pmf_recovers_init(canon_2a):
    g = constant_profile(canon_2a, 0)
    masses = leaf_masses(canon_2a, g, lambda xs, obs, acts: xs[0], 0)
    for x in range(2):
        assert masses[x] == pytest.approx(canon_2a.init_dist[x], abs=1e-12)


def test_conditional_pmf_reads_back_kernel_row(canon_2a):
    g = constant_profile(canon_2a, 0)
    joint = leaf_masses(canon_2a, g, lambda xs, obs, acts: (xs[0], obs[1][0]), 0)
    marg = leaf_masses(canon_2a, g, lambda xs, obs, acts: xs[0], 0)
    for x in range(2):
        for y in range(2):
            assert joint[x, y] / marg[x] == pytest.approx(canon_2a.observation[0][1][x, y],
                                                          abs=1e-12)


def test_conditional_pmf_marginal_consistency(canon_2a):
    g = observation_following_profile(canon_2a)
    joint = leaf_masses(canon_2a, g, lambda xs, obs, acts: (xs[1], obs[0][1]), 1)
    marg = leaf_masses(canon_2a, g, lambda xs, obs, acts: xs[1], 1)
    for x in range(2):
        s = sum(p for key, p in joint.items() if key[0] == x)
        assert s == pytest.approx(marg[x], abs=1e-12)


def test_conditional_pmf_matches_posterior(canon_2a):
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
    post = posteriors(canon_2a, g, 0, t)
    follow = posteriors(canon_2a, g, 0, t, free=False)
    assert len(laws) == 8  # both first observations of each agent, then agent 0's second
    assert set(follow) == set(laws)
    for r, law in laws.items():
        assert np.max(np.abs(law / law.sum() - post[r])) <= 1e-10
        assert np.array_equal(follow[r], post[r])


def test_dominance_check_rejects_a_table_realization_the_tree_does_not_reach(canon_2a):
    """A table realization the enumeration cannot reach raises instead of
    being compared against nothing: a table built against the all-0
    opponent, checked against the tree of an opponent that plays its
    observation."""
    vtable, _ = solve_best_response(canon_2a, 0, constant_profile(canon_2a, 0))
    tree = RealizationTree(canon_2a, 0, observation_following_profile(canon_2a))
    with pytest.raises(UnreachableError, match="unreachable realization for agent 0 at t=1"):
        verify_value_dominance(tree, vtable, constant_profile(canon_2a, 1).maps[0])


def test_walk_rejects_a_horizon_past_T(canon_2a):
    g = constant_profile(canon_2a, 0)
    with pytest.raises(ValueError, match="t_end must be in"):
        walk(canon_2a, g, lambda *leaf: None, t_end=canon_2a.T + 1)


# --- brute force ------------------------------------------------------------

def test_brute_force_guard_rejects_long_horizons(canon_1):
    g = constant_profile(canon_1, 0)
    with pytest.raises(InstanceTooLargeError, match="too large for brute force"):
        brute_force_best_response(canon_1, 0, g)


def test_brute_force_t1_equals_plain_enumeration(canon_2a):
    spec = truncate_to_t1(canon_2a)
    g = observation_following_profile(spec)
    value, maps = brute_force_best_response(spec, 0, g)
    # plain enumeration over all stage-0 strategy arrays of agent 0
    from delaypbp.info import grid_size
    costs = [enumerate_cost(spec, g.with_agent(0, [np.array(combo)]))
             for combo in itertools.product(range(2), repeat=grid_size(spec, 0, 0))]
    assert value == pytest.approx(min(costs), abs=1e-12)
    g_star = g.with_agent(0, [maps[0]])
    assert enumerate_cost(spec, g_star) == pytest.approx(value, abs=1e-12)


def test_brute_force_lower_bounds_any_agreeing_profile(canon_2a):
    g = observation_following_profile(canon_2a)
    bf_value, _ = brute_force_best_response(canon_2a, 0, g)
    for _, g_any in five_profiles(canon_2a):
        mixed = g.with_agent(0, g_any.maps[0])  # agrees with g off agent 0
        assert bf_value <= enumerate_cost(canon_2a, mixed) + 1e-12


def test_brute_force_zero_costs_picks_all_zero(canon_2a):
    spec = zero_cost_variant(canon_2a)
    g = observation_following_profile(spec)
    value, maps = brute_force_best_response(spec, 0, g)
    assert value == 0.0
    assert all(np.all(m[m >= 0] == 0) and np.any(m == 0) for m in maps)


def test_brute_force_value_matches_realized_cost(canon_2a):
    g = observation_following_profile(canon_2a)
    value, maps = brute_force_best_response(canon_2a, 1, g)
    g_star = g.with_agent(1, [maps[0], maps[1]])
    assert enumerate_cost(canon_2a, g_star) == pytest.approx(value, abs=1e-12)


# --- the realization tree against the walks it replaced ------------------------

def tree_model(name):
    """A model and the profile its tree is built against: the one `verify`
    uses on the canonical instances, a seeded random one on a shape."""
    if isinstance(name, str):
        spec = canonical_instance(name)
        return spec, observation_following_profile(spec)
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
            assert set(got[t0]) == set(ref), (label, t0)
            assert max(abs(got[t0][r] - ref[r]) for r in ref) <= 1e-12, (label, t0)


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
                value, maps = brute_force_best_response(spec, k, g)
                ref_value, ref_maps = reference_oracle.brute_force_best_response(spec, k, g)
                assert abs(value - ref_value) <= 1e-12
                for m, ref in zip(maps, ref_maps):
                    assert np.array_equal(m[ref >= 0], ref[ref >= 0])


@pytest.mark.parametrize("name", ["CANON-1", (2, 1, 3, 2), (2, 2, 3, 2)], ids=str)
def test_pointwise_best_response_equals_the_dp_past_t2(name):
    """Past the brute-force cap the pass is still exact: its value is the
    dynamic program's."""
    spec, g = tree_model(name)
    for k in range(spec.K):
        value, _ = _best_response(RealizationTree(spec, k, g))
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
    assert not agent0.stationary
    assert agent0.gap > 1e-6


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
    assert imports["oracle"] <= {"model", "info", "errors"}, imports["oracle"]
    assert "oracle" not in imports["filtering"]
    # Realizations are codes: the oracle groups by them and takes from info
    # only the code arithmetic, never the blocks or the text keys.
    from_info = names_imported(SRC / "oracle.py", "info")
    assert "history_code" in from_info  # the parser does see the names
    assert from_info <= {"grid_size", "history_code", "next_codes", "oldest", "other_agents",
                         "private_act_len", "private_obs_len", "private_size", "radices",
                         "shared_prefix_len", "shift_code"}, from_info
    # info defines no record types: no dataclasses behind the codes.
    tree = ast.parse((SRC / "info.py").read_text(encoding="utf-8"))
    modules = {a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names}
    modules |= {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and not node.level}
    assert "numpy" in modules  # the parser does see the imports
    assert "dataclasses" not in modules, modules
