"""Acceptance suite: one test per release criterion, each at its stated
tolerance rather than a looser stand-in. Run with `pytest -s` to see one
PASS/FAIL line per criterion."""

import numpy as np

from conftest import (RANDOM_SEED, dominance_violations, five_profiles, max_abs_gap,
                      oracle_gap)
from delaypbp import oracle
from delaypbp.cli import EXIT_OK, RunConfig, run
from delaypbp.dp import (expected_value, pbp_sweep, solve_best_response,
                         verify_value_dominance)
from delaypbp.falsify import (check_conditional_independence,
                              check_conditional_markov, check_k1_reduction,
                              check_policy_independence)
from delaypbp.filtering import expand
from delaypbp.model import canonical_instance, uniform_observation_variant
from delaypbp.strategies import (constant_profile, observation_following_profile,
                                 random_profile)

COMPARE_TOL = 1e-10
IMPROVE_TOL = 1e-12


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status} criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_1_filter_matches_oracle():
    worst, checked = 0.0, 0
    for name in ("CANON-2A", "CANON-2B"):
        spec = canonical_instance(name)
        for g in (observation_following_profile(spec), constant_profile(spec, 0)):
            for k in range(spec.K):
                chain = expand(spec, k, g, free=False)
                # wider domain: own actions free, opponents frozen (the
                # best-response table's layers before T, and the time-T beliefs)
                free = expand(spec, k, g, free=True)
                for layers in (chain, free):
                    worst = max(worst, oracle_gap(spec, g, k, layers))
                    checked += sum(map(len, layers))
    report(1, "recursive beliefs equal definition-level Bayes on CANON-2A/2B",
           worst <= COMPARE_TOL and checked >= 700,
           f"{checked} realizations, max gap {worst:.3e}")


def test_criterion_2_strategy_independence():
    worst, pairs = 0.0, 0
    for name in ("CANON-2A", "CANON-2B", "CANON-1"):
        spec = canonical_instance(name)
        base = observation_following_profile(spec)
        alternatives = [
            constant_profile(spec, 0).maps[0],
            constant_profile(spec, min(1, spec.act_sizes[0] - 1)).maps[0],
            random_profile(spec, np.random.default_rng(RANDOM_SEED)).maps[0],
        ]
        for alt in alternatives:
            rep = check_policy_independence(spec, base, base.with_agent(0, alt), 0)
            assert rep["gaps"], "empty shared reachable set"
            worst = max(worst, rep["max_gap"])
            pairs += 1
    report(2, "posteriors are strategy-independent (exactly zero gaps)",
           worst == 0.0 and pairs >= 9, f"{pairs} profile pairs, max gap {worst!r}")


def test_criterion_3_conditional_markov():
    spec = canonical_instance("CANON-2A")
    worst, groups = 0.0, 0
    for k in range(spec.K):
        rep = check_conditional_markov(spec, observation_following_profile(spec), k,
                                       tol=COMPARE_TOL)
        worst = max(worst, rep["max_gap"])
        groups += len(rep["gaps"])
    report(3, "posterior process is conditionally Markov on CANON-2A",
           worst <= COMPARE_TOL and groups > 0,
           f"{groups} groups, max gap {worst:.3e}")


def test_criterion_4_single_agent_reduction():
    spec = canonical_instance("CANON-1")
    rep = check_k1_reduction(spec)
    report(4, "K=1 recursion reproduces the classical filter on CANON-1",
           rep["max_gap"] <= 1e-12 and len(rep["gaps"]) == 170,
           f"{len(rep['gaps'])} histories, max gap {rep['max_gap']:.3e}")


def test_criterion_5_payoff_identity():
    from delaypbp.dp import cost_via_beliefs

    worst, cases = 0.0, 0
    for name in ("CANON-2A", "CANON-2B", "CANON-1"):
        spec = canonical_instance(name)
        profiles = five_profiles(spec)
        assert len(profiles) >= 5
        assert any(n.startswith("random-") for n, _ in profiles)
        for _, g in profiles:
            ref = oracle.enumerate_cost(spec, g)
            for k in range(spec.K):
                worst = max(worst, abs(cost_via_beliefs(spec, g, k) - ref))
                cases += 1
    report(5, "belief-form cost equals enumerated cost (5 profiles/instance)",
           worst <= COMPARE_TOL and cases >= 25,
           f"{cases} (profile, agent) cases, max gap {worst:.3e}")


def test_criterion_6_dp_equals_brute_force():
    spec = canonical_instance("CANON-2A")
    opponents = [
        constant_profile(spec, 0),
        constant_profile(spec, 1),
        observation_following_profile(spec),
    ]
    worst_value, worst_cost, cases = 0.0, 0.0, 0
    for k in range(spec.K):
        for g in opponents:
            vtable, maps = solve_best_response(spec, k, g)
            bf_value, bf_maps = oracle.RealizationTree(spec, k, g).best_response()
            worst_value = max(worst_value,
                              abs(expected_value(spec, k, vtable) - bf_value))
            cost_dp = oracle.enumerate_cost(spec, g.with_agent(k, maps))
            cost_bf = oracle.enumerate_cost(spec, g.with_agent(k, bf_maps))
            worst_cost = max(worst_cost, abs(cost_dp - cost_bf))
            cases += 1
    report(6, "backward induction equals brute-force best response on CANON-2A",
           worst_value <= COMPARE_TOL and worst_cost <= COMPARE_TOL and cases == 6,
           f"value gap {worst_value:.3e}, cost gap {worst_cost:.3e}")


def test_criterion_7_value_dominance():
    worst_equality, violations, alternatives = 0.0, 0, 0
    for name in ("CANON-2A", "CANON-2B", "CANON-1"):
        spec = canonical_instance(name)
        g = observation_following_profile(spec)
        vtable, maps = solve_best_response(spec, 0, g)
        alts = [
            ("constant-0", constant_profile(spec, 0).maps[0]),
            ("constant-1", constant_profile(spec, 1).maps[0]),
            ("observation-following", g.maps[0]),
            ("random-a", random_profile(spec, np.random.default_rng(RANDOM_SEED)).maps[0]),
            ("random-b", random_profile(spec, np.random.default_rng(RANDOM_SEED + 1)).maps[0]),
            ("best-response", tuple(maps)),
        ]
        tree = oracle.RealizationTree(spec, 0, g)
        for label, alt_maps in alts:
            rows = verify_value_dominance(tree, vtable, alt_maps)
            violations += len(dominance_violations(rows, tol=COMPARE_TOL))
            alternatives += 1
            if label == "best-response":
                worst_equality = max(worst_equality, max_abs_gap(rows))
    report(7, "table values dominate every alternative, tightly at the argmin",
           violations == 0 and worst_equality <= COMPARE_TOL and alternatives >= 18,
           f"{alternatives} alternatives, equality gap {worst_equality:.3e}")


def test_criterion_8_pbp_certification():
    spec = canonical_instance("CANON-2A")
    g, trace, converged = pbp_sweep(spec, constant_profile(spec, 0), 32,
                                    improve_tol=IMPROVE_TOL)
    monotone = all(trace[i + 1] <= trace[i] + IMPROVE_TOL
                   for i in range(len(trace) - 1))
    cert = oracle.verify_pbp(spec, g, tol=COMPARE_TOL)
    report(8, "best-response iteration converges and is certified stationary",
           converged and monotone and cert.all_stationary
           and len(trace) <= 32 * spec.K,
           f"{len(trace)} replacements, final cost {trace[-1]:.6f}, "
           f"gaps {[format(a['gap'], '.1e') for a in cert.agents]}")


def test_criterion_9_conditional_independence_falsified():
    spec = canonical_instance("CANON-2B")
    g = observation_following_profile(spec)
    rep = check_conditional_independence(spec, g, 0, 1)
    flat = uniform_observation_variant(spec)
    rep_flat = check_conditional_independence(flat, observation_following_profile(flat),
                                              0, 1)
    print(f"    witness realization: {rep['witness']} (gap {rep['max_gap']:.6f})")
    report(9, "fresh shared data is NOT conditionally independent of the state",
           rep["max_gap"] > 0.01 and rep["witness"] is not None
           and rep_flat["max_gap"] <= 1e-12,
           f"gap {rep['max_gap']:.4f} vs uniform-obs {rep_flat['max_gap']:.1e}")


def test_criterion_10_deterministic_reports(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = run(RunConfig(command="all", model="CANON-2A", out=str(out1)))
    code2 = run(RunConfig(command="all", model="CANON-2A", out=str(out2)))
    identical = True
    names = sorted(p.name for p in out1.iterdir())
    for name in names:
        with open(out1 / name, "rb") as fh1, open(out2 / name, "rb") as fh2:
            identical = identical and fh1.read() == fh2.read()
    report(10, "two full report runs are byte-identical and pass",
           code1 == EXIT_OK and code2 == EXIT_OK and identical
           and len(names) == 19,
           f"{len(names)} report files compared")
