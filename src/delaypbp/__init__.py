"""Exact toolkit for finite decentralized POMDPs with delayed sharing.

Everything is desk-scale and enumeration-exact: models are finite tables,
beliefs are dense (state, other agents' private block) arrays, and
expectations are finite sums. The library computes each agent's
posterior over that extended state, solves the per-agent best-response
dynamic program on that posterior, iterates best responses toward a
person-by-person stationary profile, and cross-checks every step against
an independent trajectory-enumeration oracle. A realization of an agent's
information is an integer code (`info`), written out as a text key only in
strategy files and reports.
"""

from .dp import (ValueTable, cost_via_beliefs, expected_value, pbp_sweep,
                 solve_best_response, terminal_values, verify_value_dominance)
from .errors import (IncompleteStrategyError, InstanceTooLargeError,
                     ModelFormatError, UnreachableError)
from .falsify import (GapReport, check_conditional_independence,
                      check_conditional_markov, check_k1_reduction,
                      check_payoff_identity, check_policy_independence)
from .filtering import chained_beliefs, classical_filter_update
from .model import (ModelSpec, canonical_instance, load_model, save_model,
                    validate_model)
from .oracle import (RealizationTree, brute_force_best_response, enumerate_cost,
                     posteriors, verify_pbp, walk)
from .strategies import (StrategyProfile, constant_profile, load_profile,
                         observation_following_profile, random_profile,
                         save_profile)

__version__ = "0.1.0"

__all__ = [
    "GapReport", "IncompleteStrategyError", "InstanceTooLargeError",
    "ModelFormatError", "ModelSpec", "RealizationTree", "StrategyProfile",
    "UnreachableError", "ValueTable",
    "brute_force_best_response", "canonical_instance", "chained_beliefs",
    "check_conditional_independence", "check_conditional_markov",
    "check_k1_reduction", "check_payoff_identity",
    "check_policy_independence", "classical_filter_update",
    "constant_profile", "cost_via_beliefs", "enumerate_cost",
    "expected_value", "load_model", "load_profile",
    "observation_following_profile", "pbp_sweep", "posteriors",
    "random_profile", "save_model", "save_profile", "solve_best_response",
    "terminal_values", "validate_model", "verify_pbp",
    "verify_value_dominance", "walk",
]
