"""Finite decentralized POMDP with n-step delayed information sharing.

A model is a team control problem over finite alphabets: one hidden Markov
state chain driven by the joint action of K agents, a private observation
channel per agent, additive stage costs and a terminal cost. Every agent
sees its own full history plus all agents' observations and actions that
are at least n steps old. Kernels and costs are dense tables indexed by
time, so they may vary over the horizon.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import ModelFormatError

# Kernel rows must be probability vectors to this absolute tolerance.
PROB_TOL = 1e-12
# Checks and the CLI read their tolerances from here. COMPARE_TOL bounds
# belief and value identities and stationarity gaps; IMPROVE_TOL is the
# best-response sweep's strict-decrease threshold; K1_TOL gates identities
# that hold term by term (the single-agent reduction, conditional
# independence under state-blind observations). All sit just above the
# double-precision noise floor of exact enumeration at desk scale.
COMPARE_TOL = 1e-10
IMPROVE_TOL = 1e-12
K1_TOL = 1e-12

CANONICAL_NAMES = ("CANON-2A", "CANON-2B", "CANON-1")


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Immutable description of a delayed-sharing team problem.

    Shapes (all numpy float arrays, read-only):
      init_dist       (state_size,)
      transition[t]   (state_size, act_sizes[0], ..., act_sizes[K-1], state_size)
      observation[t][k] (state_size, obs_sizes[k])     for t = 0..T
      stage_cost[t]   (state_size, act_sizes[0], ..., act_sizes[K-1])
      terminal_cost   (state_size,)

    Decisions happen at t = 0..T-1; the terminal cost is charged at T.
    Agents are indexed 0..K-1 throughout.
    """

    K: int
    n: int
    T: int
    state_size: int
    obs_sizes: tuple[int, ...]
    act_sizes: tuple[int, ...]
    init_dist: np.ndarray
    transition: tuple[np.ndarray, ...]
    observation: tuple[tuple[np.ndarray, ...], ...]
    stage_cost: tuple[np.ndarray, ...]
    terminal_cost: np.ndarray

    @classmethod
    def from_tables(cls, K, n, T, state_size, obs_sizes, act_sizes, init_dist,
                    transition, observation, stage_cost, terminal_cost) -> "ModelSpec":
        """Build a spec from (possibly nested-list) tables, freezing the arrays."""

        def arr(x):
            a = np.asarray(x, dtype=float)
            a.setflags(write=False)
            return a

        return cls(
            K=int(K),
            n=int(n),
            T=int(T),
            state_size=int(state_size),
            obs_sizes=tuple(int(s) for s in obs_sizes),
            act_sizes=tuple(int(s) for s in act_sizes),
            init_dist=arr(init_dist),
            transition=tuple(arr(s) for s in transition),
            observation=tuple(tuple(arr(q) for q in qs) for qs in observation),
            stage_cost=tuple(arr(c) for c in stage_cost),
            terminal_cost=arr(terminal_cost),
        )


def _check_rows(name: str, table: np.ndarray, violations: list) -> None:
    """Append a violation per table row that is not a probability vector."""
    flat = table.reshape(-1, table.shape[-1])
    for i, row in enumerate(flat):
        idx = np.unravel_index(i, table.shape[:-1])
        where = f"{name} row {tuple(int(j) for j in idx)}"
        if not np.all(np.isfinite(row)):
            violations.append(f"{where} contains NaN/Inf")
            continue
        if np.any(row < 0):
            violations.append(f"{where} has negative entry {row.min():.6g}")
        s = float(row.sum())
        if abs(s - 1.0) > PROB_TOL:
            violations.append(f"{where} sums to {s!r} (defect {abs(s - 1.0):.3e})")


def validate_model(spec: ModelSpec) -> list[str]:
    """Check every ModelSpec invariant; return the list of violations.

    An empty list means the spec is valid. Violations are data, not
    exceptions: each entry names the offending field, index and measured
    defect. Pure: identical inputs give identical reports.
    """
    v: list[str] = []
    if spec.K < 1:
        v.append(f"K must be >= 1, got {spec.K}")
    if spec.n < 1:
        v.append(f"delay n must be >= 1, got {spec.n}")
    if spec.T < 1:
        v.append(f"horizon T must be >= 1, got {spec.T}")
    if spec.n > spec.T:
        v.append(f"delay exceeds horizon (n={spec.n}, T={spec.T})")
    if spec.state_size < 1:
        v.append(f"state_size must be >= 1, got {spec.state_size}")
    if len(spec.obs_sizes) != spec.K:
        v.append(f"obs_sizes has {len(spec.obs_sizes)} entries, expected K={spec.K}")
    if len(spec.act_sizes) != spec.K:
        v.append(f"act_sizes has {len(spec.act_sizes)} entries, expected K={spec.K}")
    for k, s in enumerate(spec.obs_sizes):
        if s < 1:
            v.append(f"obs_sizes[{k}] must be >= 1, got {s}")
    for k, s in enumerate(spec.act_sizes):
        if s < 1:
            v.append(f"act_sizes[{k}] must be >= 1, got {s}")
    if v:
        # Dimensions below depend on the counts above being sane.
        return v

    X = spec.state_size
    trans_shape = (X, *spec.act_sizes, X)
    cost_shape = (X, *spec.act_sizes)

    if spec.init_dist.shape != (X,):
        v.append(f"init_dist shape {spec.init_dist.shape}, expected {(X,)}")
    else:
        _check_rows("init_dist", spec.init_dist.reshape(1, X), v)

    if len(spec.transition) != spec.T:
        v.append(f"transition has {len(spec.transition)} tables, expected T={spec.T}")
    else:
        for t, s in enumerate(spec.transition):
            if s.shape != trans_shape:
                v.append(f"transition[{t}] shape {s.shape}, expected {trans_shape}")
            else:
                _check_rows(f"transition[{t}]", s, v)

    if len(spec.observation) != spec.T + 1:
        v.append(f"observation has {len(spec.observation)} stages, expected T+1={spec.T + 1}")
    else:
        for t, qs in enumerate(spec.observation):
            if len(qs) != spec.K:
                v.append(f"observation[{t}] has {len(qs)} kernels, expected K={spec.K}")
                continue
            for k, q in enumerate(qs):
                shape = (X, spec.obs_sizes[k])
                if q.shape != shape:
                    v.append(f"observation[{t}][{k}] shape {q.shape}, expected {shape}")
                else:
                    _check_rows(f"observation[{t}][{k}]", q, v)

    if len(spec.stage_cost) != spec.T:
        v.append(f"stage_cost has {len(spec.stage_cost)} tables, expected T={spec.T}")
    else:
        for t, c in enumerate(spec.stage_cost):
            if c.shape != cost_shape:
                v.append(f"stage_cost[{t}] shape {c.shape}, expected {cost_shape}")
            elif not np.all(np.isfinite(c)):
                v.append(f"stage_cost[{t}] contains NaN/Inf")

    if spec.terminal_cost.shape != (X,):
        v.append(f"terminal_cost shape {spec.terminal_cost.shape}, expected {(X,)}")
    elif not np.all(np.isfinite(spec.terminal_cost)):
        v.append("terminal_cost contains NaN/Inf")

    return v


# ---------------------------------------------------------------------------
# Canonical instances. All numeric entries are fixed constants; tests and the
# reference reports depend on them bit-for-bit, so do not edit casually.
# ---------------------------------------------------------------------------

def _canon_2a() -> ModelSpec:
    # Two agents, one-step sharing, two decisions. Observations are
    # informative (correct symbol w.p. 0.8) and the transition mixes under
    # both actions, so beliefs stay non-degenerate.
    q = [[0.8, 0.2], [0.2, 0.8]]
    trans = [
        [  # x = 0, rows indexed [u0][u1] -> dist over x'
            [[0.9, 0.1], [0.7, 0.3]],
            [[0.6, 0.4], [0.3, 0.7]],
        ],
        [  # x = 1
            [[0.8, 0.2], [0.5, 0.5]],
            [[0.25, 0.75], [0.15, 0.85]],
        ],
    ]
    c0 = [
        [[0.0, 0.4], [0.7, 1.1]],
        [[1.0, 0.3], [0.9, 0.2]],
    ]
    c1 = [
        [[0.2, 0.8], [0.5, 1.3]],
        [[0.9, 0.1], [1.2, 0.6]],
    ]
    return ModelSpec.from_tables(
        K=2, n=1, T=2, state_size=2, obs_sizes=(2, 2), act_sizes=(2, 2),
        init_dist=[0.6, 0.4],
        transition=[trans, trans],
        observation=[(q, q)] * 3,
        stage_cost=[c0, c1],
        terminal_cost=[0.25, 1.5],
    )


def _canon_2b() -> ModelSpec:
    # Same shape as CANON-2A with sharper observation channels and a
    # strongly state-dependent transition: the second agent's fresh data
    # then carries information about the current state beyond what the
    # first agent's own history provides, which is what the
    # conditional-independence check is built to expose.
    q1 = [[0.85, 0.15], [0.15, 0.85]]
    q2 = [[0.9, 0.1], [0.1, 0.9]]
    trans = [
        [
            [[0.95, 0.05], [0.8, 0.2]],
            [[0.35, 0.65], [0.15, 0.85]],
        ],
        [
            [[0.1, 0.9], [0.3, 0.7]],
            [[0.7, 0.3], [0.9, 0.1]],
        ],
    ]
    c0 = [
        [[0.0, 0.5], [0.6, 1.2]],
        [[1.1, 0.2], [0.8, 0.3]],
    ]
    c1 = [
        [[0.3, 0.9], [0.4, 1.0]],
        [[1.0, 0.1], [1.3, 0.7]],
    ]
    return ModelSpec.from_tables(
        K=2, n=1, T=2, state_size=2, obs_sizes=(2, 2), act_sizes=(2, 2),
        init_dist=[0.5, 0.5],
        transition=[trans, trans],
        observation=[(q1, q2)] * 3,
        stage_cost=[c0, c1],
        terminal_cost=[0.0, 2.0],
    )


def _canon_1() -> ModelSpec:
    # Single agent, three decisions: the delayed-sharing machinery must
    # collapse to a plain partially observed control problem here.
    q = [[0.85, 0.15], [0.15, 0.85]]
    trans = [
        [[0.9, 0.1], [0.4, 0.6]],  # x = 0, rows indexed [u]
        [[0.2, 0.8], [0.7, 0.3]],  # x = 1
    ]
    c0 = [[0.0, 0.6], [1.2, 0.4]]
    c1 = [[0.1, 0.8], [1.0, 0.2]]
    c2 = [[0.3, 0.5], [0.9, 0.1]]
    return ModelSpec.from_tables(
        K=1, n=1, T=3, state_size=2, obs_sizes=(2,), act_sizes=(2,),
        init_dist=[0.7, 0.3],
        transition=[trans, trans, trans],
        observation=[(q,)] * 4,
        stage_cost=[c0, c1, c2],
        terminal_cost=[0.0, 1.0],
    )


def canonical_instance(name: str) -> ModelSpec:
    """Return one of the built-in instances by name.

    CANON-2A: generic two-agent instance used for cross-checks against the
      enumeration oracle. CANON-2B: tuned so the conditional-independence
      check reports a large gap. CANON-1: single-agent instance for the
      classical-filter reduction.
    """
    if name == "CANON-2A":
        return _canon_2a()
    if name == "CANON-2B":
        return _canon_2b()
    if name == "CANON-1":
        return _canon_1()
    raise ValueError(f"unknown canonical instance {name!r}; know {CANONICAL_NAMES}")


def uniform_observation_variant(spec: ModelSpec) -> ModelSpec:
    """Copy of spec with every observation kernel uniform, so observations
    carry no state information: the degenerate sanity case of the
    conditional-independence check. With n > 1 every transition row
    transition[t][x, u...] is also set to its all-0-action row: the other
    agents' actions, revealed a step late, would otherwise already have
    steered the state, and the gap would not vanish whatever the profile."""
    obs = tuple(
        tuple(np.full((spec.state_size, spec.obs_sizes[k]), 1.0 / spec.obs_sizes[k])
              for k in range(spec.K))
        for _ in range(spec.T + 1)
    )
    trans = [np.broadcast_to(p[(slice(None),) + (slice(0, 1),) * spec.K], p.shape)
             for p in spec.transition] if spec.n > 1 else spec.transition
    return ModelSpec.from_tables(
        spec.K, spec.n, spec.T, spec.state_size, spec.obs_sizes, spec.act_sizes,
        spec.init_dist, trans, obs, spec.stage_cost, spec.terminal_cost,
    )


# ---------------------------------------------------------------------------
# JSON model files. The document mirrors ModelSpec field for field, with
# kernels as nested row-major lists: transition[t][x][u0]...[u{K-1}][x'].
# ---------------------------------------------------------------------------

_MODEL_FIELDS = ("K", "n", "T", "state_size", "obs_sizes", "act_sizes",
                 "init_dist", "transition", "observation", "stage_cost",
                 "terminal_cost")


def is_integer(value) -> bool:
    """A JSON integer: neither a bool nor a float, even an integral one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _entries(table):
    """Every entry of a table given as nested JSON lists."""
    if isinstance(table, list):
        for row in table:
            yield from _entries(row)
    else:
        yield table


def model_to_dict(spec: ModelSpec) -> dict:
    return {
        "K": spec.K,
        "n": spec.n,
        "T": spec.T,
        "state_size": spec.state_size,
        "obs_sizes": list(spec.obs_sizes),
        "act_sizes": list(spec.act_sizes),
        "init_dist": spec.init_dist.tolist(),
        "transition": [s.tolist() for s in spec.transition],
        "observation": [[q.tolist() for q in qs] for qs in spec.observation],
        "stage_cost": [c.tolist() for c in spec.stage_cost],
        "terminal_cost": spec.terminal_cost.tolist(),
    }


def save_model(spec: ModelSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(spec), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _reject_bad_numbers(name: str, arr: np.ndarray, probabilities: bool) -> None:
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"{name} contains NaN or Inf")
    if probabilities and np.any(arr < 0):
        raise ModelFormatError(f"{name} contains a negative probability")


def model_from_dict(doc: dict, check: bool = True) -> ModelSpec:
    """Build a spec from its JSON document. Table entries other than JSON
    numbers, NaN/Inf and negative probabilities are always rejected; with
    check, so is any other violation of validate_model (the validate
    command reads with check=False to report violations as data)."""
    missing = [f for f in _MODEL_FIELDS if f not in doc]
    if missing:
        raise ModelFormatError(f"model document missing fields: {missing}")
    for f in ("K", "n", "T", "state_size", "obs_sizes", "act_sizes"):
        values = doc[f] if f.endswith("_sizes") and isinstance(doc[f], list) else [doc[f]]
        if not all(is_integer(v) for v in values):
            raise ModelFormatError(f"model field {f!r} takes JSON integers, got {doc[f]!r}")
    for f in ("init_dist", "transition", "observation", "stage_cost", "terminal_cost"):
        for v in _entries(doc[f]):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ModelFormatError(f"model table {f!r} takes JSON numbers, got {v!r}")
    try:
        spec = ModelSpec.from_tables(**{f: doc[f] for f in _MODEL_FIELDS})
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model tables: {exc}") from exc
    _reject_bad_numbers("init_dist", spec.init_dist, probabilities=True)
    for t, s in enumerate(spec.transition):
        _reject_bad_numbers(f"transition[{t}]", s, probabilities=True)
    for t, qs in enumerate(spec.observation):
        for k, q in enumerate(qs):
            _reject_bad_numbers(f"observation[{t}][{k}]", q, probabilities=True)
    for t, c in enumerate(spec.stage_cost):
        _reject_bad_numbers(f"stage_cost[{t}]", c, probabilities=False)
    _reject_bad_numbers("terminal_cost", spec.terminal_cost, probabilities=False)
    violations = validate_model(spec) if check else []
    if violations:
        more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
        raise ModelFormatError(f"invalid model: {violations[0]}{more}")
    return spec


def load_model(path, check: bool = True) -> ModelSpec:
    """Load a model JSON file; raises ModelFormatError on malformed input."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ModelFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelFormatError("model document must be a JSON object")
    return model_from_dict(doc, check)


def resolve_model(name_or_path: str, check: bool = True) -> tuple[str, ModelSpec]:
    """Map a CLI model argument to (display name, spec).

    Canonical names are looked up directly; anything else is treated as a
    path to a JSON model file.
    """
    if name_or_path in CANONICAL_NAMES:
        return name_or_path, canonical_instance(name_or_path)
    stem = os.path.splitext(os.path.basename(str(name_or_path)))[0]
    return stem, load_model(name_or_path, check)
