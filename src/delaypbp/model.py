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
import reprlib
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
# Largest T*max|stage cost| + max|terminal cost|: no history's cost sum overflows.
COST_BOUND = float(np.finfo(float).max) / 2

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
        idx = np.unravel_index(i, table.shape[:-1] or (1,))  # a vector is row (0,)
        where = f"{name} row {tuple(int(j) for j in idx)}"
        if not np.all(np.isfinite(row)):
            violations.append(f"{where} contains NaN/Inf")
            continue
        if np.any(row < 0):
            violations.append(f"{where} has negative entry {row.min():.6g}")
        with np.errstate(over="ignore"):  # finite entries may sum to inf: a violation
            s = float(row.sum())
        if abs(s - 1.0) > PROB_TOL:
            violations.append(f"{where} sums to {s!r} (defect {abs(s - 1.0):.3e})")


def _check_table(name: str, table: np.ndarray, shape: tuple, probabilities: bool,
                 violations: list) -> None:
    """Append a violation if the table lacks its shape, has a row that is not a
    probability vector (probabilities) or holds NaN/Inf (costs)."""
    if table.shape != shape:
        violations.append(f"{name} shape {table.shape}, expected {shape}")
    elif probabilities:
        _check_rows(name, table, violations)
    elif not np.all(np.isfinite(table)):
        violations.append(f"{name} contains NaN/Inf")


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

    _check_table("init_dist", spec.init_dist, (X,), True, v)

    if len(spec.transition) != spec.T:
        v.append(f"transition has {len(spec.transition)} tables, expected T={spec.T}")
    else:
        for t, s in enumerate(spec.transition):
            _check_table(f"transition[{t}]", s, trans_shape, True, v)

    if len(spec.observation) != spec.T + 1:
        v.append(f"observation has {len(spec.observation)} stages, expected T+1={spec.T + 1}")
    else:
        for t, qs in enumerate(spec.observation):
            if len(qs) != spec.K:
                v.append(f"observation[{t}] has {len(qs)} kernels, expected K={spec.K}")
                continue
            for k, q in enumerate(qs):
                _check_table(f"observation[{t}][{k}]", q, (X, spec.obs_sizes[k]), True, v)

    if len(spec.stage_cost) != spec.T:
        v.append(f"stage_cost has {len(spec.stage_cost)} tables, expected T={spec.T}")
    else:
        for t, c in enumerate(spec.stage_cost):
            _check_table(f"stage_cost[{t}]", c, cost_shape, False, v)
    _check_table("terminal_cost", spec.terminal_cost, (X,), False, v)
    if not v and (bound := spec.T * max(float(np.abs(c).max()) for c in spec.stage_cost)
                  + float(np.abs(spec.terminal_cost).max())) > COST_BOUND:
        v.append(f"costs too large: T*max|stage cost| + max|terminal cost| = {bound:.6g}"
                 f" exceeds half the float maximum, {COST_BOUND:.6g}")

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
    if name not in CANONICAL_NAMES:
        raise ValueError(f"unknown canonical instance {name!r}; know {CANONICAL_NAMES}")
    return {"CANON-2A": _canon_2a, "CANON-2B": _canon_2b, "CANON-1": _canon_1}[name]()


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
# JSON files. A model mirrors ModelSpec field for field, with kernels as nested
# row-major lists: transition[t][x][u0]...[u{K-1}][x'].
# ---------------------------------------------------------------------------

def is_integer(value) -> bool:
    """A JSON integer: neither a bool nor a float, even an integral one."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_json(path):
    """The JSON document in a file; ModelFormatError if it is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ModelFormatError(f"not valid JSON: {exc}") from exc


def write_json(path, doc) -> None:
    """Write a document as JSON: sorted keys, indent 1, a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def check_keys(doc, keys: dict, level: str) -> None:
    """Check one level of a document against its key table, key -> kind:
    every key is present, no other is, and each value, in table order, is
    of its key's kind. A kind returns what is wrong with a value, or None."""
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{level} must be a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ModelFormatError(f"{level} missing fields: {missing}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ModelFormatError(f"{level} has unknown field {', '.join(map(repr, unknown))}")
    for key, check in keys.items():
        wrong = check(key, doc[key])
        if wrong:
            raise ModelFormatError(f"{level} {wrong}")


def kind_of(test, takes: str):
    """The kind of the values that pass `test`; `takes` says what the key takes."""
    return lambda key, value: (None if test(value)
                               else f"field {key!r} {takes}, got {reprlib.repr(value)}")


def _entries(table, index=()):
    """(index, entry) for every entry of a table given as nested JSON lists."""
    if isinstance(table, list):
        for i, row in enumerate(table):
            yield from _entries(row, index + (i,))
    else:
        yield index, table


def _table(key, table):
    """The kind of a table of JSON numbers, each of which fits a float.
    Their values (NaN/Inf, signs, row sums, the cost bound) are for
    validate_model to judge."""
    for index, value in _entries(table):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"table {key!r} takes JSON numbers, got {reprlib.repr(value)}"
        try:
            float(value)
        except OverflowError:
            return f"table entry {key}{''.join(f'[{i}]' for i in index)} is too large for a float"


_INTEGER = kind_of(is_integer, "takes JSON integers")
_INTEGERS = kind_of(lambda v: isinstance(v, list) and all(map(is_integer, v)),
                    "takes JSON integers")
_MODEL_KEYS = {"K": _INTEGER, "n": _INTEGER, "T": _INTEGER, "state_size": _INTEGER,
               "obs_sizes": _INTEGERS, "act_sizes": _INTEGERS,
               "init_dist": _table, "transition": _table, "observation": _table,
               "stage_cost": _table, "terminal_cost": _table}


def _plain(value):
    """A spec field as JSON: arrays and tuples as nested lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def model_to_dict(spec: ModelSpec) -> dict:
    return {key: _plain(getattr(spec, key)) for key in _MODEL_KEYS}


def save_model(spec: ModelSpec, path) -> None:
    write_json(path, model_to_dict(spec))


def load_model(path, check: bool = True) -> ModelSpec:
    """Load a model JSON file; raises ModelFormatError on a malformed
    document (missing or unknown keys, sizes that are not JSON integers,
    table entries that are not JSON numbers or do not fit a float) and,
    with check, on the first violation of validate_model, the one judge of
    the values: NaN/Inf, signs, row sums and the cost bound. The validate
    command reads with check=False to report violations as data."""
    doc = read_json(path)
    check_keys(doc, _MODEL_KEYS, "model")
    try:
        spec = ModelSpec.from_tables(**doc)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"malformed model tables: {exc}") from exc
    violations = validate_model(spec) if check else []
    if violations:
        more = f" (and {len(violations) - 1} more)" if len(violations) > 1 else ""
        raise ModelFormatError(f"invalid model: {violations[0]}{more}")
    return spec


def resolve_model(name_or_path: str, check: bool = True) -> tuple[str, ModelSpec]:
    """Map a CLI model argument to (display name, spec).

    Canonical names are looked up directly; anything else is treated as a
    path to a JSON model file.
    """
    if name_or_path in CANONICAL_NAMES:
        return name_or_path, canonical_instance(name_or_path)
    stem = os.path.splitext(os.path.basename(str(name_or_path)))[0]
    return stem, load_model(name_or_path, check)
