"""The benchmark's workloads: inputs made from the seed, operations, gates.

A workload's setup returns a ``Pass``: the operations of one pass plus a
post-pass check. An operation returns True when its gate holds; a gate
that fails, or an exception, counts against ``ops_failed_ratio``. The
package only ever sees generated models and profiles.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from delaypbp import ModelSpec, cli, dp, oracle, strategies

# The package's own comparison and improvement tolerances (the CLI
# defaults); gates use them as they are and never loosen them.
COMPARE_TOL = 1e-10
IMPROVE_TOL = 1e-12
MAX_ROUNDS = 32

CANON_MODELS = ("CANON-2A", "CANON-2B", "CANON-1")
CANON_COMMANDS = ("validate", "filter", "solve", "pbp", "verify", "falsify")

# (K, n, T) with alphabet 2, solved for agent 0 against a random profile.
LADDER_RUNGS = ((2, 1, 4), (2, 2, 4), (3, 1, 3))
# (K, n, T, alphabet), swept from the all-0 profile.
SWEEP_MODELS = ((2, 1, 3, 2), (2, 2, 3, 2), (2, 1, 2, 3))
# Base draw of the sweep models; see sweep_setup for why it is fixed.
SWEEP_BASE_SEED = 7


@dataclass
class Operation:
    label: str
    run: Callable[[], bool]


@dataclass
class Pass:
    ops: list[Operation]
    # Called after each pass with the tracer's snapshot of that pass (None
    # when untraced); returns {label: reason} for operations whose
    # post-pass check failed.
    check: Callable[[dict | None], dict[str, str]] = lambda snapshot: {}
    seeds: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Seeded models: the law of tests/conftest.py::random_model (dense, strictly
# positive kernels), drawn in the same order.
# ---------------------------------------------------------------------------

def random_model(seed, K: int, n: int, T: int, sizes: int) -> ModelSpec:
    rng = np.random.default_rng(seed)

    def dist(shape):
        raw = rng.uniform(0.1, 1.0, size=shape)
        return raw / raw.sum(axis=-1, keepdims=True)

    act_sizes = (sizes,) * K
    return ModelSpec.from_tables(
        K=K, n=n, T=T, state_size=sizes, obs_sizes=(sizes,) * K, act_sizes=act_sizes,
        init_dist=dist((sizes,)),
        transition=[dist((sizes, *act_sizes, sizes)) for _ in range(T)],
        observation=[[dist((sizes, sizes)) for _ in range(K)] for _ in range(T + 1)],
        stage_cost=[rng.uniform(0.0, 2.0, size=(sizes, *act_sizes)) for _ in range(T)],
        terminal_cost=rng.uniform(0.0, 2.0, size=(sizes,)))


def relabel(spec: ModelSpec, seed) -> ModelSpec:
    """The same model with its states and each (time, agent) observation
    alphabet renamed by seeded permutations. Actions keep their names, so
    the all-0 profile and the sweep's tie-break are unchanged and the
    sweep follows the image of the original's path."""
    rng = np.random.default_rng(seed)
    X = spec.state_size
    inv = np.argsort(rng.permutation(X))  # new state i is old state inv[i]
    observation = [[q[inv][:, np.argsort(rng.permutation(spec.obs_sizes[k]))]
                     for k, q in enumerate(per_agent)]
                    for per_agent in spec.observation]
    return ModelSpec.from_tables(
        K=spec.K, n=spec.n, T=spec.T, state_size=X, obs_sizes=spec.obs_sizes,
        act_sizes=spec.act_sizes, init_dist=spec.init_dist[inv],
        transition=[kern[inv][..., inv] for kern in spec.transition],
        observation=observation,
        stage_cost=[c[inv] for c in spec.stage_cost],
        terminal_cost=spec.terminal_cost[inv])


def shape_label(K: int, n: int, T: int, sizes: int | None = None) -> str:
    return f"K{K}n{n}T{T}" + (f"a{sizes}" if sizes is not None else "")


# ---------------------------------------------------------------------------
# canon-all: what a user runs -- every CLI command on every built-in model.
# ---------------------------------------------------------------------------

def _leaves_match(got, ref, path: str = "$") -> str | None:
    """None when the structures are equal and every number is within
    COMPARE_TOL; otherwise where they first differ."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(ref):
            return f"{path}: keys differ"
        for key in sorted(ref):
            bad = _leaves_match(got[key], ref[key], f"{path}.{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return f"{path}: lengths differ"
        for i, (g, r) in enumerate(zip(got, ref)):
            bad = _leaves_match(g, r, f"{path}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return None if got == ref and type(got) is type(ref) else f"{path}: {got!r} != {ref!r}"
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return f"{path}: {got!r} is not a number"
    return None if abs(got - ref) <= COMPARE_TOL else f"{path}: {got!r} != {ref!r}"


def canon_setup(seed: int, scratch: str, bench_dir: str) -> Pass:
    ref_dir = os.path.join(bench_dir, "reference", "canon")
    pairs = [(c, m) for m in CANON_MODELS for c in CANON_COMMANDS]
    # The seed only orders the operations; the reports must not depend on it.
    random.Random(seed).shuffle(pairs)
    out_dir = os.path.join(scratch, "reports")
    first_bytes: dict[str, bytes] = {}
    ref_diff: dict[str, str | None] = {}

    def make_op(command: str, model: str) -> Operation:
        def run() -> bool:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.run(cli.RunConfig(command=command, model=model, out=out_dir)) == 0
        return Operation(f"{command} {model}", run)

    def check(snapshot: dict | None) -> dict[str, str]:
        failed = {}
        for c, m in pairs:
            label, fname = f"{c} {m}", f"{c}_{m}.json"
            try:
                with open(os.path.join(out_dir, fname), "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                failed[label] = f"report missing: {exc}"
                continue
            if fname not in first_bytes:
                first_bytes[fname] = data
                with open(os.path.join(ref_dir, fname), encoding="utf-8") as fh:
                    ref_diff[fname] = _leaves_match(json.loads(data), json.load(fh))
            if data != first_bytes[fname]:
                failed[label] = "report bytes differ from the first pass"
                continue
            if ref_diff[fname]:
                failed[label] = f"differs from the reference at {ref_diff[fname]}"
                continue
            if snapshot is not None and c == "solve":
                # The value table's row count as counted inside the solver
                # must equal the rows the report wrote out.
                rows = len(json.loads(data)["results"][0]["table"])
                solve = snapshot["functions"].get("dp.solve_best_response", {})
                traced = solve.get("by_op", {}).get(label, {}).get("table_rows")
                if traced != rows:
                    failed[label] = f"table_rows {traced} != {rows} rows in {fname}"
            os.remove(os.path.join(out_dir, fname))
        return failed

    return Pass(ops=[make_op(c, m) for c, m in pairs], check=check,
                seeds={"order_seed": seed})


# ---------------------------------------------------------------------------
# ladder-solve: one best response per rung, cross-checked by enumeration.
# ---------------------------------------------------------------------------

def ladder_setup(seed: int, scratch: str, bench_dir: str) -> Pass:
    ops, seeds = [], {}
    for i, (K, n, T) in enumerate(LADDER_RUNGS):
        label = shape_label(K, n, T)
        model_seed, profile_seed = [seed, i], [seed, i, 1]
        spec = random_model(model_seed, K, n, T, 2)
        g = strategies.random_profile(spec, np.random.default_rng(profile_seed))
        seeds[label] = {"model": model_seed, "profile": profile_seed}

        def run(spec=spec, g=g) -> bool:
            vtable, g_maps = dp.solve_best_response(spec, 0, g)
            value = dp.expected_value(spec, 0, vtable)
            g_br = g.with_agent(0, g_maps)
            via = dp.cost_via_beliefs(spec, g_br, 0)
            enum = oracle.enumerate_cost(spec, g_br)
            return abs(value - enum) <= COMPARE_TOL and abs(via - enum) <= COMPARE_TOL

        ops.append(Operation(label, run))
    return Pass(ops=ops, seeds=seeds)


# ---------------------------------------------------------------------------
# pbp-sweep: best-response iteration to convergence, certified.
# ---------------------------------------------------------------------------

def sweep_setup(seed: int, scratch: str, bench_dir: str) -> Pass:
    # How many rounds a sweep needs depends on the model's values (one to
    # four rounds across draws of the alphabet-3 model), which would make
    # pass_s measure the seed rather than the code. So each model is one
    # fixed draw from the law, and the seed renames its states and
    # observation symbols: a different input with the same amount of work.
    ops, seeds = [], {}
    for i, (K, n, T, a) in enumerate(SWEEP_MODELS):
        label = shape_label(K, n, T, a)
        base_seed, relabel_seed = [SWEEP_BASE_SEED, i], [seed, i]
        spec = relabel(random_model(base_seed, K, n, T, a), relabel_seed)
        g0 = strategies.constant_profile(spec, 0)
        seeds[label] = {"base_model": base_seed, "relabel": relabel_seed}

        def run(spec=spec, g0=g0) -> bool:
            g, trace, converged = dp.pbp_sweep(spec, g0, MAX_ROUNDS, improve_tol=IMPROVE_TOL)
            monotone = all(cur <= prev + IMPROVE_TOL for prev, cur in zip(trace, trace[1:]))
            enum = oracle.enumerate_cost(spec, g)
            ok = converged and monotone and abs(trace[-1] - enum) <= COMPARE_TOL
            if spec.T <= 2:
                ok = oracle.verify_pbp(spec, g).all_stationary and ok
            return ok

        ops.append(Operation(label, run))
    return Pass(ops=ops, seeds=seeds)


WORKLOADS = {
    "canon-all": canon_setup,
    "ladder-solve": ladder_setup,
    "pbp-sweep": sweep_setup,
}
