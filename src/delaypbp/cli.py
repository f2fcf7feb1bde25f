"""Batch front end.

One invocation runs one command against one model (a canonical instance
name or a JSON model file), or with `all` every command against every
canonical instance, writes a machine-readable JSON report per (command,
model) under the output directory, and prints aligned tables to stdout.
Report bodies carry no timestamps, so identical inputs produce
byte-identical files.

Exit status: 0 when every asserted tolerance passes, 1 on a tolerance
failure, 2 on a malformed flag, config, model or strategy (one stderr line,
the first fault; every input is read before any command runs, so such a run
writes no report).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import dp, falsify, oracle
from .filtering import expand
from .info import lambda_labels, realization_keys
from .model import (CANONICAL_NAMES, COMPARE_TOL, IMPROVE_TOL, K1_TOL,
                    ModelSpec, resolve_model, uniform_observation_variant,
                    validate_model, write_json)
from .strategies import (StrategyProfile, agent_to_dict, constant_profile, load_profile,
                         observation_following_profile, profile_to_dict, random_profile)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2

# Seeds for the deterministic "random" alternative strategies in reports.
REPORT_SEEDS = (20240817, 20240818)

# The solve and pbp reports skip the exact brute force past T = 2 only
# because the canonical references under bench/reference/canon/ record it.
BRUTE_FORCE_SKIP = "instance too large for brute force (T > 2)"


@dataclass
class RunConfig:
    command: str
    model: str = "CANON-2A"
    agent: int = 0
    strategy: str | None = None
    out: str = "reports"
    tol_compare: float = COMPARE_TOL
    tol_improve: float = IMPROVE_TOL
    max_rounds: int = 32

    def validate(self) -> None:
        """Raise ValueError naming the first malformed setting."""
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not all(math.isfinite(tol) and tol > 0
                   for tol in (self.tol_compare, self.tol_improve)):
            raise ValueError("tolerance overrides must be positive and finite")
        if self.max_rounds < 1:
            raise ValueError("max-rounds must be >= 1")


def render_table(headers: list[str], rows: list[list]) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    rule = "  ".join("-" * w for w in widths)
    body = ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
    return "\n".join([line, rule, *body])


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _belief_rows(labels: list[str], belief: np.ndarray) -> list[list]:
    """One row per (state, lambda) cell, state-major."""
    return [[f"x={x}|{lam}", float(p)]
            for x, row in enumerate(belief) for lam, p in zip(labels, row)]


def _report(command: str, name: str, config: RunConfig, results: list, gaps: list,
            ok: bool, agent: int | None = None) -> dict:
    """The envelope every report shares: command, model, the agent where one
    applies, results, gaps, the tolerances in force and the pass flag."""
    doc = {"command": command, "model": name, "results": results, "gaps": gaps,
           "tolerances": {"compare": config.tol_compare, "improve": config.tol_improve},
           "pass": ok}
    if agent is not None:
        doc["agent"] = agent
    return doc


# ---------------------------------------------------------------------------
# Command implementations: each gets the agent and profile `run` chose (None
# where it reads no agent or no profile) and returns the report's (results,
# gaps, pass flag).
# ---------------------------------------------------------------------------

def cmd_validate(spec: ModelSpec, name: str, config: RunConfig, k: None, g: None):
    violations = validate_model(spec)
    rows = [[v] for v in violations] or [["(none)"]]
    print(f"== validate {name}")
    print(render_table(["violation"], rows))
    results = [{"check": "model-invariants", "violations": violations}]
    return results, [], not violations


def cmd_filter(spec: ModelSpec, name: str, config: RunConfig, k: int, g: StrategyProfile):
    layers = expand(spec, k, g, free=False)
    results, gaps = [], []
    for t, (codes, refs) in enumerate(oracle.posteriors(spec, g, k, free=False)):
        own, beliefs, labels = layers[t].codes, layers[t].beliefs, lambda_labels(spec, k, t)
        if not np.array_equal(own, codes):  # both increase, so one side lacks a code
            code = np.setxor1d(own, codes)[:1]
            side = "oracle" if code[0] in own else "recursion"
            raise AssertionError(f"t={t}: the {side} lacks {realization_keys(spec, k, t, code)[0]}")
        for key, prob, belief, ref, gap in zip(
                realization_keys(spec, k, t, codes), layers[t].prob.tolist(), beliefs, refs,
                np.max(np.abs(beliefs - refs), axis=(1, 2)).tolist()):
            gaps.append({"where": f"t={t} {key}", "gap": gap})
            results.append({
                "t": t,
                "realization": key,
                "prob": prob,
                "belief": _belief_rows(labels, belief),
                "oracle_belief": _belief_rows(labels, ref),
                "gap": gap,
            })
    ok = all(e["gap"] <= config.tol_compare for e in gaps)
    print(f"== filter {name} agent={k} (recursion vs oracle)")
    print(render_table(
        ["t", "realization", "prob", "gap"],
        [[e["t"], e["realization"], _fmt(e["prob"]), _fmt(e["gap"])] for e in results]))
    return results, gaps, ok


def cmd_solve(spec: ModelSpec, name: str, config: RunConfig, k: int, g: StrategyProfile):
    vtable, g_maps = dp.solve_best_response(spec, k, g)
    g_br = g.with_agent(k, g_maps)
    expected = dp.expected_value(spec, k, vtable)
    br_cost = dp.cost_via_beliefs(spec, g_br, k)
    consistency_gap = abs(expected - br_cost)
    gaps = [{"where": "initial-value vs best-response cost", "gap": consistency_gap}]
    ok = consistency_gap <= config.tol_compare

    if spec.T > 2:
        bf_entry = {"skipped": BRUTE_FORCE_SKIP}
    else:
        bf_value, _ = oracle.RealizationTree(spec, k, g).best_response()
        bf_gap = abs(expected - bf_value)
        gaps.append({"where": "initial-value vs brute force", "gap": bf_gap})
        ok = ok and bf_gap <= config.tol_compare
        bf_entry = {"brute_force_value": bf_value, "gap": bf_gap}

    # Code order per t; a node's argmin is its cell of the extracted array.
    table_rows = [{"t": t, "realization": key, "value": value,
                   "best_action": int(g_maps[t][code]) if t < spec.T else None}
                  for t, (lay, v) in enumerate(zip(vtable.entries, vtable.values))
                  for code, key, value in zip(lay.codes.tolist(),
                                              realization_keys(spec, k, t, lay.codes), v.tolist())]
    results = [{"expected_value": expected,
                "best_response_cost": br_cost,
                "brute_force": bf_entry,
                "table": table_rows,
                "best_response": agent_to_dict(spec, g_br, k)}]
    print(f"== solve {name} agent={k}")
    print(render_table(
        ["t", "realization", "value", "best_action"],
        [[e["t"], e["realization"], _fmt(e["value"]), e["best_action"]] for e in table_rows]))
    print(f"expected initial value: {_fmt(expected)}")
    return results, gaps, ok


def cmd_pbp(spec: ModelSpec, name: str, config: RunConfig, k: None, g: StrategyProfile):
    g_final, trace, converged = dp.pbp_sweep(spec, g, config.max_rounds,
                                             improve_tol=config.tol_improve)
    monotone = all(trace[i + 1] <= trace[i] + config.tol_improve
                   for i in range(len(trace) - 1))
    ok = converged and monotone
    if spec.T > 2:
        certification = {"skipped": BRUTE_FORCE_SKIP}
    else:
        report = oracle.verify_pbp(spec, g_final, tol=config.tol_compare)
        certification = asdict(report)
        ok = ok and report.all_stationary
    results = [{"trace": trace,
                "converged": converged,
                "monotone": monotone,
                "certification": certification,
                "final_profile": profile_to_dict(spec, g_final)}]
    print(f"== pbp {name}")
    print(render_table(["replacement", "cost"],
                       [[i, _fmt(c)] for i, c in enumerate(trace)]))
    print(f"converged: {converged}  monotone: {monotone}")
    if "agents" in certification:
        for a in certification["agents"]:
            print(f"agent {a['agent']}: gap {_fmt(a['gap'])} stationary {a['stationary']}")
    return results, [], ok


def _alternative_strategies(spec: ModelSpec, k: int, g_maps):
    """Named alternative agent-k strategies for the dominance report."""
    alts = [("constant-0", constant_profile(spec, 0).maps[k])]
    if spec.act_sizes[k] > 1:
        alts.append(("constant-1", constant_profile(spec, 1).maps[k]))
    alts.append(("observation-following", observation_following_profile(spec).maps[k]))
    for seed in REPORT_SEEDS:
        rng = np.random.default_rng(seed)
        alts.append((f"random-{seed}", random_profile(spec, rng).maps[k]))
    alts.append(("extracted-best-response", tuple(g_maps)))
    return alts


def cmd_verify(spec: ModelSpec, name: str, config: RunConfig, k: int, g: StrategyProfile):
    vtable, g_maps = dp.solve_best_response(spec, k, g)
    tree = oracle.RealizationTree(spec, k, g)
    results, gaps, ok = [], [], True
    for label, maps in _alternative_strategies(spec, k, g_maps):
        rows = dp.verify_value_dominance(tree, vtable, maps)
        violations = []
        for t, (codes, table, alt) in enumerate(rows):
            bad = table > alt + config.tol_compare
            violations += [{"t": t, "realization": key, "table": x, "alt": y} for key, x, y in zip(
                realization_keys(spec, k, t, codes[bad]), table[bad].tolist(), alt[bad].tolist())]
        codes, table, alt = map(np.concatenate, zip(*rows))  # (t, code) order
        ok = ok and not violations
        entry = {"alternative": label, "checked": len(codes), "violations": violations}
        if label == "extracted-best-response":
            gap = float(np.max(np.abs(table - alt), initial=0.0))
            entry["equality_gap"] = gap
            gaps.append({"where": "best-response equality", "gap": gap})
            ok = ok and gap <= config.tol_compare
        results.append(entry)
    print(f"== verify {name} agent={k} (value dominance)")
    print(render_table(
        ["alternative", "checked", "violations"],
        [[e["alternative"], e["checked"], len(e["violations"])] for e in results]))
    return results, gaps, ok


def cmd_falsify(spec: ModelSpec, name: str, config: RunConfig, k: int, g: StrategyProfile):
    t_check = spec.T - 1
    ci = falsify.check_conditional_independence(spec, g, k, t_check)
    results = [{"check": "conditional-independence", "informational": True,
                "t": t_check, "report": ci}]

    def gate(check: str, rep: dict, tol: float, **extra) -> None:
        results.append({"check": check, **extra, "tolerance": tol,
                        "pass": rep["max_gap"] <= tol, "report": rep})

    # The variant can reach realizations the model cannot, where the profile
    # may give no action; play 0 there.
    total = StrategyProfile(spec, tuple(tuple(np.maximum(m, 0) for m in r) for r in g.maps))
    gate("conditional-independence-uniform-obs", falsify.check_conditional_independence(
        uniform_observation_variant(spec), total, k, t_check), K1_TOL)

    base = observation_following_profile(spec)
    pairs = [
        ("constant-0 vs constant-1",
         constant_profile(spec, 0),
         constant_profile(spec, 0).with_agent(
             k, constant_profile(spec, min(1, spec.act_sizes[k] - 1)).maps[k])),
        ("observation-following vs constant-0",
         base, base.with_agent(k, constant_profile(spec, 0).maps[k])),
        ("observation-following vs random",
         base, base.with_agent(
             k, random_profile(spec, np.random.default_rng(REPORT_SEEDS[0])).maps[k])),
    ]
    for label, g_a, g_b in pairs:
        gate("policy-independence", falsify.check_policy_independence(spec, g_a, g_b, k), 0.0,
             pair=label)

    tol = config.tol_compare
    gate("conditional-markov", falsify.check_conditional_markov(spec, g, k, tol=tol), tol)
    if spec.K == 1:
        gate("single-agent-reduction", falsify.check_k1_reduction(spec), K1_TOL)
    else:
        results.append({"check": "single-agent-reduction", "skipped": "K > 1"})
    gate("payoff-identity", falsify.check_payoff_identity(spec, g), tol)
    ok = all(e["pass"] for e in results if "pass" in e)

    print(f"== falsify {name} agent={k}")
    rows = []
    for e in results:
        if "report" in e:
            rows.append([e["check"], _fmt(e["report"]["max_gap"]),
                         e.get("pass", "(info)"), e["report"]["witness"] or ""])
        else:
            rows.append([e["check"], "-", "skipped", e.get("skipped", "")])
    print(render_table(["check", "max_gap", "pass", "witness"], rows))
    gaps = [{"where": e["check"], "gap": e["report"]["max_gap"]}
            for e in results if "report" in e]
    return results, gaps, ok


# Per command: its implementation, whether it reads --agent (and so whether
# its report names the agent), and the profile it runs without --strategy.
# The sweep starts from the all-0 profile by convention; report commands use
# the observation-following profile, which keeps every channel informative.
_COMMANDS = {
    "validate": (cmd_validate, False, None),
    "filter": (cmd_filter, True, observation_following_profile),
    "solve": (cmd_solve, True, observation_following_profile),
    "pbp": (cmd_pbp, False, constant_profile),
    "verify": (cmd_verify, True, observation_following_profile),
    "falsify": (cmd_falsify, True, observation_following_profile),
}
COMMANDS = (*_COMMANDS, "all")


def run(config: RunConfig) -> int:
    """Execute one command, or with `all` every command on every canonical
    instance; write reports; return the exit status. Every input (config,
    models, agent, profiles) is read before any command runs."""
    every = config.command == "all"
    try:
        config.validate()
        models = ([resolve_model(inst) for inst in CANONICAL_NAMES] if every
                  else [resolve_model(config.model, check=config.command != "validate")])
        commands = tuple(_COMMANDS) if every else (config.command,)
        if any(_COMMANDS[command][1] for command in commands):
            for name, spec in models:
                if not 0 <= config.agent < spec.K:
                    raise ValueError(f"agent {config.agent} out of range for {name} (K={spec.K})")
        jobs = []
        for name, spec in models:
            for command in commands:
                fn, reads_agent, default = _COMMANDS[command]
                g = (None if default is None else default(spec) if config.strategy is None
                     else load_profile(spec, config.strategy))
                jobs.append((fn, name, spec, command, config.agent if reads_agent else None, g))
        summary = []
        for fn, name, spec, command, agent, g in jobs:
            results, gaps, ok = fn(spec, name, config, agent, g)
            os.makedirs(config.out, exist_ok=True)
            write_json(os.path.join(config.out, f"{command}_{name}.json"),
                       _report(command, name, config, results, gaps, ok, agent))
            summary.append({"model": name, "command": command, "pass": ok})
        all_ok = all(e["pass"] for e in summary)
        if every:
            write_json(os.path.join(config.out, "all_summary.json"),
                       _report("all", "canonical-instances", config, summary, [], all_ok))
            print(f"== all: pass={all_ok}")
        return EXIT_OK if all_ok else EXIT_TOLERANCE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed flag: main's one-line config error
        raise ValueError(message)


def parse_args(argv=None) -> RunConfig:
    # Defaults live in RunConfig only: an option not given stays out of the namespace.
    parser = _Parser(
        prog="delaypbp", argument_default=argparse.SUPPRESS,
        description="Exact solver and checker for finite delayed-sharing team problems.")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--model", help="canonical instance name or model JSON path")
    parser.add_argument("--agent", type=int, help="0-based agent index; validate and pbp ignore it")
    parser.add_argument("--strategy",
                        help="strategy JSON path (defaults: all-0 for pbp, "
                             "observation-following otherwise)")
    parser.add_argument("--out", help="report output directory")
    parser.add_argument("--tol-compare", type=float)
    parser.add_argument("--tol-improve", type=float)
    parser.add_argument("--max-rounds", type=int)
    given = vars(parser.parse_args(argv))
    if given["command"] == "all" and "model" in given:
        raise ValueError("all runs every canonical instance and takes no --model")
    return RunConfig(**given)


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(config)
