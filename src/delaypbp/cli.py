"""Batch front end.

One invocation runs one command against one model (a canonical instance
name or a JSON model file), or with `all` every command against every
canonical instance, writes a machine-readable JSON report per (command,
model) under the output directory, and prints aligned tables to stdout.
Report bodies carry no timestamps, so identical inputs produce
byte-identical files.

Exit status: 0 when every asserted tolerance passes, 1 on a tolerance
failure, 2 on a malformed config/model/strategy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import dp, falsify, oracle
from .errors import (IncompleteStrategyError, InstanceTooLargeError,
                     ModelFormatError)
from .filtering import BeliefPass, chained_beliefs, max_abs_gap
from .info import lambda_labels, realization_key
from .model import (CANONICAL_NAMES, COMPARE_TOL, IMPROVE_TOL, K1_TOL,
                    ModelSpec, resolve_model, uniform_observation_variant,
                    validate_model)
from .strategies import (StrategyProfile, constant_profile, load_profile,
                         observation_following_profile, profile_to_dict,
                         random_profile)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2

# Seeds for the deterministic "random" alternative strategies in reports.
REPORT_SEEDS = (20240817, 20240818)


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

    def validate(self) -> list[str]:
        problems = []
        if self.command not in COMMANDS:
            problems.append(f"unknown command {self.command!r}")
        if self.agent < 0:
            problems.append("agent index must be >= 0")
        if self.strategy is not None and not os.path.exists(self.strategy):
            problems.append(f"strategy file {self.strategy!r} does not exist")
        if not all(math.isfinite(tol) and tol > 0
                   for tol in (self.tol_compare, self.tol_improve)):
            problems.append("tolerance overrides must be positive and finite")
        if self.max_rounds < 1:
            problems.append("max-rounds must be >= 1")
        return problems


def render_table(headers: list[str], rows: list[list]) -> str:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    rule = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(c.ljust(w) for c, w in zip(row, widths))
        for row in cells
    ]
    return "\n".join([line, rule, *body])


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _belief_rows(labels: list[str], belief: np.ndarray) -> list[list]:
    """One row per (state, lambda) cell, state-major."""
    return [[f"x={x}|{lam}", float(p)]
            for x, row in enumerate(belief) for lam, p in zip(labels, row)]


def _profile_for(spec: ModelSpec, config: RunConfig, command: str) -> StrategyProfile:
    # Without a strategy file the sweep starts from the all-0 profile by
    # convention; report commands use the observation-following profile,
    # which keeps every channel informative.
    if config.strategy is not None:
        return load_profile(spec, config.strategy)
    if command == "pbp":
        return constant_profile(spec, 0)
    return observation_following_profile(spec)


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
# Command implementations. Each returns (report dict, pass flag).
# ---------------------------------------------------------------------------

def cmd_validate(spec: ModelSpec, name: str, config: RunConfig):
    violations = validate_model(spec)
    rows = [[v] for v in violations] or [["(none)"]]
    print(f"== validate {name}")
    print(render_table(["violation"], rows))
    results = [{"check": "model-invariants", "violations": violations}]
    return _report("validate", name, config, results, [], not violations), not violations


def cmd_filter(spec: ModelSpec, name: str, config: RunConfig):
    k = config.agent
    g = _profile_for(spec, config, "filter")
    chain = chained_beliefs(spec, g, k)
    results, gaps = [], []
    ok = True
    for t in range(spec.T + 1):
        posteriors = oracle.posteriors(spec, g, k, t, free=False)
        labels = lambda_labels(spec, k, t)
        for code in sorted(chain[t]):
            belief, prob = chain[t][code]
            ref = posteriors[code]
            gap = max_abs_gap(belief, ref)
            ok = ok and gap <= config.tol_compare
            key = realization_key(spec, k, t, code)
            gaps.append({"where": f"t={t} {key}", "gap": gap})
            results.append({
                "t": t,
                "realization": key,
                "prob": prob,
                "belief": _belief_rows(labels, belief),
                "oracle_belief": _belief_rows(labels, ref),
                "gap": gap,
            })
    print(f"== filter {name} agent={k} (recursion vs oracle)")
    print(render_table(
        ["t", "realization", "prob", "gap"],
        [[e["t"], e["realization"], _fmt(e["prob"]), _fmt(e["gap"])] for e in results]))
    return _report("filter", name, config, results, gaps, ok, agent=k), ok


def cmd_solve(spec: ModelSpec, name: str, config: RunConfig):
    k = config.agent
    g = _profile_for(spec, config, "solve")
    vtable, g_maps = dp.solve_best_response(spec, k, g)
    g_br = g.with_agent(k, g_maps)
    expected = dp.expected_value(spec, k, vtable)
    br_cost = dp.cost_via_beliefs(spec, g_br, k)
    consistency_gap = abs(expected - br_cost)
    gaps = [{"where": "initial-value vs best-response cost", "gap": consistency_gap}]
    ok = consistency_gap <= config.tol_compare

    try:
        bf_value, _ = oracle.brute_force_best_response(spec, k, g)
        bf_gap = abs(expected - bf_value)
        gaps.append({"where": "initial-value vs brute force", "gap": bf_gap})
        ok = ok and bf_gap <= config.tol_compare
        bf_entry = {"brute_force_value": bf_value, "gap": bf_gap}
    except InstanceTooLargeError as exc:
        bf_entry = {"skipped": str(exc)}

    table_rows = []
    for t, e in enumerate(vtable.entries):
        for i in np.argsort(e.layer.codes):
            table_rows.append({
                "t": t,
                "realization": realization_key(spec, k, t, int(e.layer.codes[i])),
                "value": float(e.values[i]),
                "best_action": None if e.best_actions is None else int(e.best_actions[i]),
            })
    results = [{"expected_value": expected,
                "best_response_cost": br_cost,
                "brute_force": bf_entry,
                "table": table_rows,
                "best_response": profile_to_dict(spec, g_br)["agents"][k]}]
    print(f"== solve {name} agent={k}")
    print(render_table(
        ["t", "realization", "value", "best_action"],
        [[e["t"], e["realization"], _fmt(e["value"]), e["best_action"]] for e in table_rows]))
    print(f"expected initial value: {_fmt(expected)}")
    return _report("solve", name, config, results, gaps, ok, agent=k), ok


def cmd_pbp(spec: ModelSpec, name: str, config: RunConfig):
    g0 = _profile_for(spec, config, "pbp")
    g_final, trace, converged = dp.pbp_sweep(spec, g0, config.max_rounds,
                                             improve_tol=config.tol_improve)
    monotone = all(trace[i + 1] <= trace[i] + config.tol_improve
                   for i in range(len(trace) - 1))
    ok = converged and monotone
    try:
        report = oracle.verify_pbp(spec, g_final, tol=config.tol_compare)
        certification = {**asdict(report), "all_stationary": report.all_stationary}
        ok = ok and report.all_stationary
    except InstanceTooLargeError as exc:
        certification = {"skipped": str(exc)}
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
    return _report("pbp", name, config, results, [], ok), ok


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


def cmd_verify(spec: ModelSpec, name: str, config: RunConfig):
    k = config.agent
    g = _profile_for(spec, config, "verify")
    vtable, g_maps = dp.solve_best_response(spec, k, g)
    tree = oracle.RealizationTree(spec, k, g)
    results, gaps, ok = [], [], True
    for label, maps in _alternative_strategies(spec, k, g_maps):
        report = dp.verify_value_dominance(tree, vtable, maps, tol=config.tol_compare)
        n_viol = len(report.violations)
        ok = ok and n_viol == 0
        entry = {
            "alternative": label,
            "checked": len(report.entries),
            "violations": [{"t": e.t,
                            "realization": realization_key(spec, k, e.t, e.code),
                            "table": e.table_value, "alt": e.alt_value}
                           for e in report.violations],
        }
        if label == "extracted-best-response":
            entry["equality_gap"] = report.max_abs_gap
            gaps.append({"where": "best-response equality", "gap": report.max_abs_gap})
            ok = ok and report.max_abs_gap <= config.tol_compare
        results.append(entry)
    print(f"== verify {name} agent={k} (value dominance)")
    print(render_table(
        ["alternative", "checked", "violations"],
        [[e["alternative"], e["checked"], len(e["violations"])] for e in results]))
    return _report("verify", name, config, results, gaps, ok, agent=k), ok


def cmd_falsify(spec: ModelSpec, name: str, config: RunConfig):
    k = config.agent
    g = _profile_for(spec, config, "falsify")
    # Gather the profile over agent k's reachable layers first, so that a
    # strategy file missing reached realizations is reported with its count
    # (as by the other commands), not at the first lookup of a walk.
    BeliefPass(spec, k, g).chain()
    t_check = spec.T - 1
    ci = falsify.check_conditional_independence(spec, g, k, t_check)
    results = [{"check": "conditional-independence", "informational": True,
                "t": t_check, "report": ci.to_dict()}]

    def gate(check: str, rep, tol: float, **extra) -> None:
        results.append({"check": check, **extra, "tolerance": tol,
                        "pass": rep.max_gap <= tol, "report": rep.to_dict()})

    # The variant can reach realizations the model cannot, where the profile
    # may give no action; play 0 there. With observations blind to the state
    # the gap vanishes whatever the profile.
    total = StrategyProfile(spec, tuple(tuple(np.maximum(m, 0) for m in row) for row in g.maps))
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
    return _report("falsify", name, config, results, gaps, ok, agent=k), ok


_COMMAND_FNS = {
    "validate": cmd_validate,
    "filter": cmd_filter,
    "solve": cmd_solve,
    "pbp": cmd_pbp,
    "verify": cmd_verify,
    "falsify": cmd_falsify,
}
COMMANDS = (*_COMMAND_FNS, "all")


def _write_report(out_dir: str, filename: str, doc: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run(config: RunConfig) -> int:
    """Execute one command, or with `all` every command on every canonical
    instance; write reports; return the exit status."""
    problems = config.validate()
    if problems:
        for p in problems:
            print(f"error: {p}", file=sys.stderr)
        return EXIT_CONFIG

    every = config.command == "all"
    try:
        models = ([resolve_model(inst) for inst in CANONICAL_NAMES] if every
                  else [resolve_model(config.model, check=config.command != "validate")])
        for name, spec in models:
            if config.agent >= spec.K:
                print(f"error: agent {config.agent} out of range for {name} (K={spec.K})",
                      file=sys.stderr)
                return EXIT_CONFIG
        commands = tuple(_COMMAND_FNS) if every else (config.command,)
        summary = []
        for name, spec in models:
            for command in commands:
                doc, ok = _COMMAND_FNS[command](spec, name, config)
                _write_report(config.out, f"{command}_{name}.json", doc)
                summary.append({"model": name, "command": command, "pass": ok})
        all_ok = all(e["pass"] for e in summary)
        if every:
            _write_report(config.out, "all_summary.json",
                          _report("all", "canonical-instances", config, summary, [], all_ok))
            print(f"== all: pass={all_ok}")
        return EXIT_OK if all_ok else EXIT_TOLERANCE
    except (ModelFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IncompleteStrategyError as exc:
        # A KeyError: str() would quote the message, so print its text.
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_CONFIG


def parse_args(argv=None) -> RunConfig:
    # Defaults live in RunConfig only: an option not given stays out of the namespace.
    parser = argparse.ArgumentParser(
        prog="delaypbp", argument_default=argparse.SUPPRESS,
        description="Exact solver and checker for finite delayed-sharing team problems.")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--model", help="canonical instance name or model JSON path")
    parser.add_argument("--agent", type=int, help="agent index (0-based) where applicable")
    parser.add_argument("--strategy",
                        help="strategy JSON path (defaults: all-0 for pbp, "
                             "observation-following otherwise)")
    parser.add_argument("--out", help="report output directory")
    parser.add_argument("--tol-compare", type=float)
    parser.add_argument("--tol-improve", type=float)
    parser.add_argument("--max-rounds", type=int)
    return RunConfig(**vars(parser.parse_args(argv)))


def main(argv=None) -> int:
    return run(parse_args(argv))
