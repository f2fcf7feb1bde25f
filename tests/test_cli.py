import contextlib
import copy
import dataclasses
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import markov_grouping_model, random_model
from delaypbp import cli, dp, falsify, oracle, strategies
from delaypbp.cli import (EXIT_CONFIG, EXIT_OK, EXIT_TOLERANCE, RunConfig, _report, cmd_falsify,
                          cmd_pbp, cmd_solve, main, parse_args, run)
from delaypbp.dp import solve_best_response
from delaypbp.errors import ModelFormatError
from delaypbp.falsify import check_conditional_independence
from delaypbp.info import history_code, parse_realization_keys, realization_keys
from delaypbp.model import (CANONICAL_NAMES, K1_TOL, ModelSpec, canonical_instance, model_to_dict,
                            save_model, uniform_observation_variant)
from delaypbp.strategies import (StrategyProfile, constant_profile, load_profile,
                                 observation_following_profile, profile_to_dict, random_profile,
                                 save_profile)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_validate_command_ok(tmp_path):
    out = tmp_path / "reports"
    assert run(RunConfig(command="validate", model="CANON-2A", out=str(out))) == EXIT_OK
    doc = read(out / "validate_CANON-2A.json")
    assert doc["pass"] is True
    assert doc["results"][0]["violations"] == []


def test_validate_command_flags_bad_model(tmp_path, canon_2a):
    doc = model_to_dict(canon_2a)
    doc["transition"][0][0][0][0] = [0.6, 0.3]  # row sums to 0.9
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "reports"
    code = run(RunConfig(command="validate", model=str(bad), out=str(out)))
    assert code == EXIT_TOLERANCE
    report = read(out / "validate_bad_model.json")
    assert report["pass"] is False
    assert any("sums to" in v for v in report["results"][0]["violations"])


def test_validate_reports_a_model_without_agents(tmp_path, canon_2a):
    """validate reads no agent, so a K = 0 file is not refused for its
    --agent default: its violations are reported as data (exit 1)."""
    doc = {**model_to_dict(canon_2a), "K": 0, "obs_sizes": [], "act_sizes": []}
    bad = tmp_path / "no_agents.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "reports"
    assert run(RunConfig(command="validate", model=str(bad), out=str(out))) == EXIT_TOLERANCE
    report = read(out / "validate_no_agents.json")
    assert report["pass"] is False
    assert report["results"][0]["violations"][0] == "K must be >= 1, got 0"


def test_malformed_model_gives_config_exit(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{ not json")
    assert run(RunConfig(command="validate", model=str(bad),
                         out=str(tmp_path / "r"))) == EXIT_CONFIG


def test_unknown_command_rejected(tmp_path):
    assert run(RunConfig(command="explode", model="CANON-2A",
                         out=str(tmp_path))) == EXIT_CONFIG


def test_missing_strategy_file_rejected(tmp_path):
    assert run(RunConfig(command="solve", model="CANON-2A",
                         strategy=str(tmp_path / "nope.json"),
                         out=str(tmp_path))) == EXIT_CONFIG


def test_agent_out_of_range_rejected(tmp_path):
    assert run(RunConfig(command="filter", model="CANON-1", agent=1,
                         out=str(tmp_path))) == EXIT_CONFIG


@pytest.mark.parametrize("flags,msg", [(["--command", "filter", "--agent", "-1"],
                                        "error: agent -1 out of range for CANON-2A (K=2)"),
                                       (["--command", "pbp", "--max-rounds", "0"],
                                        "error: max-rounds must be >= 1"),
                                       (["--command", "filter", "--agent", "-1", "--max-rounds",
                                         "0", "--tol-compare", "-1"],
                                        "error: tolerance overrides must be positive and finite")])
def test_out_of_range_flag_gives_config_exit(tmp_path, capsys, flags, msg):
    """One stderr line, the first fault, even where several flags are bad."""
    out = tmp_path / "r"
    assert main([*flags, "--model", "CANON-2A", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == msg + "\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--command", "bogus"], ["--command", "solve", "--agent", "abc"],
                                  ["--command", "solve", "--tol-compare", "x"], [],
                                  ["--command", "solve", "--model"]],
                         ids=["command", "agent", "tol-compare", "no-command", "model-no-value"])
def test_malformed_flag_gives_one_line_config_exit(tmp_path, capsys, argv):
    """argparse's errors take main's config-error path: exit 2, one stderr
    line and no usage, no report directory."""
    out = tmp_path / "r"
    assert main(["--out", str(out), *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert not out.exists()


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: delaypbp")


def test_agent_out_of_range_for_one_canonical_model_rejects_all(tmp_path, capsys):
    """`all` checks the agent against every canonical model before it runs
    anything: CANON-1 has one agent, so --agent 1 raises nothing, prints
    one line and writes no report."""
    out = tmp_path / "reports"
    assert run(RunConfig(command="all", model="CANON-2A", agent=1, out=str(out))) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: agent 1 out of range for CANON-1 (K=1)\n"
    assert not out.exists()


def test_all_with_a_model_writes_nothing(tmp_path, capsys):
    """`all` runs every canonical instance, so a --model, even one naming no
    file, is a config error before any report or directory."""
    out = tmp_path / "reports"
    model = str(tmp_path / "nonexistent.json")
    assert main(["--command", "all", "--model", model, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: all runs every canonical instance and takes no --model\n"
    assert not out.exists()


def test_all_with_a_strategy_file_writes_nothing(tmp_path, canon_2a, capsys):
    """Every profile is loaded before any command runs, so a strategy file
    that cannot fit CANON-1 stops `all` before its first report."""
    path = tmp_path / "strategy.json"
    save_profile(canon_2a, observation_following_profile(canon_2a), path)
    out = tmp_path / "reports"
    assert main(["--command", "all", "--strategy", str(path), "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: strategy document is for (K=2, T=2, n=1), "
                            "model has (K=1, T=3, n=1)\n")
    assert not out.exists()


@pytest.mark.parametrize("flag,commands", [
    ("--model", ["validate", "filter", "solve", "pbp", "verify", "falsify"]),
    ("--strategy", ["filter", "solve", "pbp", "verify", "falsify", "all"]),
])
def test_missing_input_file_gives_one_line_config_exit(tmp_path, capsys, flag, commands):
    """A model or strategy file that does not exist fails at its own open:
    one stderr line, exit 2, and no report directory, `all` included."""
    missing = str(tmp_path / "missing.json")
    for command in commands:
        out = tmp_path / f"r-{command}"
        assert main(["--command", command, flag, missing, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
        assert not out.exists()


def test_validate_ignores_the_strategy_flag(tmp_path):
    """validate reads no profile, so it never opens --strategy, even one
    that does not exist, and writes the report it writes without it."""
    plain, flagged = tmp_path / "plain", tmp_path / "flagged"
    assert main(["--command", "validate", "--out", str(plain)]) == EXIT_OK
    assert main(["--command", "validate", "--strategy", str(tmp_path / "missing.json"),
                 "--out", str(flagged)]) == EXIT_OK
    name = "validate_CANON-2A.json"
    assert os.listdir(flagged) == [name]
    assert (flagged / name).read_bytes() == (plain / name).read_bytes()


@pytest.mark.parametrize("command,agent", [("pbp", "7"), ("validate", "-1")])
def test_commands_without_an_agent_ignore_the_flag(tmp_path, command, agent):
    plain, flagged = tmp_path / "plain", tmp_path / "flagged"
    assert main(["--command", command, "--out", str(plain)]) == EXIT_OK
    assert main(["--command", command, "--agent", agent, "--out", str(flagged)]) == EXIT_OK
    name = f"{command}_CANON-2A.json"
    assert os.listdir(flagged) == [name]
    assert (flagged / name).read_bytes() == (plain / name).read_bytes()


def test_solve_spells_only_the_solved_agents_keys(tmp_path, monkeypatch):
    """The report's best response is agent k's block alone: the strategy
    writer never spells another agent's realization keys."""
    spelled, whole = [], strategies.realization_keys

    def record(spec, k, t, codes):
        spelled.append(k)
        return whole(spec, k, t, codes)

    monkeypatch.setattr(strategies, "realization_keys", record)
    assert main(["--command", "solve", "--agent", "0", "--out", str(tmp_path)]) == EXIT_OK
    assert spelled and set(spelled) == {0}


def test_filter_command_reports_gaps(tmp_path):
    out = tmp_path / "reports"
    code = run(RunConfig(command="filter", model="CANON-2B", agent=1, out=str(out)))
    assert code == EXIT_OK
    doc = read(out / "filter_CANON-2B.json")
    assert doc["agent"] == 1
    assert doc["pass"] is True
    assert all(e["gap"] <= 1e-10 for e in doc["gaps"])
    assert len(doc["results"]) == 2 + 8 + 32


def test_filter_raises_where_the_oracle_lacks_a_chain_realization(tmp_path, monkeypatch):
    """With one time-1 row dropped from the oracle's posteriors, the filter
    command names the realization it lacks instead of comparing the
    chain's belief there with a neighbouring row."""
    whole = oracle.posteriors

    def short(spec, g, k, free=True):
        posts = whole(spec, g, k, free=free)
        codes, beliefs = posts[1]
        posts[1] = (np.delete(codes, 3), np.delete(beliefs, 3, axis=0))
        missing.extend(realization_keys(spec, k, 1, codes[3:4]))
        return posts

    missing = []
    monkeypatch.setattr(oracle, "posteriors", short)
    with pytest.raises(AssertionError, match=r"t=1: the oracle lacks c\(") as err:
        run(RunConfig(command="filter", model="CANON-2B", agent=1, out=str(tmp_path)))
    assert str(err.value) == f"t=1: the oracle lacks {missing[0]}"


def test_filter_raises_where_the_recursion_lacks_an_oracle_realization(tmp_path, monkeypatch):
    """With one time-1 node dropped from the expansion, the filter command
    names the realization the recursion lacks instead of comparing what is
    left."""
    whole = cli.expand

    def short(spec, k, g, free):
        layers = whole(spec, k, g, free)
        lay = layers[1]
        layers[1] = dataclasses.replace(lay, codes=np.delete(lay.codes, 3),
                                        beliefs=np.delete(lay.beliefs, 3, axis=0),
                                        prob=np.delete(lay.prob, 3))
        missing.extend(realization_keys(spec, k, 1, lay.codes[3:4]))
        return layers

    missing = []
    monkeypatch.setattr(cli, "expand", short)
    with pytest.raises(AssertionError, match=r"t=1: the recursion lacks c\(") as err:
        run(RunConfig(command="filter", model="CANON-2B", agent=1, out=str(tmp_path)))
    assert str(err.value) == f"t=1: the recursion lacks {missing[0]}"


def test_solve_command_cross_checks_brute_force(tmp_path):
    out = tmp_path / "reports"
    assert run(RunConfig(command="solve", model="CANON-2A", out=str(out))) == EXIT_OK
    doc = read(out / "solve_CANON-2A.json")
    res = doc["results"][0]
    assert "brute_force_value" in res["brute_force"]
    assert res["brute_force"]["gap"] <= 1e-10


def test_pbp_command_certifies(tmp_path):
    out = tmp_path / "reports"
    assert run(RunConfig(command="pbp", model="CANON-2A", out=str(out))) == EXIT_OK
    doc = read(out / "pbp_CANON-2A.json")
    res = doc["results"][0]
    assert res["converged"] is True
    assert res["monotone"] is True
    assert res["certification"]["all_stationary"] is True


def test_verify_command_no_violations(tmp_path):
    out = tmp_path / "reports"
    assert run(RunConfig(command="verify", model="CANON-2A", out=str(out))) == EXIT_OK
    doc = read(out / "verify_CANON-2A.json")
    assert len(doc["results"]) >= 5
    assert all(e["violations"] == [] for e in doc["results"])


def test_falsify_command_reports_positive_gap(tmp_path):
    out = tmp_path / "reports"
    assert run(RunConfig(command="falsify", model="CANON-2B", out=str(out))) == EXIT_OK
    doc = read(out / "falsify_CANON-2B.json")
    ci = next(e for e in doc["results"] if e["check"] == "conditional-independence")
    assert ci["report"]["max_gap"] > 0.01
    assert ci["report"]["witness"]
    uniform = next(e for e in doc["results"]
                   if e["check"] == "conditional-independence-uniform-obs")
    assert uniform["report"]["max_gap"] <= 1e-12


def test_falsify_gates_two_step_sharing_on_an_action_blind_variant(tmp_path):
    """With n = 2 the other agent's action, revealed a step late, has
    already steered the state, so state-blind observations alone leave a
    gap; with transitions blind to the actions too it vanishes, for both
    agents at T = 2 and 3, and falsify gates on that variant and exits 0."""
    for T in (2, 3):
        spec = random_model(3, 2, 2, T, 2)
        g = observation_following_profile(spec)
        for k in range(spec.K):
            observations_blind = dataclasses.replace(uniform_observation_variant(spec),
                                                     transition=spec.transition)
            assert check_conditional_independence(observations_blind, g, k,
                                                  T - 1)["max_gap"] > 0.01
            assert check_conditional_independence(uniform_observation_variant(spec), g, k,
                                                  T - 1)["max_gap"] <= K1_TOL
    spec = random_model(3, 2, 2, 2, 2)
    path = tmp_path / "k2n2t2.json"
    save_model(spec, path)
    for k in range(spec.K):
        out = tmp_path / f"r{k}"
        assert main(["--command", "falsify", "--model", str(path), "--agent", str(k),
                     "--out", str(out)]) == EXIT_OK
        checks = read(out / "falsify_k2n2t2.json")["results"]
        gated = next(e for e in checks if e["check"] == "conditional-independence-uniform-obs")
        assert gated["pass"] and gated["tolerance"] == K1_TOL
        assert gated["report"]["max_gap"] <= K1_TOL


def shift_a_next_posterior_law(monkeypatch):
    """Move 0.25 of mass between the first two next posteriors of the
    first time-1 realization's law."""
    laws_of = falsify._next_posterior_laws

    def shifted(*args):
        laws = laws_of(*args)
        beliefs, prob = laws[1][0]
        laws[1][0] = (beliefs, prob + np.array([-0.25, 0.25, *[0.0] * (len(prob) - 2)]))
        return laws
    monkeypatch.setattr(falsify, "_next_posterior_laws", shifted)


def raise_the_belief_form_cost(monkeypatch):
    cost = dp.cost_via_beliefs
    monkeypatch.setattr(dp, "cost_via_beliefs", lambda *args: cost(*args) + 1e-9)


def shift_the_second_profiles_posteriors(monkeypatch):
    """In every policy-independence check, the time-0 posteriors of the
    second profile's `oracle.posteriors` call move by 1e-3."""
    check, posteriors, second = falsify.check_policy_independence, oracle.posteriors, []

    def marking(spec, g_a, g_b, k):
        second.append(g_b)
        return check(spec, g_a, g_b, k)

    def shifted(spec, g, *args, **kwargs):
        (codes, beliefs), *rest = posteriors(spec, g, *args, **kwargs)
        return [(codes, beliefs + 1e-3 if any(g is b for b in second) else beliefs), *rest]
    monkeypatch.setattr(falsify, "check_policy_independence", marking)
    monkeypatch.setattr(oracle, "posteriors", shifted)


def keep_the_observations(monkeypatch):
    monkeypatch.setattr(cli, "uniform_observation_variant", lambda spec: spec)


@pytest.mark.parametrize("gate, name, perturb", [
    ("conditional-markov", "markov-grouping", shift_a_next_posterior_law),
    ("payoff-identity", "CANON-2A", raise_the_belief_form_cost),
    ("policy-independence", "CANON-2A", shift_the_second_profiles_posteriors),
    ("conditional-independence-uniform-obs", "CANON-2B", keep_the_observations),
])
def test_each_falsify_gate_fails_on_a_perturbed_input(gate, name, perturb, monkeypatch):
    """Every gate can fail: with its input perturbed, its entries do not
    pass, every other entry is the unperturbed run's, and falsify is not ok."""
    if name == "markov-grouping":
        spec = markov_grouping_model()
        g = constant_profile(spec, 0)
    else:
        spec = canonical_instance(name)
        g = observation_following_profile(spec)
    clean, _, ok = cmd_falsify(spec, name, RunConfig(command="falsify"), 0, g)
    assert ok
    perturb(monkeypatch)
    results, _, ok = cmd_falsify(spec, name, RunConfig(command="falsify"), 0, g)
    assert not ok
    assert [e["check"] for e in results] == [e["check"] for e in clean]
    assert gate in {e["check"] for e in results}
    for e, before in zip(results, clean):
        if e["check"] == gate:
            assert e["pass"] is False and e["report"]["max_gap"] > e["tolerance"]
        else:
            assert e == before, e["check"]


def test_reports_hold_the_check_documents_as_returned(monkeypatch):
    """One representation per result: each falsify entry's report is what its
    check returned, and pbp's certification is verify_pbp's document plus
    all_stationary."""
    returned = {}

    def record(module, fn_name):
        fn = getattr(module, fn_name)

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            returned.setdefault(fn_name, []).append(out)
            return out
        monkeypatch.setattr(module, fn_name, wrapped)

    checks = {"conditional-independence": "check_conditional_independence",
              "conditional-independence-uniform-obs": "check_conditional_independence",
              "policy-independence": "check_policy_independence",
              "conditional-markov": "check_conditional_markov",
              "payoff-identity": "check_payoff_identity"}
    for fn_name in set(checks.values()):
        record(falsify, fn_name)
    record(oracle, "verify_pbp")
    for name, spec in (("CANON-2B", canonical_instance("CANON-2B")),
                       ("k2n2t2", random_model(3, 2, 2, 2, 2))):
        returned.clear()
        results, _, _ = cmd_falsify(spec, name, RunConfig(command="falsify", agent=0), 0,
                                    observation_following_profile(spec))
        entries = [e for e in results if "report" in e]
        assert len(entries) == 7  # single-agent reduction skipped at K = 2
        for e in entries:
            assert e["report"] == returned[checks[e["check"]]].pop(0), e["check"]
        assert not any(returned.values())
        results, _, _ = cmd_pbp(spec, name, RunConfig(command="pbp"), 0,
                                constant_profile(spec, 0))
        (rep,) = returned["verify_pbp"]
        assert results[0]["certification"] == {
            "cost": rep.cost, "agents": rep.agents, "all_stationary": rep.all_stationary}


def test_solve_best_actions_and_verify_rows_on_a_saved_model(tmp_path):
    """On a saved K2n1T3 model the solve table's best_action column is the
    extracted best response, and verify checks every node of the table
    against every alternative."""
    spec = random_model(7, 2, 1, 3, 2)
    path = tmp_path / "k2n1t3.json"
    save_model(spec, path)
    out = tmp_path / "r"
    for command in ("solve", "verify"):
        assert main(["--command", command, "--model", str(path), "--out", str(out)]) == EXIT_OK
    res = read(out / "solve_k2n1t3.json")["results"][0]
    best = {(e["t"], e["realization"]): e["best_action"] for e in res["table"]}
    assert {key: u for key, u in best.items() if key[0] < spec.T} == {
        (times["t"], key): u for times in res["best_response"]["times"]
        for key, u in times["entries"]}
    assert all(u is None for (t, _), u in best.items() if t == spec.T)
    vtable, _ = solve_best_response(spec, 0, observation_following_profile(spec))
    verify = read(out / "verify_k2n1t3.json")["results"]
    assert len(verify) >= 5
    assert all(e["checked"] == sum(map(len, vtable.entries)) and e["violations"] == []
               for e in verify)


def _model_arg(tmp_path, name):
    """(spec, --model argument, report stem): a canonical name as it is, or
    the n = 2 random model saved to a file."""
    if name in CANONICAL_NAMES:
        return canonical_instance(name), name, name
    spec = random_model(3, 2, 2, 3, 2)
    path = tmp_path / "k2n2t3.json"
    save_model(spec, path)
    return spec, str(path), "k2n2t3"


@pytest.mark.parametrize("name", [*CANONICAL_NAMES, "k2n2t3"])
def test_value_table_shape_matches_the_solve_report(tmp_path, name):
    """The value table holds one layer and one aligned value array per
    t = 0..T, and its node count is the number of rows of the solve
    report's table."""
    spec, model, stem = _model_arg(tmp_path, name)
    vtable, _ = solve_best_response(spec, 0, observation_following_profile(spec))
    assert len(vtable.entries) == len(vtable.values) == spec.T + 1
    assert all(len(v) == len(lay) for lay, v in zip(vtable.entries, vtable.values))
    out = tmp_path / "r"
    assert main(["--command", "solve", "--model", model, "--out", str(out)]) == EXIT_OK
    table = read(out / f"solve_{stem}.json")["results"][0]["table"]
    assert sum(len(lay) for lay in vtable.entries) == len(table)


@pytest.mark.parametrize("name", ["CANON-2A", "k2n2t3"])
def test_written_files_are_sorted_json_with_indent_1(tmp_path, name):
    """Model files, strategy files and reports are written alike: the
    document by `json.dumps(doc, indent=1, sort_keys=True)` plus a newline."""
    spec, model, stem = _model_arg(tmp_path, name)

    def written(doc):
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"

    g = observation_following_profile(spec)
    save_model(spec, tmp_path / "model.json")
    save_profile(spec, g, tmp_path / "strategy.json")
    assert (tmp_path / "model.json").read_text() == written(model_to_dict(spec))
    assert (tmp_path / "strategy.json").read_text() == written(profile_to_dict(spec, g))
    out = tmp_path / "r"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--command", "solve", "--model", model, "--out", str(out)]) == EXIT_OK
        config = RunConfig(command="solve", model=model)
        doc = _report("solve", stem, config,
                      *cmd_solve(spec, stem, config, 0, observation_following_profile(spec)), 0)
    assert (out / f"solve_{stem}.json").read_text() == written(doc)


def test_impossible_tolerance_fails_with_distinct_exit(tmp_path):
    code = run(RunConfig(command="filter", model="CANON-2A",
                         out=str(tmp_path / "r"), tol_compare=1e-30))
    assert code == EXIT_TOLERANCE


def test_strategy_file_roundtrip_and_use(tmp_path, canon_2a):
    g = random_profile(canon_2a, np.random.default_rng(99))
    path = tmp_path / "strategy.json"
    save_profile(canon_2a, g, path)
    loaded = load_profile(canon_2a, path)
    assert all(np.array_equal(a, b) and not a.flags.writeable
               for row_a, row_b in zip(loaded.maps, g.maps) for a, b in zip(row_a, row_b))
    out = tmp_path / "reports"
    code = run(RunConfig(command="filter", model="CANON-2A",
                         strategy=str(path), out=str(out)))
    assert code == EXIT_OK


@pytest.mark.parametrize("spec", [pytest.param(canonical_instance("CANON-2A"), id="CANON-2A"),
                                  pytest.param(random_model(3, 2, 2, 3, 2), id="random-K2n2T3")])
def test_partial_strategy_file_roundtrip(tmp_path, spec):
    """A best response has -1 cells off the grid its forward pass reaches;
    the file leaves them out and reloading gives them back."""
    g = observation_following_profile(spec)
    _, g_maps = solve_best_response(spec, 0, g)
    partial = g.with_agent(0, g_maps)
    assert any(np.any(m < 0) for m in partial.maps[0])
    path = tmp_path / "strategy.json"
    save_profile(spec, partial, path)
    loaded = load_profile(spec, path)
    for k in range(spec.K):
        for t in range(spec.T):
            assert np.array_equal(loaded.maps[k][t], partial.maps[k][t])
    doc = read(path)
    for t in range(spec.T):
        assert len(doc["agents"][0]["times"][t]["entries"]) == int(np.sum(g_maps[t] >= 0))


def test_strategy_file_for_wrong_model_rejected(tmp_path, canon_2a, canon_1):
    g = random_profile(canon_1, np.random.default_rng(1))
    path = tmp_path / "strategy.json"
    save_profile(canon_1, g, path)
    with pytest.raises(ModelFormatError, match="strategy document is for"):
        load_profile(canon_2a, path)


def test_custom_model_file_runs(tmp_path, canon_2b):
    path = tmp_path / "my_model.json"
    save_model(canon_2b, path)
    out = tmp_path / "reports"
    assert run(RunConfig(command="filter", model=str(path), out=str(out))) == EXIT_OK
    assert (out / "filter_my_model.json").exists()


def test_main_parses_flags(tmp_path):
    out = tmp_path / "reports"
    code = main(["--command", "validate", "--model", "CANON-1",
                 "--out", str(out), "--tol-compare", "1e-9"])
    assert code == EXIT_OK
    doc = read(out / "validate_CANON-1.json")
    assert doc["tolerances"]["compare"] == 1e-9


REFERENCE_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "reference", "canon")


def _assert_same_report(got, want, where):
    """Same keys, strings and booleans; numbers within 1e-12."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_same_report(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same_report(g, w, f"{where}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= 1e-12, where
    else:
        assert got == want, where


def test_run_all_matches_reference_reports(tmp_path):
    """One `all` run reproduces every canonical report kept with the
    benchmark, read only."""
    out = tmp_path / "reports"
    assert run(RunConfig(command="all", model="CANON-2A", out=str(out))) == EXIT_OK
    names = sorted(os.listdir(out))
    assert len(names) == 6 * 3 + 1
    refs = sorted(os.listdir(REFERENCE_DIR))
    assert refs == [name for name in names if name != "all_summary.json"]
    for name in refs:
        _assert_same_report(read(out / name), read(os.path.join(REFERENCE_DIR, name)), name)


def test_run_all_summary_lists_every_canonical_pair_in_command_order(tmp_path, capsys):
    """`all` runs the six commands on each canonical instance in turn and
    sums the runs up in all_summary.json and one last stdout line."""
    out = tmp_path / "reports"
    assert run(RunConfig(command="all", out=str(out))) == EXIT_OK
    doc = read(out / "all_summary.json")
    commands = ("validate", "filter", "solve", "pbp", "verify", "falsify")
    assert doc["results"] == [{"model": m, "command": c, "pass": True}
                              for m in CANONICAL_NAMES for c in commands]
    assert len(doc["results"]) == 18
    assert (doc["command"], doc["model"], doc["gaps"], doc["pass"]) == (
        "all", "canonical-instances", [], True)
    assert "agent" not in doc
    assert capsys.readouterr().out.splitlines()[-1] == "== all: pass=True"


@pytest.mark.parametrize("command", ["validate", "filter", "solve", "pbp", "verify", "falsify"])
def test_single_command_writes_one_report_and_no_summary(tmp_path, capsys, command):
    out = tmp_path / "reports"
    assert run(RunConfig(command=command, model="CANON-1", out=str(out))) == EXIT_OK
    assert os.listdir(out) == [f"{command}_CANON-1.json"]
    assert "== all" not in capsys.readouterr().out


def test_parse_args_defaults_are_run_config_defaults():
    """A flag left out takes RunConfig's default; each flag given lands in
    its field."""
    assert parse_args(["--command", "solve"]) == RunConfig(command="solve")
    assert parse_args(["--command", "pbp", "--model", "m.json", "--agent", "1",
                       "--strategy", "s.json", "--out", "o", "--tol-compare", "0.5",
                       "--tol-improve", "0.25", "--max-rounds", "3"]) == RunConfig(
        command="pbp", model="m.json", agent=1, strategy="s.json", out="o",
        tol_compare=0.5, tol_improve=0.25, max_rounds=3)


def _short_prior(doc):
    doc["init_dist"] = [0.9 * p for p in doc["init_dist"]]


def _short_kernel(doc):
    doc["transition"][0] = [[[row[:1] for row in per_u0] for per_u0 in per_x]
                            for per_x in doc["transition"][0]]


def _ragged_prior(doc):
    doc["init_dist"] = [[0.6], 0.4]


@pytest.mark.parametrize("mutate,msg", [(_short_prior, "init_dist row (0,) sums to"),
                                        (_short_kernel, "transition[0] shape"),
                                        (_ragged_prior, "malformed model tables: ")])
def test_invalid_model_file_gives_config_exit(tmp_path, canon_2a, capsys, mutate, msg):
    doc = model_to_dict(canon_2a)
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["--command", "solve", "--model", str(bad), "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and msg in err[0]
    assert not (tmp_path / "r").exists()


def _drop_times(doc):
    del doc["agents"][0]["times"]


def _drop_entries(doc):
    del doc["agents"][1]["times"][0]["entries"]


def _unpaired_entry(doc):
    doc["agents"][0]["times"][1]["entries"][0] = [doc["agents"][0]["times"][1]["entries"][0][0]]


def _text_action(doc):
    doc["agents"][0]["times"][0]["entries"][0][1] = "1"


def _agents_not_a_list(doc):
    doc["agents"] = {"0": doc["agents"][0]}


def _boolean_action(doc):
    doc["agents"][0]["times"][0]["entries"][0][1] = True


def _duplicate_key(doc):
    entries = doc["agents"][1]["times"][1]["entries"]
    entries.append([entries[0][0], 1 - entries[0][1]])


@pytest.mark.parametrize("mutate", [_drop_times, _drop_entries, _unpaired_entry,
                                    _text_action, _agents_not_a_list, _boolean_action,
                                    _duplicate_key])
def test_malformed_strategy_structure_gives_config_exit(tmp_path, canon_2a, capsys, mutate):
    path = tmp_path / "strategy.json"
    save_profile(canon_2a, random_profile(canon_2a, np.random.default_rng(5)), path)
    doc = read(path)
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):
        load_profile(canon_2a, path)
    code = main(["--command", "solve", "--model", "CANON-2A", "--strategy", str(path),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def _duplicate_time(doc):
    block = copy.deepcopy(doc["agents"][0]["times"][1])
    block["entries"] = [[key, 1 - u] for key, u in block["entries"]]
    doc["agents"][0]["times"].append(block)


def _duplicate_agent(doc):
    doc["agents"].append(copy.deepcopy(doc["agents"][1]))


def _foreign_agent(doc):
    doc["agents"].append({"agent": 7})


def _foreign_time(doc):
    doc["agents"][0]["times"].append({"t": 9, "entries": [["bogus", 0]]})


def _missing_agent(doc):
    del doc["agents"][1]


def _missing_time(doc):
    del doc["agents"][1]["times"][1]


def _action_out_of_range(doc):
    doc["agents"][0]["times"][0]["entries"][0][1] = 5


@pytest.mark.parametrize("mutate,msg", [
    (_duplicate_time, "agent 0 time 1 given twice"),
    (_duplicate_agent, "agent 1 given twice"),
    (_foreign_agent, "agent 7 is not in 0..1"),
    (_foreign_time, "agent 0 time 9 is not in 0..1"),
    (_missing_agent, "strategy document missing agent 1"),
    (_missing_time, "strategy document missing agent 1 time 1"),
    (_action_out_of_range, "action 5 out of range for agent 0 at c(/;/)p(0/)"),
], ids=["duplicate-time", "duplicate-agent", "foreign-agent", "foreign-time", "missing-agent",
        "missing-time", "action-out-of-range"])
def test_duplicate_and_foreign_strategy_blocks_give_config_exit(tmp_path, canon_2a, capsys,
                                                                mutate, msg):
    """A strategy file gives each agent and each of its times exactly once:
    a repeated block is not overridden by the last one, and a block for an
    agent or a time the model does not have is not ignored."""
    path = tmp_path / "strategy.json"
    save_profile(canon_2a, observation_following_profile(canon_2a), path)
    doc = read(path)
    mutate(doc)
    path.write_text(json.dumps(doc))
    code = main(["--command", "solve", "--model", "CANON-2A", "--strategy", str(path),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and msg in err[0]
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command,deep", [("validate", "--model"), ("solve", "--model"),
                                          ("solve", "--strategy")])
def test_deeply_nested_json_gives_config_exit(tmp_path, capsys, command, deep):
    """A file nested past the JSON decoder's recursion limit is invalid
    JSON, reported in one line, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    files = (["--model", str(path)] if deep == "--model"
             else ["--model", "CANON-2A", "--strategy", str(path)])
    assert main(["--command", command, *files, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "not valid JSON" in err[0]
    assert not (tmp_path / "r").exists()


def _model_field(field, value):
    def mutate(model, strategy):
        model[field] = value
    return mutate


def _strategy_field(path, value):
    def mutate(model, strategy):
        block = strategy
        for key in path[:-1]:
            block = block[key]
        block[path[-1]] = value
    return mutate


@pytest.mark.parametrize("mutate,msg", [
    (_model_field("K", 2.7), "model field 'K' takes JSON integers, got 2.7"),
    (_model_field("obs_sizes", [2.9, 2]), "model field 'obs_sizes' takes JSON integers"),
    (_model_field("n", True), "model field 'n' takes JSON integers, got True"),
    (_strategy_field(("agents", 1, "agent"), True), "agents block without integer 'agent'"),
    (_strategy_field(("agents", 0, "times", 1, "t"), True),
     "agent 0 times block without integer 't'"),
    (_strategy_field(("K",), 2.0), "'K' must be an integer, got 2.0"),
], ids=["model-K-float", "model-obs_sizes-float", "model-n-bool", "strategy-agent-bool",
        "strategy-t-bool", "strategy-K-float"])
def test_integer_fields_must_be_json_integers(tmp_path, canon_2a, capsys, mutate, msg):
    """Integer fields of model and strategy files take JSON integers only:
    a float, even an integral one, or a bool is a config error, not a value
    to round or coerce."""
    model = model_to_dict(canon_2a)
    strategy = profile_to_dict(canon_2a, observation_following_profile(canon_2a))
    mutate(model, strategy)
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "strategy.json").write_text(json.dumps(strategy))
    code = main(["--command", "filter", "--model", str(tmp_path / "model.json"),
                 "--strategy", str(tmp_path / "strategy.json"), "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and msg in err[0]
    assert not (tmp_path / "r").exists()


def _misspelt_stage_cost(model, strategy):
    model["stage_costs"] = model["stage_cost"]


@pytest.mark.parametrize("mutate,msg", [
    (_model_field("extra", 1), "model has unknown field 'extra'"),
    (_misspelt_stage_cost, "model has unknown field 'stage_costs'"),
    (_strategy_field(("x",), 1), "strategy document has unknown field 'x'"),
    (_strategy_field(("agents", 0, "x"), 1), "strategy document: agent 0 has unknown field 'x'"),
    (_strategy_field(("agents", 0, "times", 1, "x"), 1),
     "strategy document: agent 0 time 1 has unknown field 'x'"),
], ids=["model", "model-misspelt", "strategy-top", "strategy-agent", "strategy-time"])
def test_unknown_keys_give_config_exit(tmp_path, canon_2a, capsys, mutate, msg):
    """Every level of a model or strategy document is closed: a key its key
    table does not list is a config error naming the key and the level,
    not a field to drop without a word."""
    model = model_to_dict(canon_2a)
    strategy = profile_to_dict(canon_2a, observation_following_profile(canon_2a))
    mutate(model, strategy)
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "strategy.json").write_text(json.dumps(strategy))
    code = main(["--command", "solve", "--model", str(tmp_path / "model.json"),
                 "--strategy", str(tmp_path / "strategy.json"), "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and msg in err[0]
    assert not (tmp_path / "r").exists()


def _init_dist(entry):
    def mutate(model):
        if entry is True:  # a bool that reads as a probability vector: [true, false, ...]
            model["init_dist"] = [True] + [False] * (len(model["init_dist"]) - 1)
        else:
            model["init_dist"][0] = entry
    return mutate


def _stage_cost(entry):
    def mutate(model):
        row = model["stage_cost"][0]
        while isinstance(row[0], list):
            row = row[0]
        row[0] = entry
    return mutate


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("mutate,msg", [
    (_init_dist("0.5"), "model table 'init_dist' takes JSON numbers, got '0.5'"),
    (_init_dist(True), "model table 'init_dist' takes JSON numbers, got True"),
    (_init_dist(None), "model table 'init_dist' takes JSON numbers, got None"),
    (_stage_cost("2"), "model table 'stage_cost' takes JSON numbers, got '2'"),
    (_stage_cost(False), "model table 'stage_cost' takes JSON numbers, got False"),
    (_stage_cost(None), "model table 'stage_cost' takes JSON numbers, got None"),
    (_init_dist(int("9" * 400)), "model table entry init_dist[0] is too large for a float"),
], ids=["init_dist-string", "init_dist-bool", "init_dist-null", "stage_cost-string",
        "stage_cost-bool", "stage_cost-null", "init_dist-400-digits"])
def test_table_entries_must_be_json_numbers(tmp_path, canon_2a, capsys, command, mutate, msg):
    """Probability and cost tables take JSON numbers only: a string that
    spells a number, a bool or a null is a config error naming the table,
    not a value to coerce, on validate as on every other command."""
    model = model_to_dict(canon_2a)
    mutate(model)
    (tmp_path / "model.json").write_text(json.dumps(model))
    code = main(["--command", command, "--model", str(tmp_path / "model.json"),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and msg in err[0]


def _huge_costs(model, cost=1e308):
    """CANON-2A with every nonzero stage and terminal cost set to cost."""
    def huge(x):
        return [huge(e) for e in x] if isinstance(x, list) else cost if x else x
    return {**model, "stage_cost": huge(model["stage_cost"]),
            "terminal_cost": huge(model["terminal_cost"])}


@pytest.mark.parametrize("command", ["validate", "solve", "pbp", "filter", "verify", "falsify"])
def test_costs_near_the_float_limit_are_a_violation(tmp_path, canon_2a, capsys, command):
    """Finite costs whose worst history total could overflow are a model
    violation: validate reports it (exit 1) and every other command refuses
    the file with one line (exit 2) instead of overflowing mid-solve."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_huge_costs(model_to_dict(canon_2a))))
    msg = "T*max|stage cost| + max|terminal cost| = inf exceeds half the float maximum"
    out = tmp_path / "r"
    code = main(["--command", command, "--model", str(path), "--out", str(out)])
    if command == "validate":
        assert code == EXIT_TOLERANCE
        violations = read(out / "validate_huge.json")["results"][0]["violations"]
        assert len(violations) == 1 and msg in violations[0]
    else:
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and msg in err[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["validate", "filter", "solve", "pbp", "verify", "falsify"])
@pytest.mark.parametrize("mutate,violation", [
    (_init_dist(float("nan")), "init_dist row (0,) contains NaN/Inf"),
    (_stage_cost(float("inf")), "stage_cost[0] contains NaN/Inf"),
    (lambda model: model.update(init_dist=[1.5, -0.5]),
     "init_dist row (0,) has negative entry -0.5"),
    (lambda model: model.update(init_dist=[1e308, 1e308]), "init_dist row (0,) sums to inf"),
    (lambda model: model.update(n=0), "delay n must be >= 1, got 0"),
    (lambda model: model.update(state_size=0), "state_size must be >= 1, got 0"),
    (lambda model: model.update(obs_sizes=[2, 2, 2]), "obs_sizes has 3 entries, expected K=2"),
    (lambda model: model.update(act_sizes=[2]), "act_sizes has 1 entries, expected K=2"),
    (lambda model: model.update(obs_sizes=[0, 2]), "obs_sizes[0] must be >= 1, got 0"),
    (lambda model: model.update(act_sizes=[2, 0]), "act_sizes[1] must be >= 1, got 0"),
    (lambda model: model["transition"].pop(), "transition has 1 tables, expected T=2"),
    (lambda model: model["observation"].pop(), "observation has 2 stages, expected T+1=3"),
    (lambda model: model["observation"][1].pop(), "observation[1] has 1 kernels, expected K=2"),
    (lambda model: model["stage_cost"].pop(), "stage_cost has 1 tables, expected T=2"),
], ids=["nan-probability", "inf-cost", "negative-probability", "overflowing-row",
        "zero-delay", "zero-states", "three-obs-sizes", "one-act-size", "zero-obs-size",
        "zero-act-size", "short-transition", "short-observation", "one-kernel",
        "short-stage-cost"])
def test_table_values_are_judged_by_validate_model(tmp_path, canon_2a, capsys, command,
                                                   mutate, violation):
    """The loader checks only that table entries are JSON numbers that fit
    a float; validate_model judges their values and the model's structure,
    so validate reports a NaN, an Inf, a negative probability, a row that
    sums past the float maximum, a size below 1, or a count of sizes,
    tables or kernels that disagrees with K or T as a violation (exit 1,
    nothing on stderr) and every other command refuses the file with one
    line (exit 2), warnings being errors."""
    model = model_to_dict(canon_2a)
    mutate(model)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(model))
    out = tmp_path / "r"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["--command", command, "--model", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if command == "validate":
        assert code == EXIT_TOLERANCE and err == ""
        report = read(out / "validate_bad.json")
        assert report["pass"] is False
        violations = report["results"][0]["violations"]
        assert len(violations) == 1 and violations[0].startswith(violation)
    else:
        assert code == EXIT_CONFIG
        assert err.startswith(f"error: invalid model: {violation}") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "filter", "solve", "pbp", "verify", "falsify"])
def test_large_costs_pass_with_tolerances_scaled_to_them(tmp_path, canon_2a, command):
    """The gates compare absolute differences, so at costs of 2.9e307 (under
    the bound) the default tolerances fail solve, pbp, verify and falsify on
    rounding alone; tolerances scaled with the costs pass every command,
    and each report records the tolerances given."""
    path = tmp_path / "large.json"
    path.write_text(json.dumps(_huge_costs(model_to_dict(canon_2a), 2.9e307)))
    out = tmp_path / "r"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--command", command, "--model", str(path), "--out", str(out),
                     "--tol-compare", "1e298", "--tol-improve", "1e298"]) == EXIT_OK
    assert read(out / f"{command}_large.json")["tolerances"] == {"compare": 1e298,
                                                                 "improve": 1e298}


@pytest.mark.parametrize("flag", ["--tol-compare", "--tol-improve"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_rejected(tmp_path, capsys, flag, value):
    code = main(["--command", "filter", "--model", "CANON-2A", flag, value,
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["filter", "solve"])
def test_incomplete_strategy_file_gives_config_exit(tmp_path, canon_2a, capsys, command):
    """A strategy file that misses a reachable realization of the other
    agent is a config error naming the agent, the time and the key."""
    path = tmp_path / "strategy.json"
    save_profile(canon_2a, observation_following_profile(canon_2a), path)
    doc = read(path)
    doc["agents"][1]["times"][1]["entries"] = doc["agents"][1]["times"][1]["entries"][:3]
    path.write_text(json.dumps(doc))
    code = main(["--command", command, "--model", "CANON-2A", "--strategy", str(path),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        "error: incomplete strategy: agent 1 has no action at t=1, c(")
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["filter", "solve", "falsify"])
@pytest.mark.parametrize("key", ["c(0/1;1/0;1/1)p(7/)", "c(0/1;1/0)p(7/)", "c(0/1;1/2)p(1/)",
                                 "x(0/)p(0/)", "c(0/1;1/0)p(99999999999999999999/)"])
def test_strategy_key_outside_the_model_gives_config_exit(tmp_path, canon_2a, capsys,
                                                          command, key):
    """A key naming more agents than the model, or a symbol outside an
    alphabet, is a config error naming the agent, the time and the key,
    not an entry to ignore."""
    path = tmp_path / "strategy.json"
    save_profile(canon_2a, observation_following_profile(canon_2a), path)
    doc = read(path)
    doc["agents"][0]["times"][1]["entries"].append([key, 1])
    path.write_text(json.dumps(doc))
    code = main(["--command", command, "--model", "CANON-2A", "--strategy", str(path),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: agent 0 time 1: bad realization key {key!r}")
    assert not (tmp_path / "r").exists()


def test_strategy_faults_are_named_structure_spelling_range_then_duplicates(tmp_path, canon_2a):
    """The loader reads a time's entries in passes: the structure and
    alphabets of every key, then every key's spelling, then every action's
    range, then repeated keys. With one fault of each kind, each on an
    earlier entry than the fault of the kind before, mending the named
    fault names the next kind."""
    path = tmp_path / "strategy.json"
    save_profile(canon_2a, observation_following_profile(canon_2a), path)
    doc = read(path)
    entries = doc["agents"][0]["times"][1]["entries"]
    saved = copy.deepcopy(entries)
    entries[1][0] = entries[0][0]
    entries[2][1] = 5
    entries[3][0] = entries[3][0].replace("c(", "c(+")
    entries[4][0] = entries[4][0].replace("p(", "p(7-")
    messages = [f"agent 0 time 1: bad realization key {entries[4][0]!r}: private obs must "
                "have length 1",
                f"agent 0 time 1: bad realization key {entries[3][0]!r}: not the canonical "
                f"spelling {saved[3][0]!r}",
                f"action 5 out of range for agent 0 at {saved[2][0]}",
                f"agent 0 time 1: realization key {saved[0][0]!r} given twice"]
    for i, message in zip((4, 3, 2, 1), messages):
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError) as err:
            load_profile(canon_2a, path)
        assert str(err.value) == message
        entries[i] = saved[i]
    path.write_text(json.dumps(doc))
    assert load_profile(canon_2a, path).agents_equal(observation_following_profile(canon_2a), 0)


def test_incomplete_own_strategy_file_gives_config_exit(tmp_path, canon_2a, capsys):
    """A miss in the reported agent's own maps names that agent."""
    path = tmp_path / "strategy.json"
    save_profile(canon_2a, observation_following_profile(canon_2a), path)
    doc = read(path)
    doc["agents"][0]["times"][1]["entries"] = doc["agents"][0]["times"][1]["entries"][:3]
    path.write_text(json.dumps(doc))
    code = main(["--command", "filter", "--agent", "0", "--model", "CANON-2A",
                 "--strategy", str(path), "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: incomplete strategy: agent 0 has no action at t=1, c(")


@pytest.mark.parametrize("command", ["filter", "falsify"])
def test_incomplete_strategy_file_reports_every_miss_in_the_layer(tmp_path, canon_2a, capsys,
                                                                   command):
    """A file cut to 2 entries per (agent, time) misses many reached
    realizations at once: the one error line names the first (agent, time)
    with misses, how many reached realizations lack an action there and
    the first three of them in code order, whether the command's first
    strategy reads are the recursion's (filter) or the oracle walk's
    (falsify). The reached set comes from the oracle's walk."""
    g = observation_following_profile(canon_2a)
    path = tmp_path / "strategy.json"
    save_profile(canon_2a, g, path)
    doc = read(path)
    for agent in doc["agents"]:
        for block in agent["times"]:
            block["entries"] = block["entries"][:2]
    path.write_text(json.dumps(doc))
    code = main(["--command", command, "--model", "CANON-2A", "--strategy", str(path),
                 "--out", str(tmp_path / "r")])
    assert code == EXIT_CONFIG
    # Two entries cover each agent's t = 0 map. At t = 1, filter first reads
    # agent 1 (the other agent of agent 0's chain) and falsify's walk first
    # reads agent 0; either agent's reached set is the walk's.
    j = {"filter": 1, "falsify": 0}[command]
    reached = set()
    for t, xs, obs, acts, mass, cost in oracle.walk(canon_2a, g, depth=1):
        if t == 1:
            reached.update(history_code(canon_2a, obs, acts, j, 1).tolist())
    kept = parse_realization_keys([key for key, _ in doc["agents"][j]["times"][1]["entries"]],
                                  canon_2a, j, 1)
    missing = sorted(reached - set(kept.tolist()))
    assert len(missing) > 3
    keys = ", ".join(realization_keys(canon_2a, j, 1, missing[:3]))
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: incomplete strategy: agent {j} has no action at t=1, {keys} "
        f"({len(missing)} reached realizations without one)"]


def test_strategy_holding_only_reached_realizations_runs_falsify(tmp_path, canon_2a):
    """Agent 0 of this CANON-2A variant never sees y=1 at t=0, and the
    strategy file gives actions exactly where the model's walk reaches.
    filter and falsify need no more: falsify's gated check on the
    state-blind observation variant, which reaches realizations the file
    leaves out, plays 0 there and finds no gap. solve needs the other
    agent's actions wherever agent 0's own free actions lead, so it
    still reports the file incomplete."""
    obs = [list(qs) for qs in canon_2a.observation]
    obs[0][0] = np.array([[1.0, 0.0], [1.0, 0.0]])
    spec = ModelSpec.from_tables(
        canon_2a.K, canon_2a.n, canon_2a.T, canon_2a.state_size, canon_2a.obs_sizes,
        canon_2a.act_sizes, canon_2a.init_dist, canon_2a.transition, obs,
        canon_2a.stage_cost, canon_2a.terminal_cost)
    model_path = tmp_path / "cut.json"
    save_model(spec, model_path)
    g = observation_following_profile(spec)
    reached = [[set() for _ in range(spec.T)] for _ in range(spec.K)]
    for s, xs, obs, acts, mass, cost in oracle.walk(spec, g):
        if s == spec.T:
            for j in range(spec.K):
                for t in range(spec.T):
                    reached[j][t].update(history_code(spec, obs, acts, j, t).tolist())
    maps = tuple(tuple(np.where(np.isin(np.arange(len(m)), sorted(reached[j][t])), m, -1)
                       for t, m in enumerate(row)) for j, row in enumerate(g.maps))
    assert all(np.any(m < 0) for row in maps for m in row[1:])
    strategy = tmp_path / "strategy.json"
    save_profile(spec, StrategyProfile(spec, maps), strategy)
    for command, want in (("filter", EXIT_OK), ("falsify", EXIT_OK), ("solve", EXIT_CONFIG)):
        assert main(["--command", command, "--model", str(model_path), "--strategy",
                     str(strategy), "--out", str(tmp_path / "r")]) == want, command
    checks = read(tmp_path / "r" / "falsify_cut.json")["results"]
    gated = next(e for e in checks if e["check"] == "conditional-independence-uniform-obs")
    assert gated["pass"] and gated["report"]["max_gap"] <= K1_TOL


@pytest.mark.parametrize("flag", ["--strategy", "--model", "--out"])
def test_os_errors_give_config_exit(tmp_path, capsys, flag):
    """A directory where a strategy or model file goes, or a regular file
    where the report directory goes, is a one-line config error."""
    regular = tmp_path / "file.txt"
    regular.write_text("x")
    value = str(regular) if flag == "--out" else str(tmp_path)
    code = main(["--command", "solve", "--model", "CANON-2A", "--out", str(tmp_path / "r"),
                 flag, value])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


# --- fuzzed input files ---------------------------------------------------------

# Characters of realization keys, for one-character edits of a valid key.
KEY_CHARS = "cp()/;-0123x"
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 4), st.floats(-1.0, 2.0),
                 st.just(float("nan")), st.text(KEY_CHARS, max_size=4),
                 st.lists(st.integers(-1, 3), max_size=3), st.just({}))


def damage(data, doc):
    """Walk a random path from the root of a JSON document and damage what
    it ends at: drop it, replace it with a value of another type, shorten or
    lengthen a list, shift an integer by one or two, or edit one character
    of a string."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 9)) < 8:
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        parent, node = node, node[key]
    if parent is None:
        return data.draw(JUNK)
    op = data.draw(st.sampled_from(["drop", "junk", "resize", "shift", "edit"]))
    if op == "drop":
        del parent[key]
    elif op == "resize" and isinstance(node, list) and node:
        parent[key] = node[:-1] if data.draw(st.booleans()) else node + node[-1:]
    elif op == "shift" and isinstance(node, int) and not isinstance(node, bool):
        parent[key] = node + data.draw(st.sampled_from([-1, 1, 2]))
    elif op == "edit" and isinstance(node, str) and node:
        i = data.draw(st.integers(0, len(node) - 1))
        parent[key] = node[:i] + data.draw(st.sampled_from(KEY_CHARS)) + node[i + 1:]
    else:
        parent[key] = data.draw(JUNK)
    return doc


def run_on_files(command, model_doc=None, strategy_doc=None):
    """cli.run on JSON documents written to a scratch directory; stdout and
    stderr are swallowed."""
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        model = "CANON-2A"
        if model_doc is not None:
            model = os.path.join(tmp, "model.json")
            with open(model, "w", encoding="utf-8") as fh:
                json.dump(model_doc, fh)
        strategy = None
        if strategy_doc is not None:
            strategy = os.path.join(tmp, "strategy.json")
            with open(strategy, "w", encoding="utf-8") as fh:
                json.dump(strategy_doc, fh)
        return run(RunConfig(command=command, model=model, strategy=strategy,
                             out=os.path.join(tmp, "r")))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), command=st.sampled_from(["validate", "filter"]))
def test_fuzzed_model_file_exits_cleanly(canon_2a, data, command):
    doc = damage(data, copy.deepcopy(model_to_dict(canon_2a)))
    assert run_on_files(command, model_doc=doc) in (EXIT_OK, EXIT_TOLERANCE, EXIT_CONFIG)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_fuzzed_strategy_file_exits_cleanly(canon_2a, data):
    doc = damage(data, profile_to_dict(canon_2a, observation_following_profile(canon_2a)))
    assert run_on_files("filter", strategy_doc=doc) in (EXIT_OK, EXIT_TOLERANCE, EXIT_CONFIG)
