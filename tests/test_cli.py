import contextlib
import copy
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaypbp import oracle
from delaypbp.cli import (EXIT_CONFIG, EXIT_OK, EXIT_TOLERANCE, RunConfig, main, parse_args,
                          run)
from delaypbp.dp import solve_best_response
from delaypbp.errors import ModelFormatError
from delaypbp.info import history_code, parse_realization_key, realization_key
from delaypbp.model import CANONICAL_NAMES, K1_TOL, ModelSpec, model_to_dict, save_model
from delaypbp.strategies import (StrategyProfile, load_profile, observation_following_profile,
                                 profile_to_dict, random_profile, save_profile)


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


def test_agent_out_of_range_for_one_canonical_model_rejects_all(tmp_path, capsys):
    """`all` checks the agent against every canonical model before it runs
    anything: CANON-1 has one agent, so --agent 1 raises nothing, prints
    one line and writes no report."""
    out = tmp_path / "reports"
    assert run(RunConfig(command="all", model="CANON-2A", agent=1, out=str(out))) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: agent 1 out of range for CANON-1 (K=1)\n"
    assert not out.exists()


def test_filter_command_reports_gaps(tmp_path):
    out = tmp_path / "reports"
    code = run(RunConfig(command="filter", model="CANON-2B", agent=1, out=str(out)))
    assert code == EXIT_OK
    doc = read(out / "filter_CANON-2B.json")
    assert doc["agent"] == 1
    assert doc["pass"] is True
    assert all(e["gap"] <= 1e-10 for e in doc["gaps"])
    assert len(doc["results"]) == 2 + 8 + 32


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


def test_partial_strategy_file_roundtrip(tmp_path, canon_2a):
    """A best response has -1 cells off the grid its forward pass reaches;
    the file leaves them out and reloading gives them back."""
    g = observation_following_profile(canon_2a)
    _, g_maps = solve_best_response(canon_2a, 0, g)
    partial = g.with_agent(0, g_maps)
    assert any(np.any(m < 0) for m in partial.maps[0])
    path = tmp_path / "strategy.json"
    save_profile(canon_2a, partial, path)
    loaded = load_profile(canon_2a, path)
    for k in range(canon_2a.K):
        for t in range(canon_2a.T):
            assert np.array_equal(loaded.maps[k][t], partial.maps[k][t])
    doc = read(path)
    assert len(doc["agents"][0]["times"][1]["entries"]) == int(np.sum(g_maps[1] >= 0))


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


@pytest.mark.parametrize("mutate,msg", [(_short_prior, "init_dist row (0,) sums to"),
                                        (_short_kernel, "transition[0] shape")])
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
@pytest.mark.parametrize("key", ["c(0/1;1/0;1/1)p(7/)", "c(0/1;1/0)p(7/)", "c(0/1;1/2)p(1/)"])
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
    # Two entries cover each agent's t = 0 map; agent 1's realizations that
    # agent 0's chain reaches at t = 1 are those the walk reaches.
    reached = set()
    oracle.walk(canon_2a, g,
                lambda xs, obs, acts, m, c: reached.add(history_code(canon_2a, obs, acts, 1, 1)),
                t_end=1)
    kept = {parse_realization_key(key, canon_2a, 1, 1)
            for key, _ in doc["agents"][1]["times"][1]["entries"]}
    missing = sorted(reached - kept)
    assert len(missing) > 3
    keys = ", ".join(realization_key(canon_2a, 1, 1, c) for c in missing[:3])
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: incomplete strategy: agent 1 has no action at t=1, {keys} "
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

    def visit(xs, obs, acts, mass, cost):
        for j in range(spec.K):
            for t in range(spec.T):
                reached[j][t].add(history_code(spec, obs, acts, j, t))

    oracle.walk(spec, g, visit)
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
