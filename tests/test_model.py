import json

import numpy as np
import pytest

from conftest import random_model, sparse_model
from delaypbp.errors import ModelFormatError
from delaypbp.model import (CANONICAL_NAMES, ModelSpec, canonical_instance, load_model,
                            model_to_dict, save_model, uniform_observation_variant,
                            validate_model)


@pytest.mark.parametrize("name", CANONICAL_NAMES)
def test_canonical_instances_are_valid(name):
    assert validate_model(canonical_instance(name)) == []


def test_canonical_instance_shapes(canon_2a, canon_2b, canon_1):
    assert canon_2a.K == 2 and canon_2a.n == 1 and canon_2a.T == 2
    assert canon_2b.K == 2 and canon_2b.n == 1 and canon_2b.T == 2
    assert canon_1.K == 1 and canon_1.n == 1 and canon_1.T == 3
    # informative channels as constructed
    assert canon_2a.observation[0][0][0, 0] == 0.8
    assert canon_2a.observation[0][1][1, 1] == 0.8


def test_unknown_canonical_name():
    with pytest.raises(ValueError, match="unknown canonical instance"):
        canonical_instance("CANON-9Z")


def test_validate_reports_bad_row_sum(canon_2a):
    trans = [t.copy() for t in canon_2a.transition]
    trans[0][1, 0, 1] = [0.45, 0.45]  # sums to 0.9
    broken = ModelSpec.from_tables(
        canon_2a.K, canon_2a.n, canon_2a.T, canon_2a.state_size,
        canon_2a.obs_sizes, canon_2a.act_sizes, canon_2a.init_dist,
        trans, canon_2a.observation, canon_2a.stage_cost, canon_2a.terminal_cost)
    report = validate_model(broken)
    assert len(report) == 1
    assert "transition[0] row (1, 0, 1)" in report[0]
    assert "1.000e-01" in report[0]


def test_validate_reports_delay_exceeding_horizon(canon_2a):
    broken = ModelSpec.from_tables(
        canon_2a.K, canon_2a.T + 1, canon_2a.T, canon_2a.state_size,
        canon_2a.obs_sizes, canon_2a.act_sizes, canon_2a.init_dist,
        canon_2a.transition, canon_2a.observation, canon_2a.stage_cost,
        canon_2a.terminal_cost)
    report = validate_model(broken)
    assert any("delay exceeds horizon" in v for v in report)


def test_validate_is_pure(canon_2b):
    assert validate_model(canon_2b) == validate_model(canon_2b)


@pytest.mark.parametrize("spec", [
    *(pytest.param(canonical_instance(name), id=name) for name in CANONICAL_NAMES),
    pytest.param(random_model(3, 2, 2, 2, 2), id="random-K2n2T2"),
    pytest.param(sparse_model(7, 2, 2, 3), id="sparse-K2n2T3"),
])
def test_model_json_roundtrip(tmp_path, spec):
    """save_model writes exactly the keys of the model's key table, so its
    files load again under the closed table, every float bit for bit."""
    path = tmp_path / "model.json"
    save_model(spec, path)
    loaded = load_model(path)
    assert loaded.K == spec.K and loaded.n == spec.n and loaded.T == spec.T
    assert loaded.obs_sizes == spec.obs_sizes and loaded.act_sizes == spec.act_sizes
    np.testing.assert_array_equal(loaded.init_dist, spec.init_dist)
    for t in range(spec.T):
        np.testing.assert_array_equal(loaded.transition[t], spec.transition[t])
        np.testing.assert_array_equal(loaded.stage_cost[t], spec.stage_cost[t])
    for t in range(spec.T + 1):
        for k in range(spec.K):
            np.testing.assert_array_equal(loaded.observation[t][k], spec.observation[t][k])
    np.testing.assert_array_equal(loaded.terminal_cost, spec.terminal_cost)
    assert validate_model(loaded) == []


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d.update(init_dist=[0.5, float("nan")]), "NaN"),
    (lambda d: d.update(init_dist=[1.5, -0.5]), "negative"),
    (lambda d: d.update(terminal_cost=[float("inf"), 0.0]), "NaN/Inf"),
    (lambda d: d.pop("transition"), "missing fields"),
])
def test_loader_rejects_malformed_documents(tmp_path, canon_2a, mutate, msg):
    doc = model_to_dict(canon_2a)
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=msg):
        load_model(path)


def test_loader_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    with pytest.raises(ModelFormatError, match="not valid JSON"):
        load_model(path)


def test_uniform_observation_variant(canon_2b):
    flat = uniform_observation_variant(canon_2b)
    assert validate_model(flat) == []
    for t in range(flat.T + 1):
        for k in range(flat.K):
            assert np.all(flat.observation[t][k] == 0.5)
    # everything else untouched
    np.testing.assert_array_equal(flat.transition[0], canon_2b.transition[0])
