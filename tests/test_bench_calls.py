"""The benchmark's calls into the package resolve.

`bench/` drives the package through its public names; a rename there is
otherwise caught only by running the benchmark. These tests read
`bench/workloads.py` without importing it and check each name it reaches
through a package module, plus the values its gates read.
"""

import ast
import pathlib

import delaypbp
from delaypbp import cli, dp, errors, oracle, strategies
from delaypbp.model import canonical_instance
from delaypbp.strategies import observation_following_profile

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
MODULES = {"cli": cli, "dp": dp, "oracle": oracle, "strategies": strategies}


def test_every_package_attribute_the_workloads_use_exists():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in MODULES}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "delaypbp"
                for alias in node.names}
    assert set(MODULES) <= imported  # the names above are the package's modules
    assert {"cli.run", "dp.solve_best_response", "oracle.verify_pbp"} <= {
        f"{m}.{a}" for m, a in used}
    missing = sorted(f"{m}.{a}" for m, a in used if not hasattr(MODULES[m], a))
    assert not missing, missing
    assert all(hasattr(delaypbp, name) for name in imported), imported


def test_the_error_the_runner_reads_exists():
    assert issubclass(errors.UnreachableError, Exception)


def test_the_values_the_gates_read_exist_on_canon_2a():
    spec = canonical_instance("CANON-2A")
    g = observation_following_profile(spec)
    vtable, _ = dp.solve_best_response(spec, 0, g)
    assert sum(len(e) for e in vtable.entries) > 0  # the solver's table_rows count
    assert oracle.verify_pbp(spec, g).all_stationary in (True, False)
