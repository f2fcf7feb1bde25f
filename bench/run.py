"""delaypbp benchmark: certified passes over a workload, timed or traced.

Run from the root of a checkout:

    python3 bench/run.py --workload canon-all --seed 1 --seconds 30 --trace 0

The package is imported from the checkout's ``src/``. One process, one
thread: no worker threads or pools, and numpy's BLAS is pinned to one
thread. With ``--trace 0`` the run reports the end-to-end metrics, its
times scaled to a reference host speed (see hostspeed.py); with
``--trace 1`` a separate run wraps the package's functions and reports the
per-layer metrics, in raw wall time. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric with its unit. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

# numpy's BLAS is pinned to one thread before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hostspeed import REFERENCE_PROBE_S, HostSpeed, scaled  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("canon-all", "ladder-solve", "pbp-sweep")
PACKAGE_MODULES = ("delaypbp", "delaypbp.cli")
# Set-up (a fresh package import plus the workload's inputs) is timed
# SETUP_REPS times before the passes and once more after each timed pass,
# so its median samples the machine across the whole run.
SETUP_REPS = 3
# A timed run makes at least one cold and two warm passes, so pass_s is a
# median even when one pass takes most of the window; a traced run makes
# at least two traced passes, so their work counts can be compared.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


# "module.function" -> (entry point: report inclusive time and keep its
# spans, work count: (name, function of the return value) or None).
TRACE_TARGETS = {
    "info.split_history": (False, None),
    "info.advance_other": (False, None),
    "info.other_private_space": (False, None),
    "info.structural_realizations": (False, None),
    "info.shift_private": (False, None),
    "info.advance_common": (False, None),
    "filtering.belief_step": (False, None),
    "filtering.next_common_candidates": (False, None),
    "filtering.other_actions": (False, None),
    "filtering.chained_beliefs": (True, None),
    "filtering.bayes_oracle_belief": (True, None),
    "dp.solve_best_response": (True, ("table_rows",
                                      lambda r: sum(len(e) for e in r[0].entries))),
    "dp.stage_value": (False, None),
    "dp.cost_via_beliefs": (True, None),
    "dp.pbp_sweep": (True, ("replacements", lambda r: len(r[1]))),
    "dp.verify_value_dominance": (True, None),
    "oracle.atoms": (False, ("atoms_out", len)),
    "oracle.enumerate_cost": (True, None),
    "oracle.conditional_pmf": (False, None),
    "oracle.cost_to_go": (False, None),
    "oracle.brute_force_best_response": (True, None),
    "oracle.verify_pbp": (True, None),
    "strategies.profile_from_fn": (True, None),
    "strategies.extend_total": (False, None),
    "strategies.profile_to_dict": (False, None),
    "falsify.check_conditional_independence": (True, None),
    "falsify.check_policy_independence": (True, None),
    "falsify.check_conditional_markov": (True, None),
    "falsify.check_k1_reduction": (True, None),
    "falsify.check_payoff_identity": (True, None),
    "cli.run": (True, None),
}
# shape_label of each of workloads.LADDER_RUNGS, in order.
LADDER_LABELS = ("K2n1T4", "K2n2T4", "K3n1T3")

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for qual, (entry, work) in TRACE_TARGETS.items():
        units[f"{qual}.calls"] = "count"
        if not qual.startswith("falsify."):
            units[f"{qual}.self_s"] = "s"
        if entry:
            units[f"{qual}.incl_s"] = "s"
        if work is not None:
            units[f"{qual}.{work[0]}"] = "count"
    units["filtering.belief_step.unreachable"] = "count"
    units["filtering.belief_step.unreachable_ratio"] = "ratio"
    units["strategies.profile_from_fn.setup_calls"] = "count"
    units["strategies.profile_from_fn.setup_incl_s"] = "s"
    for label in LADDER_LABELS:
        units[f"dp.solve_over_enum.{label}"] = "ratio"
    units["oracle.share"] = "ratio"
    units["bench.cold_pass_s"] = "s"
    units["bench.untraced_pass_s"] = "s"
    units["bench.traced_pass_s"] = "s"
    units["bench.trace_overhead_s"] = "s"
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def loaded_package_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n in ("delaypbp", "workloads") or n.startswith("delaypbp.")}


def fresh_setup(workload: str, seed: int, scratch: str, clock: HostSpeed):
    """Import the package afresh and build the workload's inputs.

    Returns the workloads module, the workload's Pass and the seconds
    spent importing the package and building the inputs, scaled to the
    reference host speed (importing the benchmark's own module is not
    counted)."""
    for name in loaded_package_modules():
        del sys.modules[name]
    gc.collect()
    clock.begin()
    try:
        mark = clock.mark()
        for name in PACKAGE_MODULES:
            importlib.import_module(name)
        import_s = clock.since(mark)
        workloads = importlib.import_module("workloads")
        mark = clock.mark()
        work = workloads.WORKLOADS[workload](seed, scratch, BENCH_DIR)
        seconds = import_s + clock.since(mark)
    finally:
        samples = clock.end()
    return workloads, work, scaled(seconds, samples)


def setup_probe(workload: str, seed: int, scratch: str, clock: HostSpeed) -> float:
    """Time one more fresh set-up, then restore the modules the passes use,
    so the passes keep their warm state."""
    saved = loaded_package_modules()
    try:
        return fresh_setup(workload, seed, scratch, clock)[2]
    finally:
        for name in loaded_package_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def run_pass(work, tracer, phase: str, clock: HostSpeed) -> dict:
    """One pass: every operation timed and gated, then the post-pass check.
    The time is the sum of the operations' times, less the host-speed
    probes; gate bookkeeping and the post-pass check are not timed.
    ``scaled`` is that time at the reference host speed."""
    gc.collect()
    if tracer is not None:
        tracer.begin(phase)
    elapsed, failed = 0.0, {}
    clock.begin()
    for op in work.ops:
        if tracer is not None:
            tracer.op = op.label
        mark = clock.mark()
        try:
            ok = op.run()
        except Exception:
            ok = False
            failed[op.label] = traceback.format_exc()
        elapsed += clock.since(mark)
        if not ok and op.label not in failed:
            failed[op.label] = "gate failed"
    samples = clock.end()
    snapshot = tracer.end() if tracer is not None else None
    for label, reason in work.check(snapshot).items():
        failed.setdefault(label, reason)
    for label, reason in failed.items():
        print(f"FAILED [{phase}] {label}: {reason}", file=sys.stderr)
    return {"phase": phase, "elapsed": elapsed, "scaled": scaled(elapsed, samples),
            "probe_s": samples, "failed": failed, "snapshot": snapshot}


def run_until(work, tracer, clock: HostSpeed, deadline: float, min_passes: int, tag: str,
              after_pass=lambda: None) -> list[dict]:
    """Passes until the next one would end past the deadline, predicted
    from the median pass so far; at least min_passes. after_pass runs,
    untimed, after each pass."""
    passes = []
    while True:
        passes.append(run_pass(work, tracer, f"{tag}{len(passes)}", clock))
        after_pass()
        typical = statistics.median(p["elapsed"] for p in passes)
        if len(passes) >= min_passes and time.perf_counter() + typical > deadline:
            return passes


def timing_note(samples: list[float]) -> str:
    n = len(samples)
    if n >= 11:
        ordered = sorted(samples)
        pct = 100.0 * (n - 10) / n
        return (f"median of {n} warm passes; p{pct:.0f} = {ordered[n - 11]:.6g} s "
                f"has 10 passes beyond it")
    return f"median of {n} warm passes; no percentile has 10 passes beyond it"


def layer_metrics(snapshots: list[dict], setup_snap: dict, elapsed: list[float],
                  untraced: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics over the traced passes: counts from one pass
    (they must repeat exactly; mismatches are returned), times as
    medians over passes."""
    mismatches = []
    first = snapshots[0]["functions"]
    values: dict[str, float] = {}
    for qual, (_, work) in TRACE_TARGETS.items():
        per_pass = [s["functions"].get(qual) for s in snapshots]
        if per_pass[0] is None:
            per_pass = [{"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                         "unreachable": 0, "extra": {}}] * len(snapshots)
        counts = [(p["calls"], p["unreachable"], sorted(p["extra"].items())) for p in per_pass]
        if any(c != counts[0] for c in counts):
            mismatches.append(f"{qual}: {counts}")
        values[f"{qual}.calls"] = per_pass[0]["calls"]
        values[f"{qual}.self_s"] = statistics.median(p["self_s"] for p in per_pass)
        values[f"{qual}.incl_s"] = statistics.median(p["incl_s"] for p in per_pass)
        if work is not None:
            values[f"{qual}.{work[0]}"] = per_pass[0]["extra"].get(work[0], 0)
    step = first.get("filtering.belief_step", {"calls": 0, "unreachable": 0})
    values["filtering.belief_step.unreachable"] = step["unreachable"]
    values["filtering.belief_step.unreachable_ratio"] = (
        step["unreachable"] / step["calls"] if step["calls"] else 0.0)
    setup_fn = setup_snap["functions"].get("strategies.profile_from_fn",
                                           {"calls": 0, "incl_s": 0.0})
    values["strategies.profile_from_fn.setup_calls"] = setup_fn["calls"]
    values["strategies.profile_from_fn.setup_incl_s"] = setup_fn["incl_s"]
    for label in LADDER_LABELS:
        ratios = []
        for s in snapshots:
            solve = s["functions"].get("dp.solve_best_response", {}).get("by_op", {})
            enum = s["functions"].get("oracle.enumerate_cost", {}).get("by_op", {})
            if label in solve and label in enum and enum[label]["incl_s"] > 0:
                ratios.append(solve[label]["incl_s"] / enum[label]["incl_s"])
        values[f"dp.solve_over_enum.{label}"] = statistics.median(ratios) if ratios else 0.0
    values["oracle.share"] = statistics.median(
        s["module_s"].get("oracle", 0.0) / e for s, e in zip(snapshots, elapsed))
    traced_pass_s = statistics.median(elapsed)
    values["bench.cold_pass_s"] = untraced[0]
    values["bench.untraced_pass_s"] = untraced[1]
    values["bench.traced_pass_s"] = traced_pass_s
    values["bench.trace_overhead_s"] = traced_pass_s - untraced[1]
    return {name: values[name] for name in per_layer_units()}, mismatches


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "delaypbp", "__init__.py")):
        print(f"error: no delaypbp package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # numpy, the package's one runtime dependency, is loaded once and not
    # timed: it cannot be imported afresh within a process.
    import numpy as np
    from tracer import Tracer

    # Timed runs scale their times to the reference host speed; the traced
    # run reports raw wall times.
    clock = HostSpeed(enabled=not args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            workloads, work, seconds = fresh_setup(args.workload, args.seed, scratch, clock)
            setup_times.append(seconds)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            untraced = [run_pass(work, None, "untraced0", clock),
                        run_pass(work, None, "untraced1", clock)]
            tracer = Tracer("delaypbp", TRACE_TARGETS,
                            sys.modules["delaypbp.errors"].UnreachableError,
                            extra_modules=(workloads,))
            try:
                tracer.begin("setup")
                work = workloads.WORKLOADS[args.workload](args.seed, scratch, BENCH_DIR)
                setup_snap = tracer.end()
                traced = run_until(work, tracer, clock, deadline, MIN_TRACED_PASSES, "traced")
            finally:
                tracer.uninstall()
            passes = untraced + traced
        else:
            passes = run_until(work, None, clock, deadline, MIN_PASSES, "pass", after_pass=lambda:
                               setup_times.append(setup_probe(args.workload, args.seed, scratch,
                                                              clock)))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(work.ops) * len(passes)
    failed = sum(len(p["failed"]) for p in passes)
    correct = failed == 0
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "model_seeds": work.seeds, "git_sha": git_sha(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "passes": len(passes), "ops_per_pass": len(work.ops),
    }

    if args.trace:
        if tracer.missing:
            print(f"warning: not traced (not found): {', '.join(tracer.missing)}",
                  file=sys.stderr)
        elapsed = [p["elapsed"] for p in traced]
        values, mismatches = layer_metrics([p["snapshot"] for p in traced], setup_snap,
                                           elapsed, [p["elapsed"] for p in untraced])
        for m in mismatches:
            print(f"work counts differ across passes: {m}", file=sys.stderr)
        correct = correct and not mismatches
        units = per_layer_units()
        counts = {k: v for k, v in values.items() if units[k] == "count"}
        context["work_digest"] = hashlib.sha256(
            json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]
        context["traced_passes"] = len(traced)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"context": context,
                       "setup": setup_snap,
                       "passes": [{"phase": p["phase"], "elapsed": p["elapsed"],
                                   "snapshot": p["snapshot"]} for p in traced],
                       "spans": [dict(zip(("name", "phase", "op", "parent", "start", "end"), s))
                                 for s in tracer.spans]}, fh)
        context["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        warm = [p["scaled"] for p in passes[1:]]
        values = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(warm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        notes = {"setup_s": f"median of {len(setup_times)} fresh imports and input builds, "
                            "at the reference host speed",
                 "pass_s": timing_note(warm) + ", at the reference host speed",
                 "peak_rss_mb": "ru_maxrss of this process"}
        probes = [s for p in passes for s in p["probe_s"]]
        context["host_probe"] = {
            "samples": len(probes), "reference_s": REFERENCE_PROBE_S,
            "median_slowdown": statistics.median(probes) / REFERENCE_PROBE_S}

    print("context: " + json.dumps(context, sort_keys=True))
    for name, unit in units.items():
        note = f"  ({notes[name]})" if not args.trace else ""
        print(f"{name} = {values[name]:.6g} {unit}{note}")
    if not args.trace:
        print(f"pass_wall_s = {statistics.median(p['elapsed'] for p in passes[1:]):.6g} s  "
              f"(median raw wall time of the same passes, not scaled)")
        print(f"cold_pass_s = {passes[0]['scaled']:.6g} s  (first pass in this process, at the "
              f"reference host speed; reported raw with a bound-free name in the traced run)")
    print(f"ops_failed_ratio = {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
