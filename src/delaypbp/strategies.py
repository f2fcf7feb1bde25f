"""Deterministic strategy profiles and their JSON form.

A profile stores, per agent and per decision time, an explicit map from
information realizations to actions. Maps built by the helpers here cover
the full structural realization grid, so a profile stays total when the
other agents' strategies change between best-response sweeps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import IncompleteStrategyError, ModelFormatError
from .info import (InfoRealization, parse_realization_key, realization_key,
                   sort_key, structural_realizations)
from .model import ModelSpec


@dataclass(frozen=True, eq=False)
class StrategyProfile:
    """maps[k][t] sends agent k's realizations at time t to actions."""

    maps: tuple[tuple[Mapping[InfoRealization, int], ...], ...]

    def action(self, k: int, t: int, r: InfoRealization) -> int:
        try:
            return self.maps[k][t][r]
        except KeyError:
            raise IncompleteStrategyError(
                f"incomplete strategy: agent {k} has no action at "
                f"t={t}, {realization_key(r)}") from None

    def with_agent(self, k: int, new_maps) -> "StrategyProfile":
        """Profile with agent k's per-time maps replaced."""
        rows = list(self.maps)
        rows[k] = tuple(dict(m) for m in new_maps)
        return StrategyProfile(maps=tuple(rows))

    def agents_equal(self, other: "StrategyProfile", k: int) -> bool:
        return self.maps[k] == other.maps[k]


def profile_from_fn(spec: ModelSpec, fn: Callable[[int, int, InfoRealization], int]
                    ) -> StrategyProfile:
    """Materialize fn(k, t, realization) over the full structural grids."""
    maps = []
    for k in range(spec.K):
        per_t = []
        for t in range(spec.T):
            per_t.append({r: int(fn(k, t, r)) % spec.act_sizes[k]
                          for r in structural_realizations(spec, k, t)})
        maps.append(tuple(per_t))
    return StrategyProfile(maps=tuple(maps))


def constant_profile(spec: ModelSpec, action: int = 0) -> StrategyProfile:
    return profile_from_fn(spec, lambda k, t, r: action)


def observation_following_profile(spec: ModelSpec) -> StrategyProfile:
    """Each agent plays its newest own observation (mod its action count)."""
    return profile_from_fn(spec, lambda k, t, r: r.private.obs[-1])


def random_profile(spec: ModelSpec, rng: np.random.Generator) -> StrategyProfile:
    """Uniformly random total profile; deterministic given the generator state.

    The structural grids are canonically ordered, so a seeded generator
    yields the same profile on every run.
    """
    return profile_from_fn(
        spec, lambda k, t, r: int(rng.integers(0, spec.act_sizes[k])))


def extend_total(spec: ModelSpec, k: int, partial: Mapping[InfoRealization, int],
                 t: int, default: int = 0) -> dict[InfoRealization, int]:
    """Fill a partial time-t map out to the structural grid with `default`.

    The filled-in realizations are exactly those unreachable under the
    opponent profile the partial map was computed against, so the extension
    does not change the profile's cost at the time it is made; it only
    keeps the map total if the opponents later move.
    """
    out = {r: default for r in structural_realizations(spec, k, t)}
    out.update(partial)
    return out


# ---------------------------------------------------------------------------
# JSON strategy files: per agent, per time, (realization key, action) pairs
# in canonical key order.
# ---------------------------------------------------------------------------

def profile_to_dict(spec: ModelSpec, g: StrategyProfile) -> dict:
    agents = []
    for k in range(spec.K):
        times = []
        for t in range(spec.T):
            entries = sorted(g.maps[k][t].items(), key=lambda kv: sort_key(kv[0]))
            times.append({
                "t": t,
                "entries": [[realization_key(r), int(u)] for r, u in entries],
            })
        agents.append({"agent": k, "times": times})
    return {"K": spec.K, "T": spec.T, "n": spec.n, "agents": agents}


def save_profile(spec: ModelSpec, g: StrategyProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_dict(spec, g), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _members(block: dict, field: str, where: str) -> list:
    """block[field], which must be a list, or ModelFormatError naming `where`."""
    if not isinstance(block.get(field), list):
        raise ModelFormatError(f"strategy document: {where} needs a list {field!r}")
    return block[field]


def _indexed(blocks: list, field: str, where: str) -> dict:
    """Blocks keyed by their integer `field`."""
    out = {}
    for blk in blocks:
        if not isinstance(blk, dict) or not isinstance(blk.get(field), int):
            raise ModelFormatError(f"strategy document: {where} block without integer {field!r}")
        out[blk[field]] = blk
    return out


def profile_from_dict(spec: ModelSpec, doc: dict) -> StrategyProfile:
    if not isinstance(doc, dict):
        raise ModelFormatError("strategy document must be a JSON object")
    for field in ("K", "T", "n", "agents"):
        if field not in doc:
            raise ModelFormatError(f"strategy document missing field {field!r}")
    if doc["K"] != spec.K or doc["T"] != spec.T or doc["n"] != spec.n:
        raise ModelFormatError(
            f"strategy document is for (K={doc['K']}, T={doc['T']}, n={doc['n']}), "
            f"model has (K={spec.K}, T={spec.T}, n={spec.n})")
    maps: list[tuple[dict, ...]] = []
    by_agent = _indexed(_members(doc, "agents", "top level"), "agent", "agents")
    for k in range(spec.K):
        if k not in by_agent:
            raise ModelFormatError(f"strategy document missing agent {k}")
        by_t = _indexed(_members(by_agent[k], "times", f"agent {k}"), "t", f"agent {k} times")
        per_t = []
        for t in range(spec.T):
            if t not in by_t:
                raise ModelFormatError(f"strategy document missing agent {k} time {t}")
            m = {}
            for entry in _members(by_t[t], "entries", f"agent {k} time {t}"):
                if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                        and isinstance(entry[1], int) and not isinstance(entry[1], bool)):
                    raise ModelFormatError(
                        f"agent {k} time {t}: entry {entry!r} is not a [key, action] pair")
                key, u = entry
                try:
                    r = parse_realization_key(key, spec, k, t)
                except ValueError as exc:
                    raise ModelFormatError(
                        f"agent {k} time {t}: bad realization key {key!r}: {exc}") from None
                if not (0 <= u < spec.act_sizes[k]):
                    raise ModelFormatError(
                        f"action {u} out of range for agent {k} at {key}")
                if r in m:
                    raise ModelFormatError(f"agent {k} time {t}: realization key {key!r} "
                                           "given twice")
                m[r] = u
            per_t.append(m)
        maps.append(tuple(per_t))
    return StrategyProfile(maps=tuple(maps))


def load_profile(spec: ModelSpec, path) -> StrategyProfile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"not valid JSON: {exc}") from exc
    return profile_from_dict(spec, doc)
