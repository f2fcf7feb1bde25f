"""Deterministic strategy profiles and their JSON form.

A profile stores, per agent k and decision time t, agent k's strategy as
one read-only int array over its time-t realization codes (`info`'s
integer coding; a strategy file names each code by its text key): cell i
holds the action at the realization with code i, or -1 where no action is
given (a strategy file that leaves a realization out, or a
best response off the grid its forward pass reaches). The builders here
fill every cell, so their profiles stay total when the other agents'
strategies change between best-response sweeps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteStrategyError, ModelFormatError
from .info import grid_size, parse_realization_key, private_act_len, realization_key
from .model import ModelSpec, is_integer


@dataclass(frozen=True, eq=False)
class StrategyProfile:
    """maps[k][t] is agent k's time-t strategy: a read-only int array over
    grid_size(spec, k, t) codes, -1 where it gives no action. The arrays
    are copied on construction."""

    spec: ModelSpec
    maps: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        maps = tuple(tuple(np.array(m, dtype=np.int64) for m in row) for row in self.maps)
        for k, row in enumerate(maps):
            for t, a in enumerate(row):
                size, acts = grid_size(self.spec, k, t), self.spec.act_sizes[k]
                if a.shape != (size,) or np.any((a < -1) | (a >= acts)):
                    raise ValueError(f"agent {k} time {t}: a strategy is an array of "
                                     f"{size} actions in -1..{acts - 1}")
                a.setflags(write=False)
        object.__setattr__(self, "maps", maps)

    def action_at(self, k: int, t: int, code: int) -> int:
        u = int(self.maps[k][t][code])
        if u < 0:
            raise IncompleteStrategyError(
                f"incomplete strategy: agent {k} has no action at "
                f"t={t}, {realization_key(self.spec, k, t, code)}")
        return u

    def actions_at(self, k: int, t: int, codes: np.ndarray, reached=True) -> np.ndarray:
        """Agent k's time-t actions at an array of codes, 0 where reached is
        False and the map has none. A reached code without an action raises
        IncompleteStrategyError, naming how many there are and the first
        three in code order."""
        a = self.maps[k][t][codes]
        miss = codes[(a < 0) & reached]
        if len(miss):
            miss = sorted(set(miss.tolist()))
            keys = ", ".join(realization_key(self.spec, k, t, c) for c in miss[:3])
            raise IncompleteStrategyError(
                f"incomplete strategy: agent {k} has no action at t={t}, {keys}"
                f" ({len(miss)} reached realization{'s' * (len(miss) > 1)} without one)")
        return np.maximum(a, 0)

    def with_agent(self, k: int, new_maps) -> "StrategyProfile":
        """Profile with agent k's per-time maps replaced."""
        rows = list(self.maps)
        rows[k] = tuple(new_maps)
        return StrategyProfile(spec=self.spec, maps=tuple(rows))

    def agents_equal(self, other: "StrategyProfile", k: int) -> bool:
        return all(np.array_equal(a, b) for a, b in zip(self.maps[k], other.maps[k]))


def _profile(spec: ModelSpec, fill) -> StrategyProfile:
    """The profile whose (k, t) array is fill(k, t), filled in (k, t) order."""
    return StrategyProfile(spec=spec, maps=tuple(tuple(fill(k, t) for t in range(spec.T))
                                                 for k in range(spec.K)))


def constant_profile(spec: ModelSpec, action: int = 0) -> StrategyProfile:
    return _profile(spec, lambda k, t: np.full(grid_size(spec, k, t),
                                               action % spec.act_sizes[k]))


def observation_following_profile(spec: ModelSpec) -> StrategyProfile:
    """Each agent plays its newest own observation (mod its action count):
    the code's last private-observation digit, above the private actions."""
    def fill(k, t):
        newest = (np.arange(grid_size(spec, k, t))
                  // spec.act_sizes[k] ** private_act_len(spec.n, t) % spec.obs_sizes[k])
        return newest % spec.act_sizes[k]
    return _profile(spec, fill)


def random_profile(spec: ModelSpec, rng: np.random.Generator) -> StrategyProfile:
    """Uniformly random total profile; deterministic given the generator
    state. One draw per cell, in (k, t, code) order."""
    return _profile(spec, lambda k, t: rng.integers(0, spec.act_sizes[k],
                                                    size=grid_size(spec, k, t)))


# ---------------------------------------------------------------------------
# JSON strategy files: per agent, per time, (realization key, action) pairs
# in canonical key order.
# ---------------------------------------------------------------------------

def profile_to_dict(spec: ModelSpec, g: StrategyProfile) -> dict:
    agents = []
    for k in range(spec.K):
        times = []
        for t in range(spec.T):
            m = g.maps[k][t]
            times.append({
                "t": t,
                "entries": [[realization_key(spec, k, t, code), int(m[code])]
                            for code in np.flatnonzero(m >= 0)],
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
        if not isinstance(blk, dict) or not is_integer(blk.get(field)):
            raise ModelFormatError(f"strategy document: {where} block without integer {field!r}")
        out[blk[field]] = blk
    return out


def profile_from_dict(spec: ModelSpec, doc: dict) -> StrategyProfile:
    if not isinstance(doc, dict):
        raise ModelFormatError("strategy document must be a JSON object")
    for field in ("K", "T", "n", "agents"):
        if field not in doc:
            raise ModelFormatError(f"strategy document missing field {field!r}")
        if field != "agents" and not is_integer(doc[field]):
            raise ModelFormatError(f"strategy document: {field!r} must be an integer, "
                                   f"got {doc[field]!r}")
    if doc["K"] != spec.K or doc["T"] != spec.T or doc["n"] != spec.n:
        raise ModelFormatError(
            f"strategy document is for (K={doc['K']}, T={doc['T']}, n={doc['n']}), "
            f"model has (K={spec.K}, T={spec.T}, n={spec.n})")
    maps: list[tuple[np.ndarray, ...]] = []
    by_agent = _indexed(_members(doc, "agents", "top level"), "agent", "agents")
    for k in range(spec.K):
        if k not in by_agent:
            raise ModelFormatError(f"strategy document missing agent {k}")
        by_t = _indexed(_members(by_agent[k], "times", f"agent {k}"), "t", f"agent {k} times")
        per_t = []
        for t in range(spec.T):
            if t not in by_t:
                raise ModelFormatError(f"strategy document missing agent {k} time {t}")
            m = np.full(grid_size(spec, k, t), -1)
            for entry in _members(by_t[t], "entries", f"agent {k} time {t}"):
                if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                        and is_integer(entry[1])):
                    raise ModelFormatError(
                        f"agent {k} time {t}: entry {entry!r} is not a [key, action] pair")
                key, u = entry
                try:
                    code = parse_realization_key(key, spec, k, t)
                except ValueError as exc:
                    raise ModelFormatError(
                        f"agent {k} time {t}: bad realization key {key!r}: {exc}") from None
                if not (0 <= u < spec.act_sizes[k]):
                    raise ModelFormatError(
                        f"action {u} out of range for agent {k} at {key}")
                if m[code] >= 0:
                    raise ModelFormatError(f"agent {k} time {t}: realization key {key!r} "
                                           "given twice")
                m[code] = u
            per_t.append(m)
        maps.append(tuple(per_t))
    return StrategyProfile(spec=spec, maps=tuple(maps))


def load_profile(spec: ModelSpec, path) -> StrategyProfile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"not valid JSON: {exc}") from exc
    return profile_from_dict(spec, doc)
