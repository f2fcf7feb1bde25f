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

from dataclasses import dataclass

import numpy as np

from .errors import IncompleteStrategyError, ModelFormatError
from .info import grid_size, newest_obs, parse_realization_keys, realization_keys
from .model import ModelSpec, check_keys, is_integer, kind_of, read_json, write_json


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

    def actions_at(self, k: int, t: int, codes: np.ndarray) -> np.ndarray:
        """Agent k's time-t actions at an array of codes, every one of which
        must have an action: else IncompleteStrategyError, naming how many
        codes lack one and the first three in code order."""
        a = self.maps[k][t][codes]
        miss = sorted(set(codes[a < 0].tolist()))
        if miss:
            keys = ", ".join(realization_keys(self.spec, k, t, miss[:3]))
            raise IncompleteStrategyError(
                f"incomplete strategy: agent {k} has no action at t={t}, {keys}"
                f" ({len(miss)} reached realization{'s' * (len(miss) > 1)} without one)")
        return a

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
    """Each agent plays its newest own observation (mod its action count)."""
    return _profile(spec, lambda k, t: newest_obs(spec, k, t, np.arange(grid_size(spec, k, t)))
                    % spec.act_sizes[k])


def random_profile(spec: ModelSpec, rng: np.random.Generator) -> StrategyProfile:
    """Uniformly random total profile; deterministic given the generator
    state. One draw per cell, in (k, t, code) order."""
    return _profile(spec, lambda k, t: rng.integers(0, spec.act_sizes[k],
                                                    size=grid_size(spec, k, t)))


# ---------------------------------------------------------------------------
# JSON strategy files: per agent, per time, (realization key, action) pairs
# in canonical key order.
# ---------------------------------------------------------------------------

_INTEGER = kind_of(is_integer, "must be an integer")
_LIST = kind_of(lambda v: isinstance(v, list), "must be a list")
_DOCUMENT_KEYS = {"K": _INTEGER, "T": _INTEGER, "n": _INTEGER, "agents": _LIST}
_AGENT_KEYS = {"agent": _INTEGER, "times": _LIST}
_TIME_KEYS = {"t": _INTEGER, "entries": _LIST}


def agent_to_dict(spec: ModelSpec, g: StrategyProfile, k: int) -> dict:
    """Agent k's block of a strategy file; spells only agent k's keys."""
    def entries(t: int, m: np.ndarray) -> list:
        codes = np.flatnonzero(m >= 0)
        return [[key, u] for key, u in zip(realization_keys(spec, k, t, codes), m[codes].tolist())]
    return {"agent": k,
            "times": [{"t": t, "entries": entries(t, m)} for t, m in enumerate(g.maps[k])]}


def profile_to_dict(spec: ModelSpec, g: StrategyProfile) -> dict:
    return {"K": spec.K, "T": spec.T, "n": spec.n,
            "agents": [agent_to_dict(spec, g, k) for k in range(spec.K)]}


def save_profile(spec: ModelSpec, g: StrategyProfile, path) -> None:
    write_json(path, profile_to_dict(spec, g))


def _indexed(blocks: list, field: str, name: str, count: int) -> dict:
    """The JSON blocks keyed by their integer `field`, each in 0..count-1 and given
    once; `name` names a block in errors ("agent", "agent 0 time")."""
    out = {}
    for blk in blocks:
        if not isinstance(blk, dict) or not is_integer(blk.get(field)):
            raise ModelFormatError(f"strategy document: {name}s block without integer {field!r}")
        i = blk[field]
        if not 0 <= i < count:
            raise ModelFormatError(f"strategy document: {name} {i} is not in 0..{count - 1}")
        if i in out:
            raise ModelFormatError(f"strategy document: {name} {i} given twice")
        out[i] = blk
    return out


def load_profile(spec: ModelSpec, path) -> StrategyProfile:
    """Load a strategy file for spec; raises ModelFormatError on malformed input."""
    doc = read_json(path)
    check_keys(doc, _DOCUMENT_KEYS, "strategy document")
    if doc["K"] != spec.K or doc["T"] != spec.T or doc["n"] != spec.n:
        raise ModelFormatError(
            f"strategy document is for (K={doc['K']}, T={doc['T']}, n={doc['n']}), "
            f"model has (K={spec.K}, T={spec.T}, n={spec.n})")
    maps: list[tuple[np.ndarray, ...]] = []
    by_agent = _indexed(doc["agents"], "agent", "agent", spec.K)
    for k in range(spec.K):
        if k not in by_agent:
            raise ModelFormatError(f"strategy document missing agent {k}")
        check_keys(by_agent[k], _AGENT_KEYS, f"strategy document: agent {k}")
        by_t = _indexed(by_agent[k]["times"], "t", f"agent {k} time", spec.T)
        per_t = []
        for t in range(spec.T):
            if t not in by_t:
                raise ModelFormatError(f"strategy document missing agent {k} time {t}")
            check_keys(by_t[t], _TIME_KEYS, f"strategy document: agent {k} time {t}")
            entries = by_t[t]["entries"]
            for entry in entries:
                if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                        and is_integer(entry[1])):
                    raise ModelFormatError(
                        f"agent {k} time {t}: entry {entry!r} is not a [key, action] pair")
            keys = [key for key, _ in entries]
            try:
                codes = parse_realization_keys(keys, spec, k, t)
            except ValueError as exc:
                raise ModelFormatError(f"agent {k} time {t}: {exc}") from None
            for key, u in entries:
                if not 0 <= u < spec.act_sizes[k]:
                    raise ModelFormatError(f"action {u} out of range for agent {k} at {key}")
            order = np.argsort(codes, kind="stable")  # a code's later entries repeat it
            again = order[1:][np.diff(codes[order]) == 0]
            if len(again):
                raise ModelFormatError(f"agent {k} time {t}: realization key "
                                       f"{keys[again.min()]!r} given twice")
            m = np.full(grid_size(spec, k, t), -1)
            m[codes] = [u for _, u in entries]
            per_t.append(m)
        maps.append(tuple(per_t))
    return StrategyProfile(spec=spec, maps=tuple(maps))
