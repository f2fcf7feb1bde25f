"""The n-step delayed-sharing information pattern.

At time t each agent k knows two blocks: the shared block (every agent's
observations and actions up to time t-n) and its private block (its own
last n observations and last n-1 actions). This module houses the
integer coding of each agent's realizations -- the one key of strategy
arrays, belief layers, value rows and the oracle's group-bys, read off a
joint history by `history_code` -- with the one-step advance of the blocks
as arithmetic on codes, and the realization dataclasses with their
canonical text keys, which appear only where strategy files and reports
are read or written.

Index windows, 0-based, for delay n at time t:
  shared, per agent:  obs 0..t-n, acts 0..t-n          (empty while t < n)
  private, agent k:   obs max(0, t-n+1)..t, acts max(0, t-n+1)..t-1

When the clock moves t -> t+1 the time-(t-n+1) observation and action of
every agent leave the private blocks and join the shared block.

The other agents' private data, lambda in agent k's extended state, is no
separate type: its index is the mixed radix over the other agents' private
codes (`history_code % private_size`) in increasing agent order, the order
of `other_private_space`, and those codes advance by the one shift rule
(`shift_code`) that agent k's own private code uses.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec

IntSeq = tuple[int, ...]


def private_obs_len(n: int, t: int) -> int:
    return min(n, t + 1)


def private_act_len(n: int, t: int) -> int:
    return min(n - 1, t)


def shared_prefix_len(n: int, t: int) -> int:
    return max(0, t - n + 1)


@dataclass(frozen=True)
class JointHistory:
    """Complete record of a run up to time t: obs[k][s] for s <= t and
    acts[k][s] for s <= t-1, one stream per agent."""

    t: int
    obs: tuple[IntSeq, ...]
    acts: tuple[IntSeq, ...]


@dataclass(frozen=True)
class CommonInfo:
    """The shared block: per agent, the observation and action prefixes up
    to time t-n (both empty while t < n)."""

    t: int
    n: int
    obs: tuple[IntSeq, ...]
    acts: tuple[IntSeq, ...]

    def validate(self) -> None:
        want = shared_prefix_len(self.n, self.t)
        for k, (ys, us) in enumerate(zip(self.obs, self.acts)):
            if len(ys) != want or len(us) != want:
                raise ValueError(
                    f"agent {k}: shared prefixes must have length {want}, "
                    f"got obs {len(ys)} / acts {len(us)}")


@dataclass(frozen=True)
class PrivateInfo:
    """Agent k's private block: obs over the last min(n, t+1) steps and
    acts over the last min(n-1, t) steps."""

    t: int
    n: int
    agent: int
    obs: IntSeq
    acts: IntSeq

    def validate(self) -> None:
        if len(self.obs) != private_obs_len(self.n, self.t):
            raise ValueError(f"private obs must have length {private_obs_len(self.n, self.t)}")
        if len(self.acts) != private_act_len(self.n, self.t):
            raise ValueError(f"private acts must have length {private_act_len(self.n, self.t)}")


# lambda, the second coordinate of the extended state agent k must track:
# the other agents' private blocks, in increasing agent order.
Lam = tuple[PrivateInfo, ...]


@dataclass(frozen=True)
class InfoRealization:
    """What agent k actually knows at time t: the shared block plus its own
    private block."""

    common: CommonInfo
    private: PrivateInfo

    def validate(self) -> None:
        if self.common.t != self.private.t or self.common.n != self.private.n:
            raise ValueError("common and private blocks disagree on (t, n)")
        self.common.validate()
        self.private.validate()


def other_agents(K: int, k: int) -> tuple[int, ...]:
    return tuple(j for j in range(K) if j != k)


# ---------------------------------------------------------------------------
# Integer coding. Agent k's time-t realizations are the codes 0..size-1 of
# one mixed radix whose digits, most significant first, are the shared
# observations (agent-major, then time), the shared actions (likewise),
# agent k's private observations and its private actions. Tuples compare in
# that order too, so code order is the canonical order. The shared digits
# lead and are the same for every agent, so agent j's code is its shared
# block's code * private_size(j) + its private code, and the lambda index of
# other_private_space is the mixed radix over the other agents' private
# codes. The text key used in strategy files and reports stays at the edges.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4096)  # specs are immutable and hash by identity
def radices(spec: ModelSpec, k: int, t: int) -> IntSeq:
    """The radix of each digit of agent k's time-t code, most significant
    first; the one definition of the digit order."""
    cut, out = shared_prefix_len(spec.n, t), []
    for size in spec.obs_sizes + spec.act_sizes:
        out += (size,) * cut
    return (*out, *(spec.obs_sizes[k],) * private_obs_len(spec.n, t),
            *(spec.act_sizes[k],) * private_act_len(spec.n, t))


def grid_size(spec: ModelSpec, k: int, t: int) -> int:
    """Number of index-valid realizations of agent k at time t."""
    return math.prod(radices(spec, k, t))


def private_size(spec: ModelSpec, k: int, t: int) -> int:
    """Number of index-valid private blocks of agent k at time t."""
    return (spec.obs_sizes[k] ** private_obs_len(spec.n, t)
            * spec.act_sizes[k] ** private_act_len(spec.n, t))


def _code(obs, acts, own_obs: IntSeq, own_acts: IntSeq, rads: IntSeq) -> int:
    """Horner's rule over the digits in radices' order."""
    code = 0
    digits = itertools.chain(itertools.chain(*obs), itertools.chain(*acts), own_obs, own_acts)
    for d, r in zip(digits, rads):
        code = code * r + d
    return code


def encode(spec: ModelSpec, r: InfoRealization) -> int:
    c, p = r.common, r.private
    return _code(c.obs, c.acts, p.obs, p.acts, radices(spec, p.agent, p.t))


def history_code(spec: ModelSpec, h: JointHistory, j: int, t: int) -> int:
    """Agent j's time-t code (t <= h.t), read straight off the history:
    every agent's streams up to t-n, then agent j's own symbols up to t."""
    cut = shared_prefix_len(spec.n, t)
    return _code((ys[:cut] for ys in h.obs), (us[:cut] for us in h.acts),
                 h.obs[j][cut:t + 1], h.acts[j][cut:t], radices(spec, j, t))


def oldest(spec: ModelSpec, j: int, t: int, pcode):
    """Agent j's oldest observation and action (None with n = 1) in its
    time-t private codes: what time t+1 promotes."""
    la, lo = private_act_len(spec.n, t), private_obs_len(spec.n, t)
    A, Y = spec.act_sizes[j], spec.obs_sizes[j]
    return pcode // A ** la // Y ** (lo - 1), pcode % A ** la // A ** (la - 1) if la else None


def shift_code(spec: ModelSpec, j: int, t: int, pcode, y, u):
    """Agent j's private codes at t+1 from its time-t private codes, its
    time-(t+1) observations y and time-t actions u: shed the oldest
    symbols once t >= n-1, then append y and, with n >= 2, u."""
    n, A, Y = spec.n, spec.act_sizes[j], spec.obs_sizes[j]
    la, la1 = private_act_len(n, t), private_act_len(n, t + 1)
    obs = pcode // A ** la % Y ** (private_obs_len(n, t + 1) - 1) * Y + y
    return obs * A ** la1 + (pcode % A ** la % A ** (la1 - 1) * A + u if la1 else 0)


def next_codes(spec: ModelSpec, k: int, t: int, codes, u, shown, y):
    """Agent k's time-(t+1) codes after its time-t codes, own actions u and
    observations y. When t+1 promotes, each shared block gains its agent's
    oldest private symbols: agent k's own (with n = 1 its action u), and
    the others' in shown (their observation digits, then action digits)."""
    n, P, m = spec.n, private_size(spec, k, t), spec.K - 1
    shared, own = codes // P, codes % P
    cut = shared_prefix_len(n, t)
    if shared_prefix_len(n, t + 1) > cut:
        o, a = oldest(spec, k, t, own)
        new = (*shown[:k], o, *shown[k:m], *shown[m:m + k], u if a is None else a,
               *shown[m + k:])
        sizes = spec.obs_sizes + spec.act_sizes
        blocks, shared = np.unravel_index(shared, [s ** cut for s in sizes]), 0
        for b, s, d in zip(blocks, sizes, new):
            shared = shared * s ** (cut + 1) + b * s + d
    return shared * private_size(spec, k, t + 1) + shift_code(spec, k, t, own, y, u)


def decode(spec: ModelSpec, k: int, t: int, code: int) -> InfoRealization:
    """The realization of agent k at time t with the given code."""
    digits = [int(d) for d in np.unravel_index(code, radices(spec, k, t))]
    cut, lo = shared_prefix_len(spec.n, t), private_obs_len(spec.n, t)
    per_agent = [tuple(digits[i * cut:(i + 1) * cut]) for i in range(2 * spec.K)]
    own = digits[2 * spec.K * cut:]
    return InfoRealization(
        common=CommonInfo(t=t, n=spec.n, obs=tuple(per_agent[:spec.K]),
                          acts=tuple(per_agent[spec.K:])),
        private=PrivateInfo(t=t, n=spec.n, agent=k, obs=tuple(own[:lo]), acts=tuple(own[lo:])))


# ---------------------------------------------------------------------------
# Text keys: the stable form of a realization in strategy files and reports.
# ---------------------------------------------------------------------------

def _seq_str(s: IntSeq) -> str:
    return "-".join(str(int(v)) for v in s)


def realization_key(r: InfoRealization) -> str:
    """Stable text key, e.g. ``c(0/1;1/0)p(1/)`` for K=2, n=1, t=1."""
    common = ";".join(f"{_seq_str(ys)}/{_seq_str(us)}"
                      for ys, us in zip(r.common.obs, r.common.acts))
    private = f"{_seq_str(r.private.obs)}/{_seq_str(r.private.acts)}"
    return f"c({common})p({private})"


def other_private_key(lam: Lam) -> str:
    return ";".join(f"{_seq_str(p.obs)}/{_seq_str(p.acts)}" for p in lam)


def _parse_seq(s: str) -> IntSeq:
    return tuple(int(v) for v in s.split("-")) if s else ()


def parse_realization_key(key: str, spec: ModelSpec, k: int, t: int) -> InfoRealization:
    """Inverse of realization_key for agent k at time t of spec. Raises
    ValueError unless the key names spec.K agents, fills the index windows
    and uses only symbols in each agent's alphabets."""
    if not key.startswith("c(") or ")p(" not in key or not key.endswith(")"):
        raise ValueError(f"malformed realization key {key!r}")
    common_s, private_s = key[2:-1].split(")p(")
    c_obs, c_acts = [], []
    for part in common_s.split(";"):
        ys, us = part.split("/")
        c_obs.append(_parse_seq(ys))
        c_acts.append(_parse_seq(us))
    if len(c_obs) != spec.K:
        raise ValueError(f"shared block names {len(c_obs)} agents, the model has {spec.K}")
    ys, us = private_s.split("/")
    r = InfoRealization(
        common=CommonInfo(t=t, n=spec.n, obs=tuple(c_obs), acts=tuple(c_acts)),
        private=PrivateInfo(t=t, n=spec.n, agent=k, obs=_parse_seq(ys), acts=_parse_seq(us)),
    )
    r.validate()
    blocks = [*zip(range(spec.K), c_obs, c_acts), (k, r.private.obs, r.private.acts)]
    for j, ys, us in blocks:
        if any(y >= spec.obs_sizes[j] for y in ys) or any(u >= spec.act_sizes[j] for u in us):
            raise ValueError(f"symbol outside agent {j}'s alphabets")
    return r


# ---------------------------------------------------------------------------
# Enumeration of the realization grids.
# ---------------------------------------------------------------------------

def other_private_space(spec: ModelSpec, k: int, t: int) -> tuple[Lam, ...]:
    """All index-valid lambdas at time t, in canonical order."""
    n = spec.n
    per_agent = [[PrivateInfo(t=t, n=n, agent=j, obs=ys, acts=us)
                  for ys in itertools.product(range(spec.obs_sizes[j]),
                                              repeat=private_obs_len(n, t))
                  for us in itertools.product(range(spec.act_sizes[j]),
                                              repeat=private_act_len(n, t))]
                 for j in other_agents(spec.K, k)]
    return tuple(itertools.product(*per_agent))
