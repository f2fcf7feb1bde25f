"""The n-step delayed-sharing information pattern.

At time t each agent k knows two blocks: the shared block (every agent's
observations and actions up to time t-n) and its private block (its own
last n observations and last n-1 actions). A realization of agent k at
time t has exactly two forms here: an integer code -- the one key of
strategy arrays, belief layers, value rows and the oracle's group-bys,
read off a joint history by `history_code` and advanced one step by
arithmetic on codes -- and a text key, which appears only where strategy
files and reports are read or written. `decode` spells a code out as
plain blocks of symbols and `encode` is its inverse.

Index windows, 0-based, for delay n at time t:
  shared, per agent:  obs 0..t-n, acts 0..t-n          (empty while t < n)
  private, agent k:   obs max(0, t-n+1)..t, acts max(0, t-n+1)..t-1

When the clock moves t -> t+1 the time-(t-n+1) observation and action of
every agent leave the private blocks and join the shared block.

The other agents' private data, lambda in agent k's extended state, is no
separate type: its index is the mixed radix over the other agents' private
codes (`history_code % private_size`) in increasing agent order, labelled
by `lambda_labels`, and those codes advance by the one shift rule
(`shift_code`) that agent k's own private code uses.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .model import ModelSpec

IntSeq = tuple[int, ...]


class Blocks(NamedTuple):
    """A realization's symbols in code order: per agent, the shared
    observations and the shared actions; then the owner's private
    observations and private actions."""

    shared_obs: tuple[IntSeq, ...]
    shared_acts: tuple[IntSeq, ...]
    own_obs: IntSeq
    own_acts: IntSeq


def private_obs_len(n: int, t: int) -> int:
    return min(n, t + 1)


def private_act_len(n: int, t: int) -> int:
    return min(n - 1, t)


def shared_prefix_len(n: int, t: int) -> int:
    return max(0, t - n + 1)


def other_agents(K: int, k: int) -> tuple[int, ...]:
    return tuple(j for j in range(K) if j != k)


# ---------------------------------------------------------------------------
# Integer coding. Agent k's time-t realizations are the codes 0..size-1 of
# one mixed radix whose digits, most significant first, are the shared
# observations (agent-major, then time), the shared actions (likewise),
# agent k's private observations and its private actions. Tuples compare in
# that order too, so code order is the canonical order. The shared digits
# lead and are the same for every agent, so agent j's code is its shared
# block's code * private_size(j) + its private code, and the lambda index is
# the mixed radix over the other agents' private codes. The text key used in
# strategy files and reports stays at the edges.
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


def encode(spec: ModelSpec, k: int, t: int, blocks: Blocks) -> int:
    """Agent k's time-t code of the given blocks; the inverse of decode."""
    return _code(*blocks, radices(spec, k, t))


def history_code(spec: ModelSpec, obs, acts, j: int, t: int) -> int:
    """Agent j's time-t code read straight off a joint history, given as
    per-agent observation streams (up to t at least) and action streams
    (up to t-1 at least): every agent's streams up to t-n, then agent j's
    own symbols up to t."""
    cut = shared_prefix_len(spec.n, t)
    return _code((ys[:cut] for ys in obs), (us[:cut] for us in acts),
                 obs[j][cut:t + 1], acts[j][cut:t], radices(spec, j, t))


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


def decode(spec: ModelSpec, k: int, t: int, code: int) -> Blocks:
    """The blocks of agent k's time-t realization with the given code."""
    digits = [int(d) for d in np.unravel_index(code, radices(spec, k, t))]
    cut, lo, K = shared_prefix_len(spec.n, t), private_obs_len(spec.n, t), spec.K
    per_agent = [tuple(digits[i * cut:(i + 1) * cut]) for i in range(2 * K)]
    own = digits[2 * K * cut:]
    return Blocks(tuple(per_agent[:K]), tuple(per_agent[K:]), tuple(own[:lo]), tuple(own[lo:]))


# ---------------------------------------------------------------------------
# Text keys: the stable form of a realization in strategy files and reports.
# ---------------------------------------------------------------------------

def _block_str(obs: IntSeq, acts: IntSeq) -> str:
    return "-".join(map(str, obs)) + "/" + "-".join(map(str, acts))


def realization_key(spec: ModelSpec, k: int, t: int, code: int) -> str:
    """Stable text key, e.g. ``c(0/1;1/0)p(1/)`` for K=2, n=1, t=1."""
    b = decode(spec, k, t, code)
    common = ";".join(map(_block_str, b.shared_obs, b.shared_acts))
    return f"c({common})p({_block_str(b.own_obs, b.own_acts)})"


def lambda_labels(spec: ModelSpec, k: int, t: int) -> list[str]:
    """The label of every lambda index at time t, in index order: the other
    agents' private blocks, in increasing agent order, joined by ';'. A
    private code below private_size decodes with an all-zero shared block."""
    per_agent = [[_block_str(*decode(spec, j, t, pc)[2:])
                  for pc in range(private_size(spec, j, t))] for j in other_agents(spec.K, k)]
    return [";".join(parts) for parts in itertools.product(*per_agent)]


def _parse_seq(s: str, block: str, name: str) -> IntSeq:
    symbols = s.split("-") if s else []
    for i, v in enumerate(symbols):
        if not v.strip().removeprefix("+").isdecimal():  # what int() reads, but for '_'
            raise ValueError(f"block {block!r}: {name} symbol {i} is {v!r}; symbols are "
                             "non-negative decimal integers joined by single '-'")
    return tuple(map(int, symbols))


def _parse_block(s: str) -> tuple[IntSeq, IntSeq]:
    if s.count("/") != 1:
        raise ValueError(f"block {s!r} needs one '/' between observations and actions, "
                         f"found {s.count('/')}")
    ys, us = s.split("/")
    return _parse_seq(ys, s, "observation"), _parse_seq(us, s, "action")


def parse_realization_key(key: str, spec: ModelSpec, k: int, t: int) -> int:
    """The code of a text key of agent k at time t of spec. Raises
    ValueError unless the key names spec.K agents, fills the index windows,
    uses only symbols in each agent's alphabets and is spelled exactly as
    realization_key spells its code."""
    if not key.startswith("c(") or not key.endswith(")"):
        raise ValueError(f"malformed realization key {key!r}")
    if key.count(")p(") != 1:
        raise ValueError(f"realization key needs one ')p(' between the shared and private "
                         f"blocks, found {key.count(')p(')}")
    common_s, private_s = key[2:-1].split(")p(")
    shared = [_parse_block(part) for part in common_s.split(";")]
    if len(shared) != spec.K:
        raise ValueError(f"shared block names {len(shared)} agents, the model has {spec.K}")
    own = _parse_block(private_s)
    want = shared_prefix_len(spec.n, t)
    for j, (ys, us) in enumerate(shared):
        if len(ys) != want or len(us) != want:
            raise ValueError(f"agent {j}: shared prefixes must have length {want}, "
                             f"got obs {len(ys)} / acts {len(us)}")
    for name, seq, length in (("obs", own[0], private_obs_len(spec.n, t)),
                              ("acts", own[1], private_act_len(spec.n, t))):
        if len(seq) != length:
            raise ValueError(f"private {name} must have length {length}")
    for j, (ys, us) in [*enumerate(shared), (k, own)]:
        if any(y >= spec.obs_sizes[j] for y in ys) or any(u >= spec.act_sizes[j] for u in us):
            raise ValueError(f"symbol outside agent {j}'s alphabets")
    code = encode(spec, k, t, Blocks(*zip(*shared), *own))
    canonical = realization_key(spec, k, t, code)
    if canonical != key:
        raise ValueError(f"not the canonical spelling {canonical!r}")
    return code
