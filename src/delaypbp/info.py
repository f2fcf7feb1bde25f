"""The n-step delayed-sharing information pattern.

At time t each agent k knows two blocks: the shared block (every agent's
observations and actions up to time t-n) and its private block (its own
last n observations and last n-1 actions). A realization of agent k at
time t is an integer code -- the one key of strategy arrays, belief
layers, value rows and the oracle's group-bys, read off joint histories
by `history_code` and advanced one step by arithmetic on codes -- or,
where strategy files and reports are read or written, a text key, which
`realization_keys` writes and `parse_realization_keys` reads, array-wide.
Every mixed radix is read by `radix` (Horner's rule) and split by its
inverse `digits`; no other module writes either out but for a code's
split at `private_size` and falsify's two-field keys (`r * X + x`,
`group * width + cell`).

Index windows, 0-based, for delay n at time t:
  shared, per agent:  obs 0..t-n, acts 0..t-n          (empty while t < n)
  private, agent k:   obs max(0, t-n+1)..t, acts max(0, t-n+1)..t-1

When the clock moves t -> t+1 the time-(t-n+1) observation and action of
every agent leave the private blocks and join the shared block (with
n = 1 the action is the one played at t): `promoted` is that rule, and
`revealed` indexes the symbols the other agents promote, observations
first, then actions, in increasing agent order.

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
import operator
import re

import numpy as np

from .model import ModelSpec

IntSeq = tuple[int, ...]


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

def radices(spec: ModelSpec, k: int, t: int) -> IntSeq:
    """The radix of each digit of agent k's time-t code, most significant
    first; the one definition of the digit order."""
    return _radices(spec.n, spec.obs_sizes, spec.act_sizes, k, t)


@functools.lru_cache(maxsize=4096)  # keyed by the shape alone, so it keeps no spec alive
def _radices(n: int, obs_sizes: IntSeq, act_sizes: IntSeq, k: int, t: int) -> IntSeq:
    cut, out = shared_prefix_len(n, t), []
    for size in obs_sizes + act_sizes:
        out += (size,) * cut
    return (*out, *(obs_sizes[k],) * private_obs_len(n, t),
            *(act_sizes[k],) * private_act_len(n, t))


def grid_size(spec: ModelSpec, k: int, t: int) -> int:
    """Number of index-valid realizations of agent k at time t."""
    return math.prod(radices(spec, k, t))


def private_size(spec: ModelSpec, k: int, t: int) -> int:
    """Number of index-valid private blocks of agent k at time t."""
    return (spec.obs_sizes[k] ** private_obs_len(spec.n, t)
            * spec.act_sizes[k] ** private_act_len(spec.n, t))


def radix(digits, sizes):
    """Horner's rule: the mixed-radix number of the digits (ints or int
    arrays, most significant first) in the sizes; 0 for no digits."""
    out = 0
    for d, size in zip(digits, sizes):
        out = out * size + d
    return out


def digits(codes, sizes) -> tuple:
    """radix's inverse: the digit arrays of codes in the sizes."""
    return np.unravel_index(codes, sizes) if len(sizes) else ()


def history_code(spec: ModelSpec, obs, acts, j: int, t: int):
    """Agent j's time-t codes read straight off joint histories, one per
    index of the leading axes of obs (..., K, >= t+1) and acts (..., K,
    >= t), the per-agent observation and action streams: every agent's
    streams up to t-n, then agent j's own symbols up to t."""
    cut, obs, acts = shared_prefix_len(spec.n, t), np.asarray(obs), np.asarray(acts)
    shared = [(a, i, s) for a in (obs, acts) for i in range(obs.shape[-2]) for s in range(cut)]
    own = [(obs, j, s) for s in range(cut, t + 1)] + [(acts, j, s) for s in range(cut, t)]
    return radix((a[..., i, s].astype(np.int64) for a, i, s in shared + own), radices(spec, j, t))


def promoted(spec: ModelSpec, j: int, t: int, pcode, u):
    """Agent j's observation and action that time t+1 moves into the shared
    block, given its time-t private codes and actions u: the oldest private
    observation, and the oldest private action or, with n = 1, u."""
    la, lo = private_act_len(spec.n, t), private_obs_len(spec.n, t)
    A, Y = spec.act_sizes[j], spec.obs_sizes[j]
    return pcode // A ** la // Y ** (lo - 1), pcode % A ** la // A ** (la - 1) if la else u


def revealed(spec: ModelSpec, k: int, t: int, pcodes, us):
    """The index, and the number of indices, of the symbols that the agents
    other than k reveal at t+1, given their time-t private codes and actions
    in increasing agent order: the mixed radix over their promoted
    observations, then their promoted actions, so index order is the order
    of the revealed tuples; 0 of 1 while t+1 promotes nothing."""
    if shared_prefix_len(spec.n, t + 1) == shared_prefix_len(spec.n, t):
        return 0, 1
    others = other_agents(spec.K, k)
    shown = [promoted(spec, j, t, pc, u) for j, pc, u in zip(others, pcodes, us)]
    sizes = [spec.obs_sizes[j] for j in others] + [spec.act_sizes[j] for j in others]
    return radix([o for o, _ in shown] + [a for _, a in shown], sizes), math.prod(sizes)


def shift_code(spec: ModelSpec, j: int, t: int, pcode, y, u):
    """Agent j's private codes at t+1 from its time-t private codes, its
    time-(t+1) observations y and time-t actions u: shed the oldest
    symbols once t >= n-1, then append y and, with n >= 2, u."""
    n, A, Y = spec.n, spec.act_sizes[j], spec.obs_sizes[j]
    la, la1 = private_act_len(n, t), private_act_len(n, t + 1)
    obs = pcode // A ** la % Y ** (private_obs_len(n, t + 1) - 1) * Y + y
    return obs * A ** la1 + (pcode % A ** la % A ** (la1 - 1) * A + u if la1 else 0)


def next_codes(spec: ModelSpec, k: int, t: int, codes, u, shown, y):
    """Agent k's time-(t+1) codes after its time-t codes, own actions u,
    the others' revealed index shown (`revealed`) and own observations y:
    once t+1 promotes, each agent's shared block gains its promoted
    symbols, agent k's own from its codes and u, the others' from shown."""
    n, P, K, sizes = spec.n, private_size(spec, k, t), spec.K, spec.obs_sizes + spec.act_sizes
    shared, own = codes // P, codes % P
    cut = shared_prefix_len(n, t)
    if shared_prefix_len(n, t + 1) > cut:
        o, a = promoted(spec, k, t, own, u)
        new = list(digits(shown, [s for i, s in enumerate(sizes) if i % K != k]))
        new.insert(k, o)
        new.insert(K + k, a)
        blocks = digits(shared, [s ** cut for s in sizes])
        shared = radix([b * s + d for b, s, d in zip(blocks, sizes, new)],
                       [s ** (cut + 1) for s in sizes])
    return shared * private_size(spec, k, t + 1) + shift_code(spec, k, t, own, y, u)


def newest_obs(spec: ModelSpec, k: int, t: int, codes):
    """Agent k's newest own observation, the one at t, at its time-t codes:
    the last private-observation digit, above the private actions."""
    return codes // spec.act_sizes[k] ** private_act_len(spec.n, t) % spec.obs_sizes[k]


# ---------------------------------------------------------------------------
# Text keys: the stable form of a realization in strategy files and reports,
# e.g. ``c(0/1;1/0)p(1/)`` for K=2, n=1, t=1, one `%` format of a code's digits.
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _key_format(K: int, n: int, t: int) -> tuple[str, list[int], re.Pattern]:
    """The format of a time-t key: per agent its shared observations '/'
    shared actions, then the private block, symbols joined by '-'; per
    placeholder, the index of the code digit it spells; and the pattern of
    keys spelled so, leading zeros allowed."""
    cut, lo, la = shared_prefix_len(n, t), private_obs_len(n, t), private_act_len(n, t)
    shared = "-".join(["%d"] * cut) + "/" + "-".join(["%d"] * cut)
    fmt = f"c({';'.join([shared] * K)})p({'-'.join(['%d'] * lo)}/{'-'.join(['%d'] * la)})"
    order = [(i * K + j) * cut + s for j in range(K) for i in (0, 1) for s in range(cut)]
    return (fmt, order + list(range(2 * K * cut, 2 * K * cut + lo + la)),
            re.compile(re.escape(fmt).replace("%d", "([0-9]+)")))


def realization_keys(spec: ModelSpec, k: int, t: int, codes) -> list[str]:
    """The text key of each of agent k's time-t codes, in order."""
    fmt, order, _ = _key_format(spec.K, spec.n, t)
    ds = digits(np.asarray(codes, dtype=np.int64), radices(spec, k, t))
    return [fmt % row for row in zip(*(ds[i].tolist() for i in order))]


def lambda_labels(spec: ModelSpec, k: int, t: int) -> list[str]:
    """The label of every lambda index at time t, in index order: the other
    agents' private blocks, in increasing agent order, joined by ';'; a
    private code is the code whose shared block is all zeros."""
    per_agent = [[key[key.index(")p(") + 3:-1] for key in realization_keys(
        spec, j, t, np.arange(private_size(spec, j, t)))] for j in other_agents(spec.K, k)]
    return [";".join(parts) for parts in itertools.product(*per_agent)]


def _parse_block(s: str) -> tuple[IntSeq, ...]:
    if s.count("/") != 1:
        raise ValueError(f"block {s!r} needs one '/' between observations and actions, "
                         f"found {s.count('/')}")
    out = []
    for name, seq in zip(("observation", "action"), s.split("/")):
        symbols = seq.split("-") if seq else []
        for i, v in enumerate(symbols):
            if not v.strip().removeprefix("+").isdecimal():  # what int() reads, but for '_'
                raise ValueError(f"block {s!r}: {name} symbol {i} is {v!r}; symbols are "
                                 "non-negative decimal integers joined by single '-'")
        out.append(tuple(map(int, symbols)))
    return tuple(out)


def _parse_key(key: str, spec: ModelSpec, k: int, t: int) -> list[int]:
    """The symbols of a key in the order it spells them; raises ValueError
    unless it names spec.K agents, fills the index windows and uses only
    symbols in each agent's alphabets."""
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
    return [d for ys, us in [*shared, own] for d in ys + us]


def parse_realization_keys(keys: list[str], spec: ModelSpec, k: int, t: int) -> np.ndarray:
    """The codes of agent k's time-t text keys, in key order. Raises
    ValueError naming the first key that does not name spec.K agents, fill
    the index windows and use only symbols in each agent's alphabets, or
    else the first not spelled as realization_keys spells its code."""
    _, order, pattern = _key_format(spec.K, spec.n, t)
    sizes, rows = [radices(spec, k, t)[i] for i in order], []
    for key in keys:
        row = list(map(int, match.groups())) if (match := pattern.fullmatch(key)) else None
        if row is None or any(map(operator.ge, row, sizes)):
            try:  # raises unless the key is well formed but misspelled
                row = _parse_key(key, spec, k, t)
            except ValueError as exc:
                raise ValueError(f"bad realization key {key!r}: {exc}") from None
        rows.append(row)
    codes = radix(np.array(rows, dtype=np.int64).reshape(len(keys), len(order))
                  [:, np.argsort(order)].T, radices(spec, k, t))
    for key, canonical in zip(keys, realization_keys(spec, k, t, codes)):
        if key != canonical:
            raise ValueError(f"bad realization key {key!r}: not the canonical spelling "
                             f"{canonical!r}")
    return codes
