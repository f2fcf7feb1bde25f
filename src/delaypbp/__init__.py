"""Exact toolkit for finite decentralized POMDPs with delayed sharing.

Everything is desk-scale and enumeration-exact: models are finite tables,
beliefs are dense (state, other agents' private block) arrays, and
expectations are finite sums. The library computes each agent's
posterior over that extended state, solves the per-agent best-response
dynamic program on that posterior, iterates best responses toward a
person-by-person stationary profile, and cross-checks every step against
an independent trajectory-enumeration oracle. A realization of an agent's
information is an integer code (`info`), written out as a text key only in
strategy files and reports.
"""

# Every other name is imported from its module: delaypbp.model, delaypbp.cli, ...
from .model import ModelSpec

__version__ = "0.1.0"
