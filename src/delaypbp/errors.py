"""Exception types shared across the toolkit."""


class UnreachableError(ValueError):
    """A realization has probability zero under the relevant measure, so
    nothing can be conditioned on it: the value dominance check raises it
    for a realization that one side of its comparison does not reach.
    """


class IncompleteStrategyError(ValueError):
    """A strategy map was queried at a realization it does not cover."""


class ModelFormatError(ValueError):
    """A model or strategy file is malformed (bad shape, NaN/Inf, negatives)."""
