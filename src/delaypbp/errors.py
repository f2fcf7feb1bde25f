"""Exception types shared across the toolkit."""


class UnreachableError(ValueError):
    """A conditioning event (observation, realization, continuation) has
    probability zero under the relevant measure.

    Callers that sweep over candidate continuations treat this as "skip",
    never as a silent zero distribution.
    """


class IncompleteStrategyError(ValueError):
    """A strategy map was queried at a realization it does not cover."""


class ModelFormatError(ValueError):
    """A model or strategy file is malformed (bad shape, NaN/Inf, negatives)."""
