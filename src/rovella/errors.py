"""Exception types shared across the toolkit."""


class RovellaError(Exception):
    """Base class for all toolkit errors."""


class DomainError(RovellaError):
    """Evaluation at the singularity x = 0, outside [-1, 1], or |t| > eps_max."""


class DeltaTooLarge(RovellaError):
    """Requested critical-value neighborhood exits the branch image."""


class SingularHit(RovellaError):
    """An orbit rounded exactly onto the singularity."""


class CapExceeded(RovellaError):
    """Branch refinement depth beyond the configured cap."""


class ParamError(RovellaError):
    """Constant ordering required by a combinatorial lemma is violated."""


class InvalidState(RovellaError):
    """Tower state inconsistent with the partition it refers to."""


class InsufficientData(RovellaError):
    """Too few usable points for a fit."""


class ValidationError(RovellaError):
    """Experiment configuration violates a constraint chain."""
