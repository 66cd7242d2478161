"""Exception hierarchy shared across the engine."""


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class InputError(EngineError):
    """Malformed model files, selectors, or argument combinations."""


class SizeGuardError(EngineError):
    """A construction would exceed the configured point-count guard."""


class StabilityError(EngineError):
    """An event list is not closed under pairwise intersection."""


class WeightError(EngineError):
    """A weight function annihilates every distribution of a model."""


class ExhaustionError(EngineError):
    """An exhaustion does not cover the parameter set it targets."""


class GridError(EngineError):
    """Parameter labels do not form the product grid a verifier needs."""


class NotSufficientError(EngineError):
    """An operation requiring a sufficient partition got an insufficient one."""


class GenerationError(EngineError):
    """The random-instance generator exhausted its retry budget."""


class CertificateError(EngineError):
    """A computed certificate failed its exact re-check (an engine defect)."""
