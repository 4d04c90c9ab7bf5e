"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter lies outside its documented domain."""


class InsufficientDataError(ValueError):
    """Not enough observations to run a procedure."""


class MissingTypeError(ValueError):
    """A request type present in the ground truth has no sampled executions."""


class ScenarioError(ValueError):
    """A scenario file is malformed or violates a model invariant."""
