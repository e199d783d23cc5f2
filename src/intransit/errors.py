"""Exception hierarchy shared across the toolkit."""


class IntransitError(Exception):
    """Base class for all toolkit errors."""


class InstanceError(IntransitError):
    """Instance data violates a structural invariant."""


class SchemaError(InstanceError):
    """An input file does not conform to its expected schema."""


class ModelError(IntransitError):
    """A model was asked for in an unknown mode, or handed a solution of
    the wrong length."""


class SolverError(IntransitError):
    """Numerical breakdown inside a solver; never raised silently."""


class InfeasibleInstanceError(IntransitError):
    """The instance fails route validation: some pickup has no route that
    reaches the customer by its due day. Validation is stricter than the
    model, which may still be feasible when one pickup's early freight
    covers another's due day, but no model is built for such an instance."""
