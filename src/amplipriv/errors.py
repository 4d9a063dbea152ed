"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Shapes of two objects that must agree do not agree."""


class UnsupportedMechanismError(ValueError):
    """An operation requires an MCAR or MAR mechanism and got something else."""


class DegenerateQueryError(ValueError):
    """Calibration refused: the query has zero sensitivity, noise would be meaningless."""


class BudgetRangeError(ValueError):
    """A privacy parameter is outside the range the guarantee is stated for."""


class SupportError(ValueError):
    """A density evaluated to zero (or a support was infinite) where positivity is required."""


class SchemaError(ValueError):
    """A scenario or mechanism spec file failed validation."""
