"""Exception types shared across the package, and the one per-key config check."""


class WeakdetError(Exception):
    """Base class for all package errors."""


class ShapeError(WeakdetError):
    """Operand dimensions do not agree."""


class NumericError(WeakdetError):
    """A forward value became NaN/Inf, or an input is outside an op's domain."""


class EmptyBagError(WeakdetError):
    """An operation received a bag with no proposals."""


class DegenerateInputError(WeakdetError):
    """Near-zero norm, zero variance, or another degenerate input."""


class ParameterError(WeakdetError):
    """A hyperparameter is outside its valid range."""


class UsageError(WeakdetError):
    """An API was called out of contract (e.g. backward on a non-scalar)."""


class ContractError(WeakdetError):
    """Inputs violate a documented cross-argument contract."""


class ConfigError(WeakdetError):
    """A configuration value or combination is invalid."""


def check_keys(values, rules) -> None:
    """Raise a ConfigError for the first key in ``values`` that fails its
    ``(rule, ok, names)`` row: the rule as the message states it, a predicate
    on one value, and the keys it covers. NaN, a wrong type and a wrong form
    (a TypeError or ValueError, such as a pair that does not unpack) fail."""
    for rule, ok, names in rules:
        for name in names:
            try:
                passed = ok(value := values[name])
            except (TypeError, ValueError):
                passed = False
            if not passed:
                raise ConfigError(f"{name} must be {rule}, got {value!r}")


class ParseError(WeakdetError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class CompatibilityError(WeakdetError):
    """A checkpoint and a dataset, or two splits, disagree on dimensions."""
