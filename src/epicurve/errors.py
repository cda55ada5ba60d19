"""Exception hierarchy shared across the package: each class's ``kind`` starts
the CLI's ``<kind> error: …`` line and its ``exit_code`` is the CLI's exit status."""


class EpicurveError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EpicurveError):
    """Invalid configuration or unknown column/feature reference."""
    kind, exit_code = "config", 2


class DataError(EpicurveError):
    """Malformed or inconsistent input data (parse errors, gaps, duplicates)."""
    kind, exit_code = "data", 3


class ComputationError(EpicurveError):
    """A computation cannot proceed (degenerate column, all-zero series, ...)."""
    kind, exit_code = "computation", 4
