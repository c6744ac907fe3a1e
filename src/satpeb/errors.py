"""Exception types raised by the simulator."""


class SatPebError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SatPebError):
    """Invalid configuration; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class VisibilityError(SatPebError):
    """An anchor is below the UE's horizon."""


class DegenerateGeometryError(SatPebError):
    """Measurement geometry does not constrain the horizontal position."""


class StatisticsError(SatPebError):
    """No usable samples to summarize, or a usable one that is not finite."""
