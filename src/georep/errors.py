"""Exception types shared across the package."""


class GeorepError(Exception):
    """Base class for all errors raised by this package."""


class ProtocolError(GeorepError):
    """A caller violated an API contract (misaddressed batch, block
    misuse)."""


class ScenarioError(GeorepError):
    """A scenario file is malformed or references things that do not exist."""


class LivelockError(GeorepError):
    """The event loop exceeded its event budget without quiescing."""
