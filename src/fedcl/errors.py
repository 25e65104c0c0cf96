"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration or scenario specification."""


class ShapeError(ValueError):
    """Tensor or parameter-manifest shape mismatch."""


class ProtocolError(RuntimeError):
    """Malformed message on the server/node channel."""


class HelperError(RuntimeError):
    """A worker process that trains a round's nodes stopped."""
