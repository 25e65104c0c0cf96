"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration or scenario specification."""


class ShapeError(ValueError):
    """Tensor or parameter-manifest shape mismatch."""


class ProtocolError(RuntimeError):
    """Malformed message on the server/node channel."""


class HelperError(RuntimeError):
    """The helper process that trains half of a round's nodes stopped."""
