"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration or scenario specification."""


class ShapeError(ValueError):
    """Tensor or parameter-manifest shape mismatch."""


class ProtocolError(RuntimeError):
    """Malformed message on the server/node channel."""


class HelperError(RuntimeError):
    """A forked worker process stopped before sending what its job owed: a
    node's round result, or a run's probe records and training artifacts."""
