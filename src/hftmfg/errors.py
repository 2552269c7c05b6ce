"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration file is malformed or violates an invariant."""


class SolverError(RuntimeError):
    """A numerical solve left its validity envelope (positivity, conditioning,
    residual tolerance, ...)."""


class SimulationError(RuntimeError):
    """A population simulation or deviation solve is ill-posed."""
