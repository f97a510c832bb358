"""Exception types shared across the package."""


class DegenerateInputError(ValueError):
    """A signal or batch has no usable power (all-zero input, zero gain, ...)."""


class ConfigError(ValueError):
    """An experiment configuration field is missing, unknown or invalid."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite signal.

    Carries the zero-based epoch index at which divergence was detected and
    the name of the first non-finite signal ("x_f", "x_p", "alpha" or "loss").
    """

    def __init__(self, epoch: int, signal: str):
        self.epoch = epoch
        self.signal = signal
        super().__init__(f"non-finite {signal} at epoch {epoch}")
