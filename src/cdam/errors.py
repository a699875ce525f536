"""Exception types shared across the package."""


class CdamError(Exception):
    """Every package error is a CdamError; its message names the cause."""


class NumericDivergenceError(CdamError):
    """Simulation state, or a readout of it, became non-finite."""

    def __init__(self, step: int, what: str):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step
