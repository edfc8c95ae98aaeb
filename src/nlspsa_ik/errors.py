"""Exception types shared across the package."""


class SolverFault(RuntimeError):
    """Raised when an optimization run produces a non-finite loss or iterate.

    ``iteration`` is the 1-based iteration index at which the fault occurred
    (0 if the fault happened before the first update).
    """

    def __init__(self, message: str, iteration: int = 0):
        super().__init__(message)
        self.iteration = iteration


class ScenarioError(ValueError):
    """Base class for problems with scenario definitions."""


class ScenarioLookupError(ScenarioError):
    """Unknown built-in scenario id. Carries the list of valid ids."""

    def __init__(self, scenario_id: str, valid_ids: tuple):
        super().__init__(
            f"unknown scenario {scenario_id!r}; valid ids: {', '.join(valid_ids)}"
        )
        self.scenario_id = scenario_id
        self.valid_ids = valid_ids


class ScenarioFormatError(ScenarioError):
    """A scenario file failed to parse or violated an invariant."""


class ArtifactError(ValueError):
    """A run artifact (CSV/JSON output file) is missing or corrupt."""
