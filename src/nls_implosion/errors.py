"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench-specific errors."""


class DomainError(WorkbenchError, ValueError):
    """Input outside the mathematically admissible range."""


class GridError(DomainError):
    """Profile grid refused: under two nodes, or none on a part of the orbit."""


class ConsistencyError(WorkbenchError):
    """Two independent evaluations of the same quantity disagree in sign.

    Signals precision loss; rerun at higher precision.
    """


class SonicCrossingError(WorkbenchError):
    """The integrated trajectory hit D_Z = 0 away from the sonic point."""


class BlowupError(WorkbenchError):
    """|W| or |Z| exceeded the configured bound (wrong branch selection)."""


class InsufficientRangeError(WorkbenchError, ValueError):
    """Fit window shorter than required."""


class WindowError(WorkbenchError, ValueError):
    """r below the configured near-r* window for a near-r* statement."""


class VacuumError(WorkbenchError, ValueError):
    """Phase undefined where |v| is below the vacuum floor."""


class RangeError(WorkbenchError, ValueError):
    """Requested radius range exceeds the available table coverage."""


class CFLError(WorkbenchError):
    """Requested time step violates the CFL/stiffness bound."""


class PositivityError(WorkbenchError):
    """Density lost positivity during a time step."""


class ResolutionError(WorkbenchError, ValueError):
    """Grid too coarse for the requested derivative order."""
