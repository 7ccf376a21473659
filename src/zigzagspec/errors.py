"""Exception hierarchy shared across the package.

Callers that want a single catch-all for numerical trouble can catch
ZigzagError; the command line front end maps these to exit code 2.
"""


class ZigzagError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ZigzagError, ValueError):
    """Invalid argument (non-finite input, sigma <= 0, beta <= 1, ...)."""


class IntegrationError(ZigzagError):
    """Adaptive quadrature failed; carries the offending location if known."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location

    def renamed(self, old: str, new: str, location):
        """A copy saying `new` where this says `old`, at `location`: a scaled model's error retold."""
        return type(self)(str(self).replace(old, new), location)


class TruncationError(IntegrationError):
    """A semi-infinite integral could not be truncated to tolerance."""


class NearZeroError(ZigzagError):
    """Z(gamma) is numerically zero where a logarithmic derivative was
    requested; the caller should treat gamma as a root."""

    def __init__(self, gamma, abs_z):
        super().__init__(f"|Z({gamma})| = {abs_z:.3e} is numerically zero")
        self.gamma = gamma
        self.abs_z = abs_z


class BoundaryProximityError(ZigzagError):
    """A zero sits (numerically) on a contour edge."""

    def __init__(self, edge, location):
        super().__init__(f"zero too close to contour edge {edge} near {location}")
        self.edge = edge
        self.location = location


class WindingError(ZigzagError):
    """The boundary integral refuses to settle near an integer."""


class UnresolvedClusterError(ZigzagError):
    """Subdivision hit the minimum box size with ambiguous winding count."""

    def __init__(self, message, box=None):
        super().__init__(message)
        self.box = box


class PolishFailureError(ZigzagError):
    """Newton refinement diverged from the initial guess."""


class NotAnEigenvalueError(ZigzagError):
    def __init__(self, gamma, abs_z, tol):
        super().__init__(
            f"gamma = {gamma} is not a root: |Z(gamma)| = {abs_z:.3e} > {tol:.1e}"
        )
        self.gamma = gamma
        self.abs_z = abs_z


class ResolventAtEigenvalueError(ZigzagError):
    def __init__(self, gamma, abs_z, tol):
        super().__init__(
            f"gamma = {gamma} lies in the spectrum (|Z| = {abs_z:.3e} <= {tol:.1e}); "
            "the resolvent is undefined there"
        )
        self.gamma = gamma
        self.abs_z = abs_z


class NonSimpleEigenvalueError(ZigzagError):
    def __init__(self, gamma, abs_dz):
        super().__init__(
            f"eigenvalue {gamma} is not (numerically) simple: |Z'(gamma)| = {abs_dz:.3e}"
        )
        self.gamma = gamma
        self.abs_dz = abs_dz


class GapUndeterminedError(ZigzagError):
    """Only the zero eigenvalue was found; the search region is too small."""


class SimulationError(ZigzagError):
    """Event-time construction failed: U overflows along a flight."""


class InsufficientHorizonError(ZigzagError):
    """Requested autocorrelation lag exceeds a tenth of the path horizon."""


class DegenerateObservableError(ZigzagError):
    """Observable has (numerically) zero variance along the path."""
